"""Every public top-level function or class in ``src/qsynth`` has a caller in ``src/``.

A public name that only the tests use is surface to maintain with no product
behind it: move it into ``tests/oracles.py`` or delete it.  References inside
the definition's own body and ``__init__``'s re-exports do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qsynth"

# perfbench/workloads.py calls apps.povm_probabilities, and perfbench changes
# only together with the benchmark, so moving it into the oracles waits for that.
ALLOWED = {"apps.povm_probabilities"}


def _references(tree: ast.AST, skip: ast.AST | None = None):
    """Names and attribute names used in ``tree``, outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def unreferenced_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    trees.pop("__init__")
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = any(
                node.name in _references(other, skip=node if other is tree else None) for other in trees.values()
            )
            if not used:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_in_src():
    assert set(unreferenced_public_names()) <= ALLOWED
