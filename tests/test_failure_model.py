"""Every exception class in ``src/qsynth`` maps to one CLI exit code.

``cli.ParseFailure`` exits 2, ``SynthesisError`` (a failed check of qsynth's
own work) exits 3, and a domain error exits 4 as a ``ValueError``.  Any other
exception class would need its own ``except`` in ``cli.main`` or escape it as
a traceback, so it must derive from ``ValueError``.  Each class name is
defined once.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qsynth"

OWN_TYPES = {"SynthesisError", "ParseFailure"}


def _top_level_classes() -> list[tuple[str, list[str]]]:
    """``(name, base names)`` of every top-level class in ``src/qsynth``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]
                out.append((node.name, bases))
    return out


CLASSES = _top_level_classes()
BASES = dict(CLASSES)


def derives(name: str, root: type) -> bool:
    """Whether class ``name``, a builtin or one defined in ``src/qsynth``, derives from ``root``."""
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type):
        return issubclass(builtin, root)
    return any(derives(base, root) for base in BASES.get(name, ()))


EXCEPTIONS = [name for name, _ in CLASSES if derives(name, BaseException)]


def test_every_exception_is_a_value_error_or_one_of_the_cli_types():
    assert [name for name in EXCEPTIONS if name not in OWN_TYPES and not derives(name, ValueError)] == []


def test_every_exception_class_is_defined_once():
    assert sorted(EXCEPTIONS) == sorted(set(EXCEPTIONS))
    assert OWN_TYPES <= set(EXCEPTIONS)
