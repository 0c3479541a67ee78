"""Every exception class in ``src/qsynth`` maps to one CLI exit code.

``cli.ParseFailure`` exits 2, ``SynthesisError`` (a failed check of qsynth's
own work) exits 3, and a domain error exits 4 as a ``ValueError``.  Any other
exception class would need its own ``except`` in ``cli.main`` or escape it as
a traceback, so it must derive from ``ValueError``.  Each class name is
defined once.  A NaN ``tol`` fails every check instead of passing it.
"""

import ast
import builtins
import math
from pathlib import Path

import numpy as np
import pytest

from qsynth.apps import RankOnePovm, cz_gate_target, naimark_extension, verify_cz
from qsynth.closedform2x2 import analytic_synthesize
from qsynth.mesh import reck_decompose
from qsynth.sim import fock_evolve, passive_block
from qsynth.synth import couplings, factor_mesh, synthesize, verified

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


NAN = math.nan
ACTIVE = np.diag([2.0, 1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

NAN_TOL_CALLS = {
    "reck_decompose": lambda: reck_decompose(ACTIVE, NAN),
    "passive_block": lambda: passive_block(synthesize(np.diag([2.0])).top, NAN),
    "fock_evolve": lambda: fock_evolve(ACTIVE, (1, 0), NAN),
    "naimark_extension": lambda: naimark_extension(RankOnePovm.from_vectors([[1.0, 0.0], [0.0, 0.5]]), NAN),
    "from_operators": lambda: RankOnePovm.from_operators([np.eye(2)], NAN),
    "verify_cz": lambda: verify_cz(synthesize(cz_gate_target()), NAN),
    "verified": lambda: verified(HADAMARD, (1.0, 1.0), (), reck_decompose(HADAMARD), NAN),
    "synthesize": lambda: synthesize(HADAMARD, NAN),
    "analytic_synthesize": lambda: analytic_synthesize(HADAMARD, NAN),
    "couplings": lambda: couplings((1.0, 0.5), NAN, 2),
    "factor_mesh": lambda: factor_mesh("factor U", HADAMARD, NAN),
}


@pytest.mark.parametrize("call", NAN_TOL_CALLS.values(), ids=NAN_TOL_CALLS)
def test_a_nan_tol_fails_the_check(call):
    # Each check passed at "deviation > tol", which is False for every deviation when tol is NaN;
    # numkit.check_tol refuses the tol itself before any check can be misread.
    with pytest.raises(ValueError, match=r"^tol must be positive and below 1, got nan$"):
        call()
