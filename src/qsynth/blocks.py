"""Elementary optical elements and the kernel that applies them to a matrix.

An element is one of three frozen dataclasses: a phase shifter on a single
mode, a beam splitter (real rotation ``[[cos t, sin t], [-sin t, cos t]]``)
between two modes, or a two-mode squeezer with gain ``cosh(xi)``.  A circuit
is an ordered element list applied first-to-last; the corresponding matrix
product therefore runs last-to-first.

The 2N x 2N scattering matrix of a circuit acts on the operator vector
``(a_1 .. a_N, a_1^dag .. a_N^dag)``: mode ``p`` couples to row/column ``p``
(annihilation) and ``p + N`` (creation).  Mode indices are 0-based.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    phi: float


@dataclass(frozen=True)
class BeamSplitter:
    mode_a: int
    mode_b: int
    theta: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter modes must be distinct")


@dataclass(frozen=True)
class TwoModeSqueezer:
    mode_a: int
    mode_b: int
    xi: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("squeezer modes must be distinct")


Element = Union[PhaseShifter, BeamSplitter, TwoModeSqueezer]


def element_modes(e: Element) -> tuple[int, ...]:
    if isinstance(e, PhaseShifter):
        return (e.mode,)
    return (e.mode_a, e.mode_b)


@dataclass(frozen=True)
class Circuit:
    """Ordered element list plus mode bookkeeping.

    ``n_modes`` counts every mode including ancillas; the first ``n_nominal``
    are the nominal ones.  ``ancilla_inputs`` / ``ancilla_outputs`` are the
    padding modes introduced to square up a non-square transformation (they
    live inside the nominal range), while ``full_ancillas`` are the
    vacuum-initialized modes present through the whole network, one per
    singular value different from 1.
    """

    n_modes: int
    n_nominal: int
    elements: tuple[Element, ...] = ()
    ancilla_inputs: tuple[int, ...] = ()
    ancilla_outputs: tuple[int, ...] = ()
    full_ancillas: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "ancilla_inputs", tuple(self.ancilla_inputs))
        object.__setattr__(self, "ancilla_outputs", tuple(self.ancilla_outputs))
        object.__setattr__(self, "full_ancillas", tuple(self.full_ancillas))
        if not (0 < self.n_nominal <= self.n_modes):
            raise ValueError(f"need 0 < n_nominal <= n_modes, got {self.n_nominal}, {self.n_modes}")
        pad = set(self.ancilla_inputs) | set(self.ancilla_outputs)
        full = set(self.full_ancillas)
        if set(self.ancilla_inputs) & set(self.ancilla_outputs) or pad & full:
            raise ValueError("ancilla index sets must be pairwise disjoint")
        if any(not (0 <= i < self.n_nominal) for i in pad):
            raise ValueError("padding ancillas must lie inside the nominal range")
        if any(not (self.n_nominal <= i < self.n_modes) for i in full):
            raise ValueError("full ancillas must lie above the nominal range")
        check_modes(self.elements, self.n_modes)


def check_modes(elements, n_modes: int) -> None:
    """Raise ValueError unless every element's modes lie in ``0..n_modes-1``."""
    for e in elements:
        if any(not (0 <= m < n_modes) for m in element_modes(e)):
            raise ValueError(f"element {e} references a mode outside 0..{n_modes - 1}")


def _apply(s: np.ndarray, e: Element, n_modes: int) -> None:
    """Left-multiply ``s`` (2N rows, or N rows for a passive network) by ``e`` in place.

    Only the rows of the element's modes change, plus their creation partners
    ``p + N`` when ``s`` has 2N rows; a squeezer needs those partners.  Callers
    check the element list once: modes in range, and no squeezer on N rows.
    """
    n = n_modes
    lifted = s.shape[0] == 2 * n
    if isinstance(e, PhaseShifter):
        rot = cmath.exp(1j * e.phi)
        s[e.mode] *= rot
        if lifted:
            s[e.mode + n] *= rot.conjugate()
    elif isinstance(e, BeamSplitter):
        c, sn = math.cos(e.theta), math.sin(e.theta)
        _mix_rows(s, e.mode_a, e.mode_b, c, sn, -sn, c)
        if lifted:
            _mix_rows(s, e.mode_a + n, e.mode_b + n, c, sn, -sn, c)
    else:
        ch, sh = math.cosh(e.xi), math.sinh(e.xi)
        _mix_rows(s, e.mode_a, e.mode_b + n, ch, sh, sh, ch)
        _mix_rows(s, e.mode_b, e.mode_a + n, ch, sh, sh, ch)


def _mix_rows(s: np.ndarray, i: int, j: int, m00: float, m01: float, m10: float, m11: float) -> None:
    """Replace rows ``i, j`` of ``s`` by ``[[m00, m01], [m10, m11]]`` times them."""
    s[i], s[j] = m00 * s[i] + m01 * s[j], m10 * s[i] + m11 * s[j]


def circuit_smatrix(c: Circuit) -> np.ndarray:
    """2N x 2N scattering matrix of the circuit: its elements applied in order."""
    s = np.eye(2 * c.n_modes, dtype=complex)
    for e in c.elements:
        _apply(s, e, c.n_modes)
    return s


# --- netlist JSON -----------------------------------------------------------
#
# { "n_modes": int, "n_nominal": int, "ancilla_inputs": [int],
#   "ancilla_outputs": [int], "full_ancillas": [int],
#   "elements": [ {"type": "ps", "mode": i, "phi": x}
#               | {"type": "bs", "modes": [i, j], "theta": x}
#               | {"type": "tms", "modes": [i, j], "xi": x} ] }
#
# Elements apply in array order.  Mode indices are 0-based.

SCHEMA = "qsynth/1"


def element_to_json(e: Element) -> dict:
    if isinstance(e, PhaseShifter):
        return {"type": "ps", "mode": e.mode, "phi": e.phi}
    if isinstance(e, BeamSplitter):
        return {"type": "bs", "modes": [e.mode_a, e.mode_b], "theta": e.theta}
    return {"type": "tms", "modes": [e.mode_a, e.mode_b], "xi": e.xi}


def _finite(x) -> float:
    """A finite JSON number as a float; anything else raises ValueError."""
    # math.isfinite raises OverflowError for an int beyond the float range.
    if not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x!r}")
    return float(x)


def element_from_json(obj) -> Element:
    """Decode one element; modes must be JSON integers and angles finite JSON numbers."""
    try:
        kind = obj["type"]
        if kind == "ps":
            return PhaseShifter(mode=operator.index(obj["mode"]), phi=_finite(obj["phi"]))
        if kind in ("bs", "tms"):
            a, b = map(operator.index, obj["modes"])
            if kind == "bs":
                return BeamSplitter(mode_a=a, mode_b=b, theta=_finite(obj["theta"]))
            return TwoModeSqueezer(mode_a=a, mode_b=b, xi=_finite(obj["xi"]))
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed element JSON {obj!r}: {exc}") from exc
    raise ValueError(f"unknown element type {kind!r}")


def circuit_to_json(c: Circuit) -> dict:
    return {
        "schema": SCHEMA,
        "n_modes": c.n_modes,
        "n_nominal": c.n_nominal,
        "ancilla_inputs": list(c.ancilla_inputs),
        "ancilla_outputs": list(c.ancilla_outputs),
        "full_ancillas": list(c.full_ancillas),
        "elements": [element_to_json(e) for e in c.elements],
    }


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def circuit_from_json(obj) -> Circuit:
    """Decode a netlist; counts and indices must be JSON integers and every list a JSON list."""
    try:
        return Circuit(
            n_modes=operator.index(obj["n_modes"]),
            n_nominal=operator.index(obj["n_nominal"]),
            elements=tuple(element_from_json(e) for e in _list(obj["elements"])),
            ancilla_inputs=tuple(map(operator.index, _list(obj.get("ancilla_inputs", [])))),
            ancilla_outputs=tuple(map(operator.index, _list(obj.get("ancilla_outputs", [])))),
            full_ancillas=tuple(map(operator.index, _list(obj.get("full_ancillas", [])))),
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed netlist JSON: {exc}") from exc
