"""Elementary optical elements and the kernel that applies them to a matrix.

An element is one of three frozen dataclasses: a phase shifter on a single
mode, a beam splitter (real rotation ``[[cos t, sin t], [-sin t, cos t]]``)
between two modes, or a two-mode squeezer with gain ``cosh(xi)``.  A circuit
is an ordered element list applied first-to-last; the corresponding matrix
product therefore runs last-to-first.

The 2N x 2N scattering matrix of a circuit acts on the operator vector
``(a_1 .. a_N, a_1^dag .. a_N^dag)``: mode ``p`` couples to row/column ``p``
(annihilation) and ``p + N`` (creation).  Mode indices are 0-based.  It has
the form ``[[A, B], [B*, A*]]``, so only the ``N x 2N`` top half ``[A, B]`` is
multiplied out; the bottom half is its conjugate with the halves swapped.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

XI_MAX = 50.0  # the largest |xi| of a squeezer; cosh(XI_MAX) ~ 2.6e21 is the gain ceiling


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
        if not abs(self.xi) <= XI_MAX:
            raise ValueError(f"squeezer xi {self.xi} exceeds the ceiling {XI_MAX}")


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


def _apply(s: np.ndarray, e: Element) -> None:
    """Left-multiply the top half ``[A, B]`` of ``S`` (one row per mode) by ``e`` in place.

    Only the element's rows change; a squeezer reads its partner rows ``p + N``
    as its top rows conjugated with halves swapped.  Callers check the element
    list once: modes in range, and no squeezer on an ``N x N`` passive product.
    """
    if isinstance(e, PhaseShifter):
        s[e.mode] *= cmath.exp(1j * e.phi)
    elif isinstance(e, BeamSplitter):
        a, b, c, sn = e.mode_a, e.mode_b, math.cos(e.theta), math.sin(e.theta)
        s[a], s[b] = c * s[a] + sn * s[b], -sn * s[a] + c * s[b]
    else:
        rows = [e.mode_a, e.mode_b]
        partners = np.roll(s[rows[::-1]].conj(), s.shape[0], axis=1)
        s[rows] = math.cosh(e.xi) * s[rows] + math.sinh(e.xi) * partners


def circuit_smatrix(c: Circuit) -> np.ndarray:
    """2N x 2N scattering matrix of the circuit: its elements applied in order to the top half."""
    top = np.eye(c.n_modes, 2 * c.n_modes, dtype=complex)
    for e in c.elements:
        _apply(top, e)
    return np.vstack((top, np.roll(top.conj(), c.n_modes, axis=1)))


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
