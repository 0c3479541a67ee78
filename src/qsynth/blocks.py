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
        for e in self.elements:
            if any(not (0 <= m < self.n_modes) for m in element_modes(e)):
                raise ValueError(f"element {e} references a mode >= n_modes = {self.n_modes}")


def apply_element(s: np.ndarray, e: Element, n_modes: int) -> np.ndarray:
    """Left-multiply ``s`` (2N rows, or N rows for a passive network) by ``e`` in place.

    Only the rows of the element's modes change, plus their creation partners
    ``p + N`` when ``s`` has 2N rows; a squeezer needs those partners.
    """
    _check_modes(e, n_modes)
    n = n_modes
    if s.shape[0] not in (n, 2 * n):
        raise ValueError(f"matrix has {s.shape[0]} rows, expected {n} or {2 * n}")
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
    elif not lifted:
        raise ValueError("a two-mode squeezer has no single-particle unitary")
    else:
        ch, sh = math.cosh(e.xi), math.sinh(e.xi)
        _mix_rows(s, e.mode_a, e.mode_b + n, ch, sh, sh, ch)
        _mix_rows(s, e.mode_b, e.mode_a + n, ch, sh, sh, ch)
    return s


def _mix_rows(s: np.ndarray, i: int, j: int, m00: float, m01: float, m10: float, m11: float) -> None:
    """Replace rows ``i, j`` of ``s`` by ``[[m00, m01], [m10, m11]]`` times them."""
    s[i], s[j] = m00 * s[i] + m01 * s[j], m10 * s[i] + m11 * s[j]


def circuit_smatrix(c: Circuit) -> np.ndarray:
    """2N x 2N scattering matrix of the circuit: its elements applied in order."""
    s = np.eye(2 * c.n_modes, dtype=complex)
    for e in c.elements:
        apply_element(s, e, c.n_modes)
    return s


def _check_modes(e: Element, n_modes: int) -> None:
    if any(not (0 <= m < n_modes) for m in element_modes(e)):
        raise ValueError(f"element {e} references a mode outside 0..{n_modes - 1}")


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


def element_from_json(obj) -> Element:
    try:
        kind = obj["type"]
        if kind == "ps":
            return PhaseShifter(mode=int(obj["mode"]), phi=float(obj["phi"]))
        if kind == "bs":
            a, b = obj["modes"]
            return BeamSplitter(mode_a=int(a), mode_b=int(b), theta=float(obj["theta"]))
        if kind == "tms":
            a, b = obj["modes"]
            return TwoModeSqueezer(mode_a=int(a), mode_b=int(b), xi=float(obj["xi"]))
    except (TypeError, KeyError, ValueError) as exc:
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


def circuit_from_json(obj) -> Circuit:
    try:
        return Circuit(
            n_modes=int(obj["n_modes"]),
            n_nominal=int(obj["n_nominal"]),
            elements=tuple(element_from_json(e) for e in obj["elements"]),
            ancilla_inputs=tuple(int(i) for i in obj.get("ancilla_inputs", [])),
            ancilla_outputs=tuple(int(i) for i in obj.get("ancilla_outputs", [])),
            full_ancillas=tuple(int(i) for i in obj.get("full_ancillas", [])),
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed netlist JSON: {exc}") from exc
