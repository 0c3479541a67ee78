"""Elementary optical elements and the kernel that applies them to a matrix.

An element is a phase shifter on a single mode, a beam splitter (real
rotation ``[[cos t, sin t], [-sin t, cos t]]``) between two modes, or a
two-mode squeezer with gain ``cosh(xi)``.  A circuit stores its elements as
parallel columns (:class:`Elements`: kind, two modes and an angle per
element), applied first-to-last; the corresponding matrix product therefore
runs last-to-first.  The three slotted frozen dataclasses are the vocabulary
for circuits built by hand: a circuit converts them to columns once, and
indexing or iterating the columns yields them again, built on demand.

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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .numkit import json_float, json_int

XI_MAX = 50.0  # the largest |xi| of a squeezer; cosh(XI_MAX) ~ 2.6e21 is the gain ceiling


@dataclass(frozen=True, slots=True)
class PhaseShifter:
    mode: int
    phi: float


@dataclass(frozen=True, slots=True)
class BeamSplitter:
    mode_a: int
    mode_b: int
    theta: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter modes must be distinct")


@dataclass(frozen=True, slots=True)
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


PS, BS, TMS = 0, 1, 2  # the codes of the kind column


def _row(e: Element) -> tuple:
    """``(kind, mode_a, mode_b, angle)`` of one element, as plain Python numbers."""
    if isinstance(e, PhaseShifter):
        return PS, operator.index(e.mode), operator.index(e.mode), float(e.phi)
    kind, angle = (BS, e.theta) if isinstance(e, BeamSplitter) else (TMS, e.xi)
    return kind, operator.index(e.mode_a), operator.index(e.mode_b), float(angle)


def _element(kind: int, a: int, b: int, angle: float) -> Element:
    return PhaseShifter(a, angle) if kind == PS else (BeamSplitter if kind == BS else TwoModeSqueezer)(a, b, angle)


class Elements(Sequence):
    """A circuit's elements, first applied first, as four parallel tuple columns.

    ``kind`` holds ``PS``, ``BS`` or ``TMS``; ``mode_a`` and ``mode_b`` the modes (a phase shifter
    repeats its mode in ``mode_b``); ``angle`` the phi, theta or xi.  An index or an iteration yields
    the element dataclasses, built on demand; a slice is ``Elements``.  It equals another
    ``Elements`` with the same columns, or a list or tuple of the same elements.
    """

    __slots__ = ("kind", "mode_a", "mode_b", "angle")

    def __init__(self, kind=(), mode_a=(), mode_b=(), angle=()):
        self.kind, self.mode_a, self.mode_b, self.angle = map(tuple, (kind, mode_a, mode_b, angle))

    @classmethod
    def of(cls, elements) -> Elements:
        """The columns of an iterable of element dataclasses; ``Elements`` come back as they are."""
        return elements if isinstance(elements, cls) else cls(*zip(*map(_row, elements)))

    @classmethod
    def join(cls, *parts) -> Elements:
        """The parts (each ``Elements`` or element dataclasses) one after another."""
        return cls(*(sum(column, ()) for column in zip(*(cls.of(p).columns for p in parts))))

    @property
    def columns(self) -> tuple:
        return self.kind, self.mode_a, self.mode_b, self.angle

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        row = [column[i] for column in self.columns]
        return Elements(*row) if isinstance(i, slice) else _element(*row)

    def __iter__(self):
        return map(_element, *self.columns)

    def __eq__(self, other):
        if isinstance(other, Elements):
            return self.columns == other.columns
        return list(self) == list(other) if isinstance(other, (list, tuple)) else NotImplemented

    def __repr__(self) -> str:
        return f"Elements({list(self)!r})"


@dataclass(frozen=True)
class Circuit:
    """Elements (given as :class:`Elements` or element dataclasses) plus mode bookkeeping.

    ``n_modes`` counts every mode including ancillas; the first ``n_nominal``
    are the nominal ones.  ``ancilla_inputs`` / ``ancilla_outputs`` are the
    padding modes introduced to square up a non-square transformation (they
    live inside the nominal range), while ``full_ancillas`` are the
    vacuum-initialized modes present through the whole network, one per
    singular value different from 1.
    """

    n_modes: int
    n_nominal: int
    elements: Elements = ()
    ancilla_inputs: tuple[int, ...] = ()
    ancilla_outputs: tuple[int, ...] = ()
    full_ancillas: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", Elements.of(self.elements))
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
    """Raise ValueError, naming the first offender, unless every element's modes lie in ``0..n_modes-1``."""
    e = Elements.of(elements)
    modes = e.mode_a + e.mode_b
    if modes and not 0 <= min(modes) <= max(modes) < n_modes:
        first = min(i % len(e) for i, m in enumerate(modes) if not 0 <= m < n_modes)
        raise ValueError(f"element {e[first]} references a mode outside 0..{n_modes - 1}")


def _apply(s: np.ndarray, kind: int, a: int, b: int, angle: float) -> None:
    """Left-multiply the top half ``[A, B]`` of ``S`` (one row per mode) by one element in place.

    Only the element's rows change; a squeezer reads its partner rows ``p + N``
    as its top rows conjugated with halves swapped.  Callers check the elements
    once: modes in range, and no squeezer on an ``N x N`` passive product.
    """
    if kind == PS:
        s[a] *= cmath.exp(1j * angle)
    elif kind == BS:
        c, sn = math.cos(angle), math.sin(angle)
        row_a, row_b = s[a], s[b]
        new_a = c * row_a + sn * row_b
        row_b *= c
        row_b += -sn * row_a  # = -sn * a + c * b: IEEE addition commutes exactly
        row_a[...] = new_a
    else:
        n = s.shape[0]
        rows = [a, b]
        flipped = s[rows[::-1]].conj()
        partners = np.concatenate((flipped[:, n:], flipped[:, :n]), axis=1)
        s[rows] = math.cosh(angle) * s[rows] + math.sinh(angle) * partners


def circuit_smatrix(c: Circuit) -> np.ndarray:
    """2N x 2N scattering matrix of the circuit: its elements applied in order to the top half."""
    top = np.eye(c.n_modes, 2 * c.n_modes, dtype=complex)
    for kind, a, b, angle in zip(*c.elements.columns):
        _apply(top, kind, a, b, angle)
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


def element_to_json(e) -> dict:
    """One element's JSON object; ``e`` is an element dataclass or its ``(kind, mode_a, mode_b, angle)``."""
    kind, a, b, angle = e if isinstance(e, tuple) else _row(e)
    if kind == PS:
        return {"type": "ps", "mode": a, "phi": angle}
    if kind == BS:
        return {"type": "bs", "modes": [a, b], "theta": angle}
    return {"type": "tms", "modes": [a, b], "xi": angle}


def element_from_json(obj) -> Element:
    """Decode one element; modes must be JSON integers and angles finite JSON numbers."""
    try:
        kind = obj["type"]
        if kind == "ps":
            return PhaseShifter(mode=json_int(obj["mode"], "mode"), phi=json_float(obj["phi"]))
        if kind in ("bs", "tms"):
            a, b = (json_int(x, "modes") for x in obj["modes"])
            if kind == "bs":
                return BeamSplitter(mode_a=a, mode_b=b, theta=json_float(obj["theta"]))
            return TwoModeSqueezer(mode_a=a, mode_b=b, xi=json_float(obj["xi"]))
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
        "elements": [element_to_json(row) for row in zip(*c.elements.columns)],
    }


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def circuit_from_json(obj) -> Circuit:
    """Decode a netlist; counts and indices must be JSON integers and every list a JSON list."""
    try:
        return Circuit(
            n_modes=json_int(obj["n_modes"], "n_modes"),
            n_nominal=json_int(obj["n_nominal"], "n_nominal"),
            elements=tuple(element_from_json(e) for e in _list(obj["elements"])),
            **{key: tuple(json_int(i, key) for i in _list(obj.get(key, [])))
               for key in ("ancilla_inputs", "ancilla_outputs", "full_ancillas")},
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed netlist JSON: {exc}") from exc
