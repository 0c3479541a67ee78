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
A phase shifter costs no numpy call: each mode's phases wait, as one Python
complex, for the next beam splitter or squeezer on that mode, which takes
them into its one 2x2 matmul on the two rows; phases still pending at the
end scale their rows in one multiply.
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


_WELL_FORMED = {(PS, True), (BS, False), (TMS, False)}  # (kind, mode_a == mode_b) of each element type


def check_modes(elements, n_modes: int) -> None:
    """Raise ValueError, naming the first offender, unless every element keeps the element rules.

    The rules: a kind code ``PS``, ``BS`` or ``TMS``; modes in ``0..n_modes-1``; a phase shifter
    repeats its mode in ``mode_b``; a beam splitter's or squeezer's modes differ; a squeezer's
    ``|xi| <= XI_MAX``.  Whole columns are tested; elements are looked at one by one only on failure.
    """
    e = Elements.of(elements)
    modes = e.mode_a + e.mode_b
    if (not modes or 0 <= min(modes) <= max(modes) < n_modes
            and set(zip(e.kind, map(operator.eq, e.mode_a, e.mode_b))) <= _WELL_FORMED
            and (TMS not in e.kind or all(abs(xi) <= XI_MAX for k, xi in zip(e.kind, e.angle) if k == TMS))):
        return
    for i, row in enumerate(zip(*e.columns)):
        kind, a, b, _ = row
        try:
            if kind not in (PS, BS, TMS):
                raise ValueError(f"unknown kind code {kind!r}")
            if kind == PS and a != b:
                raise ValueError("a phase shifter must repeat its mode in mode_b")
            element = _element(*row)
        except ValueError as exc:
            raise ValueError(f"element {i} (kind, mode_a, mode_b, angle) = {row}: {exc}") from None
        if not (0 <= a < n_modes and 0 <= b < n_modes):
            raise ValueError(f"element {element} references a mode outside 0..{n_modes - 1}")


def _squeeze(rows: np.ndarray, xi: float) -> None:
    """Left-multiply rows ``a, b`` (a ``2 x 2N`` view of the top half) by a squeezer on modes ``a, b`` in place.

    Each row mixes with the other's partner row ``p + N``, read as that top row
    conjugated with its halves swapped.
    """
    n = rows.shape[1] // 2
    flipped = rows[::-1].conj()
    partners = np.concatenate((flipped[:, n:], flipped[:, :n]), axis=1)
    rows[...] = math.cosh(xi) * rows + math.sinh(xi) * partners


def circuit_smatrix(c: Circuit) -> np.ndarray:
    """2N x 2N scattering matrix of the circuit: its elements applied in order to the top half.

    A beam splitter's 2x2 matrix is its rotation times the phases pending on its
    modes; a squeezer's is those phases alone, and its own step follows.
    """
    n = c.n_modes
    s = np.eye(2 * n, dtype=complex)
    top = s[:n]
    phase = [1.0] * n
    coefficients, steps = [], []
    for kind, a, b, angle in zip(*c.elements.columns):
        if kind == PS:
            phase[a] *= cmath.exp(1j * angle)
            continue
        pa, pb = phase[a], phase[b]
        phase[a] = phase[b] = 1.0
        if kind == BS:
            cs, sn = math.cos(angle), math.sin(angle)
            coefficients += (cs * pa, sn * pb, -sn * pa, cs * pb)
        else:
            coefficients += (pa, 0.0, 0.0, pb)
        # rows a then b; with a > b the slice runs backwards, to the start when b == 0
        rows = slice(a, b + 1, b - a) if a < b else slice(a, b - 1 if b else None, b - a)
        steps.append((rows, angle if kind == TMS else None))
    matrices = np.array(coefficients, dtype=complex).reshape(-1, 2, 2)
    for (rows, xi), matrix in zip(steps, matrices):
        view = top[rows]
        view[...] = matrix @ view
        if xi is not None:
            _squeeze(view, xi)
    top *= np.array(phase)[:, None]
    np.conjugate(top[:, n:], out=s[n:, :n])
    np.conjugate(top[:, :n], out=s[n:, n:])
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
