"""Elementary optical elements and the kernel that applies them to a matrix.

An element is a phase shifter on a single mode, a beam splitter (real
rotation ``[[cos t, sin t], [-sin t, cos t]]``) between two modes, or a
two-mode squeezer with gain ``cosh(xi)``.  It is the row ``(kind, mode_a,
mode_b, angle)``: a kind code ``PS``, ``BS`` or ``TMS``, its modes (a phase
shifter repeats its mode in ``mode_b``) and its phi, theta or xi.  A circuit
stores its elements as parallel columns (:class:`Elements`), applied
first-to-last; the corresponding matrix product therefore runs last-to-first.
The element rules live in one row check, which the JSON decoder and
:func:`check_modes` share.

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

import numpy as np

from .numkit import json_float, json_int

XI_MAX = 50.0  # the largest |xi| of a squeezer; cosh(XI_MAX) ~ 2.6e21 is the gain ceiling
PS, BS, TMS = 0, 1, 2  # the codes of the kind column


def _check_row(kind, a, b, angle) -> None:
    """Raise ValueError unless the row ``(kind, mode_a, mode_b, angle)`` keeps the element rules: a kind
    code ``PS``, ``BS`` or ``TMS``; a phase shifter repeats its mode; a beam splitter's or squeezer's
    modes differ; a squeezer's ``|xi| <= XI_MAX``; every angle is finite (checked last, so a non-finite
    xi reads as over the ceiling)."""
    if kind == PS:
        if a != b:
            raise ValueError("a phase shifter must repeat its mode in mode_b")
    elif kind == BS or kind == TMS:
        if a == b:
            raise ValueError("beam splitter modes must be distinct" if kind == BS else "squeezer modes must be distinct")
        if kind == TMS and not abs(angle) <= XI_MAX:
            raise ValueError(f"squeezer xi {angle} exceeds the ceiling {XI_MAX}")
    else:
        raise ValueError(f"unknown kind code {kind!r}")
    if not math.isfinite(angle):
        raise ValueError(f"angle {angle} is not finite")


class Elements(Sequence):
    """A circuit's elements, first applied first, as four parallel tuple columns.

    ``kind`` holds ``PS``, ``BS`` or ``TMS``; ``mode_a`` and ``mode_b`` the modes (a phase shifter
    repeats its mode in ``mode_b``); ``angle`` the phi, theta or xi.  An index or an iteration yields
    the ``(kind, mode_a, mode_b, angle)`` row; a slice is ``Elements``.  It equals another
    ``Elements`` with the same columns, or a list or tuple of the same rows.
    """

    __slots__ = ("kind", "mode_a", "mode_b", "angle")

    def __init__(self, kind=(), mode_a=(), mode_b=(), angle=()):
        self.kind, self.mode_a, self.mode_b, self.angle = map(tuple, (kind, mode_a, mode_b, angle))

    @classmethod
    def of(cls, elements) -> Elements:
        """The columns of an iterable of ``(kind, mode_a, mode_b, angle)`` rows, as plain Python ints and
        floats; ``Elements`` come back as they are."""
        if isinstance(elements, cls):
            return elements
        index = operator.index
        return cls(*zip(*((index(kind), index(a), index(b), float(angle)) for kind, a, b, angle in elements)))

    @classmethod
    def join(cls, *parts) -> Elements:
        """The parts (each ``Elements`` or rows) one after another."""
        return cls(*(sum(column, ()) for column in zip(*(cls.of(p).columns for p in parts))))

    @property
    def columns(self) -> tuple:
        return self.kind, self.mode_a, self.mode_b, self.angle

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        row = tuple(column[i] for column in self.columns)
        return Elements(*row) if isinstance(i, slice) else row

    def __iter__(self):
        return zip(*self.columns)

    def __eq__(self, other):
        if isinstance(other, Elements):
            return self.columns == other.columns
        return list(self) == list(other) if isinstance(other, (list, tuple)) else NotImplemented

    def __repr__(self) -> str:
        return f"Elements({list(self)!r})"


@dataclass(frozen=True)
class Circuit:
    """Elements (given as :class:`Elements` or ``(kind, mode_a, mode_b, angle)`` rows) plus mode bookkeeping.

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
    """Raise ValueError, naming the first offender, unless every element keeps the element rules of
    ``_check_row`` and has its modes in ``0..n_modes-1``; one pass over the rows, in order."""
    for i, row in enumerate(Elements.of(elements)):
        kind, a, b, angle = row
        try:
            _check_row(kind, a, b, angle)
            if not (0 <= a < n_modes and 0 <= b < n_modes):
                raise ValueError(f"mode outside 0..{n_modes - 1}")
        except ValueError as exc:
            raise ValueError(f"element {i} (kind, mode_a, mode_b, angle) = {row}: {exc}") from None


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
    """One element's JSON object from its ``(kind, mode_a, mode_b, angle)`` row."""
    kind, a, b, angle = e
    if kind == PS:
        return {"type": "ps", "mode": a, "phi": angle}
    if kind == BS:
        return {"type": "bs", "modes": [a, b], "theta": angle}
    return {"type": "tms", "modes": [a, b], "xi": angle}


def element_from_json(obj) -> tuple:
    """Decode one element to its ``(kind, mode_a, mode_b, angle)`` row; modes must be JSON integers
    and angles finite JSON numbers, and the row must keep the element rules."""
    try:
        kind = obj["type"]
        if kind == "ps":
            mode = json_int(obj["mode"], "mode")
            return PS, mode, mode, json_float(obj["phi"])
        if kind in ("bs", "tms"):
            a, b = (json_int(x, "modes") for x in obj["modes"])
            row = (BS, a, b, json_float(obj["theta"])) if kind == "bs" else (TMS, a, b, json_float(obj["xi"]))
            _check_row(*row)
            return row
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
        "elements": [element_to_json(row) for row in c.elements],
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
            elements=Elements(*zip(*map(element_from_json, _list(obj["elements"])))),
            **{key: tuple(json_int(i, key) for i in _list(obj.get(key, [])))
               for key in ("ancilla_inputs", "ancilla_outputs", "full_ancillas")},
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed netlist JSON: {exc}") from exc
