"""Triangular decomposition of an n x n unitary into phase shifters and beam splitters.

The nulling scheme of Reck et al. (PRL 73, 58, 1994) eliminates the lower
triangle column by column with 2-mode rotations (pivot row = column index),
each step pairing one beam splitter with one phase shifter; residual diagonal
phases are emitted as plain phase shifters.  Every emitted beam splitter angle
lies in [0, pi/2]; all complex structure is carried by the phases.  Elements
come out in chronological order, so their matrix product runs
last-to-first.

Every step of column ``c`` follows in closed form from the column
``x = M[:, 0]`` of the trailing block ``M = work[c:, c:]``.  With
``rho_b = sqrt(sum_{j<=b} |x_j|^2)`` and ``acc_b = sum_{j<=b} conj(x_j) M_j``
(one cumulative sum over the rows), step ``b`` has
``theta_b = atan2(|x_b|, rho_{b-1})`` and
``phi_b = angle(x_b) - angle(x_{b-1})``, and leaves row ``b`` as
``(rho_{b-1} M_b - x_b acc_{b-1} / rho_{b-1}) / rho_b``: the pivot row before
step ``b`` is ``acc_{b-1}`` normalized (Cauchy-Schwarz), up to its phase.
Those rows form the next trailing block; the pivot row ends as a phase times
``e_c`` and drops out.  So a column costs a fixed number of array operations,
and the angles of all columns are taken at once at the end.

Emission is one pass over the steps in reverse.  It merges adjacent phases
on a mode, keeping the multiples of pi apart as a parity so that they cancel
exactly, and appends each kept element's kind, modes and angle to the parallel
columns of a :class:`~qsynth.blocks.Elements`, so a step costs a few list
appends.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import BS, PS, Elements
from .numkit import TOL, check_tol, unitarity_deviation

# Parameters this close to 0 (mod 2*pi for phases) produce identity elements
# and are dropped from the netlist.
PRUNE_EPS = 1e-14
_PI, _TWO_PI = math.pi, 2.0 * math.pi  # for wrap_angle, inlined in _emit


class NotUnitaryError(ValueError):
    """Input matrix is not unitary within the requested tolerance."""

    def __init__(self, deviation: float, tol: float):
        super().__init__(f"matrix is not unitary: deviation {deviation:.3e} exceeds tol {tol:.3e}")
        self.deviation = deviation
        self.tol = tol


def wrap_angle(x: float) -> float:
    """Wrap to the interval (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def _next_block(m: np.ndarray, x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The trailing block left once column ``x = m[:, 0]`` (running norms ``rho``) is nulled."""
    r = m[:, 1:]
    if len(x) == 2:
        # The step has determinant e^{i phi_1}, so the corner of a unitary 2x2
        # block ends with the phase of det(m) e^{-i angle(x_0)}, all that is used of it.
        return (x[0] * r[1:] - x[1] * r[:1]) * np.exp(-1j * np.angle(x[0]))
    if not np.count_nonzero(x[1:]):  # nothing to null: every step is a bare phase
        return r[1:]
    # Rows k+1.. by the closed form, where x starts with k exact zeros (k = 0 almost always).
    k = 0 if rho[0] else int(np.flatnonzero(rho)[0])
    p, q = rho[k:-1], rho[k + 1 :]
    acc = (x[k:-1, None].conj() * r[k:-1]).cumsum(axis=0)
    rows = (p / q)[:, None] * r[k + 1 :] - (x[k + 1 :] / q / p)[:, None] * acc  # q * p could underflow
    if not k:
        return rows
    # Steps 1..k-1 only rephase the pivot row, so before step k it is M_0 with
    # its phase angle(x_0) (pi for -0.0) removed; step k (theta = pi/2) moves
    # it, rotated, into row k.  "+ 0.0" turns the -0.0 entries this makes into
    # +0.0, as the step-by-step rotations leave them: a later pivot's phase
    # depends on that sign.
    row_k = (-x[k] / rho[k] * np.exp(-1j * np.angle(x[0]))) * r[:1]
    return np.concatenate((r[1:k], row_k, rows)) + 0.0


def reck_decompose(u, tol: float = TOL) -> Elements:
    """Factor a unitary into beam splitters and phase shifters, chronological order.

    Degenerate pivots (both entries of a rotation already ~0) yield identity
    parameters and are pruned, so the identity matrix maps to no elements.

    Raises:
        NotUnitaryError: if ``u`` deviates from unitarity by more than ``tol``.
    """
    check_tol(tol)
    deviation = unitarity_deviation(u)  # also rejects a non-square or non-finite u
    if not deviation <= tol:
        raise NotUnitaryError(deviation, tol)
    m = np.asarray(u, dtype=complex)
    n = m.shape[0]
    if not n:
        return Elements()

    # Step (a=c, b) is L = BS(a,b,theta) @ PS(a,phi), a left multiplication
    # that nulls work[b, c] against the pivot work[c, c].  Row c of ``xs`` holds
    # column c's ``x`` in entries c..n-1 (the 1x1 block left at the end is
    # xs[-1, -1]) and row c of ``rhos`` its running norms, so step (c, b) has
    # target xs[c, b] and pivot xs[c, b-1], and its angles are entry [c][b-1]
    # of the (n, n-1) arrays below (entries with b <= c are unused).  Column
    # c's pivot ends as e^{i angle(x_last)}, the residual phase of mode c.
    xs = np.zeros((n, n), dtype=complex)
    rhos = np.zeros((n, n))
    for c in range(n - 1):
        x = m[:, 0]
        rho = np.hypot.accumulate(np.abs(x))
        xs[c, c:] = x
        rhos[c, c:] = rho
        m = _next_block(m, x, rho)
    xs[-1, -1] = m[0, 0]
    angles = np.angle(xs)
    thetas = np.arctan2(np.abs(xs[:, 1:]), rhos[:, :-1])
    phis = angles[:, 1:] - angles[:, :-1]
    return _emit(n, angles[:, -1].tolist(), thetas.tolist(), phis.tolist())


def _emit(n: int, lam: list[float], thetas: list[list[float]], phis: list[list[float]]) -> Elements:
    """Chronological elements of the steps (c, b), c < b, and the residual phases ``lam``.

    Step (c, b) has angles ``thetas[c][b-1]`` and ``phis[c][b-1]``.
    u = L_1^dag ... L_K^dag Lambda with L^dag = PS(a, pi - phi) BS(theta) PS(a, pi),
    so chronologically: Lambda phases, then steps in reverse.  Adjacent phases
    on the same mode are accumulated and flushed (wrapped to (-pi, pi], and
    kept unless ~0) just before a beam splitter touches that mode.  The
    multiples of pi are kept apart as a parity per mode, so that pairs of them
    cancel exactly instead of leaving rounding just above ``PRUNE_EPS``.  One
    pass appends each kept element to the four columns of the result.
    """
    pending = list(lam)  # Lambda phases and the -phi of each step, without the pi's
    odd = [False] * n  # an odd number of pi's is owed to the mode
    kind, mode_a, mode_b, angle = [], [], [], []
    for a in range(n - 2, -1, -1):
        p_a, odd_a = pending[a], odd[a]
        for b, theta, phi in zip(range(n - 1, a, -1), reversed(thetas[a]), reversed(phis[a])):
            if theta <= PRUNE_EPS:  # no beam splitter: pi + (pi - phi) leaves the parity as it is
                p_a -= phi
                continue
            # The step's own pi and an owed one make 2 pi, which drops out.
            p = _PI - (_PI - (p_a if odd_a else p_a + _PI)) % _TWO_PI
            if not -PRUNE_EPS <= p <= PRUNE_EPS:
                kind.append(PS)
                mode_a.append(a)
                mode_b.append(a)
                angle.append(p)
            if pending[b] or odd[b]:  # else the flush is wrap(0) = 0
                p = _PI - (_PI - (pending[b] + _PI if odd[b] else pending[b])) % _TWO_PI
                if not -PRUNE_EPS <= p <= PRUNE_EPS:
                    kind.append(PS)
                    mode_a.append(b)
                    mode_b.append(b)
                    angle.append(p)
                pending[b], odd[b] = 0.0, False
            kind.append(BS)
            mode_a.append(a)
            mode_b.append(b)
            angle.append(theta)
            p_a, odd_a = -phi, True
        pending[a], odd[a] = p_a, odd_a
    for mode, p in enumerate(pending):
        p = _PI - (_PI - (p + _PI if odd[mode] else p)) % _TWO_PI
        if not -PRUNE_EPS <= p <= PRUNE_EPS:
            kind.append(PS)
            mode_a.append(mode)
            mode_b.append(mode)
            angle.append(p)
    return Elements(kind, mode_a, mode_b, angle)
