"""Triangular decomposition of an n x n unitary into phase shifters and beam splitters.

The nulling scheme of Reck et al. (PRL 73, 58, 1994) eliminates the lower
triangle column by column with 2-mode rotations (pivot row = column index),
each step pairing one beam splitter with one phase shifter; residual diagonal
phases are emitted as plain phase shifters.  Every emitted beam splitter angle
lies in [0, pi/2]; all complex structure is carried by the phases.  Elements
come out in chronological order, so the reconstruction multiplies them
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
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import BeamSplitter, Element, PhaseShifter, TwoModeSqueezer, _apply, check_modes
from .numkit import TOL, unitarity_deviation

# Parameters this close to 0 (mod 2*pi for phases) produce identity elements
# and are dropped from the netlist.
PRUNE_EPS = 1e-14


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


def reck_decompose(u, tol: float = TOL) -> list[Element]:
    """Factor a unitary into beam splitters and phase shifters, chronological order.

    Degenerate pivots (both entries of a rotation already ~0) yield identity
    parameters and are pruned, so the identity matrix maps to an empty list.

    Raises:
        NotUnitaryError: if ``u`` deviates from unitarity by more than ``tol``.
    """
    deviation = unitarity_deviation(u)  # also rejects a non-square or non-finite u
    if deviation > tol:
        raise NotUnitaryError(deviation, tol)
    m = np.asarray(u, dtype=complex)
    n = m.shape[0]
    if not n:
        return []

    # Step (a=c, b) is L = BS(a,b,theta) @ PS(a,phi), a left multiplication
    # that nulls work[b, c] against the pivot work[c, c].
    targets, pivots, lasts = [], [], []
    rhos = [np.empty(0)]  # keeps the concatenation valid for n = 1, which has no steps
    for _ in range(n - 1):
        x = m[:, 0]
        rho = np.hypot.accumulate(np.abs(x))
        targets.append(x[1:])
        pivots.append(x[:-1])
        rhos.append(rho[:-1])
        lasts.append(x[-1:])
        m = _next_block(m, x, rho)
    lasts.append(m[0])
    n_steps = n * (n - 1) // 2
    x_all = np.concatenate(targets + pivots + lasts)
    angles = np.angle(x_all)
    thetas = np.arctan2(np.abs(x_all[:n_steps]), np.concatenate(rhos))
    phis = angles[:n_steps] - angles[n_steps : 2 * n_steps]
    steps = zip([(c, b) for c in range(n - 1) for b in range(c + 1, n)], thetas.tolist(), phis.tolist())

    # u = L_1^dag ... L_K^dag Lambda with L^dag = PS(a, pi - phi) BS(theta) PS(a, pi),
    # so chronologically: Lambda phases, then steps in reverse.  Adjacent phases
    # on the same mode are accumulated and flushed lazily just before a beam
    # splitter touches that mode.  Column c's pivot ends as e^{i angle(x_last)}.
    pending = angles[2 * n_steps :].tolist()
    elements: list[Element] = []

    def flush(mode: int) -> None:
        phi = wrap_angle(pending[mode])
        pending[mode] = 0.0
        if abs(phi) > PRUNE_EPS:
            elements.append(PhaseShifter(mode=mode, phi=phi))

    for (a, b), theta, phi in reversed(list(steps)):
        pending[a] += math.pi
        if theta > PRUNE_EPS:
            flush(a)
            flush(b)
            elements.append(BeamSplitter(mode_a=a, mode_b=b, theta=theta))
        pending[a] += math.pi - phi
    for mode in range(n):
        flush(mode)
    return elements


def reconstruct(elements, n_modes: int) -> np.ndarray:
    """n x n unitary implemented by a passive element list (last element leftmost)."""
    elements = tuple(elements)
    check_modes(elements, n_modes)
    if any(isinstance(e, TwoModeSqueezer) for e in elements):
        raise ValueError("a two-mode squeezer has no single-particle unitary")
    m = np.eye(n_modes, dtype=complex)
    for e in elements:
        _apply(m, e)
    return m
