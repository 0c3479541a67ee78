"""Triangular decomposition of an n x n unitary into phase shifters and beam splitters.

The nulling scheme eliminates the lower triangle column by column with 2-mode
rotations (pivot row = column index), each step pairing one beam splitter with
one phase shifter; residual diagonal phases are emitted as plain phase
shifters.  Every emitted beam splitter angle lies in [0, pi/2]; all complex
structure is carried by the phases.  Elements come out in chronological order,
so the reconstruction multiplies them last-to-first.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .blocks import BeamSplitter, Element, PhaseShifter, apply_element
from .numkit import TOL, as_matrix, max_abs, unitarity_deviation

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


def reck_decompose(u, tol: float = TOL) -> list[Element]:
    """Factor a unitary into beam splitters and phase shifters, chronological order.

    Degenerate pivots (both entries of a rotation already ~0) yield identity
    parameters and are pruned, so the identity matrix maps to an empty list.

    Raises:
        NotUnitaryError: if ``u`` deviates from unitarity by more than ``tol``.
    """
    u = as_matrix(u, "u")
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"u must be square, got {u.shape}")
    deviation = unitarity_deviation(u)
    if deviation > tol:
        raise NotUnitaryError(deviation, tol)

    n = u.shape[0]
    work = u.copy()
    # Each step L = BS(a,b,theta) @ PS(a,phi) (a left multiplication) nulls
    # work[b, c] against the pivot work[a, c] with a = c.
    steps: list[tuple[int, int, float, float]] = []
    for c in range(n - 1):
        a = c
        for b in range(c + 1, n):
            pivot = work[a, c]
            target = work[b, c]
            phi = cmath.phase(target) - cmath.phase(pivot)
            theta = math.atan2(abs(target), abs(pivot))
            rot = np.exp(1j * phi)
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            row_a = rot * cos_t * work[a, :] + sin_t * work[b, :]
            row_b = -rot * sin_t * work[a, :] + cos_t * work[b, :]
            work[a, :] = row_a
            work[b, :] = row_b
            steps.append((a, b, theta, phi))
    lam = [cmath.phase(work[j, j]) for j in range(n)]

    # u = L_1^dag ... L_K^dag Lambda with L^dag = PS(a, pi - phi) BS(theta) PS(a, pi),
    # so chronologically: Lambda phases, then steps in reverse.  Adjacent phases
    # on the same mode are accumulated and flushed lazily just before a beam
    # splitter touches that mode.
    pending = list(lam)
    elements: list[Element] = []

    def flush(mode: int) -> None:
        phi = wrap_angle(pending[mode])
        pending[mode] = 0.0
        if abs(phi) > PRUNE_EPS:
            elements.append(PhaseShifter(mode=mode, phi=phi))

    for a, b, theta, phi in reversed(steps):
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
    """n x n unitary implemented by the element list (last element leftmost)."""
    m = np.eye(n_modes, dtype=complex)
    for e in elements:
        apply_element(m, e, n_modes)
    return m


def mesh_verify(elements, u) -> float:
    """Max entry deviation between the reconstructed element product and ``u``."""
    u = as_matrix(u, "u")
    return max_abs(reconstruct(elements, u.shape[0]) - u)
