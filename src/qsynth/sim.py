"""Desk-scale verification engines.

Two independent checks of an assembled network: exact few-photon Fock
evolution for passive blocks (photon-number conserving), and first/second
moment propagation for arbitrary quasiunitary networks.  The Fock engine
substitutes each input creation operator by the column-indexed sum
``a_in,k^dag -> sum_j A[j, k] a_out,j^dag``, which is the direction consistent
with ``a_out = A a_in`` (the classic transpose trap: columns index inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import TOL, as_matrix, unitarity_deviation

MAX_PHOTONS = 6
MAX_FOCK_MODES = 8
AMPLITUDE_PRUNE = 1e-15


class NotPassiveError(ValueError):
    """The scattering matrix couples annihilation and creation operators."""

    def __init__(self, max_entry: float, row: int, col: int):
        super().__init__(
            f"not passive: off-diagonal block entry {max_entry:.3e} at ({row}, {col})"
        )
        self.max_entry = max_entry
        self.position = (row, col)


@dataclass(frozen=True)
class FockState:
    """Sparse map from occupation tuples to complex amplitudes."""

    n_modes: int
    amplitudes: dict[tuple[int, ...], complex]


def passive_block(s_total, tol: float = TOL) -> np.ndarray:
    """Extract the N x N annihilation block; error if the network is active."""
    s = as_matrix(s_total, "s_total")
    rows, cols = s.shape
    if rows != cols or rows % 2 != 0:
        raise ValueError(f"s_total must be square with even dimension, got {rows}x{cols}")
    n = rows // 2
    off = np.abs(s)
    off[:n, :n] = 0.0
    off[n:, n:] = 0.0
    worst = float(off.max()) if off.size else 0.0
    if worst > tol:
        r, c = np.unravel_index(int(off.argmax()), off.shape)
        raise NotPassiveError(worst, int(r), int(c))
    return s[:n, :n].copy()


def fock_evolve(a, occupation, tol: float = TOL) -> FockState:
    """Evolve a Fock input through a passive n x n unitary.

    Expands the product of transformed creation operators over the vacuum;
    limited to ``MAX_PHOTONS`` photons and ``MAX_FOCK_MODES`` modes, which is
    plenty for desk-scale checks and keeps the expansion exact.
    """
    a = as_matrix(a, "a")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a must be square, got {a.shape}")
    if n > MAX_FOCK_MODES:
        raise ValueError(f"at most {MAX_FOCK_MODES} modes supported, got {n}")
    occupation = tuple(int(x) for x in occupation)
    if len(occupation) != n or any(x < 0 for x in occupation):
        raise ValueError(f"occupation {occupation} does not match {n} modes")
    if sum(occupation) > MAX_PHOTONS:
        raise ValueError(f"at most {MAX_PHOTONS} photons supported, got {sum(occupation)}")
    deviation = unitarity_deviation(a)
    if deviation > tol:
        raise ValueError(f"a is not unitary: deviation {deviation:.3e} exceeds tol {tol:.3e}")

    # Polynomial in output creation operators, keyed by exponent tuple.
    poly: dict[tuple[int, ...], complex] = {(0,) * n: 1.0 + 0.0j}
    for k, n_k in enumerate(occupation):
        for _ in range(n_k):
            nxt: dict[tuple[int, ...], complex] = {}
            for exps, coeff in poly.items():
                for j in range(n):
                    amp = a[j, k]
                    if amp == 0:
                        continue
                    bumped = list(exps)
                    bumped[j] += 1
                    key = tuple(bumped)
                    nxt[key] = nxt.get(key, 0.0) + coeff * amp
            poly = nxt

    in_norm = math.sqrt(math.prod(math.factorial(x) for x in occupation))
    amplitudes = {}
    for exps, coeff in poly.items():
        amp = coeff * math.sqrt(math.prod(math.factorial(x) for x in exps)) / in_norm
        if abs(amp) > AMPLITUDE_PRUNE:
            amplitudes[exps] = amp
    return FockState(n_modes=n, amplitudes=amplitudes)


def postselect(
    state: FockState, predicate: Callable[[tuple[int, ...]], bool]
) -> tuple[FockState, float]:
    """Keep only outcomes accepted by ``predicate``; renormalize.

    Returns the conditioned state and the accepted probability mass.  Raises
    if nothing is accepted.
    """
    accepted = {occ: amp for occ, amp in state.amplitudes.items() if predicate(occ)}
    success_prob = sum(abs(a) ** 2 for a in accepted.values())
    if success_prob <= 0.0:
        raise ValueError("postselection accepted zero probability mass")
    scale = 1.0 / math.sqrt(success_prob)
    conditioned = {occ: amp * scale for occ, amp in accepted.items()}
    return FockState(n_modes=state.n_modes, amplitudes=conditioned), success_prob


@dataclass(frozen=True)
class GaussianMoments:
    """First and centered second moments of the operator vector (a_1..a_N, a_1^dag..a_N^dag).

    ``second[i, j]`` holds ``<dA_i dA_j^dag>`` where the dagger acts on the
    operator itself, so the matrix transforms as ``S second S^dag``.
    """

    mean: np.ndarray
    second: np.ndarray


def coherent_moments(alpha) -> GaussianMoments:
    """Moments of a product coherent state with amplitudes ``alpha`` (vacuum noise)."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    n = len(alpha)
    if n < 1:
        raise ValueError("need at least one mode")
    mean = np.concatenate([alpha, alpha.conj()])
    second = np.diag(np.concatenate([np.ones(n), np.zeros(n)])).astype(complex)
    return GaussianMoments(mean=mean, second=second)


def evolve_moments(s_total, moments: GaussianMoments) -> GaussianMoments:
    """Propagate: mean -> S mean, second -> S second S^dag."""
    s = as_matrix(s_total, "s_total")
    dim = s.shape[0]
    if s.shape != (dim, dim) or moments.mean.shape != (dim,) or moments.second.shape != (dim, dim):
        raise ValueError(
            f"dimension mismatch: S is {s.shape}, mean {moments.mean.shape}, second {moments.second.shape}"
        )
    return GaussianMoments(mean=s @ moments.mean, second=s @ moments.second @ s.conj().T)

