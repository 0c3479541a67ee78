"""Desk-scale verification engines.

Two independent checks of an assembled network: exact few-photon Fock
evolution for passive blocks (photon-number conserving), and first/second
moment propagation for arbitrary quasiunitary networks.  The Fock engine
substitutes each input creation operator by the column-indexed sum
``a_in,k^dag -> sum_j A[j, k] a_out,j^dag``, which is the direction consistent
with ``a_out = A a_in`` (the classic transpose trap: columns index inputs).

The polynomial in output creation operators is held as one complex array per
photon count, indexed by the sorted occupations of that count (the
*ladder*).  Each substitution is one scatter-add of ``poly[i] * A[j, k]``
into the rank of occupation ``i`` with one more photon in mode ``j``.  Each
rung depends only on the mode and photon counts, so it is built on first use
and cached for the life of the process; the caps bound the cache at
``(MAX_FOCK_MODES + 1) * (MAX_PHOTONS + 1) = 63`` rungs, at most 1,716
occupations each.  Amplitudes come out as Python ``complex``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import TOL, as_matrix, json_int, unitarity_deviation

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
    if not worst <= tol:
        r, c = np.unravel_index(int(off.argmax()), off.shape)
        raise NotPassiveError(worst, int(r), int(c))
    return s[:n, :n].copy()


def fock_evolve(a, occupation, tol: float = TOL) -> FockState:
    """Evolve a Fock input through a passive n x n unitary.

    Expands the product of transformed creation operators over the vacuum,
    one scatter-add per input photon over the cached ladder; limited to
    ``MAX_PHOTONS`` photons and ``MAX_FOCK_MODES`` modes, which is plenty for
    desk-scale checks and keeps the expansion exact.  Returns the amplitudes
    above ``AMPLITUDE_PRUNE`` in sorted occupation order.
    """
    a = as_matrix(a, "a")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a must be square, got {a.shape}")
    if n > MAX_FOCK_MODES:
        raise ValueError(f"at most {MAX_FOCK_MODES} modes supported, got {n}")
    occupation = tuple(occupation)
    try:
        occupation = tuple(json_int(x, "photon count") for x in occupation)
    except TypeError as exc:
        raise ValueError(f"occupation {occupation} holds a non-integer photon count") from exc
    if len(occupation) != n:
        raise ValueError(f"occupation {occupation} does not match {n} modes")
    if any(x < 0 for x in occupation):
        raise ValueError(f"occupation {occupation} holds a negative photon count")
    if sum(occupation) > MAX_PHOTONS:
        raise ValueError(f"at most {MAX_PHOTONS} photons supported, got {sum(occupation)}")
    deviation = unitarity_deviation(a)
    if not deviation <= tol:
        raise ValueError(f"a is not unitary: deviation {deviation:.3e} exceeds tol {tol:.3e}")

    # Coefficients of the polynomial in output creation operators, one per
    # occupation of the current photon count, in ladder order.
    poly = np.ones(1, dtype=complex)
    photons = 0
    for k, n_k in enumerate(occupation):
        for _ in range(n_k):
            photons += 1
            keys, _, up = _ladder(n, photons)
            terms = (poly[:, None] * a[:, k]).ravel()
            poly = np.empty(len(keys), dtype=complex)
            poly.real = np.bincount(up, terms.real, len(keys))
            poly.imag = np.bincount(up, terms.imag, len(keys))

    keys, weights, _ = _ladder(n, photons)
    in_norm = math.sqrt(math.prod(math.factorial(x) for x in occupation))
    amps = poly * weights / in_norm
    keep = np.abs(amps) > AMPLITUDE_PRUNE
    amplitudes = dict(zip(map(tuple, keys[keep].tolist()), amps[keep].tolist()))
    return FockState(n_modes=n, amplitudes=amplitudes)


@functools.lru_cache(maxsize=(MAX_FOCK_MODES + 1) * (MAX_PHOTONS + 1))
def _ladder(n: int, photons: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupation basis of ``photons`` photons in ``n`` modes, built on the one below it.

    Returns the occupations in sorted order (one row each), the
    ``sqrt(prod m_j!)`` weight of each, and the flat index map ``up`` whose
    entry ``i * n + j`` is the rank of occupation ``i`` of ``photons - 1``
    photons with one more photon in mode ``j``.  An occupation is read as a
    base ``MAX_PHOTONS + 1`` number with mode 0 as its leading digit, so
    numeric order is tuple order and every rank is one binary search.
    """
    if photons == 0:
        ladder = np.zeros((1, n), dtype=np.int64), np.ones(1), np.empty(0, dtype=np.int64)
    else:
        place = (MAX_PHOTONS + 1) ** np.arange(n - 1, -1, -1)
        bumped = ((_ladder(n, photons - 1)[0] @ place)[:, None] + place).ravel()
        ordered = np.sort(bumped)  # np.unique would import numpy.ma on its first call
        codes = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        keys = codes[:, None] // place % (MAX_PHOTONS + 1)
        factorials = np.array([math.factorial(m) for m in range(MAX_PHOTONS + 1)], dtype=float)
        ladder = keys, np.sqrt(factorials[keys].prod(axis=1)), np.searchsorted(codes, bumped)
    for part in ladder:
        part.flags.writeable = False  # cached: every later call shares these arrays
    return ladder


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

