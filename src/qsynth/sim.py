"""Desk-scale verification engine: exact few-photon Fock evolution of passive
blocks (photon-number conserving).

An active network is checked by its first moments only: ``qsynth simulate
--mode moments`` prints the means the top half of ``S_total`` gives for a
coherent input, and qsynth computes no second moments.  The Fock engine
substitutes each input creation operator by the column-indexed sum
``a_in,k^dag -> sum_j A[j, k] a_out,j^dag``, which is the direction consistent
with ``a_out = A a_in`` (the classic transpose trap: columns index inputs).

The polynomial in output creation operators is held as one complex array per
photon count, indexed by the sorted occupations of that count (the
*ladder*).  Each substitution is one ``bincount`` of ``poly[i] * A[j, k]``,
as interleaved real and imaginary floats, into the rank of occupation ``i``
with one more photon in mode ``j``.  Each rung depends only on the mode and
photon counts, so it is built on first use and cached for the life of the
process; the caps bound the cache at ``(MAX_FOCK_MODES + 1) * (MAX_PHOTONS + 1)
= 63`` rungs, at most 1,716 occupations each.  A result is the surviving ladder
rows and their amplitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numkit import TOL, as_matrix, check_tol, json_int, unitarity_deviation

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
    """Outcomes in sorted order: ``occupations`` (``k x n`` ints) row ``i`` has amplitude ``amplitudes[i]``."""

    occupations: np.ndarray
    amplitudes: np.ndarray


def passive_block(s_total, tol: float = TOL) -> np.ndarray:
    """Extract the N x N annihilation block; error if the network is active."""
    check_tol(tol)
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
    desk-scale checks and keeps the expansion exact.  Returns the outcomes whose
    amplitude exceeds ``AMPLITUDE_PRUNE`` in modulus.
    """
    check_tol(tol)
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
            poly = np.bincount(up, terms.view(float), 2 * len(keys)).view(complex)

    keys, weights, _ = _ladder(n, photons)
    in_norm = math.sqrt(math.prod(math.factorial(x) for x in occupation))
    amps = poly * weights / in_norm
    keep = np.abs(amps) > AMPLITUDE_PRUNE
    return FockState(occupations=keys[keep], amplitudes=amps[keep])


@functools.lru_cache(maxsize=(MAX_FOCK_MODES + 1) * (MAX_PHOTONS + 1))
def _ladder(n: int, photons: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupation basis of ``photons`` photons in ``n`` modes, built on the one below it.

    Returns the occupations in sorted order (one row each), the ``sqrt(prod m_j!)``
    weight of each, and the flat index map ``up``: entries ``2 * (i * n + j)`` and
    the next are the real and imaginary slots of the rank of occupation ``i`` of
    ``photons - 1`` photons with one more in mode ``j``.  An occupation is read as
    a base ``MAX_PHOTONS + 1`` number with mode 0 as its leading digit, so numeric
    order is tuple order and every rank is one binary search.
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
        rank = 2 * np.searchsorted(codes, bumped)
        ladder = keys, np.sqrt(factorials[keys].prod(axis=1)), np.stack((rank, rank + 1), axis=1).ravel()
    for part in ladder:
        part.flags.writeable = False  # cached: every later call shares these arrays
    return ladder


def postselect(state: FockState, keep) -> tuple[FockState, float]:
    """Keep the rows of ``state`` where the boolean mask ``keep`` is true; renormalize.

    Returns the conditioned state and the accepted probability mass, summed
    left to right as Python floats.  Raises if nothing is accepted.
    """
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != state.amplitudes.shape:
        raise ValueError(f"keep must be a boolean mask of {len(state.amplitudes)} rows, got {keep.dtype} {keep.shape}")
    amplitudes = state.amplitudes[keep]
    success_prob = sum(h ** 2 for h in np.hypot(amplitudes.real, amplitudes.imag).tolist())
    if success_prob <= 0.0:
        raise ValueError("postselection accepted zero probability mass")
    scale = 1.0 / math.sqrt(success_prob)
    return FockState(state.occupations[keep], amplitudes * scale), success_prob

