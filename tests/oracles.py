"""Independent reference implementations and literal fixtures for the tests.

Nothing here shares a code path with the package: permanents are enumerated
over explicit permutations, unitaries come from QR orthonormalization, the
coupling matrices are written out entry by entry, every element has a dense
matrix lift (the definition the package's row-update kernel is checked
against), the closed-form 2x2 parameters multiply out as dense 2x2 factors,
the lossy-beam-splitter network is a hand-checkable closed form in a fixed
factor gauge, and element counts, their worst-case bounds and each mode's
channel kind are read off element lists.  Elements are the package's
``(kind, mode_a, mode_b, angle)`` rows, built with :func:`ps`, :func:`bs` and
:func:`tms`; only their kind codes come from the package, apart from the last
three sections: measurements the tests
take of the package's own output (Fock probabilities, the second moments
of a coherent input propagated through ``S_total`` and their physicality,
the mesh error, and the element ``synth.couplings`` makes of one singular
value), the per-element row updates that ``blocks.circuit_smatrix``
replaced (the mesh error is read off its ``N x N`` block), the step-by-step
Givens nulling loop that ``mesh.reck_decompose`` replaced, and the dict
expansion that ``sim.fock_evolve`` replaced, each kept as its reference.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from qsynth.blocks import BS, PS, TMS, Circuit
from qsynth.mesh import PRUNE_EPS, NotUnitaryError, wrap_angle
from qsynth.numkit import TOL, as_matrix, max_abs, unitarity_deviation
from qsynth.sim import AMPLITUDE_PRUNE
from qsynth.synth import couplings

RT2 = 1.0 / math.sqrt(2.0)


def ps(mode: int, phi: float) -> tuple:
    return PS, mode, mode, phi


def bs(mode_a: int, mode_b: int, theta: float) -> tuple:
    return BS, mode_a, mode_b, theta


def tms(mode_a: int, mode_b: int, xi: float) -> tuple:
    return TMS, mode_a, mode_b, xi


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR orthonormalization with a phase fix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def permanent(m: np.ndarray) -> complex:
    """Permanent by explicit permutation enumeration (fine up to ~6x6)."""
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= m[i, j]
        total += p
    return total if n else 1.0 + 0.0j


def fock_amplitude(a: np.ndarray, occ_in, occ_out) -> complex:
    """<occ_out| network |occ_in> by the multinomial permanent formula."""
    rows = [j for j, c in enumerate(occ_out) for _ in range(c)]
    cols = [k for k, c in enumerate(occ_in) for _ in range(c)]
    if len(rows) != len(cols):
        return 0.0 + 0.0j
    if not rows:
        return 1.0 + 0.0j
    sub = a[np.ix_(rows, cols)]
    norm = math.sqrt(
        math.prod(math.factorial(x) for x in occ_in)
        * math.prod(math.factorial(x) for x in occ_out)
    )
    return permanent(sub) / norm


def all_occupations(n_modes: int, n_photons: int) -> list[tuple[int, ...]]:
    """Every way to distribute n_photons over n_modes."""
    if n_modes == 1:
        return [(n_photons,)]
    out = []
    for first in range(n_photons + 1):
        for rest in all_occupations(n_modes - 1, n_photons - first):
            out.append((first, *rest))
    return out


# --- dense element lifts -----------------------------------------------------
#
# The 2N x 2N lift acts on (a_1 .. a_N, a_1^dag .. a_N^dag) and is the
# identity outside the element's modes and their creation partners.


def element_unitary(e, n_modes: int) -> np.ndarray:
    """n x n single-particle unitary of a passive element (phase shifter or beam splitter)."""
    _check_modes(e, n_modes)
    kind, a, b, angle = e
    u = np.eye(n_modes, dtype=complex)
    if kind == PS:
        u[a, a] = np.exp(1j * angle)
    elif kind == BS:
        c, s = math.cos(angle), math.sin(angle)
        u[a, a] = c
        u[a, b] = s
        u[b, a] = -s
        u[b, b] = c
    else:
        raise ValueError("a two-mode squeezer has no single-particle unitary")
    return u


def embed_element(e, n_modes: int) -> np.ndarray:
    """2N x 2N quasiunitary lift of one element, identity outside its modes."""
    _check_modes(e, n_modes)
    n = n_modes
    out = np.eye(2 * n, dtype=complex)
    kind, a, b, xi = e
    if kind == TMS:
        ch, sh = math.cosh(xi), math.sinh(xi)
        out[a, a] = out[b, b] = out[a + n, a + n] = out[b + n, b + n] = ch
        out[a, b + n] = out[b, a + n] = out[a + n, b] = out[b + n, a] = sh
        return out
    u = element_unitary(e, n)
    out[:n, :n] = u
    out[n:, n:] = u.conj()
    return out


def element_modes(e) -> tuple[int, ...]:
    kind, a, b, _ = e
    return (a,) if kind == PS else (a, b)


def _check_modes(e, n_modes: int) -> None:
    if any(not (0 <= m < n_modes) for m in element_modes(e)):
        raise ValueError(f"element (kind, mode_a, mode_b, angle) = {tuple(e)}: mode outside 0..{n_modes - 1}")


def lift_loss(sigma: float) -> np.ndarray:
    """4x4 quasiunitary for one attenuated channel, 0 <= sigma < 1.

    Basis (a_1, a_2, a_1^dag, a_2^dag) where mode 2 is the vacuum ancilla; the
    block-diagonal rotation has transmission ``sigma`` and reflection
    ``sqrt(1 - sigma^2)``.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"loss channel requires 0 <= sigma < 1, got {sigma}")
    r = math.sqrt(1.0 - sigma * sigma)
    block = np.array([[sigma, r], [-r, sigma]], dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def lift_gain(sigma: float) -> np.ndarray:
    """4x4 quasiunitary for one amplified channel, sigma > 1 (``cosh(xi) = sigma``)."""
    if not sigma > 1.0:
        raise ValueError(f"gain channel requires sigma > 1, got {sigma}")
    r = math.sqrt(sigma * sigma - 1.0)
    return np.array(
        [
            [sigma, 0.0, 0.0, r],
            [0.0, sigma, r, 0.0],
            [0.0, r, sigma, 0.0],
            [r, 0.0, 0.0, sigma],
        ],
        dtype=complex,
    )


def lift_phase(phi: float) -> np.ndarray:
    """2x2 lift ``diag(e^{i phi}, e^{-i phi})`` of a single-mode phase shift."""
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])


def lift_unitary_factor(u_piece, n_ancillas: int) -> np.ndarray:
    """Embed an n_N x n_N unitary piece as block-diag(U, I_nA, U*, I_nA)."""
    u_piece = np.asarray(u_piece, dtype=complex)
    if u_piece.ndim != 2 or u_piece.shape[0] != u_piece.shape[1]:
        raise ValueError(f"unitary piece must be square, got {u_piece.shape}")
    k = u_piece.shape[0]
    n = k + n_ancillas
    out = np.eye(2 * n, dtype=complex)
    out[:k, :k] = u_piece
    out[n : n + k, n : n + k] = u_piece.conj()
    return out


def reconstruct_params(p) -> np.ndarray:
    """Multiply out a closed-form ``Params2x2`` chain: the matrix the parameters encode."""
    def ps(mode: int, phi: float) -> np.ndarray:
        out = np.eye(2, dtype=complex)
        out[mode, mode] = cmath.exp(1j * phi)
        return out

    def bs(theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, s], [-s, c]], dtype=complex)

    u = ps(0, p.alpha1) @ ps(1, p.alpha2) @ bs(p.gamma) @ ps(0, p.beta1) @ ps(1, p.beta2)
    d = np.diag([p.sigma1, p.sigma2]).astype(complex)
    w = bs(p.theta2) @ ps(0, -p.xi1)
    return u @ d @ w


# --- lossy 50:50 beam splitter fixture ---------------------------------------
#
# T = [[1, -1], [-1, 1]] / 2 has singular values (1, 0); in the factor gauge
# below the compiled network is 6x6 (one vacuum ancilla on mode 2) and every
# entry is a signed half or 1/sqrt(2), so the whole chain can be checked by
# hand.

LOSSY_BS_T = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
LOSSY_BS_U = RT2 * np.array([[-1, 1], [1, 1]], dtype=complex)
LOSSY_BS_SINGULARS = (1.0, 0.0)
LOSSY_BS_W = RT2 * np.array([[-1, 1], [-1, -1]], dtype=complex)

# The factor gauge splits U into a sign flip times a 50:50 rotation; lifted
# to 6x6 these are:
LOSSY_BS_S_U1 = np.diag([-1, 1, 1, -1, 1, 1]).astype(complex)
LOSSY_BS_S_U2 = np.array(
    [
        [RT2, -RT2, 0, 0, 0, 0],
        [RT2, RT2, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, RT2, -RT2, 0],
        [0, 0, 0, RT2, RT2, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)
LOSSY_BS_S_W = np.array(
    [
        [-RT2, RT2, 0, 0, 0, 0],
        [-RT2, -RT2, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, -RT2, RT2, 0],
        [0, 0, 0, -RT2, -RT2, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)
# Total attenuation of mode 1 = swap with the vacuum ancilla (mode 2), with a
# sign on the reflected arm.
LOSSY_BS_S_D = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
    ],
    dtype=complex,
)
LOSSY_BS_S_TOTAL = np.array(
    [
        [0.5, -0.5, RT2, 0, 0, 0],
        [-0.5, 0.5, RT2, 0, 0, 0],
        [RT2, RT2, 0, 0, 0, 0],
        [0, 0, 0, 0.5, -0.5, RT2],
        [0, 0, 0, -0.5, 0.5, RT2],
        [0, 0, 0, RT2, RT2, 0],
    ],
    dtype=complex,
)


# --- element counts and the D stage, read off an element list ---------------


@dataclass(frozen=True)
class CountBounds:
    """Worst-case element counts for an n x m transformation."""

    max_bs: int
    max_ps: int
    max_d: int


def count_bounds(n: int, m: int) -> CountBounds:
    """Element-count ceilings for an n x m input (D-stage elements counted in max_d).

    With k = min(n, m) and N = max(n, m), the meshes are a k x k unitary
    (k (k - 1) / 2 beam splitters) and an N x k isometry (k (2N - k - 1) / 2):
    k (N - 1) in all, which is n (n - 1) / 2 + m (m - 1) / 2 for a square input.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be >= 1, got {n}x{m}")
    return CountBounds(
        max_bs=min(n, m) * (max(n, m) - 1),
        max_ps=n * (n + 1) // 2 + m * (m + 1) // 2,
        max_d=min(n, m),
    )


def element_counts(elements) -> dict:
    """Beam splitters, phase shifters and squeezers in an element list."""
    kinds = [kind for kind, _, _, _ in elements]
    return {"beam_splitters": kinds.count(BS), "phase_shifters": kinds.count(PS), "squeezers": kinds.count(TMS)}


def channels(elements, n_nominal: int) -> list[tuple[str, int | None]]:
    """``(kind, ancilla)`` of each nominal mode, read off the D-stage couplings in ``elements``.

    A D-stage coupling joins a nominal mode to an ancilla (a mode index
    ``>= n_nominal``): a beam splitter is a loss channel, a squeezer a gain
    channel.  A mode with no coupling is a unit channel without an ancilla.
    """
    out: list[tuple[str, int | None]] = [("unit", None)] * n_nominal
    for kind, a, b, _ in elements:
        if kind != PS and b >= n_nominal:
            out[a] = ("gain" if kind == TMS else "loss", b)
    return out


def circuit_kinds(circuit) -> list[str]:
    """The kind of each nominal mode of a synthesized circuit."""
    return [kind for kind, _ in channels(circuit.elements, circuit.n_nominal)]


# --- 8x8 single-channel couplings, written out literally ----------------------


def loss_coupling_8x8(sigma: float) -> np.ndarray:
    """Attenuation of mode 0 against ancilla mode 2 in a 4-mode network."""
    r = math.sqrt(1.0 - sigma * sigma)
    out = np.eye(8, dtype=complex)
    out[0, 0] = sigma
    out[0, 2] = r
    out[2, 0] = -r
    out[2, 2] = sigma
    out[4, 4] = sigma
    out[4, 6] = r
    out[6, 4] = -r
    out[6, 6] = sigma
    return out


def gain_coupling_8x8(sigma: float) -> np.ndarray:
    """Amplification of mode 1 against ancilla mode 3 in a 4-mode network."""
    r = math.sqrt(sigma * sigma - 1.0)
    out = np.eye(8, dtype=complex)
    out[1, 1] = sigma
    out[1, 7] = r
    out[3, 3] = sigma
    out[3, 5] = r
    out[5, 3] = r
    out[5, 5] = sigma
    out[7, 1] = r
    out[7, 7] = sigma
    return out


# --- measurements of package output -------------------------------------------


def singular_element(j: int, m_aj: int, sigma: float):
    """The package's D-stage coupling of mode ``j < m_aj`` to ancilla ``m_aj``; ``sigma`` is not within TOL of 1."""
    (e,) = couplings((1.0,) * j + (sigma,), TOL, m_aj)
    return e


def amplitude_map(state) -> dict[tuple[int, ...], complex]:
    """A ``FockState``'s aligned arrays as a dict from occupation tuples to Python ``complex``."""
    return dict(zip(map(tuple, state.occupations.tolist()), state.amplitudes.tolist()))


def norm_squared(state) -> float:
    return sum(abs(a) ** 2 for a in amplitude_map(state).values())


def probability(state, occupation) -> float:
    return abs(amplitude_map(state).get(tuple(occupation), 0.0)) ** 2


def probability_where(state, predicate) -> float:
    return sum(abs(a) ** 2 for occ, a in amplitude_map(state).items() if predicate(occ))


def coherent_moments(alpha) -> tuple[np.ndarray, np.ndarray]:
    """The mean and centered second moments of a product coherent state with amplitudes ``alpha``.

    Both are over the operator vector ``(a_1..a_N, a_1^dag..a_N^dag)``; ``second[i, j]`` holds
    ``<dA_i dA_j^dag>`` where the dagger acts on the operator itself, so it transforms as
    ``S second S^dag``.  Coherent states carry vacuum noise: 1 on the annihilation diagonal.
    """
    alpha = np.asarray(alpha, dtype=complex)
    n = len(alpha)
    return np.concatenate((alpha, alpha.conj())), np.diag(np.concatenate((np.ones(n), np.zeros(n)))).astype(complex)


def vacuum_moments(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    return coherent_moments(np.zeros(n_modes, dtype=complex))


def propagate_moments(s_total, mean, second) -> tuple[np.ndarray, np.ndarray]:
    """The reference propagation through a ``2N x 2N`` scattering matrix: mean -> S mean, second -> S second S^dag.

    The package keeps only the means, and only their top half: ``S_total[:N] @ mean``.
    """
    return s_total @ mean, s_total @ second @ s_total.conj().T


def physicality_residual(mean, sigma) -> float:
    """How far the second moments ``sigma`` (with their ``mean``) are from the bosonic-commutator structure.

    For any physical state the matrix ``<dA_i dA_j^dag>`` is Hermitian, its
    upper-right ``<da da>`` block is symmetric, and its lower-right
    ``<da^dag da>`` block equals the transpose of the upper-left block minus
    the identity (the ``[a, a^dag] = 1`` reordering).  Quasiunitary evolution
    with conjugate-structured blocks preserves all three, so the residual is
    an invariant of the propagation.
    """
    n = len(mean) // 2
    p = sigma[:n, :n]
    q = sigma[:n, n:]
    s_blk = sigma[n:, n:]
    return max(
        max_abs(sigma - sigma.conj().T),
        max_abs(q - q.T),
        max_abs(s_blk - (p.T - np.eye(n))),
    )


def passive_product(elements, n: int) -> np.ndarray:
    """The ``n x n`` unitary of a passive element list: the top-left block of its ``S_total``."""
    return smatrix_reference(Circuit(n_modes=n, n_nominal=n, elements=tuple(elements)))[:n, :n]


def mesh_verify(elements, u) -> float:
    """Max entry deviation between the element list's product and ``u``."""
    u = as_matrix(u, "u")
    return max_abs(passive_product(elements, u.shape[0]) - u)


# --- the per-element product that blocks.circuit_smatrix replaced -------------
#
# One row update of the N x 2N top half per element, in netlist order.  The
# package folds each mode's phase shifters into its next beam splitter's 2x2
# step, so the two agree to rounding, not to the last bit.


def smatrix_reference(circuit) -> np.ndarray:
    """``S_total`` of ``circuit`` by one in-place update of the element's rows per element."""
    n = circuit.n_modes
    top = np.eye(n, 2 * n, dtype=complex)
    for kind, a, b, angle in circuit.elements:
        if kind == PS:
            top[a] *= cmath.exp(1j * angle)
        elif kind == BS:
            c, sn = math.cos(angle), math.sin(angle)
            row_a, row_b = top[a], top[b]
            new_a = c * row_a + sn * row_b
            row_b *= c
            row_b += -sn * row_a
            row_a[...] = new_a
        else:
            rows = [a, b]
            flipped = top[rows[::-1]].conj()
            partners = np.concatenate((flipped[:, n:], flipped[:, :n]), axis=1)
            top[rows] = math.cosh(angle) * top[rows] + math.sinh(angle) * partners
    return np.vstack((top, np.roll(top.conj(), n, axis=1)))


# --- reference Reck nulling -------------------------------------------------
#
# The scalar loop: N(N-1)/2 Givens steps, each a left multiplication of two
# full rows.  Same pruning threshold and phase wrapping as the package, so
# both must emit the same elements.


def reck_reference(u, tol: float = TOL) -> list:
    """Reck factorization of ``u`` by one Python Givens step per nulled entry."""
    return emit_reference(*reck_angles(u, tol))


def reck_angles(u, tol: float = TOL):
    """``(n, lam, thetas, phis)`` of the Givens loop; step (a, b) has ``thetas[a][b-1]``, ``phis[a][b-1]``."""
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
    thetas = [[0.0] * (n - 1) for _ in range(n)]
    phis = [[0.0] * (n - 1) for _ in range(n)]
    for a, b, theta, phi in steps:
        thetas[a][b - 1], phis[a][b - 1] = theta, phi
    return n, lam, thetas, phis


def emit_reference(n: int, lam, thetas, phis) -> list:
    """Elements of the steps ``(a, b, thetas[a][b-1], phis[a][b-1])``, a < b, and residual phases ``lam``.

    u = L_1^dag ... L_K^dag Lambda with L^dag = PS(a, pi - phi) BS(theta) PS(a, pi),
    so chronologically: Lambda phases, then steps in reverse.  Adjacent phases
    on the same mode are accumulated and flushed lazily just before a beam
    splitter touches that mode.  The pi's are counted apart, as a parity per
    mode, so that two of them cancel exactly.
    """
    steps = [(a, b) for a in range(n - 1) for b in range(a + 1, n)]
    pending = list(lam)
    pis = [0] * n
    elements: list = []

    def flush(mode: int) -> None:
        phi = wrap_angle(pending[mode] + math.pi * (pis[mode] % 2))
        pending[mode] = 0.0
        pis[mode] = 0
        if abs(phi) > PRUNE_EPS:
            elements.append(ps(mode, phi))

    for a, b in reversed(steps):
        theta, phi = thetas[a][b - 1], phis[a][b - 1]
        pis[a] += 1
        if theta > PRUNE_EPS:
            flush(a)
            flush(b)
            elements.append(bs(a, b, theta))
        pis[a] += 1
        pending[a] -= phi
    for mode in range(n):
        flush(mode)
    return elements


# --- the dict expansion that sim.fock_evolve replaced ---------------------------
#
# It keeps each output monomial in a dict and adds one term per (monomial,
# mode) pair, in expansion order; the package sums the same terms in ladder
# order, so the two agree to the last bit or two.


def fock_reference(a, occupation) -> dict[tuple[int, ...], complex]:
    """``sim.fock_evolve``'s amplitudes by expanding a dict polynomial one term and one mode at a time.

    Substitutes ``a_in,k^dag -> sum_j a[j, k] a_out,j^dag`` for each input
    photon and keeps the output monomials whose amplitude exceeds
    ``sim.AMPLITUDE_PRUNE``; ``a`` is taken as given (no unitarity check).
    """
    a = as_matrix(a, "a")
    n = a.shape[0]
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
    return amplitudes
