"""Independent reference implementations and literal fixtures for the tests.

Nothing here shares a code path with the package: permanents are enumerated
over explicit permutations, unitaries come from QR orthonormalization, the
coupling matrices are written out entry by entry, every element has a dense
matrix lift (the definition the package's row-update kernel is checked
against), the closed-form 2x2 parameters multiply out as dense 2x2 factors,
the lossy-beam-splitter network is a hand-checkable closed form in a fixed
factor gauge, and element counts, their worst-case bounds and each mode's
channel kind are read off element lists.  Only the element dataclasses come
from the package, apart from the last section: measurements the tests take of
the package's own output (Fock probabilities, moment physicality, and the
mesh error of ``mesh.reconstruct``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from qsynth.blocks import BeamSplitter, PhaseShifter, TwoModeSqueezer
from qsynth.mesh import reconstruct
from qsynth.numkit import as_matrix, max_abs
from qsynth.sim import GaussianMoments, coherent_moments

RT2 = 1.0 / math.sqrt(2.0)


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
    u = np.eye(n_modes, dtype=complex)
    if isinstance(e, PhaseShifter):
        u[e.mode, e.mode] = np.exp(1j * e.phi)
    elif isinstance(e, BeamSplitter):
        c, s = math.cos(e.theta), math.sin(e.theta)
        a, b = e.mode_a, e.mode_b
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
    if isinstance(e, TwoModeSqueezer):
        a, b = e.mode_a, e.mode_b
        ch, sh = math.cosh(e.xi), math.sinh(e.xi)
        out[a, a] = out[b, b] = out[a + n, a + n] = out[b + n, b + n] = ch
        out[a, b + n] = out[b, a + n] = out[a + n, b] = out[b + n, a] = sh
        return out
    u = element_unitary(e, n)
    out[:n, :n] = u
    out[n:, n:] = u.conj()
    return out


def _check_modes(e, n_modes: int) -> None:
    modes = (e.mode,) if isinstance(e, PhaseShifter) else (e.mode_a, e.mode_b)
    if any(not (0 <= m < n_modes) for m in modes):
        raise ValueError(f"element {e} references a mode outside 0..{n_modes - 1}")


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
    """Element-count ceilings for an n x m input (D-stage elements counted in max_d)."""
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be >= 1, got {n}x{m}")
    return CountBounds(
        max_bs=n * (n - 1) // 2 + m * (m - 1) // 2,
        max_ps=n * (n + 1) // 2 + m * (m + 1) // 2,
        max_d=min(n, m),
    )


def element_counts(elements) -> dict:
    """Beam splitters, phase shifters and squeezers in an element list."""
    return {
        "beam_splitters": sum(1 for e in elements if isinstance(e, BeamSplitter)),
        "phase_shifters": sum(1 for e in elements if isinstance(e, PhaseShifter)),
        "squeezers": sum(1 for e in elements if isinstance(e, TwoModeSqueezer)),
    }


def channels(elements, n_nominal: int) -> list[tuple[str, int | None]]:
    """``(kind, ancilla)`` of each nominal mode, read off the D-stage couplings in ``elements``.

    A D-stage coupling joins a nominal mode to an ancilla (a mode index
    ``>= n_nominal``): a beam splitter is a loss channel, a squeezer a gain
    channel.  A mode with no coupling is a unit channel without an ancilla.
    """
    out: list[tuple[str, int | None]] = [("unit", None)] * n_nominal
    for e in elements:
        if not isinstance(e, PhaseShifter) and e.mode_b >= n_nominal:
            out[e.mode_a] = ("gain" if isinstance(e, TwoModeSqueezer) else "loss", e.mode_b)
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


def norm_squared(state) -> float:
    return sum(abs(a) ** 2 for a in state.amplitudes.values())


def probability(state, occupation) -> float:
    return abs(state.amplitudes.get(tuple(occupation), 0.0)) ** 2


def probability_where(state, predicate) -> float:
    return sum(abs(a) ** 2 for occ, a in state.amplitudes.items() if predicate(occ))


def vacuum_moments(n_modes: int) -> GaussianMoments:
    return coherent_moments(np.zeros(n_modes, dtype=complex))


def physicality_residual(moments: GaussianMoments) -> float:
    """How far the stored second moments are from the bosonic-commutator structure.

    For any physical state the matrix ``<dA_i dA_j^dag>`` is Hermitian, its
    upper-right ``<da da>`` block is symmetric, and its lower-right
    ``<da^dag da>`` block equals the transpose of the upper-left block minus
    the identity (the ``[a, a^dag] = 1`` reordering).  Quasiunitary evolution
    with conjugate-structured blocks preserves all three, so the residual is
    an invariant of the propagation.
    """
    sigma = moments.second
    n = len(moments.mean) // 2
    p = sigma[:n, :n]
    q = sigma[:n, n:]
    s_blk = sigma[n:, n:]
    return max(
        max_abs(sigma - sigma.conj().T),
        max_abs(q - q.T),
        max_abs(s_blk - (p.T - np.eye(n))),
    )


def mesh_verify(elements, u) -> float:
    """Max entry deviation between the reconstructed element product and ``u``."""
    u = as_matrix(u, "u")
    return max_abs(reconstruct(elements, u.shape[0]) - u)
