"""End-to-end synthesis of a quasiunitary network from an arbitrary complex matrix.

Pipeline: singular value decomposition, mesh decomposition of the two
unitary factors (or of their product alone, if every singular value is 1),
one beam splitter or two-mode squeezer per singular value different from 1
(each coupling a nominal mode to its own vacuum ancilla), and the scattering
matrix of the whole circuit, as its ``N x 2N`` top half.  A non-square
``n x m`` input fixes only ``min(n, m)`` columns of its larger factor, and a
fully lost singular value fixes none, so each factor gets the mesh of an
isometry (:func:`mesh.reck_decompose`) rather than of an identity-padded
square.  The result carries the circuit, that top half with the input in its
upper-left block, and the verification deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .blocks import BS, MAX_MODES, PS, SCHEMA, TMS, XI_MAX, Circuit, Elements, circuit_smatrix
from .numkit import TOL, SynthesisError, as_matrix, check_tol, max_abs, partner_rows, quasiunitarity_deviation, svd

# The gain of a squeezer at the ceiling; acosh(SIGMA_MAX) == XI_MAX exactly.
SIGMA_MAX = math.cosh(XI_MAX)


@dataclass(frozen=True)
class SynthesisResult:
    """The verified circuit, the N x 2N top half of ``S_total``, the ``min(n, m)`` singular values, both deviations."""

    circuit: Circuit
    top: np.ndarray
    singulars: tuple[float, ...]
    block_deviation: float
    quasiunitarity_deviation: float

    @property
    def s_total(self) -> np.ndarray:
        """The paper's 2N x 2N ``S_total = [[A, B], [B*, A*]]``, built from ``top`` on each access."""
        return np.concatenate((self.top, partner_rows(self.top)))


def couplings(singulars, tol: float, n_nominal: int) -> Elements:
    """The D stage, built by :func:`verified`: one loss or gain coupling per singular value more than ``tol`` from 1.

    Mode ``j`` is coupled iff ``|sigma_j - 1| > tol``.  :func:`synthesize` drops
    a loss mode with ``sigma_j <= tol / 2`` from its meshes, whose own column
    ``U_m[:, j]`` and row ``W_m[j]`` then stand in for ``U[:, j]`` and ``W[j]``:
    the term it adds and the term it loses are each at most ``sigma_j``, so a
    dropped mode moves a block entry by at most ``2 max sigma_dropped <= tol``.
    Over the uncoupled modes A and the dropped modes B, entry ``(i, l)`` moves
    by at most ``tol sum_A a b + (tol / 2) sum_B (a b + a' b')`` with
    ``a = |U[i, j]|``, ``b = |W[j, l]|`` and ``a'``, ``b'`` the meshes' entries,
    which equal them on A.  That is ``(tol / 2) (sum_{A+B} a b + sum_{A+B} a' b')``,
    and Cauchy-Schwarz over a row and a column of each keeps both sums within
    1, so the total stays within ``tol``.  ``singulars`` may be shorter than
    ``n_nominal``; the modes past its end stay uncoupled, as for exactly 1.
    Ancillas are numbered in ascending mode order starting at ``n_nominal``.
    Loss ``sigma < 1`` is a beam splitter with ``theta = acos(sigma)`` and gain
    a two-mode squeezer with ``xi = acosh(sigma)``.
    """
    check_tol(tol)
    sigmas = [float(s) for s in singulars]
    if len(sigmas) > n_nominal:
        raise ValueError(f"got {len(sigmas)} singular values for {n_nominal} nominal modes")
    if any(s < 0 for s in sigmas):
        raise ValueError(f"singular values must be non-negative, got {min(sigmas)}")
    beyond = [s for s in sigmas if not s <= SIGMA_MAX]  # NaN fails the comparison too
    if beyond:
        raise ValueError(f"singular value {max(beyond):.3e} exceeds the gain ceiling {SIGMA_MAX:.3e}")
    coupled = [(j, sigma) for j, sigma in enumerate(sigmas) if abs(sigma - 1.0) > tol]
    return Elements([BS if sigma < 1.0 else TMS for _, sigma in coupled], [j for j, _ in coupled],
                    range(n_nominal, n_nominal + len(coupled)),
                    [math.acos(sigma) if sigma < 1.0 else math.acosh(sigma) for _, sigma in coupled])


def synthesize(t, tol: float = TOL) -> SynthesisResult:
    """Compile ``t`` into a circuit and the top half of its scattering matrix; refuse ``max(n, m) > MAX_MODES``.

    A singular value is dropped if ``sigma_j <= tol / 2`` and :func:`couplings`
    couples it as loss (``1 - sigma_j > tol``); with ``r`` of the ``min(n, m)``
    not dropped (the first ``r``, as they descend), the circuit meshes ``W[:r]``
    and ``U[:, :r]`` (:func:`factor_mesh`), at most ``r (2m - r - 1) / 2 +
    r (2n - r - 1) / 2`` beam splitters.  The rest of each factor meets only
    vacuum ancilla inputs, discarded outputs, or a dropped mode's loss coupling
    (``theta`` near pi/2, ancilla kept), which moves the block by at most ``tol``
    (the bound argument is in :func:`couplings`).  If :func:`couplings`, run
    before any mesh (so its ValueError comes first), couples no singular value,
    the two meshes become one, Reck's, of the isometry ``U[:, :r] W[:r]``.
    :func:`verified` adds the D stage and checks the product: the returned
    top half has ``t`` as its upper-left block and is quasiunitary, and a
    :class:`SynthesisError` is raised if either deviation exceeds ``tol``.
    """
    t = as_matrix(t, "t")
    if max(t.shape) > MAX_MODES:
        raise ValueError(f"t needs {max(t.shape)} nominal modes, which exceeds the ceiling {MAX_MODES}")
    u, singulars, w = svd(t)
    r = len(singulars)
    while r and singulars[r - 1] <= tol / 2 and 1.0 - singulars[r - 1] > tol:  # they descend: drop from the end
        r -= 1
    if couplings(singulars, tol, max(t.shape)):
        return verified(t, singulars, factor_mesh("factor W", w[:r], tol), factor_mesh("factor U", u[:, :r], tol), tol)
    return verified(t, singulars, (), factor_mesh("factor U W", u[:, :r] @ w[:r], tol), tol)


def factor_mesh(name: str, a: np.ndarray, tol: float) -> Elements:
    """``mesh.reck_decompose(a, tol)`` of a unitary or isometry that qsynth computed itself, such as an SVD factor.

    A wide ``a`` gets the transpose of the mesh of ``a.T`` (elements reversed,
    ``BS(a, b, theta)^T = BS(b, a, theta)``), so that its first rows are ``a``.
    Failing the unitarity check is a failure of the pipeline, not of the
    caller's input, so it raises :class:`SynthesisError` naming ``name``.
    """
    try:
        if a.shape[0] >= a.shape[1]:
            return mesh.reck_decompose(a, tol)
        e = mesh.reck_decompose(a.T, tol)
    except mesh.NotUnitaryError as exc:
        raise SynthesisError(
            f"{name} is not unitary: deviation {exc.deviation:.3e} exceeds tol {tol:.3e}"
        ) from exc
    return Elements(e.kind[::-1], e.mode_b[::-1], e.mode_a[::-1], e.angle[::-1])


def verified(target: np.ndarray, singulars, w_elements, u_elements, tol: float) -> SynthesisResult:
    """Circuit W, D, U for ``target``, with its checked top half; D is ``couplings(singulars, tol, max(n, m))``.

    ``w_elements`` and ``u_elements`` are :class:`Elements` or ``(kind, mode_a, mode_b, angle)`` rows; the
    circuit joins their columns around D's, with one full ancilla per D coupling.

    Raises ValueError from :func:`couplings` (a bad ``tol``, or a singular value
    beyond the gain ceiling) before anything is built, and :class:`SynthesisError`
    unless ``S_total`` is quasiunitary and its top half holds ``target`` in its
    upper-left block, both within ``tol``.
    """
    n, m = target.shape
    n_nominal = max(n, m)
    d_elements = couplings(singulars, tol, n_nominal)
    n_modes = n_nominal + len(d_elements)
    circuit = Circuit(
        n_modes=n_modes,
        n_nominal=n_nominal,
        elements=Elements.join(w_elements, d_elements, u_elements),
        ancilla_inputs=tuple(range(m, n_nominal)),
        ancilla_outputs=tuple(range(n, n_nominal)),
        full_ancillas=tuple(range(n_nominal, n_modes)),
    )
    top = circuit_smatrix(circuit)
    block_dev = max_abs(top[:n, :m] - target)
    quasi_dev = quasiunitarity_deviation(top)
    if not (block_dev <= tol and quasi_dev <= tol):
        raise SynthesisError(
            "synthesized network failed verification: "
            f"block deviation {block_dev:.3e}, quasiunitarity deviation {quasi_dev:.3e}, tol {tol:.3e}"
        )
    return SynthesisResult(circuit, top, tuple(float(s) for s in singulars), block_dev, quasi_dev)


def verification_report(result: SynthesisResult) -> dict:
    """JSON-ready verification summary of a synthesis result."""
    kinds = result.circuit.elements.kind
    return {
        "schema": SCHEMA,
        "quasiunitarity_deviation": result.quasiunitarity_deviation,
        "block_deviation": result.block_deviation,
        "n_full_ancillas": len(result.circuit.full_ancillas),
        "counts": {
            "beam_splitters": kinds.count(BS),
            "phase_shifters": kinds.count(PS),
            "squeezers": kinds.count(TMS),
        },
        "singular_values": list(result.singulars),
    }
