"""End-to-end synthesis of a quasiunitary network from an arbitrary complex matrix.

Pipeline: singular value decomposition, mesh decomposition of the two
unitary factors, one beam splitter or two-mode squeezer per singular value
different from 1 (each coupling a nominal mode to its own vacuum ancilla),
and the scattering matrix of the whole circuit.  A non-square ``n x m``
input fixes only ``min(n, m)`` columns of its larger factor, so that factor
gets the mesh of an isometry (:func:`mesh.reck_decompose`) rather than of an
identity-padded square.  The result carries the circuit, the full
scattering matrix with the input in its upper-left block, and the
verification deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .blocks import BS, PS, SCHEMA, TMS, XI_MAX, Circuit, Elements, circuit_smatrix
from .numkit import (
    TOL,
    SvdFactors,
    SynthesisError,
    as_matrix,
    check_tol,
    max_abs,
    quasiunitarity_deviation,
    svd,
)

# The gain of a squeezer at the ceiling; acosh(SIGMA_MAX) == XI_MAX exactly.
SIGMA_MAX = math.cosh(XI_MAX)


@dataclass(frozen=True)
class SynthesisResult:
    """The verified circuit, its ``S_total``, the input's ``min(n, m)`` singular values and both deviations."""

    circuit: Circuit
    s_total: np.ndarray
    singulars: tuple[float, ...]
    block_deviation: float
    quasiunitarity_deviation: float


def couplings(singulars, tol: float, n_nominal: int) -> Elements:
    """The D stage: one loss or gain coupling per singular value more than ``tol`` from 1.

    Mode ``j`` is coupled iff ``|sigma_j - 1| > tol``; by Cauchy-Schwarz over a
    row of U and a column of W, leaving the other modes uncoupled moves each
    block entry by at most ``tol``.  ``singulars`` may be shorter than
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


def pad_factors(factors: SvdFactors) -> tuple[np.ndarray, np.ndarray]:
    """U (n x n) and W (m x m) padded to max(n, m) square with identity rows/cols (for ``naimark_extension``)."""
    n, m = len(factors.u), len(factors.w)
    u = np.eye(max(n, m), dtype=complex)
    w = np.eye(max(n, m), dtype=complex)
    u[:n, :n] = factors.u
    w[:m, :m] = factors.w
    return u, w


def synthesize(t, tol: float = TOL) -> SynthesisResult:
    """Compile ``t`` into a circuit and its 2N x 2N scattering matrix.

    A tall ``t`` (n >= m) meshes W and the isometry ``U[:, :m]``; a wide one
    meshes U and ``W[:n].T``, then transposes that mesh (elements reversed,
    ``BS(a, b, theta)^T = BS(b, a, theta)``) so that its first n rows are ``W[:n]``.
    The rest of each larger factor meets only vacuum ancilla inputs or
    discarded outputs.  The returned matrix has ``t`` as its upper-left block and is
    quasiunitary; both deviations are re-measured and a
    :class:`SynthesisError` is raised if either exceeds ``tol``.
    """
    t = as_matrix(t, "t")
    factors = svd(t)
    n, m = t.shape
    d_elements = couplings(factors.singulars, tol, max(n, m))
    if n >= m:
        w_elements = factor_mesh("factor W", factors.w, tol)
        u_elements = factor_mesh("factor U", factors.u[:, :m], tol)
    else:
        w_t = factor_mesh("factor W", factors.w[:n].T, tol)
        w_elements = Elements(w_t.kind[::-1], w_t.mode_b[::-1], w_t.mode_a[::-1], w_t.angle[::-1])
        u_elements = factor_mesh("factor U", factors.u, tol)
    return verified(t, factors.singulars, w_elements, d_elements, u_elements, tol)


def factor_mesh(name: str, u: np.ndarray, tol: float) -> Elements:
    """``mesh.reck_decompose(u, tol)`` of a unitary or isometry that qsynth computed itself, such as an SVD factor.

    Its failing the unitarity check is a failure of the pipeline, not of the
    caller's input, so it raises :class:`SynthesisError` naming ``name``.
    """
    try:
        return mesh.reck_decompose(u, tol)
    except mesh.NotUnitaryError as exc:
        raise SynthesisError(
            f"{name} is not unitary: deviation {exc.deviation:.3e} exceeds tol {tol:.3e}"
        ) from exc


def verified(target: np.ndarray, singulars, w_elements, d_elements, u_elements, tol: float) -> SynthesisResult:
    """Circuit W, D, U for ``target`` (one ancilla per D coupling), with its checked ``S_total``.

    Each part is :class:`Elements` or ``(kind, mode_a, mode_b, angle)`` rows; the circuit joins their columns.

    Raises :class:`SynthesisError` unless ``S_total`` is quasiunitary and holds
    ``target`` in its upper-left block, both within ``tol``.
    """
    check_tol(tol)
    n, m = target.shape
    n_nominal = max(n, m)
    n_modes = n_nominal + len(d_elements)
    circuit = Circuit(
        n_modes=n_modes,
        n_nominal=n_nominal,
        elements=Elements.join(w_elements, d_elements, u_elements),
        ancilla_inputs=tuple(range(m, n_nominal)),
        ancilla_outputs=tuple(range(n, n_nominal)),
        full_ancillas=tuple(range(n_nominal, n_modes)),
    )
    s_total = circuit_smatrix(circuit)
    block_dev = max_abs(s_total[:n, :m] - target)
    quasi_dev = quasiunitarity_deviation(s_total)
    if not (block_dev <= tol and quasi_dev <= tol):
        raise SynthesisError(
            "synthesized network failed verification: "
            f"block deviation {block_dev:.3e}, quasiunitarity deviation {quasi_dev:.3e}, tol {tol:.3e}"
        )
    return SynthesisResult(
        circuit=circuit,
        s_total=s_total,
        singulars=tuple(float(s) for s in singulars),
        block_deviation=block_dev,
        quasiunitarity_deviation=quasi_dev,
    )


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
