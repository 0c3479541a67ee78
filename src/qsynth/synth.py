"""End-to-end synthesis of a quasiunitary network from an arbitrary complex matrix.

Pipeline: singular value decomposition, identity padding for non-square
inputs, mesh decomposition of the two unitary factors, one beam splitter or
two-mode squeezer per singular value different from 1 (each coupling a
nominal mode to its own vacuum ancilla), and the scattering matrix of the
whole element list.  The result carries the circuit, the full scattering matrix
with the input in its upper-left block, and the verification deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .blocks import (
    SCHEMA,
    XI_MAX,
    BeamSplitter,
    Circuit,
    Element,
    PhaseShifter,
    TwoModeSqueezer,
    circuit_smatrix,
)
from .numkit import (
    TOL,
    SvdFactors,
    as_matrix,
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


class SynthesisError(RuntimeError):
    """Internal post-check failed: the assembled network does not verify."""

    def __init__(self, block_deviation: float, quasi_deviation: float, tol: float):
        super().__init__(
            "synthesized network failed verification: "
            f"block deviation {block_deviation:.3e}, "
            f"quasiunitarity deviation {quasi_deviation:.3e}, tol {tol:.3e}"
        )
        self.block_deviation = block_deviation
        self.quasi_deviation = quasi_deviation


def couplings(singulars, tol: float, n_nominal: int) -> list[Element]:
    """The D stage: one loss or gain coupling per singular value more than ``tol`` from 1.

    Mode ``j`` is coupled iff ``|sigma_j - 1| > tol``; by Cauchy-Schwarz over a
    row of U and a column of W, leaving the other modes uncoupled moves each
    block entry by at most ``tol``.  ``singulars`` may be shorter than
    ``n_nominal``; missing entries are the identity padding values, exactly 1.
    Ancillas are numbered in ascending mode order starting at ``n_nominal``.
    """
    if not 0 < tol < 1:  # also rejects NaN
        raise ValueError(f"tol must be positive and below 1, got {tol}")
    sigmas = [float(s) for s in singulars]
    if len(sigmas) > n_nominal:
        raise ValueError(f"got {len(sigmas)} singular values for {n_nominal} nominal modes")
    if any(s < 0 for s in sigmas):
        raise ValueError(f"singular values must be non-negative, got {min(sigmas)}")
    if any(s > SIGMA_MAX for s in sigmas):
        raise ValueError(f"singular value {max(sigmas):.3e} exceeds the gain ceiling {SIGMA_MAX:.3e}")
    coupled = [(j, sigma) for j, sigma in enumerate(sigmas) if abs(sigma - 1.0) > tol]
    return [singular_element(j, n_nominal + k, sigma) for k, (j, sigma) in enumerate(coupled)]


def pad_factors(factors: SvdFactors, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad U and W of an n x m decomposition to max(n, m) square with identity rows/cols."""
    u = np.eye(max(n, m), dtype=complex)
    w = np.eye(max(n, m), dtype=complex)
    u[:n, :n] = factors.u
    w[:m, :m] = factors.w
    return u, w


def singular_element(j: int, m_aj: int, sigma: float) -> Element:
    """Loss (beam splitter) or gain (squeezer) coupling of mode ``j`` to ancilla ``m_aj``."""
    if sigma < 1.0:
        return BeamSplitter(mode_a=j, mode_b=m_aj, theta=math.acos(sigma))
    return TwoModeSqueezer(mode_a=j, mode_b=m_aj, xi=math.acosh(sigma))


def synthesize(t, tol: float = TOL, factors: SvdFactors | None = None) -> SynthesisResult:
    """Compile ``t`` into a circuit and its 2N x 2N scattering matrix.

    ``factors`` lets callers inject a pre-computed decomposition (useful for
    reproducing a fixed factor gauge); it must reconstruct ``t`` within
    ``tol``.  The returned matrix has ``t`` as its upper-left block and is
    quasiunitary; both deviations are re-measured and a
    :class:`SynthesisError` is raised if either exceeds ``tol``.
    """
    t = as_matrix(t, "t")
    n, m = t.shape
    if n < 1 or m < 1:
        raise ValueError(f"t must be non-empty, got shape {t.shape}")

    if factors is None:
        factors = svd(t)
    else:
        _check_factors(factors, t, tol)

    d_elements = couplings(factors.singulars, tol, max(n, m))
    u_pad, w_pad = pad_factors(factors, n, m)
    w_elements = mesh.reck_decompose(w_pad, tol)
    u_elements = mesh.reck_decompose(u_pad, tol)
    return verified(t, factors.singulars, w_elements, d_elements, u_elements, tol)


def verified(target: np.ndarray, singulars, w_elements, d_elements, u_elements, tol: float) -> SynthesisResult:
    """Circuit W, D, U for ``target`` (one ancilla per D coupling), with its checked ``S_total``.

    Raises :class:`SynthesisError` unless ``S_total`` is quasiunitary and holds
    ``target`` in its upper-left block, both within ``tol``.
    """
    n, m = target.shape
    n_nominal = max(n, m)
    n_modes = n_nominal + len(d_elements)
    circuit = Circuit(
        n_modes=n_modes,
        n_nominal=n_nominal,
        elements=(*w_elements, *d_elements, *u_elements),
        ancilla_inputs=tuple(range(m, n_nominal)),
        ancilla_outputs=tuple(range(n, n_nominal)),
        full_ancillas=tuple(range(n_nominal, n_modes)),
    )
    s_total = circuit_smatrix(circuit)
    block_dev = max_abs(s_total[:n, :m] - target)
    quasi_dev = quasiunitarity_deviation(s_total)
    if block_dev > tol or quasi_dev > tol:
        raise SynthesisError(block_dev, quasi_dev, tol)
    return SynthesisResult(
        circuit=circuit,
        s_total=s_total,
        singulars=tuple(float(s) for s in singulars),
        block_deviation=block_dev,
        quasiunitarity_deviation=quasi_dev,
    )


def _check_factors(factors: SvdFactors, t: np.ndarray, tol: float) -> None:
    n, m = t.shape
    if factors.u.shape != (n, n) or factors.w.shape != (m, m):
        raise ValueError(
            f"injected factors have shapes {factors.u.shape}/{factors.w.shape}, expected {n}x{n}/{m}x{m}"
        )
    if len(factors.singulars) != min(n, m):
        raise ValueError(f"expected {min(n, m)} singular values, got {len(factors.singulars)}")
    if sorted(factors.singulars, reverse=True) != list(factors.singulars):
        raise ValueError("injected singular values must be sorted descending")
    deviation = max_abs(factors.reconstruct() - t)
    if deviation > tol:
        raise ValueError(f"injected factors reconstruct t with deviation {deviation:.3e} > tol")


def verification_report(result: SynthesisResult) -> dict:
    """JSON-ready verification summary of a synthesis result."""
    elements = result.circuit.elements
    return {
        "schema": SCHEMA,
        "quasiunitarity_deviation": result.quasiunitarity_deviation,
        "block_deviation": result.block_deviation,
        "n_full_ancillas": len(result.circuit.full_ancillas),
        "counts": {
            "beam_splitters": sum(isinstance(e, BeamSplitter) for e in elements),
            "phase_shifters": sum(isinstance(e, PhaseShifter) for e in elements),
            "squeezers": sum(isinstance(e, TwoModeSqueezer) for e in elements),
        },
        "singular_values": list(result.singulars),
    }
