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
    BeamSplitter,
    Circuit,
    Element,
    PhaseShifter,
    TwoModeSqueezer,
    circuit_smatrix,
)
from .numkit import (
    SvdFactors,
    as_matrix,
    max_abs,
    quasiunitarity_deviation,
    svd,
    upper_left_block,
)

DEFAULT_EPS_SIGMA = 1e-9
# Gains above this would overflow sqrt(sigma^2 - 1) bookkeeping long before
# any physical device could realize them.
DEFAULT_SIGMA_MAX = math.cosh(50.0)

KIND_UNIT = "unit"
KIND_LOSS = "loss"
KIND_GAIN = "gain"


@dataclass(frozen=True)
class SynthesisConfig:
    tol: float = 1e-10
    eps_sigma: float = DEFAULT_EPS_SIGMA
    sigma_max: float = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        if not (self.tol > 0 and self.eps_sigma > 0):  # also rejects NaN
            raise ValueError("tol and eps_sigma must be positive")


@dataclass(frozen=True)
class ModeChannel:
    """Classification of one nominal mode: its singular value and ancilla, if any."""

    sigma: float
    kind: str
    ancilla: int | None


@dataclass(frozen=True)
class SingularClassification:
    n_nominal: int
    channels: tuple[ModeChannel, ...]

    @property
    def n_full_ancillas(self) -> int:
        return sum(1 for ch in self.channels if ch.ancilla is not None)

    @property
    def n_total(self) -> int:
        return self.n_nominal + self.n_full_ancillas

    def sigmas(self) -> tuple[float, ...]:
        return tuple(ch.sigma for ch in self.channels)


@dataclass(frozen=True)
class ElementCounts:
    beam_splitters: int
    phase_shifters: int
    squeezers: int


@dataclass(frozen=True)
class CountBounds:
    """Worst-case element counts for an n x m transformation."""

    max_bs: int
    max_ps: int
    max_d: int


@dataclass(frozen=True)
class SynthesisResult:
    circuit: Circuit
    s_total: np.ndarray
    classification: SingularClassification
    counts: ElementCounts
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


def count_bounds(n: int, m: int) -> CountBounds:
    """Element-count ceilings for an n x m input (D-stage elements counted in max_d)."""
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be >= 1, got {n}x{m}")
    return CountBounds(
        max_bs=n * (n - 1) // 2 + m * (m - 1) // 2,
        max_ps=n * (n + 1) // 2 + m * (m + 1) // 2,
        max_d=min(n, m),
    )


def classify_singulars(singulars, eps_sigma: float, n_nominal: int) -> SingularClassification:
    """Assign each nominal mode a kind (unit/loss/gain) and, if needed, an ancilla.

    ``singulars`` may be shorter than ``n_nominal``; missing entries are the
    identity padding values, exactly 1.  Ancilla indices are handed out in
    ascending mode order starting at ``n_nominal``.
    """
    sigmas = [float(s) for s in singulars]
    if len(sigmas) > n_nominal:
        raise ValueError(f"got {len(sigmas)} singular values for {n_nominal} nominal modes")
    if any(s < 0 for s in sigmas):
        raise ValueError(f"singular values must be non-negative, got {min(sigmas)}")
    sigmas += [1.0] * (n_nominal - len(sigmas))

    channels = []
    next_ancilla = n_nominal
    for sigma in sigmas:
        if abs(sigma - 1.0) <= eps_sigma:
            channels.append(ModeChannel(sigma=sigma, kind=KIND_UNIT, ancilla=None))
        else:
            kind = KIND_LOSS if sigma < 1.0 else KIND_GAIN
            channels.append(ModeChannel(sigma=sigma, kind=kind, ancilla=next_ancilla))
            next_ancilla += 1
    return SingularClassification(n_nominal=n_nominal, channels=tuple(channels))


def pad_factors(factors: SvdFactors, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad U, D, W of an n x m decomposition to max(n, m) square with identity rows/cols."""
    n_pad = max(n, m)
    u = _identity_pad(factors.u, n_pad)
    w = _identity_pad(factors.w, n_pad)
    d = np.eye(n_pad, dtype=complex)
    for i, sigma in enumerate(factors.singulars):
        d[i, i] = sigma
    return u, d, w


def _identity_pad(square: np.ndarray, n_pad: int) -> np.ndarray:
    k = square.shape[0]
    if k == n_pad:
        return square.copy()
    out = np.eye(n_pad, dtype=complex)
    out[:k, :k] = square
    return out


def singular_element(j: int, m_aj: int, sigma: float) -> Element:
    """Loss (beam splitter) or gain (squeezer) coupling of mode ``j`` to ancilla ``m_aj``."""
    if sigma < 1.0:
        return BeamSplitter(mode_a=j, mode_b=m_aj, theta=math.acos(sigma))
    return TwoModeSqueezer(mode_a=j, mode_b=m_aj, xi=math.acosh(sigma))


def count_elements(circuit: Circuit) -> ElementCounts:
    return ElementCounts(
        beam_splitters=sum(1 for e in circuit.elements if isinstance(e, BeamSplitter)),
        phase_shifters=sum(1 for e in circuit.elements if isinstance(e, PhaseShifter)),
        squeezers=sum(1 for e in circuit.elements if isinstance(e, TwoModeSqueezer)),
    )


def synthesize(t, config: SynthesisConfig | None = None, factors: SvdFactors | None = None) -> SynthesisResult:
    """Compile ``t`` into a circuit and its 2N x 2N scattering matrix.

    ``factors`` lets callers inject a pre-computed decomposition (useful for
    reproducing a fixed factor gauge); it must reconstruct ``t`` within the
    configured tolerance.  The returned matrix has ``t`` as its upper-left
    block and is quasiunitary; both deviations are re-measured and a
    :class:`SynthesisError` is raised if either exceeds ``config.tol``.
    """
    cfg = config or SynthesisConfig()
    t = as_matrix(t, "t")
    n, m = t.shape
    if n < 1 or m < 1:
        raise ValueError(f"t must be non-empty, got shape {t.shape}")

    if factors is None:
        factors = svd(t)
    else:
        _check_factors(factors, t, cfg.tol)

    n_nominal = max(n, m)
    u_pad, d_pad, w_pad = pad_factors(factors, n, m)
    classification = classify_singulars(np.diag(d_pad).real, cfg.eps_sigma, n_nominal)
    if any(ch.sigma > cfg.sigma_max for ch in classification.channels):
        worst = max(ch.sigma for ch in classification.channels)
        raise ValueError(f"singular value {worst:.3e} exceeds the gain ceiling {cfg.sigma_max:.3e}")

    w_elements = mesh.reck_decompose(w_pad, cfg.tol)
    u_elements = mesh.reck_decompose(u_pad, cfg.tol)
    d_elements = [
        singular_element(j, ch.ancilla, ch.sigma)
        for j, ch in enumerate(classification.channels)
        if ch.ancilla is not None
    ]

    circuit = Circuit(
        n_modes=classification.n_total,
        n_nominal=n_nominal,
        elements=tuple(w_elements + d_elements + u_elements),
        ancilla_inputs=tuple(range(m, n_nominal)) if n > m else (),
        ancilla_outputs=tuple(range(n, n_nominal)) if m > n else (),
        full_ancillas=tuple(range(n_nominal, classification.n_total)),
    )
    return verified(circuit, classification, t, cfg.tol)


def verified(circuit: Circuit, classification: SingularClassification, target: np.ndarray, tol: float) -> SynthesisResult:
    """Assemble ``S_total``; raise :class:`SynthesisError` unless it is quasiunitary and holds ``target``."""
    s_total = circuit_smatrix(circuit)
    block_dev = max_abs(upper_left_block(s_total, *target.shape) - target)
    quasi_dev = quasiunitarity_deviation(s_total)
    if block_dev > tol or quasi_dev > tol:
        raise SynthesisError(block_dev, quasi_dev, tol)
    return SynthesisResult(
        circuit=circuit,
        s_total=s_total,
        classification=classification,
        counts=count_elements(circuit),
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
    # Padding entries of the classification are exactly 1; the input's own
    # singular values are the first min(n, m).
    c = result.circuit
    n = c.n_nominal - len(c.ancilla_inputs)
    m = c.n_nominal - len(c.ancilla_outputs)
    sigmas = result.classification.sigmas()[: min(n, m)]
    return {
        "schema": "qsynth/1",
        "quasiunitarity_deviation": result.quasiunitarity_deviation,
        "block_deviation": result.block_deviation,
        "n_full_ancillas": result.classification.n_full_ancillas,
        "counts": {
            "beam_splitters": result.counts.beam_splitters,
            "phase_shifters": result.counts.phase_shifters,
            "squeezers": result.counts.squeezers,
        },
        "singular_values": [float(s) for s in sigmas],
    }
