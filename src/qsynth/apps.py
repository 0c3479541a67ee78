"""Applications: Naimark extensions for rank-one POVMs and a postselected
controlled-Z gate verified photon by photon.

A rank-one POVM with m outcomes on an n-dimensional space is carried as the
n x m matrix whose columns are the (unnormalized) measurement vectors; its
rows are orthonormal (``T T^dag = I``), so every singular value is 1 and the
synthesis needs no full ancillas.  The padded product of the unitary factors
is then an m x m unitary whose first n rows equal the POVM matrix: detecting
outcome i after running the photon through the adjoint network reproduces the
POVM statistics exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import TOL, SynthesisError, as_matrix, check_tol, max_abs, svd
from .sim import fock_evolve, passive_block, postselect
from .synth import SynthesisResult, pad_factors


@dataclass(frozen=True)
class RankOnePovm:
    """Rank-one POVM: the read-only ``dim x m`` matrix whose columns are the outcome vectors."""

    matrix: np.ndarray

    @classmethod
    def from_vectors(cls, vectors) -> "RankOnePovm":
        vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
        if not vecs:
            raise ValueError("POVM needs at least one vector")
        if any(len(v) != len(vecs[0]) for v in vecs):
            raise ValueError("all POVM vectors must have the same length")
        matrix = np.column_stack(vecs)
        matrix.flags.writeable = False
        return cls(matrix)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def from_operators(cls, operators, tol: float = TOL) -> "RankOnePovm":
        """Factor rank-one operators E_i = phi phi^dag; higher-rank elements are rejected."""
        check_tol(tol)
        vectors = []
        for i, op in enumerate(operators):
            e = as_matrix(op, f"operator {i}")
            if e.shape[0] != e.shape[1]:
                raise ValueError(f"operator {i} must be square, got {e.shape}")
            if not max_abs(e - e.conj().T) <= tol:
                raise ValueError(f"operator {i} is not Hermitian")
            values, basis = np.linalg.eigh(e)
            top = values[-1]
            if not values[0] >= -tol * max(1.0, top):
                raise ValueError(f"operator {i} is not positive semidefinite")
            residual = float(np.max(np.abs(values[:-1]))) if len(values) > 1 else 0.0
            if not residual <= tol * max(1.0, top):
                raise ValueError(f"operator {i} is not rank one (residual eigenvalue {residual:.3e})")
            vectors.append(math.sqrt(max(top, 0.0)) * basis[:, -1])
        return cls.from_vectors(vectors)

    def completeness_deviation(self) -> float:
        t = self.matrix
        return max_abs(t @ t.conj().T - np.eye(self.dim))


def naimark_extension(povm: RankOnePovm, tol: float = TOL) -> np.ndarray:
    """m x m unitary whose first n rows are the POVM matrix.

    Requires ``T T^dag = I`` within ``tol`` (rejected otherwise, with the
    measured deviation); that makes every singular value 1, the diagonal
    factor pads to the identity, and the padded product of the unitary
    factors is the extension.  The last ``m - n`` modes are ancilla outputs.
    """
    check_tol(tol)
    deviation = povm.completeness_deviation()
    if not deviation <= tol:
        raise ValueError(f"POVM is not complete: T T^dag deviates from I by {deviation:.3e}")
    t = povm.matrix
    n, m = t.shape
    if m < n:
        raise ValueError(f"need at least dim outcomes, got {m} < {n}")
    factors = svd(t)
    worst = max(abs(s - 1.0) for s in factors.singulars)
    if not worst <= tol:
        raise ValueError(f"singular values deviate from 1 by {worst:.3e}; input is not a rank-one POVM matrix")
    u_pad, w_pad = pad_factors(factors)
    return u_pad @ w_pad


def povm_probabilities(extension, psi) -> np.ndarray:
    """Outcome probabilities |(ext^dag psi_padded)_i|^2 for a pure state ``psi``.

    Operationally: the photon state enters the adjoint network and is counted
    at the m outputs, one detector per POVM outcome.
    """
    ext = as_matrix(extension, "extension")
    m = ext.shape[0]
    psi = np.asarray(psi, dtype=complex).ravel()
    if len(psi) > m:
        raise ValueError(f"state has {len(psi)} components, extension only {m} modes")
    padded = np.zeros(m, dtype=complex)
    padded[: len(psi)] = psi
    amps = ext.conj().T @ padded
    return np.abs(amps) ** 2


def cz_gate_target() -> np.ndarray:
    """The fixed 4x4 transformation whose passive network realizes a postselected CZ.

    Mode order (cH, cV, tH, tV); the two off-diagonal couplings carry
    sqrt(2/3) and the diagonal sqrt(1/3) with a sign flip on the target block.
    """
    a = math.sqrt(1.0 / 3.0)
    b = math.sqrt(2.0 / 3.0)
    return np.array([[a, 0.0, b, 0.0],
                     [0.0, a, 0.0, 0.0],
                     [b, 0.0, -a, 0.0],
                     [0.0, 0.0, 0.0, -a]], dtype=complex)


CZ_INPUTS = ("HH", "HV", "VH", "VV")
_CZ_MODE_PAIRS = {"HH": (0, 2), "HV": (0, 3), "VH": (1, 2), "VV": (1, 3)}


@dataclass(frozen=True)
class CzVerification:
    """Postselected behavior of the compiled CZ network."""

    success_prob: float
    phase_pattern: tuple[int, int, int, int]
    amplitudes: dict[str, complex]
    success_probs: dict[str, float]


def verify_cz(result: SynthesisResult, tol: float = TOL) -> CzVerification:
    """Fock-simulate the four computational inputs and check the CZ contract.

    Each input is a photon pair on one control and one target mode with
    vacuum ancillas; postselection keeps outcomes with exactly one photon in
    the control modes and one in the target modes.  Asserts equal success
    probability 1/9 and the (-,+,+,+) sign pattern after dividing out the
    global phase.

    Raises:
        NotPassiveError: if the network is active.
        SynthesisError: if the probabilities or the sign pattern do not match.
    """
    block = passive_block(result.s_total, tol)
    n = block.shape[0]

    amplitudes: dict[str, complex] = {}
    success_probs: dict[str, float] = {}
    for label in CZ_INPUTS:
        occupation = tuple(int(k in _CZ_MODE_PAIRS[label]) for k in range(n))
        state = fock_evolve(block, occupation, tol)
        occ = state.occupations
        _, success_probs[label] = postselect(state, (occ[:, 0] + occ[:, 1] == 1) & (occ[:, 2] + occ[:, 3] == 1))
        found = state.amplitudes[(occ == occupation).all(axis=1)]  # the input row, unless pruned
        amplitudes[label] = complex(found[0]) if len(found) else 0j

    for label, prob in success_probs.items():
        if not abs(prob - 1.0 / 9.0) <= tol:
            raise SynthesisError(f"input {label}: success probability {prob} differs from 1/9")

    # Divide out the global phase: the common amplitude factor is then positive on HV, VH and VV.
    reference = amplitudes["HV"]
    if abs(reference) == 0:
        raise SynthesisError("HV amplitude vanished; no phase reference")
    phase = reference / abs(reference)
    normalized = {label: amp / phase for label, amp in amplitudes.items()}
    expected_signs = {"HH": -1, "HV": 1, "VH": 1, "VV": 1}
    for label, sign in expected_signs.items():
        target = sign / 3.0
        if not abs(normalized[label] - target) <= tol:
            raise SynthesisError(f"input {label}: postselected amplitude {normalized[label]} differs from {target}")
    return CzVerification(
        success_prob=success_probs["HH"],
        phase_pattern=tuple(expected_signs[label] for label in CZ_INPUTS),
        amplitudes=normalized,
        success_probs=success_probs,
    )
