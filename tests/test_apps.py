import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.apps import (
    RankOnePovm,
    cz_gate_target,
    naimark_extension,
    povm_probabilities,
    verify_cz,
)
from qsynth.blocks import BS
from qsynth.mesh import reck_decompose
from qsynth.numkit import TOL, SynthesisError, max_abs, svd, unitarity_deviation
from qsynth.sim import NotPassiveError
from qsynth.synth import synthesize

from oracles import element_counts, mesh_verify, random_unitary


def trine_povm() -> RankOnePovm:
    vectors = [
        math.sqrt(2.0 / 3.0)
        * np.array([math.cos(2 * math.pi * i / 3), math.sin(2 * math.pi * i / 3)])
        for i in range(3)
    ]
    return RankOnePovm.from_vectors(vectors)


def test_trine_extension_is_unitary_and_contains_vectors():
    povm = trine_povm()
    ext = naimark_extension(povm)
    assert ext.shape == (3, 3)
    assert unitarity_deviation(ext) < 1e-10
    assert max_abs(ext[:2, :] - povm.matrix) < 1e-12


def test_trine_probabilities_match_projector_oracle():
    povm = trine_povm()
    ext = naimark_extension(povm)
    rng = np.random.default_rng(71)
    for _ in range(200):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        probs = povm_probabilities(ext, psi)
        direct = np.array([abs(np.vdot(v, psi)) ** 2 for v in povm.matrix.T])
        assert max_abs(probs - direct) < 1e-10
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_orthonormal_basis_povm_extension_is_input():
    rng = np.random.default_rng(72)
    u = random_unitary(rng, 3)
    povm = RankOnePovm.from_vectors([u[:, i] for i in range(3)])
    ext = naimark_extension(povm)
    assert max_abs(ext - povm.matrix) < 1e-10


def test_random_rank_one_povm_from_unitary_rows():
    # Any m x m unitary restricted to n rows gives a complete rank-one POVM.
    rng = np.random.default_rng(73)
    for m, n in ((4, 2), (5, 3)):
        rows = random_unitary(rng, m)[:n, :]
        povm = RankOnePovm.from_vectors([rows[:, i] for i in range(m)])
        ext = naimark_extension(povm)
        assert unitarity_deviation(ext) < 1e-10
        assert max_abs(ext[:n, :] - povm.matrix) < 1e-10
        assert all(abs(s - 1.0) < 1e-10 for s in svd(povm.matrix)[1])


@st.composite
def povm_rows(draw, max_modes: int = 40):
    """The first n rows of an m-mode unitary, 1 <= n <= m <= ``max_modes``: Haar, or a phased permutation
    whose zeros carry signs."""
    m = draw(st.integers(1, max_modes))
    n = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_unitary(rng, m)[:n]
    return (np.eye(m)[rng.permutation(m)] * np.exp(0.5j * math.pi * rng.integers(-1, 3, size=m)))[:n]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(povm_rows())
def test_naimark_extension_is_the_povm_over_the_qr_staircase_of_w(rows):
    # For T = U diag(1) W[:n], rows :n are U W[:n] and rows n: the R factor of W[n:], to the bit;
    # row n + j of R starts with j exact zeros.
    povm = RankOnePovm.from_vectors(list(rows.T))
    u, _, w = np.linalg.svd(povm.matrix)
    n = len(u)
    ext = naimark_extension(povm)
    assert ext[:n].tobytes() == (u @ w[:n]).tobytes()  # signed zeros too
    assert ext[n:].tobytes() == np.linalg.qr(w[n:], mode="r").tobytes()
    assert not np.tril(ext[n:], -1).any()  # ext[n + j, :j] == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(povm_rows(12))
def test_naimark_mesh_has_at_most_the_isometry_count_of_beam_splitters(rows):
    # The staircase rows leave column c with exact zeros below row c + n, so only n (2m - n - 1) / 2
    # rotations are left to emit.
    n, m = rows.shape
    ext = naimark_extension(RankOnePovm.from_vectors(list(rows.T)))
    elements = reck_decompose(ext)
    assert element_counts(elements)["beam_splitters"] <= n * (2 * m - n - 1) // 2
    assert mesh_verify(elements, ext) <= 1e-12
    assert all(0.0 <= theta <= math.pi / 2 for kind, _, _, theta in elements if kind == BS)


def test_incomplete_povm_rejected():
    povm = RankOnePovm.from_vectors([np.array([1.0, 0.0]), np.array([0.0, 0.5])])
    with pytest.raises(ValueError):
        naimark_extension(povm)


def test_povm_from_operators_matches_vectors_route():
    povm = trine_povm()
    operators = [np.outer(v, v.conj()) for v in povm.matrix.T]
    rebuilt = RankOnePovm.from_operators(operators)
    ext_a = naimark_extension(povm)
    ext_b = naimark_extension(rebuilt)
    rng = np.random.default_rng(74)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    assert max_abs(povm_probabilities(ext_a, psi) - povm_probabilities(ext_b, psi)) < 1e-10


def test_povm_from_operators_rejects_higher_rank():
    with pytest.raises(ValueError):
        RankOnePovm.from_operators([0.5 * np.eye(2), 0.5 * np.eye(2)])


@pytest.mark.parametrize(
    "vectors, message",
    [([], "at least one vector"), ([[1.0, 0.0], [1.0]], "same length"), ([[]], "POVM vectors must not be empty")],
)
def test_povm_from_vectors_rejects_empty_or_ragged(vectors, message):
    with pytest.raises(ValueError, match=message):
        RankOnePovm.from_vectors(vectors)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_povm_from_vectors_rejects_non_finite_entries_as_from_operators_does(bad):
    with pytest.raises(ValueError, match="^POVM matrix contains non-finite entries$"):
        RankOnePovm.from_vectors([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^operator 0 contains non-finite entries$"):
        RankOnePovm.from_operators([[[bad, 0.0], [0.0, 0.0]]])


@pytest.mark.parametrize(
    "operator, message",
    [
        ([[1.0, 0.0]], r"operator 0 must be square, got \(1, 2\)"),
        ([[0.0, 1.0], [0.0, 0.0]], "operator 0 is not Hermitian"),
        ([[-1.0]], "operator 0 is not positive semidefinite"),
        ([[-1.0, 0.0], [0.0, 0.0]], "operator 0 is not positive semidefinite"),  # -outer(e0, e0)
        ([[1.0, 0.0], [0.0, -0.5]], "operator 0 is not positive semidefinite"),
    ],
)
def test_povm_from_operators_rejects_non_square_non_hermitian_or_negative(operator, message):
    with pytest.raises(ValueError, match=message):
        RankOnePovm.from_operators([np.array(operator, dtype=complex)])


def test_povm_from_operators_rejects_an_empty_operator():
    # An empty operator has no eigenvalues, so no largest one to factor out.
    with pytest.raises(ValueError, match="^operator 0 must not be empty$"):
        RankOnePovm.from_operators([np.zeros((0, 0))])
    with pytest.raises(ValueError, match="^operator 1 must not be empty$"):
        RankOnePovm.from_operators([np.eye(1), np.zeros((0, 0))])


def test_naimark_extension_needs_at_least_dim_outcomes():
    # One outcome on a qubit: T T^dag - I has entries of at most 0.5, complete within tol = 0.9.
    povm = RankOnePovm.from_vectors([[math.sqrt(0.5), math.sqrt(0.5)]])
    with pytest.raises(ValueError, match="need at least dim outcomes, got 1 < 2"):
        naimark_extension(povm, tol=0.9)


def test_naimark_extension_checks_singular_values_beyond_completeness():
    # T T^dag = I + eps J with J all ones at n = 4: every entry is within eps of I,
    # but J has eigenvalue 4, so sigma_max = sqrt(1 + 4 eps), about 1 + 2 eps.
    eps = 0.8 * TOL
    values, basis = np.linalg.eigh(np.eye(4) + eps * np.ones((4, 4)))
    t = (basis * np.sqrt(values)) @ basis.conj().T
    povm = RankOnePovm.from_vectors(t.T)
    assert povm.completeness_deviation() <= TOL
    with pytest.raises(ValueError, match="singular values deviate from 1"):
        naimark_extension(povm)


def test_povm_probabilities_rejects_oversized_state():
    ext = naimark_extension(trine_povm())
    with pytest.raises(ValueError):
        povm_probabilities(ext, np.ones(4))


def test_cz_target_values():
    t = cz_gate_target()
    a = math.sqrt(1.0 / 3.0)
    b = math.sqrt(2.0 / 3.0)
    assert t[0, 0] == pytest.approx(a)
    assert t[0, 2] == t[2, 0] == pytest.approx(b)
    k = -t[0, 2] * t[2, 0] / 2
    assert k == pytest.approx(-1.0 / 3.0)
    assert k ** 2 == pytest.approx(1.0 / 9.0)
    _, sv, _ = svd(t)
    assert np.allclose(sv, (1.0, 1.0, a, a), atol=1e-12)


def test_cz_network_verifies():
    result = synthesize(cz_gate_target())
    assert len(result.circuit.full_ancillas) == 2
    assert result.circuit.n_modes == 6
    assert element_counts(result.circuit.elements)["squeezers"] == 0
    v = verify_cz(result)
    assert v["success_prob"] == pytest.approx(1.0 / 9.0, abs=1e-10)
    assert v["phase_pattern"] == [-1, 1, 1, 1]
    assert v["amplitudes"]["HH"] == pytest.approx([-1.0 / 3.0, 0.0], abs=1e-10)
    assert v["amplitudes"]["HV"] == pytest.approx([1.0 / 3.0, 0.0], abs=1e-10)
    for prob in v["success_probs"].values():
        assert prob == pytest.approx(1.0 / 9.0, abs=1e-10)


def test_cz_verification_is_gauge_invariant():
    # A global phase on the target matrix must not disturb the sign check.
    result = synthesize(np.exp(0.7j) * cz_gate_target())
    v = verify_cz(result)
    assert v["phase_pattern"] == [-1, 1, 1, 1]
    assert v["success_prob"] == pytest.approx(1.0 / 9.0, abs=1e-10)


def test_cz_checks_the_unitarity_of_its_block_once(monkeypatch):
    result = synthesize(cz_gate_target())
    calls = []

    def counted(a):
        calls.append(a.shape)
        return unitarity_deviation(a)

    monkeypatch.setattr("qsynth.sim.unitarity_deviation", counted)
    verify_cz(result)
    assert calls == [(6, 6)]  # one check for the four inputs


def test_cz_rejects_active_network():
    result = synthesize(2.0 * cz_gate_target())
    with pytest.raises(NotPassiveError):
        verify_cz(result)


@pytest.mark.parametrize("n", [2, 3])
def test_cz_rejects_a_network_of_fewer_than_four_modes(n, monkeypatch):
    def evolve(block, occupation):
        raise AssertionError("evolved a network the check cannot read")

    monkeypatch.setattr("qsynth.apps.fock_evolve", evolve)
    with pytest.raises(ValueError, match=rf"^a CZ network needs at least 4 modes, got {n}$"):
        verify_cz(synthesize(np.eye(n)))


def test_cz_rejects_wrong_sign_pattern():
    t = cz_gate_target()
    t[1, 1] = -t[1, 1]  # flip one diagonal coupling; still passive
    result = synthesize(t)
    with pytest.raises(SynthesisError, match="input VH: postselected amplitude"):
        verify_cz(result)


def test_povm_matrix_is_built_once_and_read_only():
    povm = trine_povm()
    assert povm.matrix is povm.matrix and povm.matrix.shape == (2, 3) and povm.dim == 2
    with pytest.raises(ValueError, match="read-only"):
        povm.matrix[0, 0] = 0.0
    assert povm.matrix.base is None or not povm.matrix.base.flags.writeable  # no writable array behind it
