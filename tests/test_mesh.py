import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.apps import RankOnePovm, cz_gate_target, naimark_extension
from qsynth.blocks import BS, PS
from qsynth.mesh import NotUnitaryError, _emit, reck_decompose
from qsynth.numkit import max_abs, svd
from qsynth.synth import pad_factors

from oracles import (
    LOSSY_BS_U,
    bs,
    count_bounds,
    emit_reference,
    mesh_verify,
    passive_product,
    ps,
    random_unitary,
    reck_angles,
    reck_reference,
)


def bs_count(elements):
    return sum(kind == BS for kind, _, _, _ in elements)


def ps_count(elements):
    return sum(kind == PS for kind, _, _, _ in elements)


def test_identity_gives_empty_list():
    for n in (1, 2, 4):
        assert reck_decompose(np.eye(n)) == []


def test_single_rotation_is_already_elementary():
    theta = 0.3
    u = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    elements = reck_decompose(u)
    assert elements == [bs(0, 1, pytest.approx(theta))]
    assert mesh_verify(elements, u) < 1e-15


def test_lossy_bs_left_factor():
    elements = reck_decompose(LOSSY_BS_U)
    assert mesh_verify(elements, LOSSY_BS_U) < 1e-12


def test_random_6x6_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = random_unitary(rng, 6)
        assert mesh_verify(reck_decompose(u), u) < 1e-12


def test_mesh_verify_empty_vs_identity():
    assert mesh_verify([], np.eye(3)) == 0.0


def test_mesh_verify_single_bs_vs_identity():
    # max-entry of BS(0.3) - I is the off-diagonal sin(0.3).
    deviation = mesh_verify([bs(0, 1, 0.3)], np.eye(2))
    assert deviation == pytest.approx(math.sin(0.3), abs=1e-15)


def test_rejects_non_unitary():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(NotUnitaryError) as info:
        reck_decompose(bad, tol=1e-10)
    assert info.value.deviation == pytest.approx(3.0)


def test_round_trip_and_bounds_up_to_8():
    rng = np.random.default_rng(32)
    for n in range(1, 9):
        for _ in range(5):
            u = random_unitary(rng, n)
            elements = reck_decompose(u)
            assert mesh_verify(elements, u) < 1e-11
            assert bs_count(elements) <= n * (n - 1) // 2
            assert ps_count(elements) <= n * (n + 1) // 2
            for kind, _, _, angle in elements:
                if kind == BS:
                    assert 0.0 <= angle <= math.pi / 2


def test_determinant_phase_lives_in_phase_shifters():
    # Beam splitters are special orthogonal, so the product of the emitted
    # phases must reproduce the determinant.
    rng = np.random.default_rng(33)
    for n in (2, 3, 5):
        u = random_unitary(rng, n)
        elements = reck_decompose(u)
        total_phase = sum(angle for kind, _, _, angle in elements if kind == PS)
        assert cmath.exp(1j * total_phase) == pytest.approx(np.linalg.det(u), abs=1e-10)


def test_embedded_rotation_with_degenerate_pivots():
    # A 2-mode rotation inside a larger identity: the untouched modes must not
    # produce elements.
    theta = 0.8
    u = np.eye(4, dtype=complex)
    u[1, 1] = math.cos(theta)
    u[1, 3] = math.sin(theta)
    u[3, 1] = -math.sin(theta)
    u[3, 3] = math.cos(theta)
    elements = reck_decompose(u)
    assert mesh_verify(elements, u) < 1e-12
    assert bs_count(elements) == 1


def test_diagonal_phases_only():
    phases = [0.3, -1.2, 2.9]
    u = np.diag(np.exp(1j * np.array(phases)))
    elements = reck_decompose(u)
    assert bs_count(elements) == 0
    assert mesh_verify(elements, u) < 1e-14


def test_reconstruct_respects_chronological_order():
    elements = [ps(0, 1.0), bs(0, 1, 0.5)]
    direct = passive_product(elements, 2)
    phase = np.diag([np.exp(1j), 1.0])
    c, s = math.cos(0.5), math.sin(0.5)
    rotation = np.array([[c, s], [-s, c]], dtype=complex)
    assert max_abs(direct - rotation @ phase) < 1e-15


# --- parity with the step-by-step reference loop ----------------------------


def assert_matches_reference(u, noise: float = 0.0):
    """Same element kinds, modes and count as ``oracles.reck_reference``; angles within 1e-13.

    With ``noise`` > 0, phase shifters with ``|phi| <= noise`` are dropped from
    both lists first (rounding noise can put such a phase on either side of
    the pruning threshold), and the other phases agree within ``noise``.
    """
    elements = reck_decompose(u)
    assert mesh_verify(elements, u) <= 1e-13
    got = [e for e in elements if not (e[0] == PS and abs(e[3]) <= noise)]
    want = [e for e in reck_reference(u) if not (e[0] == PS and abs(e[3]) <= noise)]
    assert [e[:3] for e in got] == [e[:3] for e in want]
    for (kind, _, _, g), (_, _, _, w) in zip(got, want):
        if kind == BS:
            assert abs(g - w) <= 1e-13
            assert 0.0 <= g <= math.pi / 2
        else:
            assert abs(math.remainder(g - w, 2 * math.pi)) <= max(noise, 1e-13)


def test_parity_haar_up_to_40():
    rng = np.random.default_rng(81)
    for n in range(1, 41):
        assert_matches_reference(random_unitary(rng, n))


def test_parity_identity_permutations_and_anti_diagonal():
    rng = np.random.default_rng(82)
    for n in range(1, 9):
        eye = np.eye(n, dtype=complex)
        assert_matches_reference(eye)
        assert_matches_reference(eye[::-1].copy())
        perms = itertools.permutations(range(n)) if n <= 4 else (rng.permutation(n) for _ in range(30))
        for perm in perms:
            assert_matches_reference(eye[list(perm)])


def test_parity_block_matrices():
    rng = np.random.default_rng(83)
    for n in range(2, 9):
        for k in range(1, n):
            a, b = random_unitary(rng, k), random_unitary(rng, n - k)
            direct_sum = np.zeros((n, n), dtype=complex)
            direct_sum[:k, :k] = a
            direct_sum[k:, k:] = b
            assert_matches_reference(direct_sum)
    for k in range(1, 5):
        for copies in range(1, 4):
            u = random_unitary(rng, k)
            assert_matches_reference(np.kron(u, np.eye(copies)))
            assert_matches_reference(np.kron(np.eye(copies), u))


def test_parity_padded_factors():
    rng = np.random.default_rng(84)
    for n in range(1, 9):
        for m in range(1, 9):
            t = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            for factor in pad_factors(svd(t)):
                assert_matches_reference(factor)


def test_parity_real_padded_factors_up_to_noise_phases():
    # Real factors stay real in the closed form up to the rounding of sums of
    # pi, while the reference's rotations by exp(1j * pi) leave imaginary parts
    # of ~1e-16, and so phases of up to ~1e-12, some of them above the pruning
    # threshold.  Apart from those the lists agree, and the closed form never
    # emits more elements.
    rng = np.random.default_rng(85)
    for n in range(1, 9):
        for m in range(1, 9):
            for factor in pad_factors(svd(rng.normal(size=(n, m)))):
                assert_matches_reference(factor, noise=1e-11)
                assert len(reck_decompose(factor)) <= len(reck_reference(factor))


def test_parity_naimark_extensions():
    rng = np.random.default_rng(86)
    for n in range(1, 6):
        for m in range(n, 10):
            vectors = random_unitary(rng, m)[:n]
            assert_matches_reference(naimark_extension(RankOnePovm.from_vectors(list(vectors.T))))


def test_parity_cz_factors_with_negative_zero():
    # The first entry of the W factor below is -0.0, whose phase is pi: the
    # column starts with an exact zero and the pivot row must lose that phase.
    w = np.array([[-0.0, -0.0, -1, -0.0], [-1, -0.0, -0.0, -0.0], [-0.0, -0.0, -0.0, -1], [0, 1, 0, 0]], dtype=complex)
    assert cmath.phase(w[0, 0]) == math.pi
    assert_matches_reference(w)
    for t in (cz_gate_target(), np.exp(0.7j) * cz_gate_target()):
        for factor in pad_factors(svd(t)):
            assert_matches_reference(factor)


def test_emission_matches_reference_exactly():
    # The emission half alone, on the same angles: the two must agree to the
    # bit, also with steps of theta = 0 (no beam splitter) at random places
    # and with angles that are exact multiples of pi / 2.
    rng = np.random.default_rng(89)

    def quarter(size):
        return (rng.integers(-4, 5, size=size) * (math.pi / 2)).tolist()

    for n in range(1, 13):
        for _ in range(4):
            _, lam, thetas, phis = reck_angles(random_unitary(rng, n))
            cases = [(lam, thetas, phis)]
            cases.append((quarter(n), [quarter(n - 1) for _ in range(n)], [quarter(n - 1) for _ in range(n)]))
            forced = [[0.0 if rng.random() < 0.3 else t for t in row] for row in thetas]
            cases.append((lam, forced, phis))
            cases.append((quarter(n), [[0.0 if rng.random() < 0.5 else math.pi / 2 for _ in row] for row in thetas], phis))
            for args in cases:
                assert _emit(n, *args) == emit_reference(n, *args)


def _tiny_phases(elements):
    return [e for e in elements if e[0] == PS and abs(e[3]) < 1e-12]


def test_no_identity_phases_from_rounded_multiples_of_pi():
    # Multiples of pi are owed as a parity per mode, so they cancel exactly
    # instead of leaving ~1e-14 of rounding above PRUNE_EPS.  This phased
    # permutation, whose zeros carry signs, emitted the row (PS, 1, 1, -1.07e-14)
    # when the multiples of pi were summed as floats.
    perm = [8, 5, 1, 6, 3, 2, 4, 0, 7]
    quarters = np.array([2, 2, 1, 0, 0, 1, 2, 0, 0])
    u = np.eye(9)[perm] * np.exp(0.5j * math.pi * quarters)
    assert mesh_verify(reck_decompose(u), u) < 1e-15
    assert not _tiny_phases(reck_decompose(u))
    rng = np.random.default_rng(90)
    for n in range(1, 9):
        for m in range(1, 9):
            for factor in pad_factors(svd(rng.normal(size=(n, m)))):
                assert not _tiny_phases(reck_decompose(factor))
    for _ in range(100):
        n = int(rng.integers(2, 13))
        u = np.eye(n)[rng.permutation(n)] * np.exp(0.5j * math.pi * rng.integers(-1, 3, size=n))
        assert not _tiny_phases(reck_decompose(u))


def test_tiny_leading_entries():
    # Running norms of 1e-170 multiply to below the float range; the row
    # coefficients must not divide by their product.
    rng = np.random.default_rng(88)
    for tiny in (1e-150, 1e-170, 1e-300):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m[:, 0] = [tiny, tiny, tiny, 1.0]
        assert_matches_reference(np.linalg.qr(m)[0])


def test_parameters_are_python_floats():
    rng = np.random.default_rng(87)
    for u in (random_unitary(rng, 5), np.eye(3)[[2, 0, 1]], pad_factors(svd(rng.normal(size=(2, 4))))[0]):
        for e in reck_decompose(u):
            assert [type(x) for x in e] == [int, int, int, float]


def test_empty_matrix_gives_empty_list():
    assert reck_decompose(np.zeros((0, 0))) == []


@st.composite
def structured_unitaries(draw):
    """P (U_a + U_b) D: a permuted direct sum of two Haar blocks times diagonal phases.

    Every zero entry is set to an exact +0.0 or -0.0 in each part, and the
    phases include 0, pi/2 and pi, whose exponentials carry rounding noise.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.zeros((n, n), dtype=complex)
    if k:
        u[:k, :k] = random_unitary(rng, k)
    if k < n:
        u[k:, k:] = random_unitary(rng, n - k)
    phases = [draw(st.sampled_from((0.0, math.pi / 2, math.pi, -1.3))) for _ in range(n)]
    u = u[list(draw(st.permutations(range(n))))] @ np.diag(np.exp(1j * np.array(phases)))
    zeros = u == 0
    signs = rng.choice([0.0, -0.0], size=(2, int(zeros.sum())))
    u.real[zeros] = signs[0]
    u.imag[zeros] = signs[1]
    return u


@settings(max_examples=200, deadline=None, derandomize=True)
@given(structured_unitaries())
def test_structured_unitaries_round_trip(u):
    n = u.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        elements = reck_decompose(u)
    assert mesh_verify(elements, u) <= 1e-12
    bounds = count_bounds(n, n)  # two meshes of n modes
    assert 2 * bs_count(elements) <= bounds.max_bs
    assert 2 * ps_count(elements) <= bounds.max_ps
