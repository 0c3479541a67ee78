import math
import re

import numpy as np
import pytest

from qsynth.numkit import max_abs
from qsynth.sim import (
    MAX_FOCK_MODES,
    MAX_PHOTONS,
    FockState,
    NotPassiveError,
    _ladder,
    fock_evolve,
    passive_block,
    postselect,
)
from qsynth.synth import synthesize

from oracles import (
    LOSSY_BS_S_TOTAL,
    all_occupations,
    amplitude_map,
    coherent_moments,
    fock_amplitude,
    fock_reference,
    lift_gain,
    norm_squared,
    physicality_residual,
    probability,
    probability_where,
    propagate_moments,
    random_unitary,
    vacuum_moments,
)

LOSSY_BS_BLOCK = LOSSY_BS_S_TOTAL[:3, :3]


def test_passive_block_of_fixture():
    assert max_abs(passive_block(LOSSY_BS_S_TOTAL[:3]) - LOSSY_BS_BLOCK) == 0.0


def test_passive_block_identity():
    assert max_abs(passive_block(np.eye(2, 4)) - np.eye(2)) == 0.0


def test_passive_block_rejects_gain():
    with pytest.raises(NotPassiveError) as info:
        passive_block(lift_gain(2.0)[:2])
    assert info.value.max_entry == pytest.approx(math.sqrt(3.0))


@pytest.mark.parametrize("row, col, value", [(1, 2, 0.3), (0, 3, 0.4)])
def test_passive_block_reports_position_in_s_total(row, col, value):
    # One entry in the upper-right block B of the top half [A, B]; its column counts from S_total's first.
    top = np.eye(2, 4, dtype=complex)
    top[row, col] = value
    with pytest.raises(NotPassiveError) as info:
        passive_block(top)
    assert info.value.position == (row, col)
    assert info.value.max_entry == pytest.approx(value)


def test_fock_identity_passthrough():
    state = fock_evolve(np.eye(3), (2, 0, 1))
    assert amplitude_map(state) == {(2, 0, 1): pytest.approx(1.0)}


def test_fock_lossy_bs_two_photon_statistics():
    state = fock_evolve(LOSSY_BS_BLOCK, (1, 1, 0))
    assert probability(state, (1, 1, 0)) == pytest.approx(0.25, abs=1e-12)
    assert probability(state, (0, 0, 2)) == pytest.approx(0.5, abs=1e-12)
    assert probability_where(state, lambda o: o[0] + o[1] == 1) < 1e-24


def test_fock_hong_ou_mandel():
    c = s = 1 / math.sqrt(2)
    bs = np.array([[c, s], [-s, c]], dtype=complex)
    state = fock_evolve(bs, (1, 1))
    assert probability(state, (1, 1)) < 1e-24
    assert probability(state, (2, 0)) == pytest.approx(0.5, abs=1e-12)


def test_fock_agrees_with_permanent_oracle():
    rng = np.random.default_rng(51)
    for n_modes in (2, 3, 4):
        a = random_unitary(rng, n_modes)
        for photons in (1, 2, 3):
            for occ_in in all_occupations(n_modes, photons):
                state = amplitude_map(fock_evolve(a, occ_in))
                for occ_out in all_occupations(n_modes, photons):
                    expected = fock_amplitude(a, occ_in, occ_out)
                    got = state.get(occ_out, 0.0)
                    assert abs(got - expected) < 1e-12


def test_fock_preserves_norm_and_photon_number():
    rng = np.random.default_rng(52)
    a = random_unitary(rng, 5)
    state = fock_evolve(a, (2, 0, 1, 0, 1))
    assert norm_squared(state) == pytest.approx(1.0, abs=1e-10)
    assert all(sum(occ) == 4 for occ in amplitude_map(state))


def test_fock_limits_and_validation():
    with pytest.raises(ValueError):
        fock_evolve(np.eye(3), (4, 4, 0))  # over the photon cap
    with pytest.raises(ValueError):
        fock_evolve(np.eye(9), (1,) + (0,) * 8)  # over the mode cap
    with pytest.raises(ValueError):
        fock_evolve(np.diag([1.0, 2.0]), (1, 0))  # not unitary
    with pytest.raises(ValueError):
        fock_evolve(np.eye(2), (1, 0, 0))  # occupation length mismatch
    with pytest.raises(ValueError, match=r"a must be square, got \(2, 3\)"):
        fock_evolve(np.zeros((2, 3)), (1, 0))


@pytest.mark.parametrize("occupation", [(1, 0, 0), (1,), (-1, 1, 0)])
def test_fock_names_an_occupation_of_the_wrong_length(occupation):
    with pytest.raises(ValueError, match=re.escape(f"occupation {occupation} does not match 2 modes")):
        fock_evolve(np.eye(2), occupation)


@pytest.mark.parametrize("occupation", [(-1, 1), (1, -1), (-3, -2)])
def test_fock_names_a_negative_photon_count(occupation):
    with pytest.raises(ValueError, match=re.escape(f"occupation {occupation} holds a negative photon count")):
        fock_evolve(np.eye(2), occupation)


@pytest.mark.parametrize("occupation", [(1.5, 0), (True, 0), (1.0, 0), ("1", 0), (np.float64(1), 0)])
def test_fock_refuses_non_integer_photon_counts(occupation):
    with pytest.raises(ValueError, match=r"occupation \(.*\) holds a non-integer photon count"):
        fock_evolve(np.eye(2), occupation)


def test_fock_takes_numpy_integer_counts():
    assert amplitude_map(fock_evolve(np.eye(2), np.array([1, 0]))) == {(1, 0): 1.0}


def test_fock_outcomes_are_sorted_aligned_arrays():
    state = fock_evolve(random_unitary(np.random.default_rng(57), 4), (2, 0, 1, 1))
    assert list(map(tuple, state.occupations.tolist())) == sorted(all_occupations(4, 4))
    assert state.amplitudes.dtype == complex and state.amplitudes.shape == (len(state.occupations),)
    assert state.occupations.dtype.kind == "i" and state.occupations.shape == (35, 4)


def _fock_property_inputs():
    """Seeded ``(a, occupation)`` over n = 1..8 and 0..6 photons: Haar, phased permutation and identity
    matrices, plus the lossy-beam-splitter block."""
    rng = np.random.default_rng(55)
    for n in range(1, MAX_FOCK_MODES + 1):
        for photons in range(MAX_PHOTONS + 1):
            occupation = tuple(np.bincount(rng.integers(0, n, photons), minlength=n).tolist())
            yield random_unitary(rng, n), occupation
            phases = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
            yield np.eye(n)[rng.permutation(n)] * phases, occupation
            yield np.eye(n), occupation
    for occupation in all_occupations(3, 1) + all_occupations(3, 2) + [(2, 2, 2), (0, 3, 3)]:
        yield LOSSY_BS_BLOCK, occupation


def test_fock_matches_the_dict_expansion():
    # The ladder sums each output's terms in another order than the dict loop, so amplitudes may
    # differ in the last bits; a few hundred terms of modulus <= 1 stay well inside 1e-15.
    worst = 0.0
    for a, occupation in _fock_property_inputs():
        got = amplitude_map(fock_evolve(a, occupation))
        want = fock_reference(a, occupation)
        assert got.keys() == want.keys(), (a.shape, occupation)
        worst = max([worst] + [abs(got[k] - want[k]) for k in want])
    assert worst <= 1e-15


def test_ladder_cache_is_bounded_by_the_caps():
    # The cache holds one rung per (modes, photons) pair and nothing else: after every pair the
    # caps allow has been built, with several matrices each, it holds exactly those pairs.
    rng = np.random.default_rng(58)
    for n in range(MAX_FOCK_MODES + 1):
        for a in (np.eye(n), random_unitary(rng, n) if n else np.eye(0)):
            fock_evolve(a, ((MAX_PHOTONS,) + (0,) * (n - 1)) if n else ())
    info = _ladder.cache_info()
    assert info.maxsize == (MAX_FOCK_MODES + 1) * (MAX_PHOTONS + 1) == 63
    assert info.currsize == 1 + MAX_FOCK_MODES * (MAX_PHOTONS + 1)  # no photons without a mode


def test_fock_at_the_caps_matches_the_permanent():
    rng = np.random.default_rng(56)
    a = random_unitary(rng, MAX_FOCK_MODES)
    occ_in = (1, 0, 2, 0, 1, 1, 0, 1)
    assert sum(occ_in) == MAX_PHOTONS
    state = fock_evolve(a, occ_in)
    outcomes = all_occupations(MAX_FOCK_MODES, MAX_PHOTONS)
    assert len(state.amplitudes) == len(outcomes) == 1716
    got = amplitude_map(state)
    for occ_out in (outcomes[0], outcomes[len(outcomes) // 2], outcomes[-1]):
        assert abs(got[occ_out] - fock_amplitude(a, occ_in, occ_out)) < 1e-12


@pytest.mark.parametrize("shape", [(4, 4), (3, 3)])
def test_passive_block_rejects_non_square_or_odd(shape):
    # It takes S_total's N x 2N top half, so a square S_total is refused, of even dimension or odd.
    with pytest.raises(ValueError, match=r"s_total's top half must be N x 2N, got (4x4|3x3)$"):
        passive_block(np.zeros(shape))


def test_postselect_accept_all_is_identity():
    state = fock_evolve(LOSSY_BS_BLOCK, (1, 1, 0))
    kept, prob = postselect(state, np.ones(len(state.amplitudes), dtype=bool))
    assert prob == pytest.approx(1.0, abs=1e-10)
    assert amplitude_map(kept).keys() == amplitude_map(state).keys()


def test_postselect_lossy_bs_nominal_survival():
    state = fock_evolve(LOSSY_BS_BLOCK, (1, 1, 0))
    kept, prob = postselect(state, state.occupations[:, 0] + state.occupations[:, 1] == 2)
    assert prob == pytest.approx(0.5, abs=1e-10)
    assert norm_squared(kept) == pytest.approx(1.0, abs=1e-10)


def test_postselect_zero_mass_raises():
    state = FockState(occupations=np.array([[1, 0]]), amplitudes=np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        postselect(state, state.occupations.sum(axis=1) == 5)


@pytest.mark.parametrize("keep", [
    lambda occ: True,  # a callable is not read as one row
    True,
    [True, False],
    np.ones(4, dtype=int),
    np.ones((4, 1), dtype=bool),
], ids=["callable", "scalar", "short", "int", "column"])
def test_postselect_takes_only_a_boolean_mask_over_the_rows(keep):
    state = fock_evolve(LOSSY_BS_BLOCK, (1, 1, 0))
    assert len(state.amplitudes) == 4
    with pytest.raises(ValueError, match="keep must be a boolean mask of 4 rows"):
        postselect(state, keep)


def test_postselect_sums_the_kept_probabilities_left_to_right():
    state = fock_evolve(random_unitary(np.random.default_rng(59), 5), (1, 1, 1, 0, 0))
    keep = state.occupations[:, 0] <= 1
    kept, prob = postselect(state, keep)
    assert type(prob) is float
    assert prob == sum(abs(a) ** 2 for a in state.amplitudes[keep].tolist())
    assert (kept.occupations == state.occupations[keep]).all()
    assert norm_squared(kept) == pytest.approx(1.0, abs=1e-12)


def test_moments_gain_amplifies_mean():
    mean, _ = propagate_moments(lift_gain(2.0), *coherent_moments([1.0, 0.0]))
    assert mean[0] == pytest.approx(2.0)
    assert mean[2] == pytest.approx(2.0)  # conjugate slot


def test_moments_vacuum_through_passive_stays_vacuum():
    vac = vacuum_moments(3)
    c, s = math.cos(0.4), math.sin(0.4)
    u = np.eye(3, dtype=complex)
    u[0, 0], u[0, 1], u[1, 0], u[1, 1] = c, s, -s, c
    s_total = np.zeros((6, 6), dtype=complex)
    s_total[:3, :3] = u
    s_total[3:, 3:] = u.conj()
    mean, second = propagate_moments(s_total, *vac)
    assert max_abs(mean) == 0.0
    assert max_abs(second - vac[1]) < 1e-15


def test_moments_mean_field_contract_random_network():
    rng = np.random.default_rng(53)
    for _ in range(10):
        t = 1.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / 3
        result = synthesize(t)
        n = result.circuit.n_modes
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        padded = np.zeros(n, dtype=complex)
        padded[:3] = alpha
        coherent = np.concatenate((padded, padded.conj()))
        means = result.s_total[:n] @ coherent
        assert max_abs(means[:3] - t @ alpha) < 1e-10
        # The bottom half gives the conjugate means, so the top half is all the CLI multiplies.
        assert max_abs(result.s_total[n:] @ coherent - means.conj()) < 1e-12


def test_physicality_residual_zero_for_coherent_states():
    assert physicality_residual(*coherent_moments([0.3 + 1j, -0.2])) == 0.0
    assert physicality_residual(*vacuum_moments(4)) == 0.0


def test_physicality_residual_preserved_by_synthesized_networks():
    rng = np.random.default_rng(54)
    for _ in range(10):
        t = 1.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
        result = synthesize(t)
        n = result.circuit.n_modes
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert physicality_residual(*propagate_moments(result.s_total, *coherent_moments(alpha))) < 1e-10


def test_physicality_residual_detects_broken_structure():
    mean, vacuum = coherent_moments([0.0, 0.0])
    second = vacuum.copy()
    second[2, 2] += 0.5  # violates the commutator relation between the diagonal blocks
    assert physicality_residual(mean, second) > 0.1
    second = vacuum.copy()
    second[0, 3] += 0.5  # breaks the symmetry of the <da da> block
    assert physicality_residual(mean, second) > 0.1
