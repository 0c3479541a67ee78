import math

import numpy as np
import pytest

from qsynth.numkit import max_abs
from qsynth.sim import (
    FockState,
    GaussianMoments,
    NotPassiveError,
    coherent_moments,
    evolve_moments,
    fock_evolve,
    passive_block,
    postselect,
)
from qsynth.synth import synthesize

from oracles import (
    LOSSY_BS_S_TOTAL,
    all_occupations,
    fock_amplitude,
    lift_gain,
    norm_squared,
    physicality_residual,
    probability,
    probability_where,
    random_unitary,
    vacuum_moments,
)

LOSSY_BS_BLOCK = LOSSY_BS_S_TOTAL[:3, :3]


def test_passive_block_of_fixture():
    assert max_abs(passive_block(LOSSY_BS_S_TOTAL) - LOSSY_BS_BLOCK) == 0.0


def test_passive_block_identity():
    assert max_abs(passive_block(np.eye(4)) - np.eye(2)) == 0.0


def test_passive_block_rejects_gain():
    with pytest.raises(NotPassiveError) as info:
        passive_block(lift_gain(2.0))
    assert info.value.max_entry == pytest.approx(math.sqrt(3.0))


@pytest.mark.parametrize("row, col, value", [(1, 2, 0.3), (3, 0, 0.4)])
def test_passive_block_reports_position_in_s_total(row, col, value):
    # One entry in the upper-right, then the lower-left off-diagonal block.
    s = np.eye(4, dtype=complex)
    s[row, col] = value
    with pytest.raises(NotPassiveError) as info:
        passive_block(s)
    assert info.value.position == (row, col)
    assert info.value.max_entry == pytest.approx(value)


def test_fock_identity_passthrough():
    state = fock_evolve(np.eye(3), (2, 0, 1))
    assert state.amplitudes == {(2, 0, 1): pytest.approx(1.0)}


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
                state = fock_evolve(a, occ_in)
                for occ_out in all_occupations(n_modes, photons):
                    expected = fock_amplitude(a, occ_in, occ_out)
                    got = state.amplitudes.get(occ_out, 0.0)
                    assert abs(got - expected) < 1e-12


def test_fock_preserves_norm_and_photon_number():
    rng = np.random.default_rng(52)
    a = random_unitary(rng, 5)
    state = fock_evolve(a, (2, 0, 1, 0, 1))
    assert norm_squared(state) == pytest.approx(1.0, abs=1e-10)
    assert all(sum(occ) == 4 for occ in state.amplitudes)


def test_fock_limits_and_validation():
    with pytest.raises(ValueError):
        fock_evolve(np.eye(3), (4, 4, 0))  # over the photon cap
    with pytest.raises(ValueError):
        fock_evolve(np.eye(9), (1,) + (0,) * 8)  # over the mode cap
    with pytest.raises(ValueError):
        fock_evolve(np.diag([1.0, 2.0]), (1, 0))  # not unitary
    with pytest.raises(ValueError):
        fock_evolve(np.eye(2), (1, 0, 0))  # occupation length mismatch


def test_postselect_accept_all_is_identity():
    state = fock_evolve(LOSSY_BS_BLOCK, (1, 1, 0))
    kept, prob = postselect(state, lambda occ: True)
    assert prob == pytest.approx(1.0, abs=1e-10)
    assert kept.amplitudes.keys() == state.amplitudes.keys()


def test_postselect_lossy_bs_nominal_survival():
    state = fock_evolve(LOSSY_BS_BLOCK, (1, 1, 0))
    kept, prob = postselect(state, lambda occ: occ[0] + occ[1] == 2)
    assert prob == pytest.approx(0.5, abs=1e-10)
    assert norm_squared(kept) == pytest.approx(1.0, abs=1e-10)


def test_postselect_zero_mass_raises():
    state = FockState(n_modes=2, amplitudes={(1, 0): 1.0})
    with pytest.raises(ValueError):
        postselect(state, lambda occ: sum(occ) == 5)


def test_moments_gain_amplifies_mean():
    moments = coherent_moments([1.0, 0.0])
    out = evolve_moments(lift_gain(2.0), moments)
    assert out.mean[0] == pytest.approx(2.0)
    assert out.mean[2] == pytest.approx(2.0)  # conjugate slot


def test_moments_vacuum_through_passive_stays_vacuum():
    vac = vacuum_moments(3)
    c, s = math.cos(0.4), math.sin(0.4)
    u = np.eye(3, dtype=complex)
    u[0, 0], u[0, 1], u[1, 0], u[1, 1] = c, s, -s, c
    s_total = np.zeros((6, 6), dtype=complex)
    s_total[:3, :3] = u
    s_total[3:, 3:] = u.conj()
    out = evolve_moments(s_total, vac)
    assert max_abs(out.mean) == 0.0
    assert max_abs(out.second - vac.second) < 1e-15


def test_moments_mean_field_contract_random_network():
    rng = np.random.default_rng(53)
    for _ in range(10):
        t = 1.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / 3
        result = synthesize(t)
        n = result.circuit.n_modes
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        padded = np.zeros(n, dtype=complex)
        padded[:3] = alpha
        out = evolve_moments(result.s_total, coherent_moments(padded))
        assert max_abs(out.mean[:3] - t @ alpha) < 1e-10
        # Conjugate-pair structure of the mean survives the propagation.
        assert max_abs(out.mean[n:] - out.mean[:n].conj()) < 1e-12


def test_moments_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve_moments(np.eye(4), coherent_moments([1.0, 0.0, 0.0]))


def test_physicality_residual_zero_for_coherent_states():
    assert physicality_residual(coherent_moments([0.3 + 1j, -0.2])) == 0.0
    assert physicality_residual(vacuum_moments(4)) == 0.0


def test_physicality_residual_preserved_by_synthesized_networks():
    rng = np.random.default_rng(54)
    for _ in range(10):
        t = 1.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
        result = synthesize(t)
        n = result.circuit.n_modes
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = evolve_moments(result.s_total, coherent_moments(alpha))
        assert physicality_residual(out) < 1e-10


def test_physicality_residual_detects_broken_structure():
    moments = coherent_moments([0.0, 0.0])
    second = moments.second.copy()
    second[2, 2] += 0.5  # violates the commutator relation between the diagonal blocks
    assert physicality_residual(GaussianMoments(mean=moments.mean, second=second)) > 0.1
    second = moments.second.copy()
    second[0, 3] += 0.5  # breaks the symmetry of the <da da> block
    assert physicality_residual(GaussianMoments(mean=moments.mean, second=second)) > 0.1
