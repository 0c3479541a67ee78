import math
import warnings

import numpy as np
import pytest

from qsynth.blocks import BS, TMS
from qsynth.closedform2x2 import analytic_params, analytic_synthesize, params_to_json
from qsynth.numkit import max_abs
from oracles import LOSSY_BS_T, bs, circuit_kinds, embed_element, reconstruct_params, tms


def random_2x2(rng, radius=2.0):
    """Entries uniform in the complex disk of the given radius."""
    r = radius * np.sqrt(rng.uniform(0, 1, size=(2, 2)))
    phi = rng.uniform(-np.pi, np.pi, size=(2, 2))
    return r * np.exp(1j * phi)


def test_lossy_bs_singulars():
    p = analytic_params(LOSSY_BS_T)
    assert p.sigma1 == pytest.approx(1.0, abs=1e-12)
    assert p.sigma2 == pytest.approx(0.0, abs=1e-12)


def test_pure_phase_matrix():
    t = np.diag([np.exp(1j * np.pi / 3), 1.0])
    p = analytic_params(t)
    assert p.sigma1 == pytest.approx(1.0, abs=1e-12)
    assert p.sigma2 == pytest.approx(1.0, abs=1e-12)
    assert p.gamma == pytest.approx(0.0, abs=1e-7)
    assert max_abs(reconstruct_params(p) - t) < 1e-12


def test_fixed_complex_example_reconstructs():
    t = np.array([[0.3 + 0.4j, -0.2], [0.1j, 1.7]], dtype=complex)
    p = analytic_params(t)
    assert max_abs(reconstruct_params(p) - t) < 1e-12
    _, result = analytic_synthesize(t)
    assert result.block_deviation < 1e-12


def test_sigma_ordering_invariant():
    rng = np.random.default_rng(61)
    for _ in range(200):
        p = analytic_params(random_2x2(rng))
        assert p.sigma1 >= p.sigma2 >= 0.0


def test_matches_numeric_svd():
    rng = np.random.default_rng(62)
    for _ in range(500):
        t = random_2x2(rng)
        p = analytic_params(t)
        sv = np.linalg.svd(t, compute_uv=False)
        assert abs(p.sigma1 - sv[0]) < 1e-10
        assert abs(p.sigma2 - sv[1]) < 1e-10
        assert not math.isnan(p.gamma)


def test_circuit_reconstructs_input():
    rng = np.random.default_rng(63)
    for _ in range(200):
        t = random_2x2(rng)
        p, result = analytic_synthesize(t)
        block = result.s_total[:2, :2]
        assert max_abs(block - t) < 1e-11
        # The circuit realizes the parameterized chain, not just t.
        assert max_abs(block - reconstruct_params(p)) < 1e-12


def test_rank_one_inputs_verify():
    rng = np.random.default_rng(64)
    for _ in range(200):
        col = rng.normal(size=2) + 1j * rng.normal(size=2)
        row = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = np.outer(col, row) / 2
        p, result = analytic_synthesize(t)
        assert p.sigma2 < 1e-12
        assert result.block_deviation < 1e-10
        assert result.quasiunitarity_deviation < 1e-10


def test_unitary_input_has_empty_modulation_stage():
    t = np.array([[0, 1], [1, 0]], dtype=complex)  # swap, t11 = 0 edge case
    _, result = analytic_synthesize(t)
    assert result.circuit.n_modes == 2
    assert len(result.circuit.full_ancillas) == 0
    assert all(b < 2 for kind, _, b, _ in result.circuit.elements if kind == BS)
    assert max_abs(result.s_total[:2, :2] - t) < 1e-12


def test_mixed_case_uses_both_coupling_patterns():
    t = np.diag([2.0, 0.5]).astype(complex)
    p, result = analytic_synthesize(t)
    assert p.sigma1 == pytest.approx(2.0)
    assert p.sigma2 == pytest.approx(0.5)
    assert circuit_kinds(result.circuit) == ["gain", "loss"]
    assert result.circuit.n_modes == 4

    gain = [e for e in result.circuit.elements if e[0] == TMS]
    loss = [e for e in result.circuit.elements if e[0] == BS and e[2] >= 2]
    assert gain == [tms(0, 2, pytest.approx(math.acosh(2.0)))]
    assert loss == [bs(1, 3, pytest.approx(math.acos(0.5)))]
    # The embedded couplings carry the literal coupling patterns, relocated to
    # the modes the channels own (gain landed on mode 0, loss on mode 1).
    assert max_abs(embed_element(gain[0], 4) - _relabel_gain()) < 1e-15
    assert max_abs(embed_element(loss[0], 4) - _relabel_loss()) < 1e-15


def _relabel_gain():
    # Gain on mode 0 against ancilla 2 in a 4-mode network.
    sigma, r = 2.0, math.sqrt(3.0)
    out = np.eye(8, dtype=complex)
    out[0, 0] = sigma
    out[0, 6] = r
    out[2, 2] = sigma
    out[2, 4] = r
    out[4, 2] = r
    out[4, 4] = sigma
    out[6, 0] = r
    out[6, 6] = sigma
    return out


def _relabel_loss():
    # Loss on mode 1 against ancilla 3 in a 4-mode network.
    sigma = 0.5
    r = math.sqrt(1 - sigma * sigma)
    out = np.eye(8, dtype=complex)
    out[1, 1] = sigma
    out[1, 3] = r
    out[3, 1] = -r
    out[3, 3] = sigma
    out[5, 5] = sigma
    out[5, 7] = r
    out[7, 5] = -r
    out[7, 7] = sigma
    return out


def test_rejects_gain_above_ceiling():
    with pytest.raises(ValueError, match="gain ceiling"):
        analytic_synthesize(np.diag([1e22, 0.5]).astype(complex))


# Each overflowed a step of the closed form: math.ldexp raised OverflowError,
# numpy warned on a scalar add, inf * 0 gave a NaN singular value, or
# cmath.phase raised on an underflow.  synth rejects all four at the ceiling.
BEYOND_THE_FLOAT_RANGE = [
    [[1e308, 1e308], [1e308, 1e308]],
    [[1.7e308, 0.0], [1.7e308, 0.0]],
    [[1.2e308, -1.79e308 + 1e308j], [0.0, -1e307 + 1j]],
    [[7.347880794884118e291 - 1.2e308j, 1 - 1.79e308j], [-0.7071067811865475 + 0.7071067811865476j, 1.0]],
]


@pytest.mark.parametrize("t", BEYOND_THE_FLOAT_RANGE, ids=["ldexp", "scalar-add", "nan-sigma", "phase-underflow"])
def test_singular_value_beyond_the_float_range_hits_the_gain_ceiling(t):
    with pytest.raises(ValueError, match="singular value inf exceeds the gain ceiling"):
        analytic_synthesize(np.array(t))


def test_entries_near_the_float_limit_are_rejected_at_the_gain_ceiling():
    # sigma1 >= every |entry| > 1e300, so each is rejected, whatever the phases.
    rng = np.random.default_rng(66)
    magnitudes = np.array([0.0, 1.0, 1e300, 1e308, 1.2e308, 1.7e308, 1.79e308])
    phases = np.array([0.0, 0.25, 0.5, 0.75, 1.0, -0.5, -0.25]) * np.pi
    for _ in range(300):
        t = rng.choice(magnitudes, size=(2, 2)) * np.exp(1j * rng.choice(phases, size=(2, 2)))
        t[rng.integers(2), rng.integers(2)] = 1.7e308
        with pytest.raises(ValueError, match="gain ceiling"):
            analytic_synthesize(t)


def test_a_phase_that_underflows_is_zero():
    # atan2(5e-324, 3) underflows to 0, where cmath.phase raised OverflowError.
    p, result = analytic_synthesize(np.array([[3 + 5e-324j, 0.0], [0.0, 0.5]]))
    assert (p.sigma1, p.sigma2, p.phi11) == (3.0, 0.5, 0.0)
    assert result.block_deviation < 1e-12


def test_zero_matrix():
    t = np.zeros((2, 2), dtype=complex)
    p, result = analytic_synthesize(t)
    assert p.sigma1 == p.sigma2 == 0.0
    assert max_abs(result.s_total[:2, :2]) < 1e-12


def test_triangular_chain_identity():
    # The unsimplified chain with explicit input phases must also reproduce t.
    rng = np.random.default_rng(64)
    for _ in range(50):
        t = random_2x2(rng)
        p = analytic_params(t)

        def ps(mode, phi):
            out = np.eye(2, dtype=complex)
            out[mode, mode] = np.exp(1j * phi)
            return out

        def bs(theta):
            c, s = math.cos(theta), math.sin(theta)
            return np.array([[c, s], [-s, c]], dtype=complex)

        chain = (
            ps(1, p.phi21)
            @ ps(0, p.phi11)
            @ bs(-p.vartheta)
            @ ps(1, p.xi2)
            @ ps(0, p.xi1)
            @ bs(p.theta1)
            @ np.diag([p.sigma1, p.sigma2]).astype(complex)
            @ bs(p.theta2)
            @ ps(0, -p.xi1)
        )
        assert max_abs(chain - t) < 1e-11


def test_huge_entries_report_the_true_singular_value():
    # Squaring 1e200 would overflow: the ceiling error must name 1.000e+200, not inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"1\.000e\+200"):
            analytic_synthesize(np.diag([1e200, 1.0]))


def test_tiny_entries_keep_their_singular_values():
    # Squaring 1e-170 would underflow to 0.
    p = analytic_params(np.diag([1e-170, 2e-170]))
    assert p.sigma1 == pytest.approx(2e-170, rel=1e-14, abs=0.0)
    assert p.sigma2 == pytest.approx(1e-170, rel=1e-14, abs=0.0)
    t = np.array([[1e-170, 1e-170j], [0.0, -2e-170]])
    p = analytic_params(t)
    assert [p.sigma1, p.sigma2] == pytest.approx(np.linalg.svd(t, compute_uv=False), rel=1e-12, abs=0.0)


def test_power_of_two_scaling_leaves_params_unchanged():
    # Scaling t by 2^j scales sigma1 and sigma2 by 2^j and leaves every angle bitwise equal.
    rng = np.random.default_rng(65)
    for _ in range(200):
        t = random_2x2(rng)
        p = analytic_params(t)
        for j in (-600, -30, 30, 600):
            q = analytic_params(t * 2.0**j)
            assert (math.ldexp(p.sigma1, j), math.ldexp(p.sigma2, j)) == (q.sigma1, q.sigma2)
            assert [getattr(p, f) for f in p.__dataclass_fields__ if not f.startswith("sigma")] == [
                getattr(q, f) for f in q.__dataclass_fields__ if not f.startswith("sigma")
            ]


def test_params_json():
    out = params_to_json(analytic_params(LOSSY_BS_T))
    assert out["schema"] == "qsynth/1"
    assert out["sigma1"] == pytest.approx(1.0, abs=1e-12)
    assert "gamma" in out and "alpha1" in out
