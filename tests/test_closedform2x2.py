import math

import numpy as np
import pytest

from qsynth.blocks import BeamSplitter, TwoModeSqueezer
from qsynth.closedform2x2 import (
    analytic_circuit,
    analytic_params,
    analytic_synthesize,
    params_to_json,
    reconstruct_params,
)
from qsynth.numkit import max_abs, upper_left_block
from qsynth.synth import KIND_GAIN, KIND_LOSS

from oracles import LOSSY_BS_T, embed_element


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
        _, result = analytic_synthesize(t)
        assert max_abs(upper_left_block(result.s_total, 2, 2) - t) < 1e-11


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
    p = analytic_params(t)
    result = analytic_circuit(p)
    assert result.circuit.n_modes == 2
    assert result.classification.n_full_ancillas == 0
    assert all(e.mode_b < 2 for e in result.circuit.elements if isinstance(e, BeamSplitter))
    assert max_abs(upper_left_block(result.s_total, 2, 2) - t) < 1e-12


def test_mixed_case_uses_both_coupling_patterns():
    t = np.diag([2.0, 0.5]).astype(complex)
    p, result = analytic_synthesize(t)
    assert p.sigma1 == pytest.approx(2.0)
    assert p.sigma2 == pytest.approx(0.5)
    kinds = [ch.kind for ch in result.classification.channels]
    assert kinds == [KIND_GAIN, KIND_LOSS]
    assert result.circuit.n_modes == 4

    gain = [e for e in result.circuit.elements if isinstance(e, TwoModeSqueezer)]
    loss = [e for e in result.circuit.elements if isinstance(e, BeamSplitter) and e.mode_b >= 2]
    assert gain == [TwoModeSqueezer(mode_a=0, mode_b=2, xi=pytest.approx(math.acosh(2.0)))]
    assert loss == [BeamSplitter(mode_a=1, mode_b=3, theta=pytest.approx(math.acos(0.5)))]
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


def test_zero_matrix():
    t = np.zeros((2, 2), dtype=complex)
    p, result = analytic_synthesize(t)
    assert p.sigma1 == p.sigma2 == 0.0
    assert max_abs(upper_left_block(result.s_total, 2, 2)) < 1e-12


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


def test_params_json():
    out = params_to_json(analytic_params(LOSSY_BS_T))
    assert out["schema"] == "qsynth/1"
    assert out["sigma1"] == pytest.approx(1.0, abs=1e-12)
    assert "gamma" in out and "alpha1" in out
