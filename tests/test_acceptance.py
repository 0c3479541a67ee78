"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts its runtime budget.
"""

import functools
import math
import time

import numpy as np

from qsynth.apps import cz_gate_target, naimark_extension, povm_probabilities, verify_cz
from qsynth.blocks import BS
from qsynth.closedform2x2 import analytic_params, analytic_synthesize
from qsynth.mesh import reck_decompose
from qsynth.numkit import TOL, max_abs, quasiunitarity_deviation
from qsynth.sim import fock_evolve, passive_block
from qsynth.synth import couplings, synthesize, verified
from qsynth.apps import RankOnePovm

from oracles import (
    LOSSY_BS_S_TOTAL,
    LOSSY_BS_SINGULARS,
    LOSSY_BS_T,
    LOSSY_BS_U,
    LOSSY_BS_W,
    bs,
    circuit_kinds,
    count_bounds,
    element_counts,
    embed_element,
    gain_coupling_8x8,
    loss_coupling_8x8,
    mesh_verify,
    probability_where,
    ps,
    random_unitary,
    singular_element,
    tms,
)


def criterion(name: str, budget_s: float):
    """Time the test, enforce its runtime budget, print one PASS/FAIL line."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL  {name}")
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS  {name} ({elapsed:.2f} s)")
            assert elapsed < budget_s, f"{name} took {elapsed:.2f} s, budget {budget_s} s"

        return run

    return wrap


@criterion("lossy beam splitter regression", budget_s=1.0)
def test_criterion_1_lossy_bs_regression():
    s = LOSSY_BS_SINGULARS  # the reference factor gauge, assembled by the pipeline's own verify step
    gauged = verified(LOSSY_BS_T, s, reck_decompose(LOSSY_BS_W), couplings(s, TOL, 2), reck_decompose(LOSSY_BS_U), TOL)
    assert max_abs(gauged.s_total - LOSSY_BS_S_TOTAL) < 1e-12

    free = synthesize(LOSSY_BS_T)
    assert max_abs(free.s_total[:2, :2] - LOSSY_BS_T) < 1e-10
    assert quasiunitarity_deviation(free.s_total) < 1e-10


@criterion("two-photon loss statistics", budget_s=1.0)
def test_criterion_2_two_photon_statistics():
    result = synthesize(LOSSY_BS_T)
    block = passive_block(result.s_total)
    state = fock_evolve(block, (1, 1, 0))
    p_one_nominal = probability_where(state, lambda occ: occ[0] + occ[1] == 1)
    p_both = probability_where(state, lambda occ: occ[0] + occ[1] == 2)
    p_none = probability_where(state, lambda occ: occ[0] + occ[1] == 0)
    assert p_one_nominal < 1e-12
    assert abs(p_both - 0.5) < 1e-10
    assert abs(p_none - 0.5) < 1e-10


@criterion("postselected controlled-Z gate", budget_s=5.0)
def test_criterion_3_cz_gate():
    result = synthesize(cz_gate_target())
    sigmas = result.singulars
    expected = (1.0, 1.0, math.sqrt(1 / 3), math.sqrt(1 / 3))
    assert max(abs(a - b) for a, b in zip(sigmas, expected)) < 1e-10
    assert len(result.circuit.full_ancillas) == 2
    verification = verify_cz(result)
    assert verification.phase_pattern == (-1, 1, 1, 1)
    for prob in verification.success_probs.values():
        assert abs(prob - 1.0 / 9.0) < 1e-10


@criterion("randomized synthesis sweep (500 matrices)", budget_s=30.0)
def test_criterion_4_randomized_method_suite():
    rng = np.random.default_rng(1001)
    seen_loss = seen_gain = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        scale = rng.uniform(0.3, 2.2) / math.sqrt(max(n, m))
        t = scale * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        result = synthesize(t)

        assert quasiunitarity_deviation(result.s_total) < 1e-10
        assert max_abs(result.s_total[:n, :m] - t) < 1e-10

        raw_sigmas = np.linalg.svd(t, compute_uv=False)
        expected_ancillas = int(np.sum(np.abs(raw_sigmas - 1.0) > TOL))
        assert len(result.circuit.full_ancillas) == expected_ancillas

        bounds = count_bounds(n, m)
        counts = element_counts(result.circuit.elements)
        kinds = circuit_kinds(result.circuit)
        n_loss = kinds.count("loss")
        seen_loss += n_loss
        seen_gain += kinds.count("gain")
        assert counts["beam_splitters"] - n_loss <= bounds.max_bs
        assert counts["phase_shifters"] <= bounds.max_ps
        assert counts["squeezers"] + n_loss <= bounds.max_d
        assert counts["squeezers"] <= min(n, m)
    # The sweep must actually exercise both attenuation and amplification.
    assert seen_loss > 0 and seen_gain > 0


@criterion("coherent mean propagation (100 networks)", budget_s=30.0)
def test_criterion_5_mean_field_contract():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        scale = rng.uniform(0.4, 2.0) / math.sqrt(max(n, m))
        t = scale * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        result = synthesize(t)
        n_total = result.circuit.n_modes
        alpha = rng.normal(size=m) + 1j * rng.normal(size=m)
        padded = np.zeros(n_total, dtype=complex)
        padded[:m] = alpha
        means = result.s_total[:n_total] @ np.concatenate((padded, padded.conj()))
        assert max_abs(means[:n] - t @ alpha) < 1e-10


@criterion("closed-form 2x2 cross-check (10,000 matrices)", budget_s=30.0)
def test_criterion_6_analytic_vs_numeric_2x2():
    rng = np.random.default_rng(1003)
    for _ in range(10_000):
        radius = 2.0 * np.sqrt(rng.uniform(0, 1, size=(2, 2)))
        t = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(2, 2)))
        params = analytic_params(t)
        sv = np.linalg.svd(t, compute_uv=False)
        assert abs(params.sigma1 - sv[0]) < 1e-10
        assert abs(params.sigma2 - sv[1]) < 1e-10
        _, result = analytic_synthesize(t)
        assert max_abs(result.s_total[:2, :2] - t) < 1e-10

    # Mixed attenuation/amplification couplings carry the literal 8x8 display
    # patterns: loss on the first mode with the first ancilla, gain on the
    # second mode with the second ancilla.
    assert max_abs(embed_element(singular_element(0, 2, 0.5), 4) - loss_coupling_8x8(0.5)) < 1e-15
    assert max_abs(embed_element(singular_element(1, 3, 2.0), 4) - gain_coupling_8x8(2.0)) < 1e-15
    # The analytic route orders singulars descending, so its mixed case puts
    # the gain channel first; both coupling kinds must appear.
    _, mixed = analytic_synthesize(np.diag([2.0, 0.5]).astype(complex))
    assert circuit_kinds(mixed.circuit) == ["gain", "loss"]


@criterion("mesh round-trip (200 unitaries)", budget_s=30.0)
def test_criterion_7_mesh_round_trip():
    rng = np.random.default_rng(1004)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        elements = reck_decompose(u)
        assert mesh_verify(elements, u) < 1e-11
        n_bs = sum(kind == BS for kind, _, _, _ in elements)
        assert n_bs <= n * (n - 1) // 2


@criterion("POVM extension statistics (trine, 200 states)", budget_s=30.0)
def test_criterion_8_naimark_trine():
    vectors = [
        math.sqrt(2.0 / 3.0)
        * np.array([math.cos(2 * math.pi * i / 3), math.sin(2 * math.pi * i / 3)])
        for i in range(3)
    ]
    povm = RankOnePovm.from_vectors(vectors)
    extension = naimark_extension(povm)
    assert max_abs(extension.conj().T @ extension - np.eye(3)) < 1e-10

    rng = np.random.default_rng(1005)
    for _ in range(200):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        probs = povm_probabilities(extension, psi)
        direct = np.array([abs(np.vdot(v, psi)) ** 2 for v in vectors])
        assert max_abs(probs - direct) < 1e-10


@criterion("quasiunitary product closure (1,000 trials)", budget_s=30.0)
def test_criterion_9_product_closure():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        product = np.eye(2 * n, dtype=complex)
        for _ in range(int(rng.integers(2, 9))):
            pick = rng.integers(0, 3)
            a, b = (int(x) for x in rng.permutation(n)[:2])
            if pick == 0:
                e = ps(a, float(rng.uniform(-np.pi, np.pi)))
            elif pick == 1:
                e = bs(a, b, float(rng.uniform(0, np.pi / 2)))
            else:
                e = tms(a, b, float(rng.uniform(0, 0.6)))
            product = embed_element(e, n) @ product
        assert quasiunitarity_deviation(product) < 1e-10
