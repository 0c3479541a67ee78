import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.blocks import BS, TMS
from qsynth.closedform2x2 import analytic_synthesize
from qsynth.mesh import reck_decompose
from qsynth.numkit import TOL, max_abs, quasiunitarity_deviation, svd
from qsynth.synth import (
    SIGMA_MAX,
    couplings,
    factor_mesh,
    pad_factors,
    synthesize,
    verification_report,
    verified,
)

from oracles import (
    LOSSY_BS_S_D,
    LOSSY_BS_S_TOTAL,
    LOSSY_BS_S_U1,
    LOSSY_BS_S_U2,
    LOSSY_BS_S_W,
    LOSSY_BS_SINGULARS,
    LOSSY_BS_T,
    LOSSY_BS_U,
    LOSSY_BS_W,
    bs,
    channels,
    circuit_kinds,
    count_bounds,
    element_counts,
    embed_element,
    gain_coupling_8x8,
    lift_unitary_factor,
    loss_coupling_8x8,
    random_unitary,
    singular_element,
    tms,
)


def lift_singular(j, m_aj, sigma, n_modes):
    """Dense lift of the package's coupling element for one singular value."""
    return embed_element(singular_element(j, m_aj, sigma), n_modes)


@pytest.mark.parametrize(
    "n, m, expected",
    [(2, 2, (2, 6, 2)), (4, 4, (12, 20, 4)), (2, 3, (4, 9, 2)), (8, 1, (7, 37, 1))],
)
def test_count_bounds(n, m, expected):
    b = count_bounds(n, m)
    assert (b.max_bs, b.max_ps, b.max_d) == expected


def test_count_bounds_rejects_degenerate():
    with pytest.raises(ValueError):
        count_bounds(0, 2)


def test_classify_lossy_bs():
    d = couplings((1.0, 0.0), 1e-9, 2)
    assert len(d) == 1
    assert 2 + len(d) == 3
    assert channels(d, 2) == [("unit", None), ("loss", 2)]
    assert d == [bs(1, 2, math.pi / 2)]


def test_classify_cz_singulars():
    sigmas = (1.0, 1.0, math.sqrt(1 / 3), math.sqrt(1 / 3))
    d = couplings(sigmas, 1e-9, 4)
    assert len(d) == 2
    assert 4 + len(d) == 6
    assert [ancilla for _, ancilla in channels(d, 4)] == [None, None, 4, 5]


def test_classify_threshold_boundary():
    eps = 1e-6
    d = couplings((1.0 + eps / 2, 1.0 - eps / 2), eps, 2)
    assert d == []
    assert all(kind == "unit" for kind, _ in channels(d, 2))


def test_classify_pads_with_unit_values():
    d = couplings((0.5,), 1e-9, 3)
    assert [kind for kind, _ in channels(d, 3)] == ["loss", "unit", "unit"]


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        couplings((-0.1,), 1e-9, 1)


def test_classify_rejects_more_singular_values_than_modes():
    with pytest.raises(ValueError, match="got 3 singular values for 2 nominal modes"):
        couplings((0.5, 0.5, 0.5), 1e-9, 2)


def padded_diagonal(f, n_pad):
    """The D factor that goes with pad_factors: the singular values, then 1s."""
    return np.diag(list(f.singulars) + [1.0] * (n_pad - len(f.singulars))).astype(complex)


def test_classify_rejects_gain_above_ceiling():
    with pytest.raises(ValueError, match="gain ceiling"):
        couplings((2.0 * SIGMA_MAX, 0.5), 1e-10, 2)


@pytest.mark.parametrize("sigmas", [(math.nan, 0.5), (0.5, math.nan), (math.inf, math.nan)])
def test_classify_rejects_nan_at_the_gain_ceiling(sigmas):
    # NaN fails every comparison, so it must fail the range check rather than pass it.
    with pytest.raises(ValueError, match="gain ceiling"):
        couplings(sigmas, 1e-10, 2)


def test_singular_values_lost_to_overflow_hit_the_gain_ceiling():
    # numpy's SVD of these entries returns NaN singular values.
    t = np.array([[1.2e308, -1.79e308 + 1e308j], [0, -1e307 + 1j]])
    with pytest.raises(ValueError, match="singular value nan exceeds the gain ceiling"):
        synthesize(t)


def test_synthesis_keeps_only_a_positive_tol():
    assert list(inspect.signature(synthesize).parameters) == ["t", "tol"]
    assert list(inspect.signature(analytic_synthesize).parameters) == ["t", "tol"]
    assert inspect.signature(synthesize).parameters["tol"].default == TOL == 1e-10
    for bad in (0.0, -1e-10, math.nan, math.inf, 1.0):
        with pytest.raises(ValueError, match="positive"):
            couplings((0.5,), bad, 1)
        with pytest.raises(ValueError, match="positive"):
            synthesize(LOSSY_BS_T, bad)
        with pytest.raises(ValueError, match="positive"):
            analytic_synthesize(LOSSY_BS_T, bad)


def test_pad_factors_square_unchanged():
    f = svd(LOSSY_BS_T)
    u, w = pad_factors(f)
    d = padded_diagonal(f, 2)
    assert max_abs(u - f.u) == 0.0
    assert max_abs(w - f.w) == 0.0
    assert np.allclose(np.diag(d), f.singulars)


def test_pad_factors_wide_input_with_orthonormal_rows():
    rng = np.random.default_rng(41)
    t = random_unitary(rng, 3)[:2, :]  # 2x3 with T T^dag = I
    f = svd(t)
    u, w = pad_factors(f)
    d = padded_diagonal(f, 3)
    assert max_abs(d - np.eye(3)) < 1e-12
    assert max_abs((u @ d @ w)[:2, :] - t) < 1e-12


def test_pad_factors_tall_input():
    t = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    f = svd(t)
    u, w = pad_factors(f)
    d = padded_diagonal(f, 3)
    assert u.shape == d.shape == w.shape == (3, 3)
    assert max_abs((u @ d @ w)[:, :1] - t) < 1e-12


def test_lift_unitary_factor_identity():
    assert max_abs(lift_unitary_factor(np.eye(3), 2) - np.eye(10)) == 0.0


def test_lift_unitary_factor_fixture_pieces():
    u1 = np.diag([-1.0, 1.0]).astype(complex)
    u2 = (1 / math.sqrt(2)) * np.array([[1, -1], [1, 1]], dtype=complex)
    assert max_abs(lift_unitary_factor(u1, 1) - LOSSY_BS_S_U1) == 0.0
    assert max_abs(lift_unitary_factor(u2, 1) - LOSSY_BS_S_U2) < 1e-15
    assert max_abs(lift_unitary_factor(LOSSY_BS_W, 1) - LOSSY_BS_S_W) < 1e-15


def test_lift_unitary_factor_random_rotation_quasiunitary():
    rng = np.random.default_rng(42)
    piece = random_unitary(rng, 2)
    assert quasiunitarity_deviation(lift_unitary_factor(piece, 3)) < 1e-14


def test_lift_singular_total_attenuation_matches_fixture():
    assert max_abs(lift_singular(1, 2, 0.0, 3) - LOSSY_BS_S_D) < 1e-15


def test_lift_singular_gain_pattern():
    s = lift_singular(0, 1, 2.0, 2)
    r = math.sqrt(3.0)
    assert s[0, 0] == pytest.approx(2.0)
    assert s[0, 3] == pytest.approx(r)
    assert s[1, 2] == pytest.approx(r)
    assert s[2, 1] == pytest.approx(r)
    assert s[3, 0] == pytest.approx(r)


def test_lift_singular_matches_8x8_coupling_fixtures():
    assert max_abs(lift_singular(0, 2, 0.5, 4) - loss_coupling_8x8(0.5)) < 1e-15
    assert max_abs(lift_singular(1, 3, 2.0, 4) - gain_coupling_8x8(2.0)) < 1e-15


def test_synthesize_lossy_bs_free_svd():
    r = synthesize(LOSSY_BS_T)
    assert len(r.circuit.full_ancillas) == 1
    assert r.circuit.n_modes == 3
    assert r.block_deviation < 1e-10
    assert r.quasiunitarity_deviation < 1e-10
    assert element_counts(r.circuit.elements)["squeezers"] == 0


def test_lossy_bs_in_the_reference_factor_gauge():
    s = LOSSY_BS_SINGULARS
    r = verified(LOSSY_BS_T, s, reck_decompose(LOSSY_BS_W), couplings(s, TOL, 2), reck_decompose(LOSSY_BS_U), TOL)
    assert max_abs(r.s_total - LOSSY_BS_S_TOTAL) < 1e-12


def test_synthesize_unitary_reduces_to_mesh():
    rng = np.random.default_rng(43)
    u = random_unitary(rng, 4)
    r = synthesize(u)
    assert len(r.circuit.full_ancillas) == 0
    assert element_counts(r.circuit.elements)["squeezers"] == 0
    assert r.circuit.n_modes == 4
    assert max_abs(r.s_total[:4, :4] - u) < 1e-11


def test_synthesize_mixed_loss_and_gain_diagonal():
    r = synthesize(np.diag([0.5, 2.0]).astype(complex))
    assert r.circuit.n_modes == 4
    kinds = sorted(circuit_kinds(r.circuit))
    assert kinds == ["gain", "loss"]
    # Descending singulars put the gain channel on mode 0.
    assert circuit_kinds(r.circuit)[0] == "gain"
    d_elements = [e for e in r.circuit.elements if e[0] == TMS]
    assert d_elements == [tms(0, 2, pytest.approx(math.acosh(2.0)))]
    loss_elements = [e for e in r.circuit.elements if e[0] == BS and e[2] >= r.circuit.n_nominal]
    assert loss_elements == [bs(1, 3, pytest.approx(math.acos(0.5)))]
    assert max_abs(r.s_total[:2, :2] - np.diag([0.5, 2.0])) < 1e-10


def test_synthesize_wide_input_records_output_ancillas():
    rng = np.random.default_rng(44)
    t = 0.8 * random_unitary(rng, 3)[:2, :]
    r = synthesize(t)
    assert r.circuit.ancilla_outputs == (2,)
    assert r.circuit.ancilla_inputs == ()
    assert max_abs(r.s_total[:2, :3] - t) < 1e-10


def test_synthesize_tall_input_records_input_ancillas():
    t = np.array([[0.3], [0.1j], [0.2]], dtype=complex)
    r = synthesize(t)
    assert r.circuit.ancilla_inputs == (1, 2)
    assert r.circuit.ancilla_outputs == ()
    assert max_abs(r.s_total[:3, :1] - t) < 1e-10


def test_synthesize_near_unit_sigma_compiles_to_nothing():
    t = np.diag([1.0 + 5e-11, 2.0]).astype(complex)
    r = synthesize(t)
    assert len(r.circuit.full_ancillas) == 1


@pytest.mark.parametrize("offset", [5e-10, 9e-10])
def test_synthesize_sigma_just_beyond_tol_gets_an_ancilla(offset):
    # The ancilla threshold is the block tolerance: a singular value 5e-10 or
    # 9e-10 from 1 gets its own coupling, so the block check holds.
    r = synthesize(np.diag([1.0 + offset, 0.5]).astype(complex))
    kind, ancilla = channels(r.circuit.elements, r.circuit.n_nominal)[0]
    assert kind == "gain"
    assert ancilla is not None
    assert len(r.circuit.full_ancillas) == 2
    assert r.block_deviation < 1e-10
    assert r.quasiunitarity_deviation < 1e-10


@pytest.mark.parametrize("offset", [5e-11, -5e-11])
def test_synthesize_sigma_within_tol_compiles_to_no_element(offset):
    r = synthesize(np.diag([1.0 + offset, 0.5]).astype(complex))
    near = [j for j, sigma in enumerate(r.singulars) if abs(sigma - 1.0) < 1e-9]
    assert len(near) == 1
    assert channels(r.circuit.elements, r.circuit.n_nominal)[near[0]] == ("unit", None)
    assert len(r.circuit.full_ancillas) == 1
    coupled = {e.mode_a for e in r.circuit.elements if getattr(e, "mode_b", 0) >= r.circuit.n_nominal}
    assert near[0] not in coupled


@st.composite
def near_unit_spectra(draw):
    """An n x m shape, a unitary seed, and min(n, m) singular values.

    With two or more, one is ordinary (loss or gain) and the rest lie within
    1e-8 of 1; a single one lies within 1e-8 of 1.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    k = min(n, m)
    offsets = [
        draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-13.0, -8.0))
        for _ in range(max(k - 1, 1))
    ]
    ordinary = [draw(st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 3.0)))] if k > 1 else []
    return n, m, draw(st.integers(0, 2**32 - 1)), ordinary + [1.0 + d for d in offsets]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(near_unit_spectra())
def test_near_unit_spectra_verify_with_tol_as_ancilla_threshold(case):
    n, m, seed, sigmas = case
    rng = np.random.default_rng(seed)
    k = min(n, m)
    t = random_unitary(rng, n)[:, :k] @ np.diag(sigmas) @ random_unitary(rng, m)[:k, :]
    r = synthesize(t)  # raises SynthesisError if either check fails
    expected = sorted(sigmas, reverse=True) + [1.0] * (max(n, m) - k)
    for sigma, (_, ancilla) in zip(expected, channels(r.circuit.elements, r.circuit.n_nominal)):
        assert (ancilla is not None) == (abs(sigma - 1.0) > TOL)


def test_synthesize_rejects_huge_gain():
    with pytest.raises(ValueError):
        synthesize(np.array([[1e22]], dtype=complex))


def test_synthesize_all_loss_is_passive():
    rng = np.random.default_rng(45)
    t = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / 3
    r = synthesize(t)
    n = r.circuit.n_modes
    assert max_abs(r.s_total[:n, n:]) == 0.0
    assert max_abs(r.s_total[n:, :n]) == 0.0


def test_synthesize_respects_element_bounds():
    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        t = rng.uniform(0.4, 2.2) * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) / max(n, m)
        r = synthesize(t)
        bounds = count_bounds(n, m)
        counts = element_counts(r.circuit.elements)
        n_loss = circuit_kinds(r.circuit).count("loss")
        assert counts["beam_splitters"] - n_loss <= bounds.max_bs
        assert counts["phase_shifters"] <= bounds.max_ps
        assert counts["squeezers"] + n_loss <= bounds.max_d
        assert counts["squeezers"] <= min(n, m)


def test_synthesize_1x1_channels():
    r = synthesize(np.array([[0.0]], dtype=complex))
    assert r.circuit.elements.kind == (BS,)
    r = synthesize(np.array([[-2.0]], dtype=complex))
    assert circuit_kinds(r.circuit)[0] == "gain"
    assert max_abs(r.s_total[:1, :1] - [[-2.0]]) < 1e-12


def test_verification_report_contents():
    r = synthesize(LOSSY_BS_T)
    report = verification_report(r)
    assert report["schema"] == "qsynth/1"
    assert report["n_full_ancillas"] == 1
    assert report["counts"]["squeezers"] == 0
    assert report["counts"] == element_counts(r.circuit.elements)
    assert np.allclose(report["singular_values"], [1.0, 0.0], atol=1e-12)
    assert report["quasiunitarity_deviation"] < 1e-10
    assert report["block_deviation"] < 1e-10


def test_verification_report_nonsquare_lists_true_singular_count():
    rng = np.random.default_rng(47)
    t = 0.7 * random_unitary(rng, 3)[:2, :]
    report = verification_report(synthesize(t))
    assert len(report["singular_values"]) == 2


@st.composite
def shaped_targets(draw):
    """An n x m target, 1 <= n, m <= 8: Haar factors around a loss, gain, passive or mixed spectrum."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(n, m)
    sigmas = {
        "loss": rng.uniform(0.0, 1.0, k),
        "gain": rng.uniform(1.0, 4.0, k),
        "passive": np.ones(k),
        "mixed": rng.uniform(0.0, 3.0, k),
    }[draw(st.sampled_from(("loss", "gain", "passive", "mixed")))]
    return random_unitary(rng, n)[:, :k] @ np.diag(sigmas) @ random_unitary(rng, m)[:k]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shaped_targets())
def test_round_trip_meshes_each_factor_on_its_own_modes(t):
    n, m = t.shape
    sizes = {}

    def spy(name, u, tol):
        elements = factor_mesh(name, u, tol)
        sizes[name] = len(elements)
        return elements

    with mock.patch("qsynth.synth.factor_mesh", spy):
        r = synthesize(t)
    assert max_abs(r.s_total[:n, :m] - t) <= TOL
    elements = r.circuit.elements
    w_stage, u_stage = elements[: sizes["factor W"]], elements[len(elements) - sizes["factor U"] :]
    d_stage = elements[len(w_stage) : len(elements) - len(u_stage)]
    assert all(kind != TMS and a < m and b < m for kind, a, b, _ in w_stage)
    assert all(kind != TMS and a < n and b < n for kind, a, b, _ in u_stage)
    assert all(a < min(n, m) <= max(n, m) <= b for _, a, b, _ in d_stage)
    assert all(0.0 <= angle <= math.pi / 2 for kind, _, _, angle in elements if kind == BS)
    # A wide input's W stage is a transposed mesh: each beam splitter's first mode is the larger one.
    assert all((a > b) == (n < m) for kind, a, b, _ in w_stage if kind == BS)
    assert all(a < b for kind, a, b, _ in u_stage if kind == BS)
    assert element_counts(w_stage)["beam_splitters"] + element_counts(u_stage)["beam_splitters"] \
        <= count_bounds(n, m).max_bs
