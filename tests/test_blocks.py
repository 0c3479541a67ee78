import math

import numpy as np
import pytest

from qsynth.blocks import (
    XI_MAX,
    BeamSplitter,
    Circuit,
    PhaseShifter,
    TwoModeSqueezer,
    circuit_from_json,
    circuit_smatrix,
    circuit_to_json,
    element_from_json,
)
from qsynth.mesh import reconstruct
from qsynth.numkit import max_abs, quasiunitarity_deviation
from qsynth.synth import SIGMA_MAX, singular_element, synthesize

from oracles import (
    LOSSY_BS_S_D,
    LOSSY_BS_S_TOTAL,
    element_unitary,
    embed_element,
    lift_gain,
    lift_loss,
    lift_phase,
)


def test_lift_loss_total_attenuation_is_swap_with_sign():
    expected = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex
    )
    assert max_abs(lift_loss(0.0) - expected) == 0.0


def test_lift_loss_entries():
    s = lift_loss(0.6)
    assert s[0, 0] == pytest.approx(0.6)
    assert s[0, 1] == pytest.approx(0.8)
    assert s[1, 0] == pytest.approx(-0.8)
    assert s[2, 3] == pytest.approx(0.8)


def test_lift_loss_near_unit_is_quasiunitary():
    assert quasiunitarity_deviation(lift_loss(1 - 1e-3)) < 1e-14


def test_lift_loss_nominal_entry_is_sigma():
    for sigma in (0.0, 0.3, 0.999):
        assert lift_loss(sigma)[0, 0] == sigma


def test_lift_loss_rejects_out_of_range():
    for sigma in (-0.1, 1.0, 2.0):
        with pytest.raises(ValueError):
            lift_loss(sigma)


def test_lift_gain_entries():
    s = lift_gain(2.0)
    r = math.sqrt(3.0)
    assert s[0, 3] == pytest.approx(r)
    assert s[1, 2] == pytest.approx(r)
    assert s[2, 1] == pytest.approx(r)
    assert s[3, 0] == pytest.approx(r)
    assert s[0, 0] == 2.0


def test_lift_gain_inverse_relation():
    sigma = math.cosh(0.5)
    assert math.acosh(lift_gain(sigma)[0, 0].real) == pytest.approx(0.5, abs=1e-12)


def test_lift_gain_is_quasiunitary():
    assert quasiunitarity_deviation(lift_gain(5.0)) < 1e-13


def test_lift_gain_rejects_out_of_range():
    for sigma in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            lift_gain(sigma)


@pytest.mark.parametrize(
    "phi, expected",
    [
        (0.0, np.eye(2)),
        (math.pi, np.diag([-1, -1])),
        (math.pi / 2, np.diag([1j, -1j])),
    ],
)
def test_lift_phase(phi, expected):
    assert max_abs(lift_phase(phi) - expected) < 1e-15


def test_embed_trivial_phase_is_identity():
    assert max_abs(embed_element(PhaseShifter(mode=0, phi=0.0), 3) - np.eye(6)) == 0.0


def test_embed_total_attenuation_matches_fixture():
    s = embed_element(BeamSplitter(mode_a=1, mode_b=2, theta=math.pi / 2), 3)
    assert max_abs(s - LOSSY_BS_S_D) < 1e-15


def test_embed_squeezer_pattern():
    xi = math.acosh(2.0)
    s = embed_element(TwoModeSqueezer(mode_a=1, mode_b=3, xi=xi), 4)
    r = math.sqrt(3.0)
    assert s[1, 1] == pytest.approx(2.0)
    assert s[1, 7] == pytest.approx(r)
    assert s[3, 5] == pytest.approx(r)
    assert s[5, 3] == pytest.approx(r)
    assert s[7, 1] == pytest.approx(r)
    assert quasiunitarity_deviation(s) < 1e-13
    # Identity outside the touched rows/columns.
    for idx in (0, 2, 4, 6):
        row = s[idx].copy()
        row[idx] -= 1
        assert max_abs(row) == 0.0


def test_embed_preserves_quasiunitarity_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a, b = (int(x) for x in rng.permutation(n)[:2])
        pick = rng.integers(0, 3)
        if pick == 0:
            e = PhaseShifter(mode=a, phi=float(rng.uniform(-4, 4)))
        elif pick == 1:
            e = BeamSplitter(mode_a=a, mode_b=b, theta=float(rng.uniform(-4, 4)))
        else:
            e = TwoModeSqueezer(mode_a=a, mode_b=b, xi=float(rng.uniform(0, 2)))
        assert quasiunitarity_deviation(embed_element(e, n)) < 1e-13


def test_embed_conjugate_block_structure():
    e = BeamSplitter(mode_a=0, mode_b=2, theta=0.7)
    s = embed_element(e, 3)
    assert max_abs(s[3:, 3:] - s[:3, :3].conj()) == 0.0
    assert max_abs(s[:3, 3:]) == 0.0


def test_embed_rejects_mode_out_of_range():
    # -1 would otherwise index the last row.
    bad = (
        PhaseShifter(mode=3, phi=0.1),
        BeamSplitter(mode_a=0, mode_b=5, theta=0.1),
        PhaseShifter(mode=-1, phi=0.1),
        BeamSplitter(mode_a=-1, mode_b=1, theta=0.1),
    )
    for e in bad:
        with pytest.raises(ValueError):
            reconstruct([PhaseShifter(mode=0, phi=0.2), e], 3)
        with pytest.raises(ValueError):
            Circuit(n_modes=3, n_nominal=3, elements=(e,))
    with pytest.raises(ValueError):
        Circuit(n_modes=3, n_nominal=3, elements=(TwoModeSqueezer(mode_a=-1, mode_b=0, xi=0.5),))


def test_element_modes_must_differ():
    with pytest.raises(ValueError):
        BeamSplitter(mode_a=1, mode_b=1, theta=0.1)
    with pytest.raises(ValueError):
        TwoModeSqueezer(mode_a=0, mode_b=0, xi=0.1)


def test_squeezer_xi_is_bounded_by_the_gain_ceiling():
    for xi in (XI_MAX + 0.5, -711.0, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="ceiling"):
            TwoModeSqueezer(mode_a=0, mode_b=1, xi=xi)
    assert TwoModeSqueezer(mode_a=0, mode_b=1, xi=-XI_MAX).xi == -XI_MAX
    assert singular_element(0, 1, SIGMA_MAX) == TwoModeSqueezer(mode_a=0, mode_b=1, xi=XI_MAX)


def test_element_unitary_rejects_squeezer():
    with pytest.raises(ValueError):
        element_unitary(TwoModeSqueezer(mode_a=0, mode_b=1, xi=0.5), 2)
    with pytest.raises(ValueError):
        reconstruct([BeamSplitter(0, 1, 0.1), TwoModeSqueezer(mode_a=0, mode_b=1, xi=0.5)], 2)


def _random_elements(rng, n, count, passive=False):
    elements = []
    for _ in range(count):
        a, b = (int(x) for x in rng.permutation(n)[:2])
        pick = rng.integers(0, 2 if passive else 3)
        if pick == 0:
            elements.append(PhaseShifter(mode=a, phi=float(rng.uniform(-4, 4))))
        elif pick == 1:
            elements.append(BeamSplitter(mode_a=a, mode_b=b, theta=float(rng.uniform(-4, 4))))
        else:
            elements.append(TwoModeSqueezer(mode_a=a, mode_b=b, xi=float(rng.uniform(-1, 1))))
    return elements


def test_kernel_matches_dense_lift_product():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        elements = _random_elements(rng, n, int(rng.integers(1, 13)))
        dense = np.eye(2 * n, dtype=complex)
        for e in elements:
            dense = embed_element(e, n) @ dense
        s = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=tuple(elements)))
        assert max_abs(s - dense) <= 1e-13


def _bottom_is_conjugated_top(s):
    n = s.shape[0] // 2
    return np.array_equal(s[n:], np.roll(s[:n].conj(), n, axis=1))


def test_smatrix_bottom_half_is_conjugated_top_half():
    # S = [[A, B], [B*, A*]] holds exactly, not just to rounding: only the
    # top half is multiplied out.
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        elements = _random_elements(rng, n, int(rng.integers(1, 13)))
        assert _bottom_is_conjugated_top(circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=tuple(elements))))
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        t = rng.uniform(0.2, 2.5) * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        assert _bottom_is_conjugated_top(synthesize(t).s_total)


def test_reconstruct_matches_dense_unitary_product():
    rng = np.random.default_rng(24)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        elements = _random_elements(rng, n, int(rng.integers(1, 13)), passive=True)
        dense = np.eye(n, dtype=complex)
        for e in elements:
            dense = element_unitary(e, n) @ dense
        assert max_abs(reconstruct(elements, n) - dense) <= 1e-13


def test_circuit_smatrix_empty():
    c = Circuit(n_modes=2, n_nominal=2)
    assert max_abs(circuit_smatrix(c) - np.eye(4)) == 0.0


def test_circuit_smatrix_reproduces_lossy_bs_network():
    # Hand-assembled chronological sequence for the lossy 50:50 beam splitter
    # in the fixed factor gauge of the fixture.
    elements = (
        PhaseShifter(mode=1, phi=math.pi),
        BeamSplitter(mode_a=0, mode_b=1, theta=math.pi / 4),
        PhaseShifter(mode=0, phi=math.pi),
        BeamSplitter(mode_a=1, mode_b=2, theta=math.pi / 2),
        PhaseShifter(mode=0, phi=math.pi),
        BeamSplitter(mode_a=0, mode_b=1, theta=math.pi / 4),
    )
    c = Circuit(n_modes=3, n_nominal=2, elements=elements, full_ancillas=(2,))
    assert max_abs(circuit_smatrix(c) - LOSSY_BS_S_TOTAL) < 1e-15


def test_passive_circuit_has_zero_off_diagonal_blocks():
    rng = np.random.default_rng(22)
    n = 4
    elements = []
    for _ in range(5):
        a, b = (int(x) for x in rng.permutation(n)[:2])
        if rng.integers(0, 2):
            elements.append(PhaseShifter(mode=a, phi=float(rng.uniform(-3, 3))))
        else:
            elements.append(BeamSplitter(mode_a=a, mode_b=b, theta=float(rng.uniform(0, 1.5))))
    s = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=tuple(elements)))
    assert max_abs(s[:n, n:]) == 0.0
    assert max_abs(s[n:, :n]) == 0.0


def test_circuit_concatenation_composes_products():
    n = 3
    first = (BeamSplitter(0, 1, 0.4), TwoModeSqueezer(1, 2, 0.3))
    second = (PhaseShifter(2, 1.1), BeamSplitter(0, 2, 0.9))
    s1 = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=first))
    s2 = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=second))
    s12 = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=first + second))
    assert max_abs(s12 - s2 @ s1) < 1e-14


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(n_modes=3, n_nominal=2, full_ancillas=(1,))  # inside nominal range
    with pytest.raises(ValueError):
        Circuit(n_modes=3, n_nominal=2, ancilla_inputs=(0,), ancilla_outputs=(0,))
    with pytest.raises(ValueError):
        Circuit(n_modes=2, n_nominal=2, elements=(PhaseShifter(mode=2, phi=0.1),))
    with pytest.raises(ValueError):
        Circuit(n_modes=2, n_nominal=0)


def test_netlist_json_round_trip():
    c = Circuit(
        n_modes=4,
        n_nominal=3,
        elements=(
            PhaseShifter(mode=0, phi=0.5),
            BeamSplitter(mode_a=0, mode_b=1, theta=0.25),
            TwoModeSqueezer(mode_a=1, mode_b=3, xi=0.75),
        ),
        ancilla_outputs=(2,),
        full_ancillas=(3,),
    )
    back = circuit_from_json(circuit_to_json(c))
    assert back == c


def test_netlist_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        element_from_json({"type": "mystery", "mode": 0})
    with pytest.raises(ValueError):
        circuit_from_json({"n_modes": 2})
