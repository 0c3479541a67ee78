import json
import math
import re

import numpy as np
import pytest

from qsynth.blocks import (
    MAX_MODES,
    XI_MAX,
    Circuit,
    circuit_from_json,
    circuit_smatrix,
    check_modes,
    circuit_to_json,
    element_from_json,
)
from qsynth.numkit import TOL, max_abs, partner_rows, quasiunitarity_deviation
from qsynth.synth import SIGMA_MAX, couplings, synthesize

from oracles import (
    LOSSY_BS_S_D,
    LOSSY_BS_S_TOTAL,
    bs,
    element_unitary,
    embed_element,
    lift_gain,
    lift_loss,
    lift_phase,
    ps,
    random_unitary,
    smatrix_reference,
    tms,
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
    assert quasiunitarity_deviation(lift_loss(1 - 1e-3)[:2]) < 1e-14


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
    assert quasiunitarity_deviation(lift_gain(5.0)[:2]) < 1e-13


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
    assert max_abs(embed_element(ps(0, 0.0), 3) - np.eye(6)) == 0.0


def test_embed_total_attenuation_matches_fixture():
    s = embed_element(bs(1, 2, math.pi / 2), 3)
    assert max_abs(s - LOSSY_BS_S_D) < 1e-15


def test_embed_squeezer_pattern():
    xi = math.acosh(2.0)
    s = embed_element(tms(1, 3, xi), 4)
    r = math.sqrt(3.0)
    assert s[1, 1] == pytest.approx(2.0)
    assert s[1, 7] == pytest.approx(r)
    assert s[3, 5] == pytest.approx(r)
    assert s[5, 3] == pytest.approx(r)
    assert s[7, 1] == pytest.approx(r)
    assert quasiunitarity_deviation(s[:4]) < 1e-13
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
            e = ps(a, float(rng.uniform(-4, 4)))
        elif pick == 1:
            e = bs(a, b, float(rng.uniform(-4, 4)))
        else:
            e = tms(a, b, float(rng.uniform(0, 2)))
        assert quasiunitarity_deviation(embed_element(e, n)[:n]) < 1e-13


def test_embed_conjugate_block_structure():
    e = bs(0, 2, 0.7)
    s = embed_element(e, 3)
    assert max_abs(s[3:, 3:] - s[:3, :3].conj()) == 0.0
    assert max_abs(s[:3, 3:]) == 0.0


def test_embed_rejects_mode_out_of_range():
    # -1 would otherwise index the last row.
    bad = (
        ps(3, 0.1),
        bs(0, 5, 0.1),
        ps(-1, 0.1),
        bs(-1, 1, 0.1),
    )
    for e in bad:
        with pytest.raises(ValueError):
            Circuit(n_modes=3, n_nominal=3, elements=(e,))
    with pytest.raises(ValueError):
        Circuit(n_modes=3, n_nominal=3, elements=(tms(-1, 0, 0.5),))


def test_element_modes_must_differ():
    with pytest.raises(ValueError, match="beam splitter modes must be distinct"):
        check_modes([bs(1, 1, 0.1)], 3)
    with pytest.raises(ValueError, match="squeezer modes must be distinct"):
        Circuit(n_modes=3, n_nominal=3, elements=[tms(0, 0, 0.1)])


def test_squeezer_xi_is_bounded_by_the_gain_ceiling():
    for xi in (XI_MAX + 0.5, -711.0, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="ceiling"):
            check_modes([tms(0, 1, xi)], 2)
    check_modes([tms(0, 1, -XI_MAX)], 2)
    assert couplings((SIGMA_MAX,), TOL, 1) == [tms(0, 1, XI_MAX)]


@pytest.mark.parametrize("row, shown", [
    (bs(0, 1, math.nan), "(1, 0, 1, nan)"),
    (bs(0, 1, -math.inf), "(1, 0, 1, -inf)"),
    (ps(1, math.inf), "(0, 1, 1, inf)"),
    (ps(1, math.nan), "(0, 1, 1, nan)"),
], ids=["bs-nan", "bs-inf", "ps-inf", "ps-nan"])
def test_hand_built_circuits_reject_non_finite_angles(row, shown):
    # circuit_from_json refuses these rows in json_float; a hand-built circuit must refuse them too.
    message = f"element 0 (kind, mode_a, mode_b, angle) = {shown}: angle {row[3]} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Circuit(n_modes=2, n_nominal=2, elements=[row, bs(0, 1, 0.25)])


def test_element_unitary_rejects_squeezer():
    with pytest.raises(ValueError):
        element_unitary(tms(0, 1, 0.5), 2)


def _random_elements(rng, n, count):
    elements = []
    for _ in range(count):
        a, b = (int(x) for x in rng.permutation(n)[:2])
        pick = rng.integers(0, 3)
        if pick == 0:
            elements.append(ps(a, float(rng.uniform(-4, 4))))
        elif pick == 1:
            elements.append(bs(a, b, float(rng.uniform(-4, 4))))
        else:
            elements.append(tms(a, b, float(rng.uniform(-1, 1))))
    return elements


# Hand-picked netlists for the kernel's fused steps: the phases pending on a mode
# ride into its next beam splitter or squeezer, a beam splitter with
# mode_a > mode_b takes its rows in reverse order (to row 0 when mode_b = 0),
# and phases pending at the end are applied last.
EDGE_NETLISTS = [
    (3, [bs(2, 0, 0.7), ps(0, 1.1), bs(1, 0, -0.4), bs(2, 1, 2.9)]),
    (4, [ps(1, 0.3), ps(1, -1.2), ps(1, 2.0), ps(2, 0.5),
         bs(1, 2, 0.5), ps(1, 0.8), ps(1, 0.9), bs(3, 1, 1.3)]),
    (3, [bs(0, 1, 0.6), ps(0, 0.4), tms(0, 2, 0.3),
         ps(2, 0.9), tms(0, 2, -0.2), ps(2, -0.7), tms(2, 1, 0.5)]),
    (5, [bs(0, 1, 0.6), ps(3, 1.1), ps(4, -2.5), ps(3, 0.2),
         ps(0, 0.4)]),
    (3, [ps(0, 0.1), ps(2, 0.3), ps(0, 0.5)]),
    (1, [ps(0, -3.0), ps(0, 2.0)]),
    (12, [bs(11, 0, 0.9), ps(11, 0.2), bs(0, 11, 1.2), tms(5, 0, 0.4),
          ps(7, 0.6), bs(7, 6, 0.3), ps(9, 1.5)]),
]


def test_kernel_matches_dense_lift_product():
    rng = np.random.default_rng(23)
    random_netlists = []
    for _ in range(200):
        n = int(rng.integers(2, 13))
        random_netlists.append((n, _random_elements(rng, n, int(rng.integers(1, 25)))))
    for n, elements in EDGE_NETLISTS + random_netlists:
        dense = np.eye(2 * n, dtype=complex)
        for e in elements:
            dense = embed_element(e, n) @ dense
        top = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=tuple(elements)))
        assert max_abs(top - dense[:n]) <= 1e-13


def test_kernel_matches_the_per_element_reference_on_synthesized_circuits():
    rng = np.random.default_rng(26)
    spectra = {"loss": (0.0, 0.95), "gain": (1.05, 4.0), "mixed": (0.1, 3.0)}
    for n, m in ((1, 1), (2, 2), (3, 5), (5, 3), (8, 8), (13, 13), (21, 21), (32, 32)):
        for low, high in spectra.values():
            k = min(n, m)
            t = random_unitary(rng, n)[:, :k] @ np.diag(rng.uniform(low, high, k)) @ random_unitary(rng, m)[:k]
            circuit = synthesize(t).circuit
            reference = smatrix_reference(circuit)[: circuit.n_modes]
            assert max_abs(circuit_smatrix(circuit) - reference) <= 1e-13 * max(1.0, max_abs(reference))


def test_kernel_repeats_bitwise():
    # The CLI's reported deviations come from the top half, and repeated runs must print the same bytes.
    rng = np.random.default_rng(27)
    t = random_unitary(rng, 6) @ np.diag([0.2, 0.7, 1.0, 1.4, 2.5, 3.0]) @ random_unitary(rng, 6)
    result = synthesize(t)
    assert np.array_equal(result.top, synthesize(t).top)
    decoded = circuit_from_json(json.loads(json.dumps(circuit_to_json(result.circuit))))
    assert np.array_equal(circuit_smatrix(decoded), result.top)
    for n, elements in EDGE_NETLISTS:
        c = Circuit(n_modes=n, n_nominal=n, elements=tuple(elements))
        assert np.array_equal(circuit_smatrix(c), circuit_smatrix(c))
        assert np.array_equal(circuit_smatrix(c), circuit_smatrix(circuit_from_json(circuit_to_json(c))))


def _bottom_is_conjugated_top(s):
    n = s.shape[0] // 2
    return np.array_equal(s[n:], np.roll(s[:n].conj(), n, axis=1))


def test_smatrix_bottom_half_is_conjugated_top_half():
    # S_total = [[A, B], [B*, A*]] holds exactly, not just to rounding: only the top half is
    # multiplied out, and SynthesisResult.s_total writes the bottom half from it.
    rng = np.random.default_rng(25)
    for _ in range(120):
        n, m = (int(x) for x in rng.integers(1, 7, size=2))
        t = rng.uniform(0.2, 2.5) * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        result = synthesize(t)
        assert result.s_total.shape == (2 * result.circuit.n_modes,) * 2
        assert _bottom_is_conjugated_top(result.s_total)


def test_circuit_smatrix_empty():
    c = Circuit(n_modes=2, n_nominal=2)
    assert circuit_smatrix(c).shape == (2, 4) and max_abs(circuit_smatrix(c) - np.eye(2, 4)) == 0.0


def test_circuit_smatrix_reproduces_lossy_bs_network():
    # Hand-assembled chronological sequence for the lossy 50:50 beam splitter
    # in the fixed factor gauge of the fixture.
    elements = (
        ps(1, math.pi),
        bs(0, 1, math.pi / 4),
        ps(0, math.pi),
        bs(1, 2, math.pi / 2),
        ps(0, math.pi),
        bs(0, 1, math.pi / 4),
    )
    c = Circuit(n_modes=3, n_nominal=2, elements=elements, full_ancillas=(2,))
    assert max_abs(circuit_smatrix(c) - LOSSY_BS_S_TOTAL[:3]) < 1e-15


def test_passive_circuit_has_zero_off_diagonal_blocks():
    rng = np.random.default_rng(22)
    n = 4
    elements = []
    for _ in range(5):
        a, b = (int(x) for x in rng.permutation(n)[:2])
        if rng.integers(0, 2):
            elements.append(ps(a, float(rng.uniform(-3, 3))))
        else:
            elements.append(bs(a, b, float(rng.uniform(0, 1.5))))
    top = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=tuple(elements)))
    assert max_abs(top[:, n:]) == 0.0  # B; the bottom half [B*, A*] holds the same entries


def test_circuit_concatenation_composes_products():
    n = 3
    first = (bs(0, 1, 0.4), tms(1, 2, 0.3))
    second = (ps(2, 1.1), bs(0, 2, 0.9))
    s1 = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=first))
    s2 = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=second))
    s12 = circuit_smatrix(Circuit(n_modes=n, n_nominal=n, elements=first + second))
    assert max_abs(s12 - s2 @ np.concatenate((s1, partner_rows(s1)))) < 1e-14


@pytest.mark.parametrize(
    "bad",
    [
        ps(-1, 0.1),
        ps(3, 0.1),
        bs(-1, 1, 0.1),
        bs(0, 3, 0.1),
        tms(-1, 0, 0.1),
        tms(2, 3, 0.1),
    ],
)
def test_check_modes_rejects_each_kind_out_of_range(bad):
    ok = [ps(0, 0.2), bs(0, 2, 0.1), tms(1, 2, 0.1)]
    check_modes(ok, 3)
    message = f"element 3 (kind, mode_a, mode_b, angle) = {bad}: mode outside 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_modes([*ok, bad], 3)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(n_modes=3, n_nominal=2, full_ancillas=(1,))  # inside nominal range
    with pytest.raises(ValueError):
        Circuit(n_modes=3, n_nominal=2, ancilla_inputs=(0,), ancilla_outputs=(0,))
    with pytest.raises(ValueError):
        Circuit(n_modes=2, n_nominal=2, elements=(ps(2, 0.1),))
    with pytest.raises(ValueError):
        Circuit(n_modes=2, n_nominal=0)


@pytest.mark.parametrize(
    "lists",
    [
        {"ancilla_outputs": (1, 1)},
        {"ancilla_inputs": (0, 0)},
        {"full_ancillas": (2, 2)},
        {"ancilla_outputs": (1,), "full_ancillas": (2, 2)},
        {"ancilla_inputs": (1,), "ancilla_outputs": (1,)},
    ],
)
def test_circuit_refuses_a_repeated_ancilla_index(lists):
    with pytest.raises(ValueError, match="^ancilla index lists must be pairwise disjoint, without repeats$"):
        Circuit(n_modes=3, n_nominal=2, **lists)


def test_circuit_refuses_modes_over_the_ceiling_first():
    assert MAX_MODES == 4096 and Circuit(n_modes=MAX_MODES, n_nominal=1).n_modes == MAX_MODES
    # Checked before the rows: this unknown kind code would otherwise be the error.
    with pytest.raises(ValueError, match=r"^n_modes 4097 exceeds the ceiling 4096$"):
        Circuit(n_modes=MAX_MODES + 1, n_nominal=1, elements=[(9, 0, 0, 0.0)])


def test_netlist_json_round_trip():
    c = Circuit(
        n_modes=4,
        n_nominal=3,
        elements=(
            ps(0, 0.5),
            bs(0, 1, 0.25),
            tms(1, 3, 0.75),
        ),
        ancilla_outputs=(2,),
        full_ancillas=(3,),
    )
    back = circuit_from_json(circuit_to_json(c))
    assert back == c


BOOLEAN_PLACES = [
    ("n_modes",), ("n_nominal",), ("ancilla_outputs", 0), ("full_ancillas", 0),
    ("elements", 0, "mode"), ("elements", 0, "phi"), ("elements", 1, "modes", 0), ("elements", 1, "theta"),
    ("elements", 2, "modes", 1), ("elements", 2, "xi"),
]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("place", BOOLEAN_PLACES, ids=lambda place: "-".join(map(str, place)))
def test_netlist_json_rejects_booleans(place, flag):
    # A JSON true or false decodes to a bool, which is an int to Python.
    doc = {"n_modes": 3, "n_nominal": 2, "ancilla_outputs": [1], "full_ancillas": [2], "elements": [
        {"type": "ps", "mode": 0, "phi": 0.2},
        {"type": "bs", "modes": [0, 1], "theta": 0.3},
        {"type": "tms", "modes": [0, 2], "xi": 0.1},
    ]}
    circuit_from_json(doc)  # valid as it stands
    *path, last = place
    target = doc
    for key in path:
        target = target[key]
    target[last] = flag
    with pytest.raises(ValueError, match=f"got {flag}"):
        circuit_from_json(doc)


def test_netlist_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        element_from_json({"type": "mystery", "mode": 0})
    with pytest.raises(ValueError):
        circuit_from_json({"n_modes": 2})
