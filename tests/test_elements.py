"""A circuit's elements are parallel columns; an index or an iteration yields a ``(kind, mode_a, mode_b, angle)`` row."""

import json
import math
import re

import numpy as np
import pytest

from qsynth.blocks import BS, PS, TMS, Circuit, Elements, check_modes, circuit_from_json, circuit_to_json
from qsynth.mesh import reck_decompose
from qsynth.synth import synthesize

from oracles import bs, ps, random_unitary, tms


def lossy_and_gainy(rng) -> np.ndarray:
    """A complex 8 x 8 input with three singular values below 1, one at 1 and four above."""
    sigmas = [0.2, 0.5, 0.8, 1.0, 1.3, 1.7, 2.1, 2.5]
    return random_unitary(rng, 8) @ np.diag(sigmas) @ random_unitary(rng, 8)


def test_equality_is_a_plain_bool():
    rng = np.random.default_rng(163)
    u = random_unitary(rng, 5)
    a, b = reck_decompose(u), reck_decompose(u)
    other = reck_decompose(random_unitary(rng, 5))
    listed = list(a)
    for left, right, equal in ((a, b, True), (a, listed, True), (a, tuple(listed), True), (listed, a, True),
                               (a, other, False), (a, listed[:-1], False), (a, [], False), (a, "ps", False)):
        assert (left == right) is equal
        assert (left != right) is (not equal)
    t = lossy_and_gainy(rng)
    assert (synthesize(t).circuit == synthesize(t).circuit) is True
    assert (synthesize(t).circuit != synthesize(t * 0.5).circuit) is True


def test_slices_are_sequences_and_indices_are_elements():
    e = reck_decompose(random_unitary(np.random.default_rng(164), 4))
    listed = list(e)
    for cut in (slice(None, -1), slice(1, 4), slice(None, None, -1), slice(5, 2)):
        assert isinstance(e[cut], Elements) and e[cut] == listed[cut]
    assert len(e) == len(listed) == len(e.kind) == len(e.angle) == len(Circuit(n_modes=4, n_nominal=4, elements=e).elements)
    assert e[-1] == listed[-1] and e[np.int64(2)] == listed[2] and type(e[0]) is tuple
    assert repr(e[:2]) == f"Elements([{listed[0]!r}, {listed[1]!r}])"
    with pytest.raises(IndexError):
        e[len(e)]
    assert Elements.join(e[:3], e[3:]) == e and Elements.of(listed) == e and Elements.of(e) is e


def test_elements_hold_plain_python_numbers():
    hand_built = [(PS, np.int64(1), np.int64(1), np.float64(0.5)), (np.int64(BS), np.int32(0), 1, np.float32(0.25))]
    for e in (reck_decompose(random_unitary(np.random.default_rng(166), 5)), Elements.of(hand_built)):
        for column, kind in ((e.kind, int), (e.mode_a, int), (e.mode_b, int), (e.angle, float)):
            assert all(type(x) is kind for x in column)
        for row in e:
            assert [type(x) for x in row] == [int, int, int, float]
    assert Elements.of(hand_built) == [(PS, 1, 1, 0.5), (BS, 0, 1, 0.25)]


def test_netlist_json_round_trip_of_a_synthesized_circuit():
    circuit = synthesize(lossy_and_gainy(np.random.default_rng(167))).circuit
    doc = circuit_to_json(circuit)
    assert circuit_from_json(json.loads(json.dumps(doc))) == circuit == circuit_from_json(doc)
    assert {e["type"] for e in doc["elements"]} == {"ps", "bs", "tms"}
    hand_built = Circuit(n_modes=3, n_nominal=2, full_ancillas=(2,),
                         elements=((PS, np.int64(1), np.int64(1), np.float64(0.5)), tms(0, 2, 0.75)))
    assert json.dumps(circuit_to_json(hand_built)["elements"]) == (
        '[{"type": "ps", "mode": 1, "phi": 0.5}, {"type": "tms", "modes": [0, 2], "xi": 0.75}]'
    )


@pytest.mark.parametrize("bad", [ps(3, 0.1), bs(-1, 1, 0.1), tms(2, 3, 0.1)])
def test_check_modes_names_the_first_offender_in_columns(bad):
    ok = [ps(0, 0.2), bs(0, 2, 0.1), tms(1, 2, 0.1)]
    later = bs(0, 7, 0.3)
    message = f"element 3 (kind, mode_a, mode_b, angle) = {bad}: mode outside 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_modes(Elements.of([*ok, bad, *ok, later]), 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        Circuit(n_modes=3, n_nominal=3, elements=Elements.of([*ok, bad, later]))


@pytest.mark.parametrize("columns, rule", [
    (([BS], [1], [1], [0.3]), "beam splitter modes must be distinct"),
    (([7], [0], [1], [0.3]), "unknown kind code 7"),
    (([TMS], [0], [1], [80.0]), "squeezer xi 80.0 exceeds the ceiling 50.0"),
    (([PS], [0], [2], [0.3]), "a phase shifter must repeat its mode in mode_b"),
], ids=["bs-one-mode", "unknown-kind", "xi-beyond-ceiling", "ps-two-modes"])
def test_circuit_refuses_columns_that_break_the_element_rules(columns, rule):
    ok = Elements.of([ps(0, 0.2), bs(0, 2, 0.1), tms(1, 2, 0.1)])
    bad = Elements(*columns)
    row = tuple(column[0] for column in columns)
    message = f"element 3 (kind, mode_a, mode_b, angle) = {row}: {rule}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Circuit(n_modes=3, n_nominal=3, elements=Elements.join(ok, bad, ok, bad))


def test_kind_column_codes_each_element_type():
    e = Elements.of([ps(0, 0.1), bs(0, 1, math.pi / 4), tms(0, 1, 0.2)])
    assert e.kind == (PS, BS, TMS) and e.mode_a == (0, 0, 0) and e.mode_b == (0, 1, 1)
    assert e.angle == (0.1, math.pi / 4, 0.2)
