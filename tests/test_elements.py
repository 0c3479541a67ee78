"""A circuit's elements are parallel columns; element objects are built only on demand."""

import json
import math
import re

import numpy as np
import pytest

from qsynth import cli
from qsynth.blocks import (
    BS,
    PS,
    TMS,
    BeamSplitter,
    Circuit,
    Elements,
    PhaseShifter,
    TwoModeSqueezer,
    check_modes,
    circuit_from_json,
    circuit_to_json,
)
from qsynth.closedform2x2 import analytic_synthesize
from qsynth.mesh import reck_decompose
from qsynth.numkit import matrix_to_json
from qsynth.synth import synthesize, verification_report

from oracles import LOSSY_BS_T, random_unitary


def refuse_element_objects(monkeypatch):
    """From here on, building any element dataclass fails the test."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (PhaseShifter, BeamSplitter, TwoModeSqueezer):
        monkeypatch.setattr(cls, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a PhaseShifter"):
        PhaseShifter(0, 0.1)


def lossy_and_gainy(rng) -> np.ndarray:
    """A complex 8 x 8 input with three singular values below 1, one at 1 and four above."""
    sigmas = [0.2, 0.5, 0.8, 1.0, 1.3, 1.7, 2.1, 2.5]
    return random_unitary(rng, 8) @ np.diag(sigmas) @ random_unitary(rng, 8)


def test_synthesize_builds_no_element_objects(monkeypatch):
    t = lossy_and_gainy(np.random.default_rng(161))
    refuse_element_objects(monkeypatch)
    result = synthesize(t)
    assert result.circuit.n_modes == 8 + 7  # the singular value 1 needs no ancilla
    counts = verification_report(result)["counts"]
    assert counts["squeezers"] == result.circuit.elements.kind.count(TMS) == 4
    assert len(result.circuit.elements) == sum(counts.values())


def test_naimark_command_builds_no_element_objects(tmp_path, capsys, monkeypatch):
    vectors = random_unitary(np.random.default_rng(162), 6)[:3].T  # a 3 x 6 POVM matrix, by columns
    path = tmp_path / "povm.json"
    path.write_text(json.dumps({"dim": 3, "vectors": [[[z.real, z.imag] for z in v] for v in vectors]}))
    refuse_element_objects(monkeypatch)
    assert cli.main(["naimark", str(path)]) == 0
    netlist = json.loads(capsys.readouterr().out)["netlist"]
    assert netlist["n_modes"] == 6 and {e["type"] for e in netlist["elements"]} == {"ps", "bs"}


COMMANDS = {
    "synth": ["synth", "@matrix"],
    "simulate-fock": ["simulate", "@passive", "--input", "1,1"],
    "simulate-predicate": ["simulate", "@passive", "--input", "1,1", "--predicate", '{"2": [0, 0]}'],
    "simulate-moments": ["simulate", "@netlist", "--mode", "moments", "--input", "1,0.5,0,0,-1"],
    "analytic2x2": ["analytic2x2", "@two"],
    "cz": ["cz"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_commands_build_no_element_objects(tmp_path, capsys, monkeypatch, argv):
    # The naimark command has its own test above.
    rng = np.random.default_rng(168)
    t = lossy_and_gainy(rng)
    docs = {"matrix": matrix_to_json(t), "two": matrix_to_json(t[:2, :2]),
            "netlist": circuit_to_json(synthesize(t).circuit),
            "passive": circuit_to_json(synthesize(LOSSY_BS_T).circuit)}
    paths = {}
    for name, doc in docs.items():
        paths[f"@{name}"] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    refuse_element_objects(monkeypatch)
    assert cli.main([paths.get(arg, arg) for arg in argv]) == 0
    assert capsys.readouterr().err == ""


def test_analytic_synthesis_and_netlist_decoding_build_no_element_objects(monkeypatch):
    t = lossy_and_gainy(np.random.default_rng(169))
    doc = json.loads(json.dumps(circuit_to_json(synthesize(t).circuit)))
    refuse_element_objects(monkeypatch)
    _, result = analytic_synthesize(t[:2, :2])
    assert set(result.circuit.elements.kind) == {PS, BS, TMS}
    assert circuit_from_json(doc).elements.kind.count(TMS) == 4


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
    assert e[-1] == listed[-1] and e[np.int64(2)] == listed[2]
    with pytest.raises(IndexError):
        e[len(e)]
    assert Elements.join(e[:3], e[3:]) == e and Elements.of(listed) == e and Elements.of(e) is e


def test_len_builds_no_element_objects(monkeypatch):
    u = random_unitary(np.random.default_rng(165), 6)
    expected = len(list(reck_decompose(u)))
    e = reck_decompose(u)
    refuse_element_objects(monkeypatch)
    assert len(e) == expected == len(e.kind) == len(e.angle)
    assert len(Circuit(n_modes=6, n_nominal=6, elements=e).elements) == expected


def test_elements_hold_plain_python_numbers():
    hand_built = [PhaseShifter(np.int64(1), np.float64(0.5)), BeamSplitter(np.int32(0), 1, np.float64(0.25))]
    for e in (reck_decompose(random_unitary(np.random.default_rng(166), 5)), Elements.of(hand_built)):
        for column, kind in ((e.kind, int), (e.mode_a, int), (e.mode_b, int), (e.angle, float)):
            assert all(type(x) is kind for x in column)
        for element in e:
            assert all(type(getattr(element, name)) in (int, float) for name in element.__slots__)


def test_netlist_json_round_trip_of_a_synthesized_circuit():
    circuit = synthesize(lossy_and_gainy(np.random.default_rng(167))).circuit
    doc = circuit_to_json(circuit)
    assert circuit_from_json(json.loads(json.dumps(doc))) == circuit == circuit_from_json(doc)
    assert {e["type"] for e in doc["elements"]} == {"ps", "bs", "tms"}
    hand_built = Circuit(n_modes=3, n_nominal=2, full_ancillas=(2,),
                         elements=(PhaseShifter(np.int64(1), np.float64(0.5)), TwoModeSqueezer(0, 2, 0.75)))
    assert json.dumps(circuit_to_json(hand_built)["elements"]) == (
        '[{"type": "ps", "mode": 1, "phi": 0.5}, {"type": "tms", "modes": [0, 2], "xi": 0.75}]'
    )


@pytest.mark.parametrize("bad", [PhaseShifter(3, 0.1), BeamSplitter(-1, 1, 0.1), TwoModeSqueezer(2, 3, 0.1)])
def test_check_modes_names_the_first_offender_in_columns(bad):
    ok = [PhaseShifter(0, 0.2), BeamSplitter(0, 2, 0.1), TwoModeSqueezer(1, 2, 0.1)]
    later = BeamSplitter(0, 7, 0.3)
    message = f"element {bad} references a mode outside 0..2"
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
    ok = Elements.of([PhaseShifter(0, 0.2), BeamSplitter(0, 2, 0.1), TwoModeSqueezer(1, 2, 0.1)])
    bad = Elements(*columns)
    row = tuple(column[0] for column in columns)
    message = f"element 3 (kind, mode_a, mode_b, angle) = {row}: {rule}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Circuit(n_modes=3, n_nominal=3, elements=Elements.join(ok, bad, ok, bad))


def test_kind_column_codes_each_element_type():
    e = Elements.of([PhaseShifter(0, 0.1), BeamSplitter(0, 1, math.pi / 4), TwoModeSqueezer(0, 1, 0.2)])
    assert e.kind == (PS, BS, TMS) and e.mode_a == (0, 0, 0) and e.mode_b == (0, 1, 1)
    assert e.angle == (0.1, math.pi / 4, 0.2)
