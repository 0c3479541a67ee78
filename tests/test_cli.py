import contextlib
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.apps import cz_gate_target, verify_cz
from qsynth.blocks import circuit_from_json, circuit_smatrix
from qsynth.cli import build_parser, main
from qsynth.mesh import reck_decompose
from qsynth.numkit import SynthesisError, matrix_from_json, matrix_to_json, max_abs
from qsynth.sim import FockState, fock_evolve
from qsynth.synth import synthesize

from oracles import LOSSY_BS_T, random_unitary


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(m)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_synth_lossy_bs(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    report = tmp_path / "rep.json"
    code = main(["synth", matrix, "--netlist", str(netlist), "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["n_full_ancillas"] == 1
    assert rep["quasiunitarity_deviation"] < 1e-10
    net = json.loads(netlist.read_text())
    assert net["schema"] == "qsynth/1"
    assert net["n_modes"] == 3
    assert net["full_ancillas"] == [2]


def test_synth_identity_gives_empty_netlist(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", np.eye(3))
    netlist = tmp_path / "net.json"
    code = main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    assert code == 0
    assert json.loads(netlist.read_text())["elements"] == []


def test_synth_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", str(bad)]) == 2
    good_json_bad_matrix = tmp_path / "bad2.json"
    good_json_bad_matrix.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]]}))
    assert main(["synth", str(good_json_bad_matrix)]) == 2


@pytest.mark.parametrize("entry", [[1], 5, [None, 0], [1, 2, 3], "x"])
@pytest.mark.parametrize("command", ["synth", "analytic2x2"])
def test_matrix_with_a_bad_pair_exits_2(tmp_path, capsys, command, entry):
    matrix = tmp_path / "t.json"
    matrix.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0], entry, [0, 0], [1, 0]]}))
    assert main([command, str(matrix)]) == 2
    assert "[re, im] pair" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 1, "vectors": [[[1, 0, 0]]]},
        {"dim": 1, "vectors": [[[1]]]},
        {"dim": 1, "operators": [[[[1, 0, 0]]]]},
        {"dim": "abc", "vectors": [[[1, 0]]]},
        {"dim": 1.5, "vectors": [[[1, 0]]]},
    ],
)
def test_naimark_malformed_povm_exits_2(tmp_path, capsys, doc):
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps(doc))
    assert main(["naimark", str(povm_file)]) == 2


def test_simulate_lossy_bs_fock(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    code, out = run(capsys, "simulate", str(netlist), "--input", "1,1")
    assert code == 0
    table = {tuple(row["occupation"]): row["prob"] for row in json.loads(out)["outcomes"]}
    assert table[(0, 0, 2)] == pytest.approx(0.5, abs=1e-10)
    assert table[(1, 1, 0)] == pytest.approx(0.25, abs=1e-10)


def test_simulate_with_predicate(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    code, out = run(
        capsys, "simulate", str(netlist), "--input", "1,1", "--predicate", '{"2": [0, 0]}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["success_prob"] == pytest.approx(0.5, abs=1e-10)


def test_simulate_active_netlist_in_fock_mode_exits_4(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", np.diag([2.0]).astype(complex))
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    code = main(["simulate", str(netlist), "--input", "1"])
    assert code == 4
    assert "not passive" in capsys.readouterr().err


def test_simulate_moments_mode(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    code, out = run(
        capsys, "simulate", str(netlist), "--mode", "moments", "--input", "1,0.5"
    )
    assert code == 0
    means = [complex(re, im) for re, im in json.loads(out)["means"]]
    expected = LOSSY_BS_T @ np.array([1.0, 0.5])
    assert abs(means[0] - expected[0]) < 1e-10
    assert abs(means[1] - expected[1]) < 1e-10


def test_simulate_bad_occupation_exits_2(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert main(["simulate", str(netlist), "--input", "one,two"]) == 2
    assert main(["simulate", str(netlist), "--input", "1,1,0,0"]) == 2


def test_naimark_trine(tmp_path, capsys):
    vectors = [
        [[math.sqrt(2 / 3) * math.cos(2 * math.pi * i / 3), 0.0],
         [math.sqrt(2 / 3) * math.sin(2 * math.pi * i / 3), 0.0]]
        for i in range(3)
    ]
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps({"dim": 2, "vectors": vectors}))
    out_file = tmp_path / "naimark.json"
    code = main(["naimark", str(povm_file), "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    ext = matrix_from_json(payload["extension"])
    assert ext.shape == (3, 3)
    assert payload["netlist"]["n_modes"] == 3
    assert payload["netlist"]["ancilla_outputs"] == [2]


def test_naimark_incomplete_povm_exits_4(tmp_path, capsys):
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps({"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}))
    assert main(["naimark", str(povm_file)]) == 4


def test_analytic2x2(tmp_path, capsys):
    t = np.array([[0.3 + 0.4j, -0.2], [0.1j, 1.7]], dtype=complex)
    matrix = write_matrix(tmp_path / "t.json", t)
    out_file = tmp_path / "params.json"
    code = main(["analytic2x2", matrix, "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["params"]["sigma1"] >= payload["params"]["sigma2"]
    assert payload["report"]["block_deviation"] < 1e-10
    assert payload["netlist"]["n_nominal"] == 2


def test_analytic2x2_rejects_wrong_shape(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", np.eye(3))
    assert main(["analytic2x2", matrix]) == 4


def test_analytic2x2_gain_above_ceiling_exits_4(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", np.diag([1e22, 0.5]))
    assert main(["analytic2x2", matrix]) == 4
    assert "gain ceiling" in capsys.readouterr().err


def test_synth_verification_failure_exits_3(tmp_path, capsys):
    # The absolute quasiunitarity bound fails on high gain from sigma ~ 1e3;
    # a bound that scales with |S|^2 would move this case to exit 0.
    matrix = write_matrix(tmp_path / "t.json", np.diag([1e4, 0.5]))
    assert main(["synth", matrix]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(word in captured.err for word in ("block deviation", "quasiunitarity deviation", "tol"))


def _squeezer_netlist(path, xi):
    element = {"type": "tms", "modes": [0, 1], "xi": xi}
    path.write_text(json.dumps({"n_modes": 2, "n_nominal": 1, "full_ancillas": [1], "elements": [element]}))
    return str(path)


@pytest.mark.parametrize("mode", ["fock", "moments"])
@pytest.mark.parametrize("xi", [50.5, 711.0, -711.0, 1e300])
def test_simulate_squeezer_beyond_ceiling_exits_2(tmp_path, capsys, mode, xi):
    netlist = _squeezer_netlist(tmp_path / "net.json", xi)
    assert main(["simulate", netlist, "--mode", mode, "--input", "1"]) == 2
    assert "ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("xi", [50.0, -50.0])
def test_simulate_squeezer_at_ceiling_runs(tmp_path, capsys, xi):
    netlist = _squeezer_netlist(tmp_path / "net.json", xi)
    code, out = run(capsys, "simulate", netlist, "--mode", "moments", "--input", "1")
    assert code == 0
    assert json.loads(out)["means"][0] == [math.cosh(50.0), 0.0]


def test_cz_command(tmp_path, capsys):
    code, out = run(capsys, "cz")
    assert code == 0
    payload = json.loads(out)
    assert payload["success_prob"] == pytest.approx(1.0 / 9.0, abs=1e-10)
    assert payload["phase_pattern"] == [-1, 1, 1, 1]
    assert payload["n_full_ancillas"] == 2


def test_synth_to_simulate_round_trip_mean_field(tmp_path, capsys):
    rng = np.random.default_rng(81)
    t = 1.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
    matrix = write_matrix(tmp_path / "t.json", t)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    code, out = run(capsys, "simulate", str(netlist), "--mode", "moments", "--input", "0.4+0.1i,-0.3")
    assert code == 0
    means = [complex(re, im) for re, im in json.loads(out)["means"]]
    expected = t @ np.array([0.4 + 0.1j, -0.3])
    assert abs(means[0] - expected[0]) < 1e-10
    assert abs(means[1] - expected[1]) < 1e-10


@pytest.mark.parametrize("joined", [False, True])
def test_simulate_moments_input_may_start_with_minus(tmp_path, capsys, joined):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    spec = "-0.4+0.1i,0.3"
    argv = ["--input=" + spec] if joined else ["--input", spec]
    code, out = run(capsys, "simulate", str(netlist), "--mode", "moments", *argv)
    assert code == 0
    means = [complex(re, im) for re, im in json.loads(out)["means"]]
    expected = LOSSY_BS_T @ np.array([-0.4 + 0.1j, 0.3])
    assert max(abs(means[j] - expected[j]) for j in range(2)) < 1e-10


def test_global_flags_accepted(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    code = main([
        "--tol", "1e-9",
        "synth", matrix, "--netlist", str(tmp_path / "n.json"), "--report", str(tmp_path / "r.json"),
    ])
    assert code == 0


def test_removed_global_flags_are_rejected(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    for flags in (["--seed", "7"], ["--format", "json"], ["--eps-sigma", "1e-8"]):
        with pytest.raises(SystemExit) as exc:
            main([*flags, "synth", matrix])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value", [("--tol", "-1"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"), ("--tol", "1")]
)
def test_bad_tolerance_exits_4(tmp_path, capsys, flag, value):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    assert main([flag, value, "synth", matrix]) == 4
    assert "positive" in capsys.readouterr().err


def test_synth_to_stdout_is_one_json_document(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    code, out = run(capsys, "synth", matrix)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qsynth/1"
    assert payload["netlist"]["n_modes"] == 3
    assert payload["report"]["n_full_ancillas"] == 1


def test_synth_one_output_path_leaves_one_document_on_stdout(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    code, out = run(capsys, "synth", matrix, "--netlist", str(netlist))
    assert code == 0
    assert json.loads(out)["n_full_ancillas"] == 1
    assert json.loads(netlist.read_text())["n_modes"] == 3


@pytest.mark.parametrize(
    "spec, message",
    [('{"9": [0, 0]}', "predicate mode 9"), ('{"-1": [0, 0]}', "predicate mode -1"), ("[[0, 0]]", "bad predicate")],
)
def test_simulate_bad_predicate_exits_2(tmp_path, capsys, spec, message):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist = tmp_path / "net.json"
    main(["synth", matrix, "--netlist", str(netlist), "--report", str(tmp_path / "r.json")])
    capsys.readouterr()
    code = main(["simulate", str(netlist), "--input", "1,1", "--predicate", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# --- malformed documents, generated -------------------------------------------

NUMBER = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0))
PAIR = st.lists(NUMBER, min_size=2, max_size=2)
NOT_A_LIST = st.one_of(NUMBER, st.text(max_size=3), st.none(), st.dictionaries(st.text(max_size=2), NUMBER, max_size=2))
BAD_PAIR = st.one_of(
    st.lists(NUMBER, max_size=4).filter(lambda pair: len(pair) != 2),
    NOT_A_LIST,
    st.tuples(st.one_of(st.none(), st.text(max_size=2), PAIR), NUMBER).map(list),
    st.tuples(NUMBER, st.one_of(st.none(), st.text(max_size=2), PAIR)).map(list),
)
NOT_AN_INTEGER = st.one_of(
    st.text(max_size=3), st.none(), st.floats().filter(lambda x: not x.is_integer()), st.lists(st.integers(0, 3), max_size=2)
)
NOT_AN_OBJECT = st.one_of(NUMBER, st.text(max_size=3), st.none(), st.lists(NUMBER, max_size=3))


def _corrupt_one(draw, doc: dict, grid: list, keys: dict) -> object:
    """``doc`` with exactly one defect: a bad pair in ``grid``, a bad value for one of ``keys``, or a missing key."""
    how = draw(st.sampled_from(("pair", "key", "missing", "document")))
    if how == "pair":
        path = draw(st.sampled_from(grid))
        *outer, last = path
        target = doc
        for i in outer:
            target = target[i]
        target[last] = draw(BAD_PAIR)
    elif how == "key":
        key = draw(st.sampled_from(sorted(keys)))
        doc[key] = draw(keys[key])
    elif how == "missing":
        del doc[draw(st.sampled_from(sorted(set(doc) & {"rows", "cols", "data", "vectors", "operators"})))]
    else:
        return draw(NOT_AN_OBJECT)
    return doc


@st.composite
def malformed_matrix(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {"rows": rows, "cols": cols, "data": draw(st.lists(PAIR, min_size=rows * cols, max_size=rows * cols))}
    grid = [("data", i) for i in range(rows * cols)]
    keys = {
        "rows": st.one_of(NOT_AN_INTEGER, st.integers(-4, 6).filter(lambda r: r != rows)),
        "cols": st.one_of(NOT_AN_INTEGER, st.integers(-4, 6).filter(lambda c: c != cols)),
        "data": NOT_A_LIST,
    }
    return draw(st.sampled_from(("synth", "analytic2x2"))), _corrupt_one(draw, doc, grid, keys)


@st.composite
def malformed_povm(draw):
    dim, outcomes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        vectors = [draw(st.lists(PAIR, min_size=dim, max_size=dim)) for _ in range(outcomes)]
        doc = {"dim": dim, "vectors": vectors}
        grid = [("vectors", k, i) for k in range(outcomes) for i in range(dim)]
        # Vectors that decode are a valid POVM input, so a bad dim is the only defect.
        keys = {"dim": st.one_of(NOT_AN_INTEGER, st.integers(-4, 6).filter(lambda d: d != dim)), "vectors": NOT_A_LIST}
    else:
        ops = [[draw(st.lists(PAIR, min_size=dim, max_size=dim)) for _ in range(dim)] for _ in range(outcomes)]
        doc = {"dim": dim, "operators": ops}
        grid = [("operators", k, i, j) for k in range(outcomes) for i in range(dim) for j in range(dim)]
        keys = {"operators": NOT_A_LIST}
    return "naimark", _corrupt_one(draw, doc, grid, keys)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(malformed_matrix(), malformed_povm()))
def test_malformed_documents_exit_2(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2


# --- malformed netlists ---------------------------------------------------------

NOT_AN_ANGLE = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 10**400]),
    st.text(max_size=3),
    st.none(),
    st.lists(NUMBER, max_size=2),
)
NOT_A_TYPE = st.one_of(st.text(max_size=3).filter(lambda t: t not in ("ps", "bs", "tms")), st.none(), NUMBER)


@st.composite
def valid_netlist(draw):
    n_nominal, n_full = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n_modes = n_nominal + n_full
    padding = draw(st.permutations(range(1, n_nominal)))
    split = draw(st.integers(0, len(padding)))
    elements = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("ps", "bs", "tms") if n_modes > 1 else ("ps",)))
        if kind == "ps":
            elements.append({"type": "ps", "mode": draw(st.integers(0, n_modes - 1)), "phi": draw(st.floats(-4, 4))})
        else:
            a, b = draw(st.permutations(range(n_modes)))[:2]
            angle, values = ("theta", st.floats(-4, 4)) if kind == "bs" else ("xi", st.floats(0, 1))
            elements.append({"type": kind, "modes": [a, b], angle: draw(values)})
    return {
        "schema": "qsynth/1",
        "n_modes": n_modes,
        "n_nominal": n_nominal,
        "ancilla_inputs": padding[:split],
        "ancilla_outputs": padding[split:],
        "full_ancillas": list(range(n_nominal, n_modes)),
        "elements": elements,
    }


@st.composite
def malformed_netlist(draw):
    """A valid netlist (the first item) and a copy with exactly one defect."""
    base = draw(valid_netlist())
    doc = json.loads(json.dumps(base))
    elements = doc["elements"]
    k = draw(st.integers(0, len(elements) - 1))
    element = elements[k]
    angle = {"ps": "phi", "bs": "theta", "tms": "xi"}[element["type"]]
    how = draw(st.sampled_from(("integer", "angle", "missing", "type", "list", "document")))
    if how == "integer":
        places = [(doc, "n_modes"), (doc, "n_nominal")]
        places += [(element, "mode")] if "mode" in element else [(element["modes"], 0), (element["modes"], 1)]
        for key in ("ancilla_inputs", "ancilla_outputs", "full_ancillas"):
            places += [(doc[key], i) for i in range(len(doc[key]))]
        target, key = draw(st.sampled_from(places))
        target[key] = draw(NOT_AN_INTEGER)
    elif how == "angle":
        element[angle] = draw(NOT_AN_ANGLE)
    elif how == "missing":
        places = [(doc, "n_modes"), (doc, "n_nominal"), (doc, "elements")] + [(element, key) for key in element]
        target, key = draw(st.sampled_from(places))
        del target[key]
    elif how == "type":
        element["type"] = draw(NOT_A_TYPE)
    elif how == "list":
        key = draw(st.sampled_from(("elements", "ancilla_inputs", "ancilla_outputs", "full_ancillas")))
        doc[key] = draw(NOT_A_LIST)
    else:
        doc = draw(NOT_AN_OBJECT)
    return base, doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(malformed_netlist())
def test_malformed_netlists_exit_2(case):
    base, doc = case
    circuit_from_json(base)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--input", "1"]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_modes", 3.5),
        ("n_modes", "3"),
        ("modes", [0.5, 1]),
        ("full_ancillas", [2.7]),
        ("theta", "0.3"),
        ("theta", "1e400"),
    ],
)
def test_netlist_fields_are_not_coerced(tmp_path, capsys, field, value):
    net = {"n_modes": 3, "n_nominal": 2, "full_ancillas": [2]}
    net["elements"] = [{"type": "bs", "modes": [0, 1], "theta": 0.3}]
    if field in ("modes", "theta"):
        net["elements"][0][field] = value
    else:
        net[field] = value
    path = tmp_path / "net.json"
    # "1e400" is written as a bare JSON number, which decodes to infinity.
    path.write_text(json.dumps(net).replace('"1e400"', "1e400"))
    assert main(["simulate", str(path), "--input", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# --- a JSON boolean is not a number ---------------------------------------------------
#
# json.load decodes true and false to bools, which Python takes for the ints 1
# and 0.  Read that way, the documents with true (and some with false) are valid.


def _boolean_case(field: str, flag: bool) -> tuple[str, dict, list, str]:
    """A command, a document and extra arguments with ``flag`` in ``field``, and the error naming it."""
    bs = {"n_modes": 2, "n_nominal": 2, "elements": [{"type": "bs", "modes": [0, 1], "theta": 0.3}]}
    element = bs["elements"][0]
    one = ["--input", "1"]
    return {
        "n_modes": ("simulate", {"n_modes": flag, "n_nominal": 1, "elements": []}, one,
                    f"n_modes must be an integer, got {flag}"),
        "modes": ("simulate", {**bs, "elements": [{**element, "modes": [not flag, flag]}]}, one,
                  f"modes must be an integer, got {not flag}"),
        "theta": ("simulate", {**bs, "elements": [{**element, "theta": flag}]}, one,
                  f"'theta': {flag}}}: expected a finite number, got {flag}"),
        "predicate": ("simulate", bs, ["--input", "1,1", "--predicate", json.dumps({"0": [flag, flag]})],
                      f"the window of mode 0 must be an integer, got {flag}"),
        "rows": ("synth", {"rows": flag, "cols": 1, "data": [[0.5, 0]] * flag}, [],
                 f"rows must be an integer, got {flag}"),
        "cols": ("synth", {"rows": 1, "cols": flag, "data": [[0.5, 0]] * flag}, [],
                 f"cols must be an integer, got {flag}"),
        "data": ("synth", {"rows": 1, "cols": 1, "data": [[flag, not flag]]}, [],
                 f"expected an [re, im] pair of numbers, got [{flag}, {not flag}]"),
        "dim": ("naimark", {"dim": flag, "vectors": [[[1, 0]]]}, [], f"dim must be an integer, got {flag}"),
        "vectors": ("naimark", {"dim": 1, "vectors": [[[flag, 0]]]}, [],
                    f"expected an [re, im] pair of numbers, got [{flag}, 0]"),
    }[field]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("field", ["n_modes", "modes", "theta", "predicate", "rows", "cols", "data", "dim", "vectors"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, field, flag):
    command, doc, extra, message = _boolean_case(field, flag)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    outputs = {"synth": ["--netlist", str(tmp_path / "net.json"), "--report", str(tmp_path / "rep.json")],
               "naimark": ["--out", str(tmp_path / "out.json")]}
    code, stdout, err = _call([command, str(path), *extra, *outputs.get(command, [])], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


# --- output format and parser reuse ---------------------------------------------


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def assert_one_document(text: str) -> dict:
    """``text`` is one newline-terminated line holding one strict JSON document."""
    assert text.endswith("\n") and text.count("\n") == 1, text[:200]
    return json.loads(text, parse_constant=_reject_constant)


def _beam_splitter_netlist(tmp_path) -> str:
    path = tmp_path / "bs.json"
    element = {"type": "bs", "modes": [0, 1], "theta": math.pi / 4}
    path.write_text(json.dumps({"n_modes": 2, "n_nominal": 2, "elements": [element]}))
    return str(path)


def _povm_file(tmp_path, turn: float = 0.0) -> str:
    """The trine POVM, its vectors rotated by ``turn``."""
    path = tmp_path / "povm.json"
    vectors = [[[math.sqrt(2 / 3) * math.cos(2 * math.pi * i / 3 + turn), 0.0],
                [math.sqrt(2 / 3) * math.sin(2 * math.pi * i / 3 + turn), 0.0]] for i in range(3)]
    path.write_text(json.dumps({"dim": 2, "vectors": vectors}))
    return str(path)


def _call(argv, capsys) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_reuse_the_parser_and_repeat_their_output(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    net, rep = tmp_path / "net.json", tmp_path / "rep.json"
    calls = [
        ["synth", matrix, "--netlist", str(net), "--report", str(rep)],
        ["--tol", "1e-9", "synth", matrix],
        ["synth"],  # usage error: the matrix argument is missing
        ["simulate", str(net), "--input", "1,1", "--predicate", '{"2": [0, 0]}'],
        ["simulate", str(net), "--mode", "moments", "--input", "-0.4+0.1i,0.3"],
        ["nonsense", matrix],  # usage error: unknown command
        ["cz"],
    ]

    def session():
        results = [_call(argv, capsys) for argv in calls]
        return results, net.read_bytes(), rep.read_bytes()

    first = session()
    assert [code for code, _, _ in first[0]] == [0, 0, 2, 0, 0, 2, 0]
    assert first == session()


def test_every_command_writes_one_compact_document_per_output(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    two = write_matrix(tmp_path / "two.json", np.array([[0.3 + 0.4j, -0.2], [0.1j, 1.7]]))
    net = str(tmp_path / "net.json")
    assert main(["synth", matrix, "--netlist", net, "--report", str(tmp_path / "rep.json")]) == 0
    netlist, report, out = tmp_path / "n.json", tmp_path / "r.json", tmp_path / "o.json"
    stdout_calls = [
        ["synth", matrix],
        ["synth", matrix, "--report", "-"],
        ["simulate", net, "--input", "1,1", "--predicate", '{"2": [0, 0]}'],
        ["simulate", net, "--mode", "moments", "--input", "0.4+0.1i,-0.3"],
        ["naimark", _povm_file(tmp_path)],
        ["analytic2x2", two],
        ["cz"],
    ]
    for argv in stdout_calls:
        code, stdout, _ = _call(argv, capsys)
        assert code == 0, argv
        assert assert_one_document(stdout)["schema"] == "qsynth/1"

    file_calls = [
        (["synth", matrix, "--netlist", str(netlist), "--report", str(report)], (netlist, report), False),
        (["synth", matrix, "--netlist", str(netlist)], (netlist,), True),
        (["naimark", _povm_file(tmp_path), "--out", str(out)], (out,), False),
        (["analytic2x2", two, "--out", str(out)], (out,), False),
    ]
    for argv, paths, report_on_stdout in file_calls:
        code, stdout, _ = _call(argv, capsys)
        assert code == 0, argv
        if report_on_stdout:
            assert assert_one_document(stdout)["n_full_ancillas"] == 1
        else:
            assert stdout == ""
        for path in paths:
            assert_one_document(path.read_text())


@pytest.mark.parametrize(
    "spec", ['{"0": [0.5, 1.9]}', '{"0": ["0", "1"]}', '{"0": [0, 1, 2]}', '{"0": 1}', '{"0": null}',
             '{"1_0": [0, 1]}', '{" 0": [0, 1]}', '{"0.0": [0, 1]}']
)
def test_predicate_windows_must_be_json_integers(tmp_path, capsys, spec):
    net = _beam_splitter_netlist(tmp_path)
    code, stdout, err = _call(["simulate", net, "--input", "1,1", "--predicate", spec], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: bad predicate") and err.count("\n") == 1


def test_bad_predicate_is_reported_before_the_network_is_run(tmp_path, capsys):
    # An active network would exit 4 in Fock mode; the malformed predicate is found first.
    netlist = _squeezer_netlist(tmp_path / "net.json", 0.5)
    code, _, err = _call(["simulate", netlist, "--input", "1", "--predicate", '{"0": [0.5, 1]}'], capsys)
    assert code == 2 and err.startswith("error: bad predicate")


def test_integer_predicate_window_selects_its_outcomes(tmp_path, capsys):
    # Hong-Ou-Mandel: 1,1 leaves as (2, 0) or (0, 2); at most one photon in mode 0 keeps (0, 2).
    net = _beam_splitter_netlist(tmp_path)
    code, stdout, _ = _call(["simulate", net, "--input", "1,1", "--predicate", '{"0": [0, 1]}'], capsys)
    assert code == 0
    payload = assert_one_document(stdout)
    assert payload["success_prob"] == pytest.approx(0.5, abs=1e-12)
    assert [row["occupation"] for row in payload["postselected"]] == [[0, 2]]


@pytest.mark.parametrize("window, kept", [([0, 10 ** 30], [[0, 2], [2, 0]]), ([-10 ** 30, 0], [[0, 2]]),
                                          ([3, 10 ** 30], None)])
def test_predicate_windows_past_int64_compare_exactly(tmp_path, capsys, window, kept):
    net = _beam_splitter_netlist(tmp_path)
    code, stdout, err = _call(["simulate", net, "--input", "1,1", "--predicate", json.dumps({"0": window})], capsys)
    if kept is None:
        assert code == 4 and err == "error: postselection accepted zero probability mass\n"
    else:
        assert code == 0
        assert [row["occupation"] for row in assert_one_document(stdout)["postselected"]] == kept


def _seeded_mesh_netlist(tmp_path) -> str:
    """A full 7-mode triangular mesh, angles seeded and rounded to six decimals."""
    rng = np.random.default_rng(19)
    elements = []
    for c in range(6):
        for b in range(c + 1, 7):
            elements.append({"type": "ps", "mode": c, "phi": round(float(rng.uniform(-math.pi, math.pi)), 6)})
            elements.append({"type": "bs", "modes": [c, b], "theta": round(float(rng.uniform(0.2, 1.3)), 6)})
    elements += [{"type": "ps", "mode": j, "phi": round(float(rng.uniform(-math.pi, math.pi)), 6)} for j in range(7)]
    path = tmp_path / "mesh7.json"
    path.write_text(json.dumps({"n_modes": 7, "n_nominal": 7, "elements": elements}))
    return str(path)


@pytest.mark.parametrize("predicate, sha256, rows", [
    ([], "c532ab6ea001168fd212d664f589fbf5b494737213ca99eb021e6915d112b36b", {
        "outcomes": [(0, [0, 0, 0, 0, 0, 0, 4], 0.20881338073766015, 0.0663636146501182, 0.0480071573245204),
                     (209, [4, 0, 0, 0, 0, 0, 0], 7.483077962367436e-05, -1.0075227788811762e-05,
                      5.701155794083364e-09)]}),
    (["--predicate", '{"0": [0, 1], "1": [0, 1]}'],
     "0a5b524ec4201832968a1fd6e2e2a61fab7ef12804565b2fbe9f140446863a4b", {
         "postselected": [(0, [0, 0, 0, 0, 0, 0, 4], 0.2163196460447463, 0.06874920362215275, 0.051520642263604546),
                          (77, [0, 1, 0, 0, 2, 0, 1], -0.07601451758651406, -0.06881535906380642,
                           0.01051376052699106)]}),
], ids=["outcomes", "postselected"])
def test_simulate_prints_pinned_bytes_on_a_seeded_mesh(tmp_path, capsys, predicate, sha256, rows):
    # Four photons in seven modes: 210 outcomes, 155 of them kept by the predicate.  Any change to
    # the order, the float formatting or the arithmetic of the table shows here.
    code, stdout, err = _call(["simulate", _seeded_mesh_netlist(tmp_path), "--input", "1,1,1,1", *predicate], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(stdout.encode()).hexdigest() == sha256
    payload = assert_one_document(stdout)
    assert len(payload["outcomes"]) == 210
    assert len(payload.get("postselected", ())) == (155 if predicate else 0)
    if predicate:
        assert payload["success_prob"] == 0.9318043257087624
    for key, pinned in rows.items():
        for i, occupation, re_, im, prob in pinned:
            assert payload[key][i] == {"occupation": occupation, "re": re_, "im": im, "prob": prob}


def _seeded_active_netlist(tmp_path) -> str:
    """A 4-mode triangular mesh, then loss beam splitters into ancilla 4 and squeezers with ancilla 5,
    then output phases; angles seeded and rounded to six decimals."""
    rng = np.random.default_rng(21)
    elements = []
    for c in range(3):
        for b in range(c + 1, 4):
            elements.append({"type": "ps", "mode": c, "phi": round(float(rng.uniform(-math.pi, math.pi)), 6)})
            elements.append({"type": "bs", "modes": [c, b], "theta": round(float(rng.uniform(0.2, 1.3)), 6)})
    elements += [{"type": "bs", "modes": [0, 4], "theta": round(float(rng.uniform(0.2, 1.3)), 6)},
                 {"type": "tms", "modes": [1, 5], "xi": round(float(rng.uniform(0.1, 0.9)), 6)},
                 {"type": "bs", "modes": [2, 4], "theta": round(float(rng.uniform(0.2, 1.3)), 6)},
                 {"type": "tms", "modes": [3, 5], "xi": round(float(rng.uniform(0.1, 0.9)), 6)}]
    elements += [{"type": "ps", "mode": j, "phi": round(float(rng.uniform(-math.pi, math.pi)), 6)} for j in range(4)]
    path = tmp_path / "active6.json"
    path.write_text(json.dumps({"n_modes": 6, "n_nominal": 4, "full_ancillas": [4, 5], "elements": elements}))
    return str(path)


def test_simulate_moments_prints_pinned_bytes_on_a_seeded_active_netlist(tmp_path, capsys):
    # Four amplitudes padded with vacuum on the two ancillas; the list starts with a minus, so it
    # is passed joined.  Any change to the order, the float formatting or the arithmetic shows here.
    argv = ["simulate", _seeded_active_netlist(tmp_path), "--mode", "moments", "--input=-0.4+0.1i,0.3,-1.2j,0.75"]
    assert _call(argv, capsys) == (0, (
        '{"schema": "qsynth/1", "means": [[-0.03455014654077976, -0.22372652968225037], '
        '[0.19761302280372042, 0.1805982870117129], [0.8959316659507561, -0.30120274019032234], '
        '[-0.03676002733980491, -1.2986572471972913], [0.16099424058996353, -0.12124348175014493], '
        '[0.5688623827323456, 0.39838075217620894]]}\n'), "")


@pytest.mark.parametrize("spec", ["nan,1", "1e400,0", "1,-1e999", "1+nani", "0.5,nanj", "1,,1", "1,"])
def test_moments_reject_non_finite_or_missing_amplitudes(tmp_path, capsys, spec):
    net = _beam_splitter_netlist(tmp_path)
    code, stdout, err = _call(["simulate", net, "--mode", "moments", f"--input={spec}"], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: bad amplitude list") and err.count("\n") == 1


def test_moments_that_overflow_exit_4_without_printing(tmp_path, capsys):
    netlist = _squeezer_netlist(tmp_path / "net.json", 50.0)
    code, stdout, err = _call(["simulate", netlist, "--mode", "moments", "--input=1e300"], capsys)
    assert code == 4 and stdout == ""
    assert err.startswith("error: result is not finite") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["-1,1", "1_0", "+1", "1.0", "0x1", "\uff11", "1e0", "one", "1,,1", "1,", ""])
def test_occupations_must_be_non_negative_decimal_integers(tmp_path, capsys, spec):
    net = _beam_splitter_netlist(tmp_path)
    code, stdout, err = _call(["simulate", net, f"--input={spec}"], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: bad occupation") and err.count("\n") == 1


def test_occupation_tolerates_spaces_and_pads_with_vacuum(tmp_path, capsys):
    net = _beam_splitter_netlist(tmp_path)
    padded = _call(["simulate", net, "--input", " 1 "], capsys)
    assert padded[0] == 0
    assert padded == _call(["simulate", net, "--input", "1, 0"], capsys)


def test_photon_and_mode_caps_still_exit_4(tmp_path, capsys):
    code, _, err = _call(["simulate", _beam_splitter_netlist(tmp_path), "--input", "7"], capsys)
    assert code == 4 and "at most 6 photons" in err
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n_modes": 9, "n_nominal": 9, "elements": []}))
    code, _, err = _call(["simulate", str(wide), "--input", "1"], capsys)
    assert code == 4 and "at most 8 modes" in err


# --- the installed entry point, run as a process ----------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "qsynth.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_module_entry_point_exit_codes(tmp_path):
    cz = _run_module("cz")
    assert cz.returncode == 0, cz.stderr
    assert assert_one_document(cz.stdout)["phase_pattern"] == [-1, 1, 1, 1]
    assert cz.stderr == ""

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]]}))
    malformed = _run_module("synth", str(bad))
    assert malformed.returncode == 2 and malformed.stdout == ""
    assert malformed.stderr.startswith("error: ")

    unknown = _run_module("nonsense")
    assert unknown.returncode == 2 and unknown.stdout == ""
    assert "invalid choice" in unknown.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_an_output_path_naming_stdout_counts_as_stdout(tmp_path):
    # /dev/stdout is the pipe the process writes to, so netlist and report share one line.
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    both = _run_module("synth", matrix, "--netlist", "-", "--report", "-")
    assert both.returncode == 0 and both.stderr == ""
    for argv in (["--netlist", "/dev/stdout", "--report", "-"], ["--netlist", "/dev/stdout"]):
        proc = _run_module("synth", matrix, *argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert assert_one_document(proc.stdout) == json.loads(both.stdout)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command, flag", [("naimark", "--out"), ("analytic2x2", "--out"), ("synth", "--netlist")])
def test_an_output_path_naming_stdout_appends_to_it(tmp_path, command, flag):
    # Stdout is opened for appending: the document follows the line already there.
    inputs = {"naimark": _povm_file(tmp_path), "analytic2x2": _two_by_two(tmp_path),
              "synth": write_matrix(tmp_path / "t.json", LOSSY_BS_T)}
    log = tmp_path / "log.txt"
    log.write_text("earlier line\n")
    with open(log, "a") as out:
        proc = _run_module(command, inputs[command], flag, "/dev/stdout", stdout=out)
    assert proc.returncode == 0 and proc.stderr == ""
    first, second = log.read_text().splitlines(keepends=True)
    assert first == "earlier line\n"
    assert_one_document(second)


# --- unwritable output ------------------------------------------------------------


def test_output_path_in_missing_directory_exits_2(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    missing = tmp_path / "missing" / "net.json"
    code = main(["synth", matrix, "--netlist", str(missing), "--report", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not missing.parent.exists()
    assert not (tmp_path / "r.json").exists()


def test_unwritable_report_leaves_no_netlist(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    netlist, report = tmp_path / "net.json", tmp_path / "missing" / "r.json"
    code, stdout, err = _call(["synth", matrix, "--netlist", str(netlist), "--report", str(report)], capsys)
    assert code == 2 and stdout == ""
    # The message names the target, not the temporary file written beside it.
    assert err == f"error: cannot write {report}: [Errno 2] No such file or directory: '{report}'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t.json"]


@pytest.mark.parametrize("report", ["out.json", "./out.json", "link.json"], ids=["same", "dot-slash", "symlink"])
def test_netlist_and_report_in_one_file_exit_2(tmp_path, capsys, monkeypatch, report):
    # One of the two documents would be lost, so neither is written.
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    (tmp_path / "out.json").write_text("old\n")
    (tmp_path / "link.json").symlink_to("out.json")
    code, stdout, err = _call(["synth", "t.json", "--netlist", "out.json", "--report", report], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: --netlist out.json and --report {report} are the same file\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "out.json", "t.json"]
    assert (tmp_path / "out.json").read_text() == "old\n"


def test_netlist_and_report_may_share_a_device(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "t.json", LOSSY_BS_T)
    code, stdout, err = _call(["synth", matrix, "--netlist", os.devnull, "--report", os.devnull], capsys)
    assert (code, stdout, err) == (0, "", "")


def _two_by_two(tmp_path) -> str:
    return write_matrix(tmp_path / "two.json", np.array([[0.3 + 0.4j, -0.2], [0.1j, 1.7]]))


def test_output_through_a_symlink_keeps_the_link(tmp_path, capsys):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    link.symlink_to(real)
    code, stdout, _ = _call(["analytic2x2", _two_by_two(tmp_path), "--out", str(link)], capsys)
    assert code == 0 and stdout == ""
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert assert_one_document(real.read_text())["schema"] == "qsynth/1"


def test_existing_output_keeps_its_mode(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_text("old\n")
    out.chmod(0o640)
    code, _, _ = _call(["analytic2x2", _two_by_two(tmp_path), "--out", str(out)], capsys)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert assert_one_document(out.read_text())["schema"] == "qsynth/1"


def test_new_output_gets_its_mode_from_the_umask(tmp_path, capsys):
    out = tmp_path / "out.json"
    umask = os.umask(0o027)
    try:
        code, _, _ = _call(["analytic2x2", _two_by_two(tmp_path), "--out", str(out)], capsys)
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_with_one_line_error():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qsynth.cli", "cz"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _overflowing_netlist(tmp_path) -> str:
    """Sixteen squeezers at the ceiling on modes 0 and 1: each is legal, their product overflows."""
    path = tmp_path / "hot.json"
    element = {"type": "tms", "modes": [0, 1], "xi": 50.0}
    path.write_text(json.dumps({"n_modes": 2, "n_nominal": 2, "elements": [element] * 16}))
    return str(path)


@pytest.mark.parametrize("argv", [["--input", "1,0"], ["--mode", "moments", "--input", "0,0"],
                                  ["--mode", "moments", "--input", "1,0"]], ids=["fock", "moments-0", "moments-1"])
def test_simulate_overflowing_product_prints_one_error_line(tmp_path, capsys, argv):
    # Under filterwarnings = error, a numpy RuntimeWarning from the product would fail this test.
    code, stdout, err = _call(["simulate", _overflowing_netlist(tmp_path), *argv], capsys)
    assert (code, stdout, err) == (4, "", "error: s_total contains non-finite entries\n")


@pytest.mark.parametrize("argv, start", [
    (["--mode", "moments", "--input", "0,zz"], "error: bad amplitude list '0,zz'"),
    (["--input", "1,x"], "error: bad occupation '1,x'"),
    (["--input", "1,0", "--predicate", '{"0": 1}'], "error: bad predicate"),
], ids=["amplitudes", "occupation", "predicate"])
def test_malformed_simulate_arguments_exit_2_before_the_product(tmp_path, capsys, monkeypatch, argv, start):
    def refuse(circuit):
        raise AssertionError("multiplied the netlist before parsing the arguments")

    monkeypatch.setattr("qsynth.cli.circuit_smatrix", refuse)
    code, stdout, err = _call(["simulate", _overflowing_netlist(tmp_path), *argv], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith(start) and err.count("\n") == 1


# --- naimark output is verified ------------------------------------------------------


def test_naimark_netlist_that_fails_verification_exits_3(tmp_path, capsys, monkeypatch):
    # A mesh missing its last element no longer holds the POVM rows; nothing is printed.
    monkeypatch.setattr("qsynth.mesh.reck_decompose", lambda u, tol: reck_decompose(u, tol)[:-1])
    code, stdout, err = _call(["naimark", _povm_file(tmp_path)], capsys)
    assert code == 3 and stdout == ""
    assert err.startswith("error: synthesized network failed verification") and err.count("\n") == 1


def test_cz_without_an_hv_amplitude_has_no_phase_reference(capsys, monkeypatch):
    # HV's input-row amplitude moves to another postselected row, so every
    # success probability is still 1/9 and only the phase reference is gone.
    def moved(block, occupation, tol):
        state = fock_evolve(block, occupation, tol)
        if occupation[:4] != (1, 0, 0, 1):
            return state
        occupations = state.occupations.copy()
        occupations[(occupations == occupation).all(axis=1)] = (0, 1, 1, 0) + occupation[4:]
        return FockState(occupations, state.amplitudes)

    monkeypatch.setattr("qsynth.apps.fock_evolve", moved)
    with pytest.raises(SynthesisError, match=r"^HV amplitude vanished; no phase reference$"):
        verify_cz(synthesize(cz_gate_target()))
    assert _call(["cz"], capsys) == (3, "", "error: HV amplitude vanished; no phase reference\n")


# --- a factor qsynth computed itself fails its check ------------------------------------
#
# Below float64 rounding, an SVD factor or a Naimark extension is not unitary
# within tol.  That is a verification failure (exit 3) that names the factor,
# not a domain error (exit 4) about a matrix the caller never gave.


def test_svd_factor_failing_its_unitarity_check_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(3)
    matrix = write_matrix(tmp_path / "r.json", rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    code, stdout, err = _call(["--tol", "3e-16", "synth", matrix], capsys)
    assert code == 3 and stdout == ""
    assert re.fullmatch(r"error: factor [WU] is not unitary: deviation \S+ exceeds tol 3\.000e-16\n", err)


def test_svd_that_fails_to_converge_exits_3(tmp_path, capsys, monkeypatch):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(SynthesisError, match=r"^SVD failed to converge: SVD did not converge$"):
        synthesize(LOSSY_BS_T)
    code, stdout, err = _call(["synth", write_matrix(tmp_path / "t.json", LOSSY_BS_T)], capsys)
    assert (code, stdout, err) == (3, "", "error: SVD failed to converge: SVD did not converge\n")


def test_naimark_extension_failing_its_unitarity_check_exits_3(tmp_path, capsys):
    # This rotated trine is complete within 2e-16; its extension deviates by 4.4e-16.
    code, stdout, err = _call(["--tol", "2e-16", "naimark", _povm_file(tmp_path, 57 * math.pi / 200)], capsys)
    assert code == 3 and stdout == ""
    assert re.fullmatch(r"error: Naimark extension is not unitary: deviation \S+ exceeds tol 2\.000e-16\n", err)


@st.composite
def haar_povm(draw):
    """The first ``dim`` rows of a random ``m``-mode unitary: a complete rank-one POVM with m outcomes."""
    dim = draw(st.integers(1, 6))
    m = draw(st.integers(dim, 8))
    return random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)[:dim]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(haar_povm())
def test_naimark_netlist_reconstructs_the_printed_extension(t):
    dim, m = t.shape
    doc = {"dim": dim, "vectors": [[[z.real, z.imag] for z in column] for column in t.T]}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "povm.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out):
            assert main(["naimark", str(path)]) == 0
    payload = json.loads(out.getvalue())
    extension = matrix_from_json(payload["extension"])
    s_total = circuit_smatrix(circuit_from_json(payload["netlist"]))
    assert max_abs(s_total[:m, :m] - extension) <= 1e-10
    assert max_abs(extension[:dim] - t) <= 1e-10
    assert payload["netlist"]["ancilla_outputs"] == list(range(dim, m))


# --- exact error lines ----------------------------------------------------------------

ERROR_DOCS = {
    "bs": {"n_modes": 2, "n_nominal": 2, "elements": [{"type": "bs", "modes": [0, 1], "theta": math.pi / 4}]},
    "sq": {"n_modes": 2, "n_nominal": 1, "full_ancillas": [1], "elements": [{"type": "tms", "modes": [0, 1], "xi": 0.5}]},
    "lossy": matrix_to_json(LOSSY_BS_T),
    "bad_matrix": {"rows": 2, "cols": 2, "data": [[1, 0], [1], [0, 0], [1, 0]]},
    "bad_netlist": {"n_modes": "3", "n_nominal": 2, "elements": []},
    "bad_vectors": {"dim": 1, "vectors": [[[1, 0, 0]]]},
    "bad_operators": {"dim": 1, "operators": [[[[1, 0, 0]]]]},
    "no_key": {"dim": 1},
    "wrong_dim": {"dim": 2, "vectors": [[[1, 0]]]},
    "padding": {"n_modes": 3, "n_nominal": 2, "ancilla_inputs": [2], "elements": []},
    "out_of_range": {"n_modes": 2, "n_nominal": 2, "elements": [{"type": "ps", "mode": 1, "phi": 0.5},
                                                                {"type": "bs", "modes": [0, 2], "theta": 0.25}]},
    "non_square_op": {"dim": 1, "operators": [[[[1, 0], [0, 0]]]]},
    "non_hermitian_op": {"dim": 2, "operators": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]},
    "negative_op": {"dim": 1, "operators": [[[[-1, 0]]]]},
    "one_outcome": {"dim": 2, "vectors": [[[math.sqrt(0.5), 0], [math.sqrt(0.5), 0]]]},
    "huge": {"rows": 2, "cols": 2, "data": [[1e308, 0]] * 4},
    "huge_column": {"rows": 2, "cols": 2, "data": [[1.7e308, 0], [0, 0], [1.7e308, 0], [0, 0]]},
    "nan_svd": {"rows": 2, "cols": 2, "data": [[1.2e308, 0], [-1.79e308, 1e308], [0, 0], [-1e307, 1]]},
    "negative_rank_one": {"dim": 2, "operators": [[[[-1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
    "indefinite": {"dim": 2, "operators": [[[[1, 0], [0, 0]], [[0, 0], [-0.5, 0]]]]},
}


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["simulate", "@bs", "--input", "1,1,1"], 2, "occupation lists 3 modes, netlist has 2"),
        (["simulate", "@bs", "--mode", "moments", "--input=1,1,1"], 2, "amplitude list has 3 modes, netlist has 2"),
        (["simulate", "@bs", "--input=1_0"], 2, "bad occupation '1_0': counts must be non-negative decimal integers"),
        (["simulate", "@bs", "--mode", "moments", "--input=nan,1"], 2,
         "bad amplitude list 'nan,1': amplitudes must be finite"),
        (["synth", "@bad_matrix"], 2, "@bad_matrix: expected an [re, im] pair of numbers, got [1]"),
        (["naimark", "@bad_vectors"], 2, "@bad_vectors: expected an [re, im] pair of numbers, got [1, 0, 0]"),
        (["naimark", "@bad_operators"], 2, "@bad_operators: expected an [re, im] pair of numbers, got [1, 0, 0]"),
        (["simulate", "@bad_netlist", "--input", "1"], 2,
         "@bad_netlist: malformed netlist JSON: 'str' object cannot be interpreted as an integer"),
        (["naimark", "@no_key"], 2, "@no_key: POVM JSON needs 'vectors' or 'operators'"),
        (["naimark", "@wrong_dim"], 2, "@wrong_dim: declared dim 2 != vector length 1"),
        (["simulate", "@sq", "--input", "1"], 4, "not passive: off-diagonal block entry 5.211e-01 at (0, 3)"),
        (["simulate", "@bs", "--input", "1,1", "--predicate", '{"0": [1, 1]}'], 4,
         "postselection accepted zero probability mass"),
        (["--tol", "2", "synth", "@lossy"], 4, "tol must be positive and below 1, got 2.0"),
        (["simulate", "@padding", "--input", "1"], 2, "@padding: padding ancillas must lie inside the nominal range"),
        (["naimark", "@non_square_op"], 4, "operator 0 must be square, got (1, 2)"),
        (["naimark", "@non_hermitian_op"], 4, "operator 0 is not Hermitian"),
        (["naimark", "@negative_op"], 4, "operator 0 is not positive semidefinite"),
        (["--tol", "0.9", "naimark", "@one_outcome"], 4, "need at least dim outcomes, got 1 < 2"),
        (["synth", "@huge"], 4, "singular value inf exceeds the gain ceiling 2.592e+21"),
        (["analytic2x2", "@huge"], 4, "singular value inf exceeds the gain ceiling 2.592e+21"),
        (["synth", "@huge_column"], 4, "singular value inf exceeds the gain ceiling 2.592e+21"),
        (["analytic2x2", "@huge_column"], 4, "singular value inf exceeds the gain ceiling 2.592e+21"),
        (["--tol", "0.5", "cz"], 3, "input VV: success probability 1.0 differs from 1/9"),
        (["synth", "@nan_svd"], 4, "singular value nan exceeds the gain ceiling 2.592e+21"),
        (["analytic2x2", "@nan_svd"], 4, "singular value inf exceeds the gain ceiling 2.592e+21"),
        (["naimark", "@negative_rank_one"], 4, "operator 0 is not positive semidefinite"),
        (["naimark", "@indefinite"], 4, "operator 0 is not positive semidefinite"),
        (["simulate", "@out_of_range", "--input", "1"], 2,
         "@out_of_range: element 1 (kind, mode_a, mode_b, angle) = (1, 0, 2, 0.25): mode outside 0..1"),
    ],
)
def test_error_line_and_exit_code(tmp_path, capsys, argv, code, line):
    paths = {}
    for name, doc in ERROR_DOCS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))

    def fill(text: str) -> str:
        return re.sub(r"@(\w+)", lambda m: paths[m[1]], text)

    assert _call([fill(arg) for arg in argv], capsys) == (code, "", f"error: {fill(line)}\n")
