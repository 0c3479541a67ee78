import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.cli import main
from qsynth.numkit import matrix_from_json, matrix_to_json

from oracles import LOSSY_BS_T


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


@pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "nan"), ("--tol", "0")])
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
