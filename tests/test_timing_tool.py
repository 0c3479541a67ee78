"""tools/timing.py's jobs run in process on small sizes and report every row they promise."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "timing.py"


@pytest.fixture(scope="module")
def timing():
    spec = importlib.util.spec_from_file_location("qsynth_timing_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_keys(timing) -> dict:
    """Each job's row keys and the size field its rows carry."""
    names = [name for name, _, _ in timing.fock_cases()]
    stages = ("fock_evolve", "postselect", "tables", "write", "command")
    functions = ("reck_decompose", "synthesize", "synthesize_tall", "synthesize_wide", "circuit_smatrix",
                 "circuit_from_json")
    return {
        "mesh": ("elements", {f"mesh/n={n}/{f}" for f in functions for n in timing.SIZES}),
        "fock-warm": ("outcomes", {f"fock-warm/{name}/fock_evolve" for name in names}),
        "fock-cold": ("outcomes", {f"fock-cold/{name}/fock_evolve" for name in names}),
        "command": ("outcomes", {f"command/{name}/{stage}" for name in names if name != "caps" for stage in stages}
                    | {"command/cz-verify/command"}),
    }


def test_every_job_reports_every_row_with_a_positive_time(timing, monkeypatch):
    monkeypatch.setattr(timing, "SIZES", (2, 4))
    assert len(timing.fock_cases()) == 15
    for job, (size, keys) in expected_keys(timing).items():
        cases = range(len(timing.fock_cases())) if job == "fock-cold" else [0]
        got = {}
        for case in cases:
            got.update(timing.JOBS[job](1, case))
        assert set(got) == keys, job
        for key, row in got.items():
            assert set(row) == {"seconds", size} and row["seconds"] > 0 and row[size] > 0, key
