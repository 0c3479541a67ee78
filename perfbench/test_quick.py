"""The benchmark's own test: quick mode runs every workload and every check.

    python3 -m pytest perfbench/test_quick.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_quick_mode_runs_every_workload_and_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    # synth-large runs here too; it is a workload to run by hand, not one of BENCHMARK.json's.
    assert [line["workload"] for line in lines] == ["synth-large"] + [w["name"] for w in spec["workloads"]]
    names = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in lines:
        assert line["correct"], line["workload"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == names
    failed = {line["workload"]: line["failed"] for line in lines}
    assert failed == {"synth-large": 0, "synth-small": 8, "mesh-wide": 0, "cli-fock": 0}


def test_run_refuses_to_report_without_qsynth():
    """Copied without ``src/``, the benchmark exits non-zero and prints no result."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as root:
        bench = Path(root) / "perfbench"
        bench.mkdir()
        for path in HERE.glob("*.py"):
            (bench / path.name).write_text(path.read_text())
        proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "mesh-wide",
                               "--seed", "1", "--seconds", "1"], capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
