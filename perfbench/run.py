"""Benchmark for qsynth: four workloads, closed loop, one operation at a time.

    python3 perfbench/run.py --workload mesh-wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --quick

A run generates its workload's input pool from ``--seed`` (numpy only),
imports qsynth from the checkout's ``src``, makes one warm-up call, then runs
whole passes over the pool until ``--seconds`` of passes have been measured.
Each operation's time is its fastest over the timed passes, and set-up is
the median of probes spread over the run: the host's speed changes within
seconds, and a run's median would report how busy the host was rather than
the code.
The first pass's outputs are checked against the benchmark's own
computations; every later pass must repeat them exactly.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  ``--quick`` runs every workload on a tiny pool, traced
and untraced, and exits non-zero unless every check passes.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads: the set-up probes
# inherit it, and timings do not depend on how many cores are idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import probe
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "elements_per_op": "count",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Per-layer metrics, per operation.  Layers with a work count also report calls.
COUNTED = {"mesh.reck_decompose": "elements", "blocks.circuit_smatrix": "elements", "sim.fock_evolve": "amplitudes"}
PER_LAYER = {}
for _layer in tracing.LAYERS:
    if _layer in COUNTED:
        PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
    if _layer in COUNTED:
        PER_LAYER[f"{_layer}.{COUNTED[_layer]}"] = "count"
PER_LAYER.update({
    "cli.bytes_out": "B",
    "check.block_dev_max": "1",
    "check.quasi_dev_max": "1",
    "check.mesh_dev_max": "1",
    "trace.overhead_s": "s",
})


class SetupFailed(RuntimeError):
    """qsynth could not be imported or warmed up."""


def probe_setup(workload: str) -> float:
    """Seconds a fresh interpreter takes to import qsynth and make one warm-up call."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupFailed(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_pass(ops, q, tracer=None):
    """One pass over the pool; returns (wall time, per-op times, outputs)."""
    runners = [workloads.KINDS[op.kind][0] for op in ops]
    durations, outputs = [], []
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    for index, (op, run) in enumerate(zip(ops, runners)):
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        try:
            out = run(q, op.inputs)
        except Exception as exc:  # recorded and judged by Verifier
            out = exc
        durations.append(perf_counter() - t0)
        outputs.append(out)
    wall = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return wall, durations, outputs


class Verifier:
    """Checks the first pass in full and holds every later pass to its digests."""

    def __init__(self, ops, q):
        self.ops, self.q = ops, q
        self.outcomes = None
        self.digests = None
        self.errors: list[str] = []

    def _expected_fault(self, op, out) -> bool:
        return op.fault and isinstance(out, self.q.synth.SynthesisError)

    def verify(self, outputs) -> int:
        """Check one pass's outputs; returns how many hit the known high-gain fault."""
        faults = 0
        first = self.outcomes is None
        if first:
            self.outcomes, self.digests = [], []
        for index, (op, out) in enumerate(zip(self.ops, outputs)):
            _, check, digest = workloads.KINDS[op.kind]
            try:
                if isinstance(out, Exception):
                    if not self._expected_fault(op, out):
                        raise workloads.CheckError(f"unexpected {type(out).__name__}: {out}")
                    faults += 1
                    outcome, value = workloads.Outcome(), ("fault", str(out))
                else:
                    value = digest(self.q, op.inputs, out)
                    outcome = check(self.q, op.inputs, out) if first else None
            except (workloads.CheckError, ValueError, KeyError, TypeError, OSError) as exc:
                self.errors.append(f"op {index} ({op.kind}): {exc}")
                outcome, value = workloads.Outcome(), ("error", str(exc))
            if first:
                self.outcomes.append(outcome)
                self.digests.append(value)
            elif value != self.digests[index]:
                self.errors.append(f"op {index} ({op.kind}): output differs from the first pass")
        return faults


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
            probes: int = SETUP_PROBES) -> dict:
    """Run one workload; see the module docstring."""
    # The first probe runs before anything else, so a checkout without a
    # working qsynth fails at once; the rest are spread over the timed passes.
    setup_times = [probe_setup(name)]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = workloads.make_pool(name, seed, quick, workdir)
        try:
            probe.import_qsynth()
            probe.warm_up(name)
        except ImportError as exc:
            raise SetupFailed(str(exc)) from exc
        q = SimpleNamespace(**{m: importlib.import_module(f"qsynth.{m}")
                               for m in ("apps", "blocks", "cli", "closedform2x2", "mesh", "synth")})
        tracer = tracing.Tracer() if trace else None
        verifier = Verifier(ops, q)
        # The first pass is checked in full and not timed: it also lets the
        # allocator and caches settle before timing starts.
        verifier.verify(run_pass(ops, q)[2])
        # The pool, the first pass's outputs and their digests live for the
        # whole run; freezing them keeps collections short, in the timed
        # passes and in the collection before each pass.
        gc.collect()
        gc.freeze()
        failed = 0
        walls = {False: [], True: []}
        best = [math.inf] * len(ops)
        measured = 0.0
        # A traced run alternates untraced and traced passes, so the
        # overhead is measured under the same host conditions.
        while measured < seconds or not walls[False] or (trace and not walls[True]):
            traced = trace and len(walls[False]) > len(walls[True])
            gc.collect()
            wall, times, outputs = run_pass(ops, q, tracer if traced else None)
            failed += verifier.verify(outputs)
            walls[traced].append(wall)
            if not traced:
                best = [min(b, t) for b, t in zip(best, times)]
            measured += wall
            if len(setup_times) < probes and measured >= seconds * len(setup_times) / probes:
                setup_times.append(probe_setup(name))
        passes = len(walls[False]) + len(walls[True])
        while len(setup_times) < probes:
            setup_times.append(probe_setup(name))

    outcomes = verifier.outcomes
    per_op = len(ops)
    metrics = {
        "throughput_ops_s": per_op / sum(best),
        "latency_p50_s": statistics.median(best),
        "elements_per_op": sum(o.elements for o in outcomes) / per_op,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    if trace:
        traced_ops = per_op * len(walls[True])
        for layer, total in tracer.layer_totals().items():
            metrics[f"{layer}.self_s"] = total["self_s"] / traced_ops
            if layer in COUNTED:
                metrics[f"{layer}.calls"] = total["calls"] / traced_ops
                metrics[f"{layer}.{COUNTED[layer]}"] = total["work"] / traced_ops
        metrics.update({
            "cli.bytes_out": sum(o.bytes_out for o in outcomes) / per_op,
            "check.block_dev_max": max(o.block_dev for o in outcomes),
            "check.quasi_dev_max": max(o.quasi_dev for o in outcomes),
            "check.mesh_dev_max": max(o.mesh_dev for o in outcomes),
            "trace.overhead_s": (min(walls[True]) - min(walls[False])) / per_op,
        })
        write_trace(name, seed, tracer, metrics)
    for message in verifier.errors[:20]:
        print(f"{name}: check failed: {message}", file=sys.stderr)
    return {
        "correct": not verifier.errors,
        "attempted": per_op * passes,
        "failed": failed,
        "faults_per_pass": sum(op.fault for op in ops),
        "passes": passes,
        "metrics": metrics,
    }


def write_trace(name: str, seed: int, tracer, metrics: dict) -> None:
    """Spans and per-layer figures of a traced run, for inspection."""
    for absent in tracer.absent:
        print(f"{name}: traced name absent: {absent}", file=sys.stderr)
    payload = {
        "workload": name,
        "seed": seed,
        "absent": tracer.absent,
        "metrics": {k: v for k, v in metrics.items() if k in PER_LAYER},
        "spans": tracer.spans,
    }
    with open(OUT / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def report(result: dict, units: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload on a tiny pool, traced and untraced")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required without --quick")

    try:
        if not args.quick:
            result = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
            print(json.dumps(report(result, PER_LAYER if args.trace else END_TO_END)))
            return 0
        ok = True
        for name in workloads.WORKLOADS:
            result = measure(name, args.seed, 0.0, trace=True, quick=True, probes=1)
            line = report(result, {**END_TO_END, **PER_LAYER})
            ok &= line["correct"] and line["failed"] == result["faults_per_pass"] * result["passes"]
            print(json.dumps({"workload": name, **line}))
        return 0 if ok else 1
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
