"""Time ``reck_decompose``, ``synthesize``, ``circuit_smatrix``, ``circuit_from_json`` on two checkouts; print JSON.

    python3 tools/mesh_timing.py --parent <parent checkout>/src --change src > mesh.json

Cases: n in {2, 4, 8, 16, 32, 64, 128}.  ``reck_decompose`` gets a seeded
Haar n x n unitary.  ``synthesize`` gets a seeded complex Gaussian n x n
matrix scaled by ``1 / sqrt(2 n)``, whose singular values lie on both sides
of 1, so the circuit has loss and gain couplings and ``N = 2 n`` modes
(barring a singular value within ``tol`` of 1).  ``circuit_smatrix`` gets
the circuit that ``synthesize`` makes of that input, and ``circuit_from_json``
the netlist JSON of that circuit, as ``json.load`` reads it.  Both sides see the
same inputs.  Each measurement runs in a fresh interpreter that imports qsynth
from the given ``src`` only, with BLAS pinned to one thread as in
``perfbench/run.py``; the two sides alternate, and which side goes first
alternates by round.  In each interpreter a case gets one untimed call, then
the best of its timed calls: ``--repeats`` for ``reck_decompose``, and
``max(3, --repeats // 4)`` for the others.

Each side reports the median and the minimum over ``--rounds`` rounds, and
each case the ratio of the medians (parent / change) and the median of the
per-round ratios, whose two runs are adjacent in time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIZES = (2, 4, 8, 16, 32, 64, 128)
FUNCTIONS = ("reck_decompose", "synthesize", "circuit_smatrix", "circuit_from_json")


def case_input(function: str, n: int):
    import numpy as np

    if function == "circuit_smatrix":
        from qsynth.synth import synthesize

        return synthesize(case_input("synthesize", n)).circuit
    if function == "circuit_from_json":
        from qsynth.blocks import circuit_to_json

        return json.loads(json.dumps(circuit_to_json(case_input("circuit_smatrix", n))))
    rng = np.random.default_rng(1000 * FUNCTIONS.index(function) + n)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if function == "synthesize":
        return z / np.sqrt(2 * n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def worker(src: str, repeats: int) -> None:
    sys.path.insert(0, src)
    from qsynth.blocks import circuit_from_json, circuit_smatrix
    from qsynth.mesh import reck_decompose
    from qsynth.synth import synthesize

    out = {}
    for function, call in zip(FUNCTIONS, (reck_decompose, synthesize, circuit_smatrix, circuit_from_json)):
        count = repeats if function == "reck_decompose" else max(3, repeats // 4)
        for n in SIZES:
            x = case_input(function, n)
            result = call(x)
            # synthesize returns a result that holds the circuit; circuit_from_json returns the circuit
            circuit = x if function == "circuit_smatrix" else getattr(result, "circuit", result)
            size = len(result if function == "reck_decompose" else circuit.elements)
            best = float("inf")
            for _ in range(count):
                start = perf_counter()
                call(x)
                best = min(best, perf_counter() - start)
            out[f"{function}/{n}"] = {"seconds": best, "elements": size}
    print(json.dumps(out))


def run(src: str, repeats: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--worker", src, "--repeats", str(repeats)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="src directory of the parent checkout")
    parser.add_argument("--change", help="src directory of the changed checkout")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker, args.repeats)
        return
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    samples = {side: [] for side in sides}
    for r in range(args.rounds):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            samples[side].append(run(sides[side], args.repeats))

    rows = []
    for function in FUNCTIONS:
        for n in SIZES:
            key = f"{function}/{n}"
            sizes = {s[key]["elements"] for side in sides for s in samples[side]}
            if len(sizes) != 1:
                raise SystemExit(f"{key}: the sides give different element counts {sorted(sizes)}")
            row = {"function": function, "n": n, "elements": sizes.pop()}
            for side in sides:
                seconds = [s[key]["seconds"] for s in samples[side]]
                row[side] = {"median_s": statistics.median(seconds), "min_s": min(seconds)}
            row["speedup_median"] = row["parent"]["median_s"] / row["change"]["median_s"]
            row["speedup_paired_median"] = statistics.median(
                p[key]["seconds"] / c[key]["seconds"] for p, c in zip(samples["parent"], samples["change"]))
            rows.append(row)
    import numpy

    print(json.dumps({
        "rounds": args.rounds, "repeats": args.repeats,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()},
        "cases": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
