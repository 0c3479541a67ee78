"""Time qsynth's layers on two checkouts in fresh interpreters; print one JSON document.

    python3 tools/timing.py --parent <parent checkout>/src --change src > timing.json

Every run times every suite; a row is one ``(suite, case, stage)``:

- ``mesh``: ``reck_decompose``, ``synthesize`` (square, tall and wide),
  ``circuit_smatrix`` and ``circuit_from_json`` at n in ``SIZES``.
  ``reck_decompose`` gets a seeded Haar n x n unitary.  ``synthesize`` gets a
  seeded complex Gaussian n x n matrix scaled by ``1 / sqrt(2 n)``, whose
  singular values lie on both sides of 1, so the circuit has loss and gain
  couplings and ``N = 2 n`` modes (barring a singular value within ``tol`` of
  1); ``synthesize_tall`` gets its first ``max(1, n // 2)`` columns and
  ``synthesize_wide`` its first ``max(1, n // 2)`` rows.  ``circuit_smatrix`` gets
  the circuit that ``synthesize`` makes of that input, and ``circuit_from_json``
  the netlist JSON of that circuit, as ``json.load`` reads it.  Each case gets
  the best of ``--repeats`` timed calls for ``reck_decompose``, and of
  ``max(3, --repeats // 4)`` for the others, whose calls at n = 128 take
  tenths of a second.
- ``fock-warm``: ``fock_evolve`` on every ``FOCK_CASES`` shape of
  ``perfbench/workloads.py`` (quick and full pools) with a seeded Haar
  unitary, on the four inputs of the controlled-Z check on its synthesized
  passive block, and at the caps (8 modes, 6 photons); the best of
  ``--repeats`` calls.
- ``fock-cold``: the first ``fock_evolve`` call of a fresh interpreter, after
  import and input construction, on the same cases; one interpreter per case.
- ``command``: the stages of ``qsynth simulate --predicate '{"0": [0, 1], "1": [0, 1]}'``
  after the product, on the same cases but the caps, each the best of
  ``--repeats`` calls: ``fock_evolve``, ``postselect`` (building the mask
  from the predicate, then the call; a controlled-Z case keeps exactly one
  photon among modes 0, 1 and one among 2, 3, as ``apps.verify_cz`` does),
  ``tables`` (the outcome and postselected tables of ``cli._outcome_table``),
  ``write`` (``cli._write`` of the payload, stdout captured) and ``command``,
  the four in a row.  The case ``cz-verify`` times ``apps.verify_cz`` of the
  synthesized network whole.

A timed case first gets one untimed call.  Both sides see the same inputs.
Each interpreter imports qsynth from the given ``src`` only, with BLAS pinned
to one thread as in ``perfbench/run.py``; a round runs one interpreter for
``mesh``, one for ``fock-warm``, one for ``command`` and one per
``fock-cold`` case, each on both sides in a row, and which side goes first
alternates by round.

Each row holds, per side, its size (``elements`` of the netlist, or
``outcomes`` of the Fock states the stage evolves; the same in every round)
and its median and minimum over ``--rounds`` rounds, then the ratio of the
medians (parent / change) and the median of the per-round ratios, whose two
runs are adjacent in time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import refs  # noqa: E402  (perfbench/refs.py; it does not import qsynth)

SIZES = (2, 4, 8, 16, 32, 64, 128)
FUNCTIONS = ("reck_decompose", "synthesize", "synthesize_tall", "synthesize_wide", "circuit_smatrix",
             "circuit_from_json")
CAPS = (8, (1, 1, 1, 1, 1, 1, 0, 0))
CZ_PAIRS = {"HH": (0, 2), "HV": (0, 3), "VH": (1, 2), "VV": (1, 3)}
PREDICATE = '{"0": [0, 1], "1": [0, 1]}'


def best_of(repeats: int, call, *args) -> tuple[float, object]:
    """The best time of ``repeats`` calls after one untimed call, and that call's result."""
    result = call(*args)
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        call(*args)
        best = min(best, perf_counter() - start)
    return best, result


def mesh_job(repeats: int, case: int) -> dict:
    from qsynth.blocks import circuit_from_json, circuit_smatrix, circuit_to_json
    from qsynth.mesh import reck_decompose
    from qsynth.synth import synthesize

    inputs = {}  # n -> one input per function
    for n in SIZES:
        rng = np.random.default_rng(1000 + n)
        t = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2 * n)
        circuit = synthesize(t).circuit
        netlist = json.loads(json.dumps(circuit_to_json(circuit)))
        half = max(1, n // 2)
        inputs[n] = (refs.haar_unitary(np.random.default_rng(n), n), t, t[:, :half], t[:half], circuit, netlist)
    out = {}
    calls = (reck_decompose, synthesize, synthesize, synthesize, circuit_smatrix, circuit_from_json)
    for i, (function, call) in enumerate(zip(FUNCTIONS, calls)):
        for n in SIZES:
            seconds, result = best_of(repeats if i == 0 else max(3, repeats // 4), call, inputs[n][i])
            # the mesh's or the synthesized circuit's own elements, else those of the square input's circuit
            size = len(result) if i == 0 else len(result.circuit.elements) if i < 4 else len(inputs[n][4].elements)
            out[f"mesh/n={n}/{function}"] = {"seconds": seconds, "elements": size}
    return out


@functools.cache
def fock_cases() -> list[tuple[str, int, tuple[int, ...]]]:
    """``(name, modes, occupation)``; a controlled-Z case has ``modes = 0`` and the two photons' modes."""
    from workloads import FOCK_CASES

    out = [(f"fock-{pool}-{i}", modes, tuple(occ))
           for pool, shapes in zip(("quick", "full"), FOCK_CASES)
           for i, (modes, occ, _) in enumerate(shapes)]
    out += [(f"cz-{label}", 0, pair) for label, pair in CZ_PAIRS.items()]
    return out + [("caps", *CAPS)]


def fock_input(index: int):
    """The matrix and occupation of case ``index``, built with the imported qsynth."""
    name, modes, occ = fock_cases()[index]
    if name.startswith("cz-"):
        from qsynth import apps, sim, synth

        block = sim.passive_block(synth.synthesize(apps.cz_gate_target()).s_total)
        return block, tuple(1 if k in occ else 0 for k in range(len(block)))
    return refs.haar_unitary(np.random.default_rng(index), modes), occ


def warm_job(repeats: int, case: int) -> dict:
    from qsynth.sim import fock_evolve

    out = {}
    for i, (name, _, _) in enumerate(fock_cases()):
        seconds, state = best_of(repeats, fock_evolve, *fock_input(i))
        out[f"fock-warm/{name}/fock_evolve"] = {"seconds": seconds, "outcomes": len(state.amplitudes)}
    return out


def cold_job(repeats: int, case: int) -> dict:
    from qsynth.sim import fock_evolve

    a, occ = fock_input(case)
    start = perf_counter()
    state = fock_evolve(a, occ)
    seconds = perf_counter() - start
    return {f"fock-cold/{fock_cases()[case][0]}/fock_evolve": {"seconds": seconds, "outcomes": len(state.amplitudes)}}


def command_stages(a, occ, cz: bool) -> dict:
    """The command path's stages on one case as callables, each taking the previous stage's result."""
    from qsynth import cli, sim

    if cz:
        def keep(rows):
            return (rows[:, 0] + rows[:, 1] == 1) & (rows[:, 2] + rows[:, 3] == 1)
    else:
        keep = cli._parse_predicate(PREDICATE, len(occ))

    def tables(selected):
        state, (conditioned, success) = selected
        return {"outcomes": cli._outcome_table(state), "success_prob": success,
                "postselected": cli._outcome_table(conditioned)}

    def write(payload):
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write({None: payload})

    return {
        "fock_evolve": lambda _: sim.fock_evolve(a, occ),
        "postselect": lambda state: (state, sim.postselect(state, keep(state.occupations))),
        "tables": tables,
        "write": write,
    }


def command_job(repeats: int, case: int) -> dict:
    """Best stage times per case, then ``verify_cz`` whole as the case ``cz-verify``."""
    from qsynth import apps, synth

    out, cz_outcomes = {}, 0
    for i, (name, _, _) in enumerate(fock_cases()):
        if name == "caps":
            continue
        stages = command_stages(*fock_input(i), name.startswith("cz-"))
        times, value = {}, None
        for stage, call in stages.items():  # each stage's untimed call makes the next stage's input
            times[stage], value = best_of(repeats, call, value)
            if stage == "fock_evolve":
                outcomes = len(value.amplitudes)

        def command(_):
            value = None
            for call in stages.values():
                value = call(value)

        times["command"], _ = best_of(repeats, command, None)
        out.update({f"command/{name}/{stage}": {"seconds": s, "outcomes": outcomes} for stage, s in times.items()})
        cz_outcomes += outcomes if name.startswith("cz-") else 0
    seconds, _ = best_of(repeats, apps.verify_cz, synth.synthesize(apps.cz_gate_target()))
    out["command/cz-verify/command"] = {"seconds": seconds, "outcomes": cz_outcomes}
    return out


JOBS = {"mesh": mesh_job, "fock-warm": warm_job, "command": command_job, "fock-cold": cold_job}


def run(src: str, job: str, case: int, repeats: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--worker", src, "--job", job, "--case", str(case), "--repeats", str(repeats)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="src directory of the parent checkout")
    parser.add_argument("--change", help="src directory of the changed checkout")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--job", choices=list(JOBS), default="mesh", help=argparse.SUPPRESS)
    parser.add_argument("--case", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        sys.path.insert(0, args.worker)
        print(json.dumps(JOBS[args.job](args.repeats, args.case)))
        return
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    plan = [("mesh", 0), ("fock-warm", 0), ("command", 0)] + [("fock-cold", i) for i in range(len(fock_cases()))]
    samples = {side: [{} for _ in range(args.rounds)] for side in sides}  # per round, key -> measurement
    for r in range(args.rounds):
        for job, case in plan:
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                samples[side][r].update(run(sides[side], job, case, args.repeats))

    rows = []
    for key, first in samples["parent"][0].items():
        size_name = next(name for name in first if name != "seconds")
        row = dict(zip(("suite", "case", "stage"), key.split("/")))
        for side in sides:  # a side's work is the same every round; the sides may differ, as a change can
            sizes = {s[key][size_name] for s in samples[side]}
            if len(sizes) != 1:
                raise SystemExit(f"{key}: the {side} side gives different {size_name} counts {sorted(sizes)}")
            seconds = [s[key]["seconds"] for s in samples[side]]
            row[side] = {size_name: sizes.pop(), "median_s": statistics.median(seconds), "min_s": min(seconds)}
        row["speedup_median"] = row["parent"]["median_s"] / row["change"]["median_s"]
        row["speedup_paired_median"] = statistics.median(
            p[key]["seconds"] / c[key]["seconds"] for p, c in zip(samples["parent"], samples["change"]))
        rows.append(row)
    print(json.dumps({
        "rounds": args.rounds, "repeats": args.repeats,
        "host": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()},
        "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
