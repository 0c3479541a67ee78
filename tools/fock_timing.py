"""Time ``qsynth.sim.fock_evolve`` and the Fock command path on two checkouts; print one JSON document.

    python3 tools/fock_timing.py --parent <parent checkout>/src --change src > fock.json

Cases: every ``FOCK_CASES`` shape of ``perfbench/workloads.py`` (quick and
full pools), the four inputs of the controlled-Z check on its synthesized
passive block, and the caps (8 modes, 6 photons).  A case's matrix is a
seeded Haar unitary, so both sides see the same inputs.  Each measurement
runs in a fresh interpreter that imports qsynth from the given ``src`` only,
with BLAS pinned to one thread as in ``perfbench/run.py``; the two sides
alternate, and which side goes first alternates by round.

- warm: one untimed call per case, then the best of ``--repeats`` timed calls.
- cold: the first ``fock_evolve`` call of a fresh interpreter, after import
  and input construction; one interpreter per case and side and round.
- command: the stages of ``qsynth simulate --predicate '{"0": [0, 1], "1": [0, 1]}'``
  after the product, each the best of ``--repeats`` warm calls: ``fock_evolve``,
  ``postselect`` (building the mask from the predicate, then the call; a
  controlled-Z case keeps exactly one photon among modes 0, 1 and one among
  2, 3, as ``apps.verify_cz`` does), ``tables`` (the outcome and postselected
  tables of ``cli._outcome_table``), ``write`` (``cli._write`` of the payload,
  stdout captured) and ``command``, the four in a row.  The case
  ``cz-verify`` times ``apps.verify_cz`` of the synthesized network whole.
  Each side is driven through its own API (a predicate callable before the
  mask, a mask after).

Each side reports the median and the minimum over ``--rounds`` rounds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CAPS = (8, (1, 1, 1, 1, 1, 1, 0, 0))
CZ_PAIRS = {"HH": (0, 2), "HV": (0, 3), "VH": (1, 2), "VV": (1, 3)}
PREDICATE = '{"0": [0, 1], "1": [0, 1]}'
STAGES = ("fock_evolve", "postselect", "tables", "write", "command")


@functools.cache
def cases() -> list[tuple[str, int, tuple[int, ...]]]:
    """``(name, modes, occupation)``; a controlled-Z case has ``modes = 0`` and the two photons' modes."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import FOCK_CASES

    out = [(f"fock-{pool}-{i}", modes, tuple(occ))
           for pool, shapes in zip(("quick", "full"), FOCK_CASES)
           for i, (modes, occ, _) in enumerate(shapes)]
    out += [(f"cz-{label}", 0, pair) for label, pair in CZ_PAIRS.items()]
    return out + [("caps", *CAPS)]


def case_input(index: int):
    """The matrix and occupation of case ``index``, built with the imported qsynth."""
    import numpy as np

    name, modes, occ = cases()[index]
    if name.startswith("cz-"):
        from qsynth import apps, sim, synth

        block = sim.passive_block(synth.synthesize(apps.cz_gate_target()).s_total)
        return block, tuple(1 if k in occ else 0 for k in range(len(block)))
    rng = np.random.default_rng(index)
    z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)), occ


def command_stages(a, occ, cz: bool) -> dict:
    """The command path's stages on one case as callables, each taking the previous stage's result."""
    import contextlib
    import io

    from qsynth import cli, sim

    if cz:
        def keep(state):
            if hasattr(state, "occupations"):  # a mask over the rows
                rows = state.occupations
                return (rows[:, 0] + rows[:, 1] == 1) & (rows[:, 2] + rows[:, 3] == 1)
            return lambda o: o[0] + o[1] == 1 and o[2] + o[3] == 1
    else:
        predicate = cli._parse_predicate(PREDICATE, len(occ))

        def keep(state):
            return predicate(state.occupations) if hasattr(state, "occupations") else predicate

    def tables(selected):
        state, (conditioned, success) = selected
        return {"outcomes": cli._outcome_table(state), "success_prob": success,
                "postselected": cli._outcome_table(conditioned)}

    def write(payload):
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write({None: payload})

    return {
        "fock_evolve": lambda _: sim.fock_evolve(a, occ),
        "postselect": lambda state: (state, sim.postselect(state, keep(state))),
        "tables": tables,
        "write": write,
    }


def best_of(repeats: int, call, arg) -> float:
    call(arg)
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        call(arg)
        best = min(best, perf_counter() - start)
    return best


def command_times(repeats: int) -> list[dict]:
    """Best stage times per case, then ``verify_cz`` whole as the case ``cz-verify``."""
    from qsynth import apps, synth

    out = []
    for i, (name, _, _) in enumerate(cases()):
        if name == "caps":
            continue
        stages = command_stages(*case_input(i), name.startswith("cz-"))
        inputs, value = {}, None
        for stage, call in stages.items():  # each stage's input, computed once
            inputs[stage] = value
            value = call(value)

        def command(_):
            value = None
            for call in stages.values():
                value = call(value)

        times = {stage: best_of(repeats, call, inputs[stage]) for stage, call in stages.items()}
        out.append(dict(times, command=best_of(repeats, command, None)))
    result = synth.synthesize(apps.cz_gate_target())
    out.append({"command": best_of(repeats, apps.verify_cz, result)})
    return out


def worker(src: str, mode: str, index: int, repeats: int) -> None:
    sys.path.insert(0, src)
    from qsynth.sim import fock_evolve

    if mode == "command":
        print(json.dumps({"seconds": command_times(repeats)}))
        return
    if mode == "cold":
        a, occ = case_input(index)
        start = perf_counter()
        state = fock_evolve(a, occ)
        print(json.dumps({"seconds": perf_counter() - start, "outcomes": len(state.amplitudes), "occupation": occ}))
        return
    out = []
    for i in range(len(cases())):
        a, occ = case_input(i)
        fock_evolve(a, occ)
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            fock_evolve(a, occ)
            best = min(best, perf_counter() - start)
        out.append(best)
    print(json.dumps({"seconds": out}))


def run(src: str, mode: str, index: int, repeats: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--worker", src, "--mode", mode, "--case", str(index),
            "--repeats", str(repeats)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="src directory of the parent checkout")
    parser.add_argument("--change", help="src directory of the changed checkout")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=["warm", "cold", "command"], default="warm", help=argparse.SUPPRESS)
    parser.add_argument("--case", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker, args.mode, args.case, args.repeats)
        return
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    names = [c[0] for c in cases()]
    warm = {side: [] for side in sides}
    command = {side: [] for side in sides}
    cold = {side: [[] for _ in names] for side in sides}
    shapes = [None] * len(names)
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            warm[side].append(run(sides[side], "warm", 0, args.repeats)["seconds"])
        for side in order:
            command[side].append(run(sides[side], "command", 0, args.repeats)["seconds"])
        for i in range(len(names)):
            for side in order:
                got = run(sides[side], "cold", i, args.repeats)
                cold[side][i].append(got["seconds"])
                shapes[i] = {"occupation": got["occupation"], "outcomes": got["outcomes"]}

    def summary(samples: list[float]) -> dict:
        return {"median_s": statistics.median(samples), "min_s": min(samples)}

    rows = []
    for i, name in enumerate(names):
        row = {"case": name, **shapes[i]}
        for mode, table in (("warm", {s: [w[i] for w in warm[s]] for s in sides}),
                            ("cold", {s: cold[s][i] for s in sides})):
            row[mode] = {side: summary(table[side]) for side in sides}
            row[mode]["speedup_median"] = row[mode]["parent"]["median_s"] / row[mode]["change"]["median_s"]
        rows.append(row)
    command_names = [name for name in names if name != "caps"] + ["cz-verify"]
    command_rows = []
    for i, name in enumerate(command_names):
        row = {"case": name}
        for stage in STAGES:
            if stage not in command["parent"][0][i]:
                continue
            table = {s: [r[i][stage] for r in command[s]] for s in sides}
            row[stage] = {side: summary(table[side]) for side in sides}
            row[stage]["speedup_median"] = row[stage]["parent"]["median_s"] / row[stage]["change"]["median_s"]
        command_rows.append(row)
    import numpy

    print(json.dumps({
        "rounds": args.rounds, "warm_repeats": args.repeats,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()},
        "cases": rows, "command": command_rows,
    }, indent=1))


if __name__ == "__main__":
    main()
