"""Input pools, operations and independent output checks for each workload.

A pool is a list of :class:`Op`.  It is generated with numpy alone from the
workload seed, before qsynth is imported, and its make-up (shapes, spectrum
kinds, photon numbers, file sets) does not depend on the seed: only the
random entries do.  So every seed does the same amount of work and emits
the same number of netlist elements.

Each op kind has three functions:

* ``run(q, inputs)`` calls into qsynth, looking every name up at call time
  (``q.synth.synthesize``), so the tracer's wrappers are seen;
* ``check(q, inputs, out)`` verifies the output against computations made
  apart from qsynth (:mod:`refs`) and returns an :class:`Outcome`;
* ``digest(q, inputs, out)`` returns a value that later passes must repeat
  exactly, so only the first pass needs the full check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import refs

EPS_SIGMA = 1e-9  # qsynth's default eps_sigma; every op runs with default settings
TOL = 1e-10  # qsynth's default verification tolerance


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


@dataclass
class Op:
    kind: str
    inputs: dict
    # True for the fixed high-gain inputs that the absolute 1e-10
    # quasiunitarity check rejects (qsynth raises SynthesisError on them).
    fault: bool = False


@dataclass
class Outcome:
    elements: int = 0
    block_dev: float = 0.0
    quasi_dev: float = 0.0
    mesh_dev: float = 0.0
    bytes_out: int = 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _within(value: float, bound: float, what: str) -> float:
    _require(value <= bound, f"{what}: deviation {value:.3e} exceeds {bound:.3e}")
    return value


# --- netlist checks shared by the library and CLI paths ----------------------


def check_netlist(net: dict, t: np.ndarray, sigmas, s_program=None) -> Outcome:
    """Multiply the netlist out and compare with ``t`` and with S G S^dag = G.

    ``sigmas`` are the singular values the input was generated with; padding
    channels of a non-square input are exactly 1 and need no ancilla.
    """
    n, m = t.shape
    s = refs.netlist_smatrix(net)
    scale = max(1.0, max(sigmas, default=0.0))
    block = _within(refs.max_dev(s[:n, :m], t), TOL * scale, "block of the netlist product")
    quasi = _within(refs.quasi_deviation(s), TOL * scale * scale, "S G S^dag - G")
    if s_program is not None:
        _within(refs.max_dev(s, s_program), TOL * scale * scale, "netlist product vs returned S_total")

    nominal = net["n_nominal"]
    bs = ps = modulation = 0
    for e in net["elements"]:
        if e["type"] == "ps":
            ps += 1
        elif max(e["modes"]) >= nominal:
            modulation += 1
        else:
            bs += 1
    max_bs, max_ps, max_d = refs.count_bounds(n, m)
    _require(bs <= max_bs and ps <= max_ps and modulation <= max_d,
             f"counts bs={bs} ps={ps} d={modulation} exceed bounds {max_bs}/{max_ps}/{max_d}")
    ancillas = sum(1 for s_ in sigmas if abs(s_ - 1.0) > EPS_SIGMA)
    _require(net["n_modes"] - nominal == ancillas == len(net["full_ancillas"]) == modulation,
             f"{net['n_modes'] - nominal} ancillas for {ancillas} singular values away from 1")
    return Outcome(elements=len(net["elements"]), block_dev=block, quasi_dev=quasi)


def check_mesh(elements: list, u: np.ndarray) -> float:
    """Mesh product equals ``u``; every beam-splitter angle lies in [0, pi/2]."""
    for e in elements:
        if e["type"] == "bs":
            _require(0.0 <= e["theta"] <= math.pi / 2, f"beam splitter angle {e['theta']} outside [0, pi/2]")
    return _within(refs.max_dev(refs.passive_product(elements, u.shape[0]), u), TOL, "mesh product")


# --- library ops -------------------------------------------------------------


def run_synth(q, inp):
    return q.synth.synthesize(inp["t"])


def check_synth(q, inp, out) -> Outcome:
    net = q.blocks.circuit_to_json(out.circuit)
    return check_netlist(net, inp["t"], inp["sigmas"], out.s_total)


def digest_synth(q, inp, out):
    return out.circuit.elements


def run_analytic(q, inp):
    return q.closedform2x2.analytic_synthesize(inp["t"])


def check_analytic(q, inp, out) -> Outcome:
    _, result = out
    return check_netlist(q.blocks.circuit_to_json(result.circuit), inp["t"], inp["sigmas"], result.s_total)


def digest_analytic(q, inp, out):
    return out[1].circuit.elements


def run_unitary_mesh(q, inp):
    return q.mesh.reck_decompose(inp["u"])


def check_unitary_mesh(q, inp, out) -> Outcome:
    els = [q.blocks.element_to_json(e) for e in out]
    return Outcome(elements=len(els), mesh_dev=check_mesh(els, inp["u"]))


def digest_unitary_mesh(q, inp, out):
    return tuple(out)


def run_povm_mesh(q, inp):
    povm = q.apps.RankOnePovm.from_vectors(inp["t"].T)
    extension = q.apps.naimark_extension(povm)
    return extension, q.mesh.reck_decompose(extension)


def check_povm_mesh(q, inp, out) -> Outcome:
    extension, elements = out
    t, psi = inp["t"], inp["psi"]
    rows = _within(refs.max_dev(extension[: t.shape[0]], t), TOL, "Naimark extension's first rows")
    expected = np.abs(t.conj().T @ psi) ** 2
    _within(refs.max_dev(q.apps.povm_probabilities(extension, psi), expected), TOL, "POVM probabilities")
    els = [q.blocks.element_to_json(e) for e in elements]
    return Outcome(elements=len(els), block_dev=rows, mesh_dev=check_mesh(els, extension))


def digest_povm_mesh(q, inp, out):
    return tuple(out[1])


# --- CLI ops -----------------------------------------------------------------


def run_cli(q, inp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = q.cli.main(inp["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, buf.getvalue()


def _cli_texts(inp, out) -> tuple[str, tuple[str, ...]]:
    """Standard output and the contents of the op's output files."""
    code, stdout = out
    _require(code == 0, f"qsynth {' '.join(inp['argv'])} exited with {code}")
    files = []
    for path in inp.get("outputs", ()):
        with open(path, encoding="utf-8") as fh:
            files.append(fh.read())
    return stdout, tuple(files)


def digest_cli(q, inp, out):
    return _cli_texts(inp, out)


def _bytes(stdout: str, files) -> int:
    return len(stdout.encode()) + sum(len(text.encode()) for text in files)


def check_cli(q, inp, out) -> Outcome:
    stdout, files = _cli_texts(inp, out)
    command = inp["argv"][0]
    doc = json.loads(stdout) if stdout else None
    if command == "synth":
        net, report = (json.loads(text) for text in files)
        outcome = check_netlist(net, inp["t"], inp["sigmas"])
        _require(report["block_deviation"] <= TOL and report["quasiunitarity_deviation"] <= TOL,
                 f"report deviations {report['block_deviation']}, {report['quasiunitarity_deviation']}")
        counts = report["counts"]
        _require(sum(counts.values()) == outcome.elements, f"report counts {counts} vs {outcome.elements} elements")
    elif command == "simulate" and inp["mode"] == "moments":
        s = refs.netlist_smatrix(inp["netlist"])
        alpha = np.zeros(inp["netlist"]["n_modes"], dtype=complex)
        alpha[: len(inp["alpha"])] = inp["alpha"]
        expected = (s @ np.concatenate([alpha, alpha.conj()]))[: len(alpha)]
        means = np.array([complex(re, im) for re, im in doc["means"]])
        scale = max(1.0, float(np.max(np.abs(s))))
        outcome = Outcome(block_dev=_within(refs.max_dev(means, expected), TOL * scale, "moment means"))
    elif command == "simulate":
        outcome = _check_fock(inp, doc)
    elif command == "naimark":
        ext = doc["extension"]
        extension = np.array([complex(re, im) for re, im in ext["data"]]).reshape(ext["rows"], ext["cols"])
        t = inp["t"]
        rows = _within(refs.max_dev(extension[: t.shape[0]], t), TOL, "Naimark extension's first rows")
        els = doc["netlist"]["elements"]
        outcome = Outcome(elements=len(els), block_dev=rows, mesh_dev=check_mesh(els, extension))
    elif command == "analytic2x2":
        outcome = check_netlist(doc["netlist"], inp["t"], inp["sigmas"])
    elif command == "cz":
        _require(abs(doc["success_prob"] - 1.0 / 9.0) <= TOL, f"CZ success {doc['success_prob']} != 1/9")
        _require(doc["phase_pattern"] == [-1, 1, 1, 1], f"CZ sign pattern {doc['phase_pattern']}")
        outcome = Outcome(elements=sum(doc["report"]["counts"].values()))
    else:
        raise CheckError(f"no check for command {command!r}")
    outcome.bytes_out = _bytes(stdout, files)
    return outcome


def _check_fock(inp, doc) -> Outcome:
    net = inp["netlist"]
    u = refs.passive_product(net["elements"], net["n_modes"])
    table = doc["outcomes"]
    total = sum(row["prob"] for row in table)
    _within(abs(total - 1.0), TOL, "Fock probabilities sum")
    occ_in = inp["occupation"]
    worst = 0.0
    for row in (table[0], table[len(table) // 2], table[-1]):
        amp = refs.fock_amplitude(u, occ_in, row["occupation"])
        worst = max(worst, abs(complex(row["re"], row["im"]) - amp))
    _within(worst, TOL, "Fock amplitudes vs permanents")
    if "predicate" in inp:
        windows = {int(k): v for k, v in inp["predicate"].items()}
        accepted = [r for r in table if all(lo <= r["occupation"][k] <= hi for k, (lo, hi) in windows.items())]
        _within(abs(doc["success_prob"] - sum(r["prob"] for r in accepted)), TOL, "postselection success")
        _within(abs(sum(r["prob"] for r in doc["postselected"]) - 1.0), TOL, "postselected norm")
    return Outcome(block_dev=worst)


KINDS = {
    "synth": (run_synth, check_synth, digest_synth),
    "analytic": (run_analytic, check_analytic, digest_analytic),
    "unitary_mesh": (run_unitary_mesh, check_unitary_mesh, digest_unitary_mesh),
    "povm_mesh": (run_povm_mesh, check_povm_mesh, digest_povm_mesh),
    "cli": (run_cli, check_cli, digest_cli),
}


# --- pools -------------------------------------------------------------------


def _spectrum(rng, category: str, k: int, odd: bool) -> list[float]:
    """k singular values of one spectrum category; the pattern is seed-independent."""
    u = rng.uniform
    if category == "mixed":
        return [(u(0.1, 0.9), u(1.1, 3.0), 1.0)[i % 3] for i in range(k)]
    if category == "loss":
        return [u(0.05, 0.95) for _ in range(k)]
    if category == "gain":
        return [u(1.05, 4.0) for _ in range(k)]
    if category == "passive":
        return [1.0] * k
    if category == "rank_deficient":
        return [0.0 if i % 2 == 0 else u(0.3, 2.0) for i in range(k)]
    if category == "near_unit":
        # 5e-11 from 1 lies inside eps_sigma and inside the block tolerance;
        # 2e-9 lies just outside eps_sigma and gets an ancilla.
        return [(1 + 5e-11, 1 - 5e-11, 1 + 2e-9, 1 - 2e-9)[i % 4] for i in range(k)]
    if category == "far_scale":
        return [u(1e-8, 1e-6) for _ in range(k)] if odd else [u(20.0, 60.0) for _ in range(k)]
    raise ValueError(category)


SMALL_CATEGORIES = ("mixed", "loss", "gain", "passive", "rank_deficient", "near_unit", "far_scale")


def high_gain_inputs() -> list[dict]:
    """Fixed inputs with sigma_max >= 1e4; they do not depend on the seed."""
    rng = np.random.default_rng(104)
    out = [{"t": np.diag([1e4, 0.5]).astype(complex), "sigmas": [1e4, 0.5]},
           {"t": np.array([[3e4]], dtype=complex), "sigmas": [3e4]}]
    for n, m, sigmas in ((3, 2, [1e5, 0.7]), (4, 4, [5e4, 2.0, 1.0, 0.1])):
        out.append({"t": refs.matrix_with_spectrum(rng, n, m, sigmas), "sigmas": sigmas})
    return out


def _synth_input(rng, n, m, sigmas) -> dict:
    return {"t": refs.matrix_with_spectrum(rng, n, m, sigmas), "sigmas": list(sigmas)}


def pool_synth_large(seed: int, quick: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in ((4, 6) if quick else (20, 24, 24, 24, 28, 28)):
        third = n // 3
        sigmas = [1.0] * third + [rng.uniform(0.2, 0.95) for _ in range(third)]
        sigmas += [rng.uniform(1.05, 3.0) for _ in range(n - 2 * third)]
        ops.append(Op("synth", _synth_input(rng, n, n, sigmas)))
    return ops


def pool_synth_small(seed: int, quick: bool) -> list[Op]:
    """One spectrum kind per shape, taken in turn, plus a 2x2 input of every kind.

    The pool is kept short (a pass takes a fraction of a second), so each
    op is timed many times in a run and its fastest time is steady.
    """
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (2, 2), (3, 2), (2, 3)] if quick else [(n, m) for n in range(1, 9) for m in range(1, 9)]
    kinds = len(SMALL_CATEGORIES)
    ops = []
    for n, m in shapes:
        category = SMALL_CATEGORIES[(n + m) % kinds]
        ops.append(Op("synth", _synth_input(rng, n, m, _spectrum(rng, category, min(n, m), (n + m) % 2 == 1))))
    for category in SMALL_CATEGORIES:
        inp = _synth_input(rng, 2, 2, _spectrum(rng, category, 2, False))
        ops.append(Op("synth", inp))
        # The closed form loses sigma2 = 0 to cancellation (sqrt of a
        # rounding error, ~1e-8) and fails on some seeds, so rank-deficient
        # inputs skip it.
        if category != "rank_deficient":
            ops.append(Op("analytic", inp))
    ops.extend(Op("synth", inp, fault=True) for inp in high_gain_inputs())
    return ops


def pool_mesh_wide(seed: int, quick: bool) -> list[Op]:
    """Unitaries and POVMs of 24-40 modes: the nulling loop's n^2/2 row updates
    dominate at any width, and ops of a few milliseconds are each timed many
    times in a run."""
    rng = np.random.default_rng(seed)
    ops = [Op("unitary_mesh", {"u": refs.haar_unitary(rng, n)}) for n in ((6, 8) if quick else (24, 32, 32, 40))]
    for dim, m in ((2, 5), (3, 6)) if quick else ((2, 24), (3, 32), (4, 32), (6, 40)):
        t = refs.haar_unitary(rng, m)[:dim]
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ops.append(Op("povm_mesh", {"t": t, "psi": psi / np.linalg.norm(psi)}))
    return ops


def _matrix_json(t: np.ndarray) -> dict:
    return {"schema": "qsynth/1", "rows": t.shape[0], "cols": t.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in t.ravel()]}


def _random_mesh(rng, modes, offset: int = 0) -> list[dict]:
    """Full triangular mesh of random phase shifters and beam splitters."""
    els = []
    for c in range(modes - 1):
        for b in range(c + 1, modes):
            els.append({"type": "ps", "mode": c + offset, "phi": float(rng.uniform(-math.pi, math.pi))})
            els.append({"type": "bs", "modes": [c + offset, b + offset], "theta": float(rng.uniform(0.2, 1.3))})
    els += [{"type": "ps", "mode": j + offset, "phi": float(rng.uniform(-math.pi, math.pi))} for j in range(modes)]
    return els


def _netlist(n_nominal: int, ancillas: int, elements: list[dict]) -> dict:
    return {"schema": "qsynth/1", "n_modes": n_nominal + ancillas, "n_nominal": n_nominal,
            "ancilla_inputs": [], "ancilla_outputs": [],
            "full_ancillas": list(range(n_nominal, n_nominal + ancillas)), "elements": elements}


# (modes, input occupation, postselect on modes 0 and 1).  At most 210
# outcomes, so no op takes more than about 15 ms and each is timed hundreds
# of times in a run.
FOCK_CASES = (
    ((4, (1, 1, 0, 0), False), (3, (1, 1, 1), True)),
    ((4, (1, 1, 1, 0), False), (5, (1, 1, 1, 0, 0), True), (6, (1, 1, 1, 1, 0, 0), False),
     (6, (2, 1, 1, 0, 0, 0), True), (5, (1, 1, 1, 1, 1), False), (7, (1, 1, 1, 1, 0, 0, 0), True),
     (8, (1, 1, 1, 0, 0, 0, 0, 0), False), (4, (2, 2, 1, 1), True)),
)


def pool_cli_fock(seed: int, quick: bool, workdir: str) -> list[Op]:
    """CLI calls on files written into ``workdir`` before timing starts."""
    rng = np.random.default_rng(seed)
    ops = []

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def write(name: str, obj) -> str:
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path(name)

    synth_cases = (((2, 2, (0.8, 0.3)), (2, 3, (1.7, 0.5))) if quick else
                   ((2, 2, (0.9, 0.2)), (3, 3, (0.8, 0.6, 0.1)), (3, 2, (2.5, 0.4)), (2, 4, (3.0, 1.5))))
    for i, (n, m, sigmas) in enumerate(synth_cases):
        inp = _synth_input(rng, n, m, sigmas)
        net, rep = path(f"net{i}.json"), path(f"rep{i}.json")
        argv = ["synth", write(f"t{i}.json", _matrix_json(inp["t"])), "--netlist", net, "--report", rep]
        ops.append(Op("cli", dict(inp, argv=argv, outputs=(net, rep))))

    for i, (modes, occupation, postselect) in enumerate(FOCK_CASES[0 if quick else 1]):
        net = _netlist(modes, 0, _random_mesh(rng, modes))
        argv = ["simulate", write(f"passive{i}.json", net), "--input", ",".join(map(str, occupation))]
        inp = {"netlist": net, "occupation": occupation, "mode": "fock", "argv": argv}
        if postselect:
            inp["predicate"] = {"0": [0, 1], "1": [0, 1]}
            argv += ["--predicate", json.dumps(inp["predicate"])]
        ops.append(Op("cli", inp))

    for i, (nominal, ancillas) in enumerate(((2, 1),) if quick else ((3, 2), (4, 3))):
        els = _random_mesh(rng, nominal)
        els += [{"type": "tms", "modes": [j, nominal + j], "xi": float(rng.uniform(0.2, 0.8))} for j in range(ancillas)]
        els += _random_mesh(rng, nominal)
        net = _netlist(nominal, ancillas, els)
        alpha = np.round(rng.normal(size=nominal) + 1j * rng.normal(size=nominal), 6)
        spec = ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in alpha)
        # "--input=" form: argparse would read a leading minus sign as an option.
        argv = ["simulate", write(f"gain{i}.json", net), "--mode", "moments", f"--input={spec}"]
        ops.append(Op("cli", {"netlist": net, "alpha": alpha, "mode": "moments", "argv": argv}))

    for i, (dim, m) in enumerate(((2, 4),) if quick else ((2, 4), (3, 6))):
        t = refs.haar_unitary(rng, m)[:dim]
        povm = {"schema": "qsynth/1", "dim": dim,
                "vectors": [[[float(z.real), float(z.imag)] for z in col] for col in t.T]}
        ops.append(Op("cli", {"t": t, "argv": ["naimark", write(f"povm{i}.json", povm)]}))

    for i, sigmas in enumerate(((0.7, 0.2),) if quick else ((0.7, 0.2), (2.0, 0.5))):
        inp = _synth_input(rng, 2, 2, sigmas)
        ops.append(Op("cli", dict(inp, argv=["analytic2x2", write(f"two{i}.json", _matrix_json(inp["t"]))])))

    ops.append(Op("cli", {"argv": ["cz"]}))
    return ops


WORKLOADS = ("synth-large", "synth-small", "mesh-wide", "cli-fock")


def make_pool(name: str, seed: int, quick: bool, workdir: str) -> list[Op]:
    if name == "synth-large":
        return pool_synth_large(seed, quick)
    if name == "synth-small":
        return pool_synth_small(seed, quick)
    if name == "mesh-wide":
        return pool_mesh_wide(seed, quick)
    if name == "cli-fock":
        return pool_cli_fock(seed, quick, workdir)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
