"""Command-line front end: JSON files in, JSON files/stdout out, one compact
JSON document per line.

Exit codes: 0 success, 2 unreadable or malformed input, or unwritable
output, 3 verification failure, 4 domain error (non-passive network in Fock
mode, incomplete POVM, empty postselection, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import operator
import re
import sys

import numpy as np

from . import apps, closedform2x2, sim, synth
from .blocks import SCHEMA, Circuit, circuit_from_json, circuit_to_json, circuit_smatrix
from .mesh import NotUnitaryError, reck_decompose
from .numkit import TOL, DecompositionError, complex_from_json, matrix_from_json, matrix_to_json
from .sim import NotPassiveError
from .synth import SynthesisError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_DOMAIN = 4


class ParseFailure(Exception):
    """Input file could not be read or decoded."""


class WriteFailure(Exception):
    """Output could not be written."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    obj = _load_json(path)
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _write_json(path: str | None, payload: dict) -> None:
    """One compact line per document: without ``indent``, ``json`` uses its C encoder."""
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:  # NaN or infinity is not JSON
        raise ValueError(f"result is not finite: {exc}") from exc
    try:
        if path is None or path == "-":
            print(text)
            sys.stdout.flush()  # a full device fails here, not at interpreter exit
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        raise WriteFailure(f"cannot write {path or 'stdout'}: {exc}") from exc


def cmd_synth(matrix_file: str, out_netlist: str | None, out_report: str | None, tol: float) -> int:
    """Compile a matrix file into a netlist plus a verification report (one document if both go to stdout)."""
    t = _load_matrix(matrix_file)
    result = synth.synthesize(t, tol)
    netlist = circuit_to_json(result.circuit)
    report = synth.verification_report(result)
    if out_netlist in (None, "-") and out_report in (None, "-"):
        _write_json(None, {"schema": SCHEMA, "netlist": netlist, "report": report})
    else:
        _write_json(out_netlist, netlist)
        _write_json(out_report, report)
    return EXIT_OK


def cmd_simulate(
    netlist_file: str,
    input_spec: str,
    predicate_spec: str | None,
    mode: str,
    tol: float,
) -> int:
    """Run a netlist: exact Fock statistics (passive only) or moment propagation."""
    netlist = _load_json(netlist_file)
    try:
        circuit = circuit_from_json(netlist)
    except ValueError as exc:
        raise ParseFailure(f"{netlist_file}: {exc}") from exc
    s_total = circuit_smatrix(circuit)

    if mode == "moments":
        alpha = _parse_complex_list(input_spec, circuit.n_modes)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails in _write_json
            moments = sim.evolve_moments(s_total, sim.coherent_moments(alpha))
        means = moments.mean[: circuit.n_modes]
        _write_json(None, {
            "schema": SCHEMA,
            "means": [[float(z.real), float(z.imag)] for z in means],
        })
        return EXIT_OK

    occupation = _parse_occupation(input_spec, circuit.n_modes)
    predicate = _parse_predicate(predicate_spec, circuit.n_modes)
    block = sim.passive_block(s_total, tol)
    state = sim.fock_evolve(block, occupation, tol)
    payload = {"schema": SCHEMA, "outcomes": _outcome_table(state)}
    if predicate is not None:
        conditioned, success = sim.postselect(state, predicate)
        payload["success_prob"] = success
        payload["postselected"] = _outcome_table(conditioned)
    _write_json(None, payload)
    return EXIT_OK


def _outcome_table(state: sim.FockState) -> list[dict]:
    rows = []
    for occ in sorted(state.amplitudes):
        amp = state.amplitudes[occ]
        rows.append(
            {
                "occupation": list(occ),
                "re": float(amp.real),
                "im": float(amp.imag),
                "prob": float(abs(amp) ** 2),
            }
        )
    return rows


_COUNT = re.compile(r"[0-9]+")
_MODE = re.compile(r"-?[0-9]+")


def _parse_occupation(spec: str, n_modes: int) -> tuple[int, ...]:
    """Comma-separated photon counts: non-negative decimal integers only (``int`` would take ``1_0``)."""
    counts = [x.strip() for x in spec.split(",")]
    if not all(map(_COUNT.fullmatch, counts)):
        raise ParseFailure(f"bad occupation {spec!r}: counts must be non-negative decimal integers")
    if len(counts) > n_modes:
        raise ParseFailure(f"occupation lists {len(counts)} modes, netlist has {n_modes}")
    return tuple(map(int, counts)) + (0,) * (n_modes - len(counts))


def _parse_complex_list(spec: str, n_modes: int) -> np.ndarray:
    try:
        values = [complex(x.strip().replace("i", "j")) for x in spec.split(",")]
    except ValueError as exc:
        raise ParseFailure(f"bad amplitude list {spec!r}: {exc}") from exc
    if not all(map(cmath.isfinite, values)):
        raise ParseFailure(f"bad amplitude list {spec!r}: amplitudes must be finite")
    if len(values) > n_modes:
        raise ParseFailure(f"amplitude list has {len(values)} modes, netlist has {n_modes}")
    out = np.zeros(n_modes, dtype=complex)
    out[: len(values)] = values
    return out


def _parse_predicate(spec: str | None, n_modes: int):
    """Per-mode photon-count windows: JSON object mode -> [min, max], both JSON integers."""
    if spec is None:
        return None
    try:
        obj = json.loads(spec)
        windows = {}
        for mode, window in obj.items():
            if not _MODE.fullmatch(mode) or not isinstance(window, list):
                raise ValueError(f"want a decimal mode and a [min, max] list, got {mode!r}: {window!r}")
            lo, hi = map(operator.index, window)
            windows[int(mode)] = (lo, hi)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad predicate {spec!r}: {exc}") from exc
    for mode in windows:
        if not 0 <= mode < n_modes:
            raise ParseFailure(f"predicate mode {mode} outside 0..{n_modes - 1}")

    def predicate(occ: tuple[int, ...]) -> bool:
        return all(lo <= occ[mode] <= hi for mode, (lo, hi) in windows.items())

    return predicate


def _pairs(data, depth: int, path: str):
    try:
        return complex_from_json(data, depth)
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def cmd_naimark(povm_file: str, out: str | None, tol: float) -> int:
    """POVM JSON -> extension unitary plus its mesh netlist."""
    obj = _load_json(povm_file)
    try:
        if "vectors" in obj:
            povm = apps.RankOnePovm.from_vectors(_pairs(obj["vectors"], 2, povm_file))
        elif "operators" in obj:
            povm = apps.RankOnePovm.from_operators(_pairs(obj["operators"], 3, povm_file), tol)
        else:
            raise ParseFailure(f"{povm_file}: POVM JSON needs 'vectors' or 'operators'")
        if operator.index(obj.get("dim", povm.dim)) != povm.dim:
            raise ParseFailure(f"{povm_file}: declared dim {obj['dim']} != vector length {povm.dim}")
    except (TypeError, KeyError) as exc:
        raise ParseFailure(f"{povm_file}: malformed POVM JSON: {exc}") from exc

    extension = apps.naimark_extension(povm, tol)
    elements = reck_decompose(extension, tol)
    m = extension.shape[0]
    circuit = Circuit(
        n_modes=m,
        n_nominal=m,
        elements=tuple(elements),
        ancilla_outputs=tuple(range(povm.dim, m)),
    )
    _write_json(out, {
        "schema": SCHEMA,
        "extension": matrix_to_json(extension),
        "netlist": circuit_to_json(circuit),
    })
    return EXIT_OK


def cmd_analytic2x2(matrix_file: str, out: str | None, tol: float) -> int:
    """Closed-form decomposition of a 2x2 matrix file."""
    t = _load_matrix(matrix_file)
    params, result = closedform2x2.analytic_synthesize(t, tol)
    _write_json(out, {
        "schema": SCHEMA,
        "params": closedform2x2.params_to_json(params),
        "netlist": circuit_to_json(result.circuit),
        "report": synth.verification_report(result),
    })
    return EXIT_OK


def cmd_cz(tol: float) -> int:
    """Synthesize the postselected controlled-Z network and report its checks."""
    result = synth.synthesize(apps.cz_gate_target(), tol)
    verification = apps.verify_cz(result, tol)
    _write_json(None, {
        "schema": SCHEMA,
        "success_prob": verification.success_prob,
        "success_probs": verification.success_probs,
        "phase_pattern": list(verification.phase_pattern),
        "amplitudes": {
            label: [float(a.real), float(a.imag)] for label, a in verification.amplitudes.items()
        },
        "singular_values": list(result.singulars),
        "n_full_ancillas": len(result.circuit.full_ancillas),
        "report": synth.verification_report(result),
    })
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``main`` reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="qsynth",
        description="Compile linear optical transformations with loss and gain into element netlists.",
    )
    parser.add_argument("--tol", type=float, default=TOL, help="verification tolerance and ancilla threshold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="matrix JSON -> netlist + verification report")
    p.add_argument("matrix", help="input matrix JSON file")
    p.add_argument("--netlist", default=None, help="output netlist path (default: stdout)")
    p.add_argument("--report", default=None, help="output report path (default: stdout)")

    p = sub.add_parser("simulate", help="run a netlist on a Fock or coherent input")
    p.add_argument("netlist", help="netlist JSON file")
    p.add_argument("--input", required=True, help="comma-separated occupation (fock) or amplitudes (moments)")
    p.add_argument("--mode", choices=["fock", "moments"], default="fock")
    p.add_argument("--predicate", default=None, help='postselection windows, e.g. {"0": [1, 1]}')

    p = sub.add_parser("naimark", help="POVM JSON -> extension unitary + netlist")
    p.add_argument("povm", help="POVM JSON file")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("analytic2x2", help="closed-form decomposition of a 2x2 matrix file")
    p.add_argument("matrix", help="input matrix JSON file")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    sub.add_parser("cz", help="verify the postselected controlled-Z construction")
    return parser


def _join_input_value(argv: list[str]) -> list[str]:
    """``--input -0.4,0.3`` -> ``--input=-0.4,0.3``: argparse takes a lone ``-0.4,0.3`` for an option."""
    if "--input" not in argv[:-1]:
        return argv
    i = argv.index("--input")
    return [*argv[:i], f"--input={argv[i + 1]}", *argv[i + 2:]]


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_input_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        if not 0 < args.tol < 1:  # also rejects NaN
            raise ValueError(f"tol must be positive and below 1, got {args.tol}")
        if args.command == "synth":
            return cmd_synth(args.matrix, args.netlist, args.report, args.tol)
        if args.command == "simulate":
            return cmd_simulate(args.netlist, args.input, args.predicate, args.mode, args.tol)
        if args.command == "naimark":
            return cmd_naimark(args.povm, args.out, args.tol)
        if args.command == "analytic2x2":
            return cmd_analytic2x2(args.matrix, args.out, args.tol)
        if args.command == "cz":
            return cmd_cz(args.tol)
        raise AssertionError(f"unhandled command {args.command}")
    except (ParseFailure, WriteFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SynthesisError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (NotPassiveError, NotUnitaryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
