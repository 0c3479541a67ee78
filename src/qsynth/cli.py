"""Command-line front end: JSON files in, JSON files/stdout out, one compact
JSON document per line.

Each ``cmd_*`` computes and returns its documents as ``{path: payload}`` (``None`` is
stdout); ``main`` hands them to ``_write``, the one writer, and maps errors to exit codes.

Exit codes, one exception type each: 0 success; 2 ``ParseFailure``,
unreadable or malformed input, or unwritable output; 3 ``SynthesisError``,
a failed check of qsynth's own work (the SVD, a unitary it computed, the
assembled network, or the ``cz`` self-check); 4 ``ValueError``, a domain
error (non-passive network in Fock mode, incomplete POVM, empty
postselection, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import os
import re
import stat
import sys

import numpy as np

from . import apps, closedform2x2, sim, synth
from .blocks import SCHEMA, circuit_from_json, circuit_to_json, circuit_smatrix
from .numkit import (TOL, SynthesisError, as_matrix, check_tol, complex_from_json, json_int, matrix_from_json,
                     matrix_to_json)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_DOMAIN = 4


class ParseFailure(Exception):
    """Input file could not be read or decoded, or an output could not be written."""


def _load(path: str, decode):
    """``decode`` of the JSON document in ``path``; a ``ValueError`` it raises is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        return decode(obj)
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _write(docs: dict) -> None:
    """Write all of ``docs`` or none: all are encoded first, one compact line each with ``schema``
    first; each file is written beside its target and renamed onto it only after stdout is written,
    a device or FIFO in place, last."""
    try:
        texts = {path: json.dumps({"schema": SCHEMA, **doc}, allow_nan=False, check_circular=False) + "\n"
                 for path, doc in docs.items()}  # each doc is a tree that qsynth built
    except ValueError as exc:  # NaN or infinity is not JSON
        raise ValueError(f"result is not finite: {exc}") from exc
    stdout = texts.pop(None, "")
    staged, in_place = [], []
    try:
        for shown, text in texts.items():
            mode = os.stat(shown).st_mode if os.path.exists(shown) else None
            if mode is not None and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):  # a device or FIFO
                in_place.append((shown, text))
                continue
            target = os.path.realpath(shown) if os.path.islink(shown) else shown  # a symlink keeps its link
            temp = f"{target}.{os.getpid()}-{len(staged)}.tmp"
            with open(temp, "x", encoding="utf-8") as fh:  # a new file gets its mode from the umask
                staged.append((shown, temp, target))
                fh.write(text)
            if mode is not None:
                open(shown, "a").close()  # fails where open(shown, "w") would: a directory, a read-only file
                os.chmod(temp, stat.S_IMODE(mode))
        shown = "stdout"
        print(stdout, end="", flush=True)  # a full device fails here, not at interpreter exit
        for shown, temp, target in staged:
            with contextlib.suppress(FileNotFoundError):  # ext4 flushes the new data on a rename over a file
                os.unlink(target)
            os.replace(temp, target)
        for shown, text in in_place:
            with open(shown, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        for _, temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        if exc.filename is not None:  # name the target, never a temporary file
            exc = type(exc)(exc.errno, exc.strerror, shown)
        raise ParseFailure(f"cannot write {shown}: {exc}") from exc


def _stdout_alias(path: str) -> str | None:
    """The argparse type of every output path: ``None`` (stdout) for ``-`` or a path that names the file
    open as stdout (``/dev/stdout``), else ``path``."""
    if path == "-":
        return None
    try:  # no stat of path unless stdout has a file descriptor
        return None if os.path.samestat(os.fstat(sys.stdout.fileno()), os.stat(path)) else path
    except (AttributeError, OSError, ValueError):  # no descriptor, or no such path
        return path


def cmd_synth(args) -> dict:
    """Compile a matrix file into a netlist plus a verification report (one document if both go to stdout)."""
    paths = [args.netlist, args.report]
    files = [os.path.realpath(p) for p in paths
             if p is not None and (os.path.isfile(p) or not os.path.exists(p))]  # a device may take both
    if len(files) == 2 and files[0] == files[1]:  # one document would overwrite the other
        raise ParseFailure(f"--netlist {args.netlist} and --report {args.report} are the same file")
    result = synth.synthesize(_load(args.matrix, matrix_from_json), args.tol)
    netlist = circuit_to_json(result.circuit)
    report = synth.verification_report(result)
    if paths == [None, None]:
        return {None: {"netlist": netlist, "report": report}}
    return dict(zip(paths, (netlist, report)))


def cmd_simulate(args) -> dict:
    """Run a netlist: exact Fock statistics (passive only) or the output means of a coherent input, the top
    half of ``S_total`` times ``(alpha, alpha*)``; arguments are parsed first."""
    circuit = _load(args.netlist, circuit_from_json)
    n = circuit.n_modes
    if args.mode == "moments":
        alpha = np.array(_parse_list(args.input, n, _amplitudes, "amplitude list", "has"), dtype=complex)
    else:
        occupation = tuple(_parse_list(args.input, n, _counts, "occupation", "lists"))
        predicate = _parse_predicate(args.predicate, n)
        sim.check_fock_modes(n)  # before the product, which an over-wide netlist would only waste
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product fails in as_matrix, means in _write
        top = circuit_smatrix(circuit)
        if args.mode == "moments":
            means = as_matrix(top, "s_total") @ np.concatenate((alpha, alpha.conj()))
            return {None: {"means": [[float(z.real), float(z.imag)] for z in means]}}

    block = sim.passive_block(top, args.tol)
    state = sim.fock_evolve(block, occupation, args.tol)
    payload = {"outcomes": _outcome_table(state)}
    if predicate is not None:
        conditioned, success = sim.postselect(state, predicate(state.occupations))
        payload["success_prob"] = success
        payload["postselected"] = _outcome_table(conditioned)
    return {None: payload}


def _outcome_table(state: sim.FockState) -> list[dict]:
    """One row per outcome, in the state's sorted order; ``prob`` is ``hypot(re, im) ** 2`` in Python floats."""
    re, im = state.amplitudes.real, state.amplitudes.imag
    return [{"occupation": occ, "re": x, "im": y, "prob": h ** 2}
            for occ, x, y, h in zip(state.occupations.tolist(), re.tolist(), im.tolist(), np.hypot(re, im).tolist())]


_COUNT = re.compile(r"[0-9]+")
_MODE = re.compile(r"-?[0-9]+")


def _parse_list(spec: str, n_modes: int, parse, noun: str, verb: str) -> list:
    """Comma-separated items, stripped and ``parse``d, at most ``n_modes`` of them, padded with zeros."""
    try:
        values = parse([x.strip() for x in spec.split(",")])
    except ValueError as exc:
        raise ParseFailure(f"bad {noun} {spec!r}: {exc}") from exc
    if len(values) > n_modes:
        raise ParseFailure(f"{noun} {verb} {len(values)} modes, netlist has {n_modes}")
    return values + [0] * (n_modes - len(values))


def _counts(items: list[str]) -> list[int]:
    """Photon counts: non-negative decimal integers only (``int`` would take ``1_0``)."""
    if not all(map(_COUNT.fullmatch, items)):
        raise ValueError("counts must be non-negative decimal integers")
    return [int(x) for x in items]


def _amplitudes(items: list[str]) -> list[complex]:
    """Finite complex amplitudes, ``i`` or ``j`` imaginary, without ``_`` (``complex`` would read ``1_0`` as 10)."""
    if any("_" in x for x in items):
        raise ValueError("amplitudes must not contain '_'")
    values = [complex(x.replace("i", "j")) for x in items]
    if not all(map(cmath.isfinite, values)):
        raise ValueError("amplitudes must be finite")
    return values


def _parse_predicate(spec: str | None, n_modes: int):
    """Per-mode photon-count windows (JSON mode -> [min, max], JSON integers) as a mask function of occupation rows."""
    if spec is None:
        return None
    try:
        obj = json.loads(spec)
        windows = {}
        for mode, window in obj.items():
            if not _MODE.fullmatch(mode) or not isinstance(window, list):
                raise ValueError(f"want a decimal mode and a [min, max] list, got {mode!r}: {window!r}")
            lo, hi = (json_int(x, f"the window of mode {mode}") for x in window)
            windows[int(mode)] = (lo, hi)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad predicate {spec!r}: {exc}") from exc
    for mode in windows:
        if not 0 <= mode < n_modes:
            raise ParseFailure(f"predicate mode {mode} outside 0..{n_modes - 1}")
    # A bound past the int64 range makes an object array, which still compares exactly.
    modes, (lo, hi) = list(windows), np.array(list(windows.values())).reshape(-1, 2).T
    return lambda occ: ((lo <= occ[:, modes]) & (occ[:, modes] <= hi)).all(axis=1)


def _povm_rows(obj):
    """The POVM document, its key and its decoded rows ([re, im] pairs nested 2 or 3 deep)."""
    for key, depth in (("vectors", 2), ("operators", 3)):
        if key in obj:
            return obj, key, complex_from_json(obj[key], depth)
    raise ValueError("POVM JSON needs 'vectors' or 'operators'")


def cmd_naimark(args) -> dict:
    """POVM JSON -> extension unitary plus its mesh netlist, verified against the POVM rows."""
    try:
        obj, key, rows = _load(args.povm, _povm_rows)
        povm = (apps.RankOnePovm.from_vectors(rows) if key == "vectors"
                else apps.RankOnePovm.from_operators(rows, args.tol))
        if json_int(obj.get("dim", povm.dim), "dim") != povm.dim:
            raise ParseFailure(f"{args.povm}: declared dim {obj['dim']} != vector length {povm.dim}")
    except (TypeError, KeyError) as exc:
        raise ParseFailure(f"{args.povm}: malformed POVM JSON: {exc}") from exc

    extension = apps.naimark_extension(povm, args.tol)
    # One passive mesh whose first dim rows hold the POVM; outputs dim..m-1 are ancillas.
    elements = synth.factor_mesh("Naimark extension", extension, args.tol)
    result = synth.verified(povm.matrix, (1.0,) * povm.dim, (), elements, args.tol)
    return {args.out: {"extension": matrix_to_json(extension), "netlist": circuit_to_json(result.circuit)}}


def cmd_analytic2x2(args) -> dict:
    """Closed-form decomposition of a 2x2 matrix file."""
    params, result = closedform2x2.analytic_synthesize(_load(args.matrix, matrix_from_json), args.tol)
    return {args.out: {
        "params": {**params, "schema": SCHEMA},
        "netlist": circuit_to_json(result.circuit),
        "report": synth.verification_report(result),
    }}


def cmd_cz(args) -> dict:
    """Synthesize the postselected controlled-Z network and report its checks."""
    result = synth.synthesize(apps.cz_gate_target(), args.tol)
    return {None: {
        **apps.verify_cz(result, args.tol),
        "singular_values": list(result.singulars),
        "n_full_ancillas": len(result.circuit.full_ancillas),
        "report": synth.verification_report(result),
    }}


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
    p.add_argument("--netlist", type=_stdout_alias, default=None, help="output netlist path (default: stdout)")
    p.add_argument("--report", type=_stdout_alias, default=None, help="output report path (default: stdout)")
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("simulate", help="run a netlist on a Fock or coherent input")
    p.add_argument("netlist", help="netlist JSON file")
    p.add_argument("--input", required=True, help="comma-separated occupation (fock) or amplitudes (moments)")
    p.add_argument("--mode", choices=["fock", "moments"], default="fock")
    p.add_argument("--predicate", default=None, help='postselection windows, e.g. {"0": [1, 1]}')
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("naimark", help="POVM JSON -> extension unitary + netlist")
    p.add_argument("povm", help="POVM JSON file")
    p.add_argument("--out", type=_stdout_alias, default=None, help="output path (default: stdout)")
    p.set_defaults(run=cmd_naimark)

    p = sub.add_parser("analytic2x2", help="closed-form decomposition of a 2x2 matrix file")
    p.add_argument("matrix", help="input matrix JSON file")
    p.add_argument("--out", type=_stdout_alias, default=None, help="output path (default: stdout)")
    p.set_defaults(run=cmd_analytic2x2)

    sub.add_parser("cz", help="verify the postselected controlled-Z construction").set_defaults(run=cmd_cz)
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
        check_tol(args.tol)
        _write(args.run(args))
        return EXIT_OK
    except (ParseFailure, SynthesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseFailure):
            return EXIT_PARSE
        return EXIT_DOMAIN if isinstance(exc, ValueError) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
