"""Spans around calls into qsynth's layers, recorded from outside the package.

Each traced name is replaced, for the length of a traced pass, by a wrapper
in the module where its caller looks it up (``qsynth.synth.circuit_smatrix``
is what ``synthesize`` calls; ``qsynth.cli.reck_decompose`` is what the
``naimark`` command calls).  Spans stay in memory; self times come from them
after the run.  A name that no longer exists is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _len_result(args, out) -> int:
    return len(out)


def _len_circuit(args, out) -> int:
    return len(getattr(args[0], "elements", ()))


def _len_amplitudes(args, out) -> int:
    return len(out.amplitudes)


# (module where the caller looks the name up, name, layer, count of work done)
TRACED = (
    ("qsynth.synth", "synthesize", "synth.synthesize", None),
    ("qsynth.synth", "svd", "numkit.svd", None),
    ("qsynth.apps", "svd", "numkit.svd", None),
    ("qsynth.synth", "quasiunitarity_deviation", "numkit.quasiunitarity_deviation", None),
    ("qsynth.closedform2x2", "quasiunitarity_deviation", "numkit.quasiunitarity_deviation", None),
    ("qsynth.cli", "matrix_from_json", "numkit.json", None),
    ("qsynth.cli", "matrix_to_json", "numkit.json", None),
    ("qsynth.mesh", "reck_decompose", "mesh.reck_decompose", _len_result),
    ("qsynth.cli", "reck_decompose", "mesh.reck_decompose", _len_result),
    ("qsynth.synth", "circuit_smatrix", "blocks.circuit_smatrix", _len_circuit),
    ("qsynth.closedform2x2", "circuit_smatrix", "blocks.circuit_smatrix", _len_circuit),
    ("qsynth.cli", "circuit_smatrix", "blocks.circuit_smatrix", _len_circuit),
    ("qsynth.cli", "circuit_from_json", "blocks.json", None),
    ("qsynth.cli", "circuit_to_json", "blocks.json", None),
    ("qsynth.closedform2x2", "analytic_synthesize", "closedform2x2.analytic_synthesize", None),
    ("qsynth.apps", "naimark_extension", "apps.naimark_extension", None),
    ("qsynth.apps", "verify_cz", "apps.verify_cz", None),
    ("qsynth.sim", "fock_evolve", "sim.fock_evolve", _len_amplitudes),
    ("qsynth.apps", "fock_evolve", "sim.fock_evolve", _len_amplitudes),
    ("qsynth.sim", "evolve_moments", "sim.evolve_moments", None),
    ("qsynth.cli", "main", "cli.main", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TRACED))


class Tracer:
    """Installs wrappers on :data:`TRACED` and keeps one span per wrapped call.

    A span is ``(op, layer, parent, start, end, count)``; ``parent`` is the
    index of the enclosing span or -1, and spans of one operation share ``op``.
    """

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._wrappers: dict = {}
        for module_name, name, layer, count in TRACED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{name}")
                continue
            self._wrappers[(module, name)] = (original, self._wrap(original, layer, count))

    def _wrap(self, fn, layer: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                work = count(args, out) if count is not None and out is not None else 0
                spans[index] = (self.op, layer, parent, start, end, work)

        return traced

    def install(self) -> None:
        for (module, name), (_, wrapper) in self._wrappers.items():
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for (module, name), (original, _) in self._wrappers.items():
            setattr(module, name, original)

    def layer_totals(self) -> dict:
        """Per layer: calls, summed self time and summed work count."""
        child_time = defaultdict(float)
        for op, layer, parent, start, end, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0, "work": 0} for layer in LAYERS}
        for index, (op, layer, parent, start, end, work) in enumerate(self.spans):
            entry = totals[layer]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            entry["work"] += work
        return totals
