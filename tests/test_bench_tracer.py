"""The per-layer benchmark wraps qsynth names it looks up by string; they must stay bound."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # The closed form's assembly and check run inside synth.verified, the
    # naimark command reaches reck_decompose through synth.factor_mesh, and the
    # moments mode multiplies S_total's top half in cli.cmd_simulate, so sim has
    # no evolve_moments; only these four names are expected to be missing.
    assert tracer.Tracer().absent == [
        "qsynth.closedform2x2.quasiunitarity_deviation",
        "qsynth.cli.reck_decompose",
        "qsynth.closedform2x2.circuit_smatrix",
        "qsynth.sim.evolve_moments",
    ]
