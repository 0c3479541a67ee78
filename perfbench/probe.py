"""Set-up probe: import qsynth from ``<checkout>/src`` and make one warm-up call.

Run as ``python3 perfbench/probe.py <workload>`` in a fresh interpreter; it
prints the seconds from before the import to after the warm-up.  ``run.py``
imports it for :func:`import_qsynth` and :func:`warm_up`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def import_qsynth():
    """Import qsynth from the checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import qsynth

    if not Path(qsynth.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qsynth was imported from {qsynth.__file__}, not from {SRC}")
    return qsynth


def warm_up(workload: str) -> None:
    """One call of the workload's kind on a fixed input outside every pool."""
    import qsynth

    if workload == "cli-fock":
        import contextlib
        import io

        import qsynth.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = qsynth.cli.main(["cz"])
        if code != 0:
            raise RuntimeError(f"warm-up 'qsynth cz' exited with {code}")
    elif workload == "mesh-wide":
        import numpy as np

        dft = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
        povm = qsynth.RankOnePovm.from_vectors(dft[:2].T)
        qsynth.reck_decompose(qsynth.naimark_extension(povm))
    else:
        qsynth.synthesize([[0.6, 0.3j, 0.1], [0.2, 1.4, -0.5]])


if __name__ == "__main__":
    start = perf_counter()
    import_qsynth()
    warm_up(sys.argv[1])
    print(perf_counter() - start)
