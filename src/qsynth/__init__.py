"""qsynth: compile arbitrary linear optical transformations, including loss
and gain, into quasiunitary networks of phase shifters, beam splitters, and
two-mode squeezers, then verify the construction by property checks and
few-photon simulation."""

from .blocks import Circuit, Elements, circuit_from_json, circuit_smatrix, circuit_to_json
from .closedform2x2 import analytic_params, analytic_synthesize
from .mesh import NotUnitaryError, reck_decompose
from .numkit import matrix_from_json, matrix_to_json, quasiunitarity_deviation, svd
from .apps import RankOnePovm, cz_gate_target, naimark_extension, povm_probabilities, verify_cz
from .sim import FockState, NotPassiveError, fock_evolve, passive_block, postselect
from .synth import SynthesisError, SynthesisResult, couplings, synthesize, verification_report

__version__ = "0.1.0"
