"""Quantum-walk search on the complete graph under potential-barrier errors.

The package simulates the coined discrete-time walk whose hop is degraded to
cos(phi)*S + i*sin(phi)*I, the phase-matched correction that restores the
sqrt(N) search runtime, the exact 3-dimensional reduced model behind the
analysis, and the continuous-time analogue with its corrected jumping rate.

The top level exports the names the README documents.  Everything else stays
importable from its own module: step and success_probability from
barrierwalk.walk, the 3x3 operators and psi_minus_one from
barrierwalk.reduced, the eta/sigma/runtime formulas from barrierwalk.phases,
the continuous-time helpers from barrierwalk.ctqw, and the CSV writers and
RunSummary, a run's result without its curve, from barrierwalk.experiments.
"""

from .ctqw import CtqwParams, ctqw_success_curve
from .experiments import (
    CtqwSpec,
    ExperimentResult,
    WalkSpec,
    run_experiment,
    run_sweep,
    run_verification,
)
from .phases import BlockedRegimeError, PhasePlan, build_phase_plan
from .reduced import embed, evolve_reduced, project
from .walk import WalkParams, evolve

__version__ = "0.1.0"

__all__ = [
    "BlockedRegimeError",
    "CtqwParams",
    "CtqwSpec",
    "ExperimentResult",
    "PhasePlan",
    "WalkParams",
    "WalkSpec",
    "build_phase_plan",
    "ctqw_success_curve",
    "embed",
    "evolve",
    "evolve_reduced",
    "project",
    "run_experiment",
    "run_sweep",
    "run_verification",
    "__version__",
]
