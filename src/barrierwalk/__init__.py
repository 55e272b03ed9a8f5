"""Quantum-walk search on the complete graph under potential-barrier errors.

The package simulates the coined discrete-time walk whose hop is degraded to
cos(phi)*S + i*sin(phi)*I, the phase-matched correction that restores the
sqrt(N) search runtime, the exact 3-dimensional reduced model behind the
analysis, and the continuous-time analogue with its corrected jumping rate.
"""

from .ctqw import (
    CtqwParams,
    corrected_gamma,
    ctqw_runtime,
    ctqw_success_curve,
    ctqw_success_probability,
)
from .experiments import (
    CtqwSpec,
    ExperimentResult,
    WalkSpec,
    phi_from_beta,
    run_experiment,
    run_sweep,
    run_verification,
)
from .phases import (
    BlockedRegimeError,
    PhasePlan,
    blocking_regime_runtime,
    build_phase_plan,
    corrected_eta,
    hoyer_residual,
    overlap_angle,
    rotation_angle_sigma,
    runtime_large_n,
    runtime_t_star,
    runtime_t_star_exact,
)
from .reduced import (
    ReducedOperators,
    build_reduced_operators,
    embed,
    evolve_reduced,
    project,
    psi_minus_one,
    reduced_initial_state,
    s_and_w_states,
    s_perp_state,
    w_perp_state,
)
from .walk import (
    WalkParams,
    apply_coin,
    apply_lazy_shift,
    apply_oracle,
    evolve,
    initial_state,
    step,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BlockedRegimeError",
    "CtqwParams",
    "CtqwSpec",
    "ExperimentResult",
    "PhasePlan",
    "ReducedOperators",
    "WalkParams",
    "WalkSpec",
    "apply_coin",
    "apply_lazy_shift",
    "apply_oracle",
    "blocking_regime_runtime",
    "build_phase_plan",
    "build_reduced_operators",
    "corrected_eta",
    "corrected_gamma",
    "ctqw_runtime",
    "ctqw_success_curve",
    "ctqw_success_probability",
    "embed",
    "evolve",
    "evolve_reduced",
    "hoyer_residual",
    "initial_state",
    "overlap_angle",
    "phi_from_beta",
    "project",
    "psi_minus_one",
    "reduced_initial_state",
    "rotation_angle_sigma",
    "run_experiment",
    "run_sweep",
    "run_verification",
    "runtime_large_n",
    "runtime_t_star",
    "runtime_t_star_exact",
    "s_and_w_states",
    "s_perp_state",
    "step",
    "success_probability",
    "w_perp_state",
    "__version__",
]
