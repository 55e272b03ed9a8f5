"""Experiment drivers: simulation specs, CSV emission, sweeps, verification.

This layer glues the physics modules together behind declarative specs so
that the command-line interface stays thin.  Everything here is pure except
the CSV writers, which take an open text file; byte-identical output for
identical specs is a hard requirement (golden tests diff these files), so
all floats are rendered with a fixed 12-significant-digit format.

The two walk families take different knobs, so each has its own spec.
Discrete-time runs (WalkSpec) take the barrier as the magnitude beta of the
staying amplitude (phi = arcsin(beta); the phase i is implicit), matching
how the curves are usually labeled.  Continuous-time runs (CtqwSpec) take it
as the hop attenuation epsilon instead.  Each spec computes its own curve()
and carries its own CSV and summary wording, so run_experiment, summary_line
and write_curve_csv treat both alike.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .ctqw import CtqwParams, ctqw_runtime, ctqw_success_curve
from .phases import (
    BlockedRegimeError,
    PhasePlan,
    _check_steps,
    _scaled_hoyer_residual,
    build_phase_plan,
    runtime_t_star_exact,
)
from .reduced import (
    build_reduced_operators,
    evolve_reduced,
    project,
    psi_minus_one,
    symmetry_classes,
)
from .walk import (
    WalkParams,
    _THREADS,
    _norm,
    evolve,
    initial_state,
    step,
    success_probability,
)

__all__ = [
    "DEFAULT_MAX_FULL_N",
    "VERIFY_DEFAULT_NS",
    "VERIFY_DEFAULT_PHIS",
    "WalkSpec",
    "CtqwSpec",
    "ExperimentResult",
    "SweepRow",
    "CheckResult",
    "phi_from_beta",
    "engine_for",
    "run_experiment",
    "summary_line",
    "write_curve_csv",
    "run_sweep",
    "write_sweep_csv",
    "run_verification",
]

# Full-space states above this N cost >16.8M complex amplitudes (268 MB);
# the full engine holds about one state, so the cap bounds its memory to
# about that.  Default to the reduced model beyond it unless the caller
# raises the cap explicitly.
DEFAULT_MAX_FULL_N = 4096

VERIFY_DEFAULT_NS = (4, 16, 64)
VERIFY_DEFAULT_PHIS = (0.0, 0.3, math.asin(0.8))

_FLOAT_FMT = ".12g"


def phi_from_beta(beta: float) -> float:
    """Barrier phase for a staying amplitude of magnitude beta (-0 reads as 0)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return math.asin(beta) + 0.0


def engine_for(n_vertices: int, max_full_n: int) -> str:
    """Discrete-walk engine for N: dtqw-full up to the cap, dtqw-reduced above."""
    return "dtqw-full" if n_vertices <= max_full_n else "dtqw-reduced"


@dataclass(frozen=True)
class WalkSpec:
    """Declarative description of one discrete-time walk run.

    mode selects the engine: dtqw-full (statevector) or dtqw-reduced (3x3
    model, same numbers to 1e-10).  corrected applies the phase-matched eta.
    Unset steps picks a window wide enough to contain the first success peak.
    """

    # Wording of the CSV header and summary line.  x_format is a %-format:
    # "%d" prints every digit of a whole number, int or float alike.
    x_name = "step"
    x_format = "%d"
    prediction = "predicted t* = "
    no_prediction = "no runtime prediction for an uncorrected barrier"

    n_vertices: int
    beta: float = 0.0
    corrected: bool = False
    steps: int | None = None
    marked: int = 0
    mode: str = "dtqw-full"

    def __post_init__(self) -> None:
        if self.mode not in ("dtqw-full", "dtqw-reduced"):
            raise ValueError(
                f"mode must be dtqw-full or dtqw-reduced, got {self.mode!r}"
            )
        if self.steps is not None:
            _check_steps(self.steps)
        if self.corrected and self.beta == 1.0:
            raise BlockedRegimeError(
                "beta = 1 blocks every hop; the corrected walk does not exist"
            )
        self.params()  # WalkParams checks N, beta (as phi) and marked

    @property
    def phi(self) -> float:
        return phi_from_beta(self.beta)

    @property
    def plan(self) -> PhasePlan:
        """The PhasePlan for (N, phi) that eta, the step window and t* come from."""
        return build_phase_plan(self.n_vertices, self.phi)

    @property
    def eta(self) -> float:
        """Coin/oracle phase the run will use."""
        return self.plan.eta if self.corrected else 0.0

    def params(self) -> WalkParams:
        return WalkParams(self.n_vertices, self.phi, self.eta, self.marked)

    def resolved_steps(self) -> int:
        """Step count, defaulting to a window that contains the first peak."""
        if self.steps is not None:
            return self.steps
        if self.corrected:
            # 1.35x the predicted peak: past the peak, short of the second hump.
            return math.ceil(1.35 * self.plan.t_star_exact)
        # Uncorrected peaks drift later as beta grows; 2.8x the error-free
        # runtime covers the first hump for the mild barriers of interest.
        return math.ceil(2.8 * runtime_t_star_exact(0.0, self.n_vertices))

    def predicted_peak(self) -> float | None:
        """Phase-matched t*; None for an uncorrected barrier."""
        if self.corrected or self.beta == 0.0:
            return float(self.plan.t_star)
        return None

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Step indices 0..steps and the success probability after each."""
        steps = self.resolved_steps()
        if self.mode == "dtqw-full":
            probs = evolve(self.params(), steps)
        else:
            # The reduced model is marked-agnostic: vertex-transitivity makes
            # every choice of marked vertex give the same curve.
            probs = evolve_reduced(self.n_vertices, self.phi, self.eta, steps)
        return np.arange(steps + 1), probs


@dataclass(frozen=True)
class CtqwSpec:
    """Declarative description of one continuous-time walk run.

    corrected uses the rate 1/(N(1-epsilon)) that undoes the attenuation;
    otherwise gamma is the rate, 1/N when unset.  Unset t_max picks a window
    that contains the first success peak.
    """

    x_name = "time"
    x_format = f"%{_FLOAT_FMT}"
    prediction = "predicted peak time "
    no_prediction = "no peak-time prediction for a miscalibrated rate"

    n_vertices: int
    epsilon: float = 0.0
    gamma: float | None = None
    corrected: bool = False
    t_max: float | None = None
    samples: int = 401
    marked: int = 0

    def __post_init__(self) -> None:
        # CtqwParams checks N, epsilon, gamma and marked
        CtqwParams(self.n_vertices, self.epsilon, self.gamma, self.marked)
        if self.corrected and self.gamma is not None:
            raise ValueError("corrected ctqw chooses gamma itself; drop gamma")
        if self.samples < 2:
            raise ValueError(f"need at least 2 time samples, got {self.samples}")
        if self.t_max is not None and not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.t_max is not None and not math.isfinite(self.t_max):
            raise ValueError(f"t_max must be finite, got {self.t_max}")

    def params(self) -> CtqwParams:
        """Rate for CtqwParams: None (it corrects) if corrected, else gamma or 1/N."""
        gamma = None if self.corrected else self.gamma or 1.0 / self.n_vertices
        return CtqwParams(self.n_vertices, self.epsilon, gamma, self.marked)

    def predicted_peak(self) -> float | None:
        """pi*sqrt(N)/2 when the rate cancels the attenuation; else None."""
        effective = self.params().rate * (1.0 - self.epsilon) * self.n_vertices
        if abs(effective - 1.0) <= 1e-9:
            return ctqw_runtime(self.n_vertices)
        return None

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Evenly spaced times on [0, t_max] and the success probability at each."""
        t_max = self.t_max or 1.5 * ctqw_runtime(self.n_vertices)
        times = np.linspace(0.0, t_max, self.samples)
        return times, ctqw_success_curve(self.params(), times)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """A run's curve plus the summary quantities the CLI prints.

    x holds step indices (dtqw) or times (ctqw), aligned with probabilities;
    predicted_peak is the phase-matching runtime prediction in the same
    units, or None where no honest prediction exists (uncorrected barriers,
    miscalibrated ctqw rates).
    """

    spec: WalkSpec | CtqwSpec
    x: np.ndarray
    probabilities: np.ndarray
    peak_index: int
    peak_x: float
    peak_probability: float
    predicted_peak: float | None


def run_experiment(spec: WalkSpec | CtqwSpec) -> ExperimentResult:
    """Execute a spec and package the curve with its summary."""
    x, probs = spec.curve()
    peak_index = int(np.argmax(probs))
    return ExperimentResult(
        spec=spec,
        x=x,
        probabilities=probs,
        peak_index=peak_index,
        peak_x=float(x[peak_index]),
        peak_probability=float(probs[peak_index]),
        predicted_peak=spec.predicted_peak(),
    )


def summary_line(result: ExperimentResult) -> str:
    """One human-readable line: where the run peaked vs. where theory says."""
    spec = result.spec
    head = (
        f"peak probability {result.peak_probability:.6f}"
        f" at {spec.x_name} {spec.x_format % result.peak_x}"
    )
    if result.predicted_peak is None:
        return f"{head}; {spec.no_prediction}"
    return f"{head}; {spec.prediction}{spec.x_format % result.predicted_peak}"


def write_curve_csv(result: ExperimentResult, out: TextIO) -> None:
    """Emit the curve; identical specs must produce identical bytes."""
    out.write(f"{result.spec.x_name},probability\n")
    row = f"{result.spec.x_format},%{_FLOAT_FMT}\n"
    for pair in zip(result.x.tolist(), result.probabilities.tolist()):
        out.write(row % pair)


@dataclass(frozen=True)
class SweepRow:
    """Summary of one sweep grid point.

    eta is the phase the run actually used (0 when uncorrected); sigma and
    t_star_predicted are the phase-matched predictions for this (N, beta),
    with t_star_predicted None at the blocked point beta = 1.  mode records
    whether the point ran full-space or fell back to the reduced model.
    """

    n_vertices: int
    beta: float
    eta: float
    sigma: float
    t_star_predicted: int | None
    t_star_measured: int
    peak_probability: float
    mode: str


def _sweep_point(spec: WalkSpec) -> SweepRow:
    result = run_experiment(spec)
    plan = spec.plan
    return SweepRow(
        n_vertices=spec.n_vertices,
        beta=spec.beta + 0.0,  # -0.0 prints as 0
        eta=spec.eta,
        sigma=plan.sigma,
        t_star_predicted=plan.t_star,
        t_star_measured=result.peak_index,
        peak_probability=result.peak_probability,
        mode=spec.mode,
    )


def run_sweep(
    n_values: Sequence[int],
    beta_values: Sequence[float],
    corrected: bool,
    steps: int | None = None,
    max_full_n: int = DEFAULT_MAX_FULL_N,
    workers: int = 1,
) -> list[SweepRow]:
    """Run the (N, beta) grid, N-major, one row per point, in this process.

    workers > 1 runs that many grid points at once on threads, at most one
    per point and per usable CPU, since each holds its own state; rows come
    in grid order either way.  Each full-space point
    still spreads its steps over every usable CPU.  Points at once trade
    speed for a steadier time where one state fits the last-level cache:
    alone, an N = 1024 state (16 MB) ran up to 2x faster or slower with what
    other tenants did to a shared 32 MB cache; two at once fill it themselves.
    """
    if not n_values or not beta_values:
        raise ValueError("sweep needs at least one N and one beta")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    grid = [
        WalkSpec(n, beta, corrected, steps, mode=engine_for(n, max_full_n))
        for n in n_values
        for beta in beta_values
    ]
    workers = min(workers, len(grid), _THREADS)
    if workers == 1:
        return [_sweep_point(spec) for spec in grid]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(_sweep_point, grid))


def write_sweep_csv(rows: Sequence[SweepRow], out: TextIO) -> None:
    out.write(
        "n,beta,eta,sigma,t_star_predicted,t_star_measured,peak_probability,mode\n"
    )
    for row in rows:
        predicted = "" if row.t_star_predicted is None else str(row.t_star_predicted)
        out.write(
            f"{row.n_vertices},{row.beta:{_FLOAT_FMT}},{row.eta:{_FLOAT_FMT}},"
            f"{row.sigma:{_FLOAT_FMT}},{predicted},{row.t_star_measured},"
            f"{row.peak_probability:{_FLOAT_FMT}},{row.mode}\n"
        )


# Each verify check, in report order: name -> tolerance on its worst deviation.
_CHECK_TOLERANCES = {
    # max |M^dag M - I| over all 3x3 operators
    "reduced-unitarity": 1e-12,
    # coin_oracle @ psi = -psi, any eta
    "psi-minus-one-eigenvector": 1e-12,
    # matching defect at the eta in use, times cos(phi) cos(eta/2)
    "hoyer-residual": 1e-12,
    # amplitude spread inside ab/ba/bb classes
    "symmetry-classes": 1e-10,
    # full-state component outside the subspace
    "projection-residual": 1e-10,
    # per-step success-probability difference
    "full-vs-reduced": 1e-10,
    # |norm - 1| along full trajectories
    "norm-conservation": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check (max deviation over its grid)."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def _note(worst: dict[str, float], name: str, deviation: float) -> None:
    worst[name] = max(worst[name], deviation)


def run_verification(
    n_values: Sequence[int] = VERIFY_DEFAULT_NS,
    phi_values: Sequence[float] = VERIFY_DEFAULT_PHIS,
    steps: int = 200,
    force_eta_zero: bool = False,
) -> list[CheckResult]:
    """Cross-module invariant suite; every check reports its worst deviation.

    The checks and their tolerances are listed in _CHECK_TOLERANCES.
    force_eta_zero makes the Hoyer check use eta = 0 where the corrected
    phase is required; it exists as a negative control (any phi > 0 in the
    grid then fails) and affects no other check.
    """
    if not n_values or not phi_values:
        raise ValueError("verification needs at least one N and one phi")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    worst = dict.fromkeys(_CHECK_TOLERANCES, 0.0)
    eye = np.eye(3)
    for n in n_values:
        for phi in phi_values:
            plan = build_phase_plan(n, phi)
            for eta in [0.0] if plan.blocked else [0.0, plan.eta]:
                ops = build_reduced_operators(n, phi, eta)
                for matrix in (ops.shift, ops.coin_oracle, ops.step):
                    _note(worst, "reduced-unitarity",
                          float(np.abs(matrix.conj().T @ matrix - eye).max()))
                psi = psi_minus_one(n)
                _note(worst, "psi-minus-one-eigenvector",
                      float(np.abs(ops.coin_oracle @ psi + psi).max()))
                _trajectory_deviations(n, phi, eta, steps, worst)
            if not plan.blocked:
                eta_used = 0.0 if force_eta_zero else plan.eta
                _note(worst, "hoyer-residual",
                      abs(_scaled_hoyer_residual(phi, eta_used, plan.theta)))
    return [
        CheckResult(name, worst[name], tolerance)
        for name, tolerance in _CHECK_TOLERANCES.items()
    ]


def _trajectory_deviations(
    n: int, phi: float, eta: float, steps: int, worst: dict[str, float]
) -> None:
    # One full-space trajectory, checked step by step against everything the
    # 3D reduction promises: class-wise equal amplitudes, no leakage out of
    # the subspace, matching success probabilities, unit norm.
    params = WalkParams(n_vertices=n, phi=phi, eta=eta)
    reduced_probs = evolve_reduced(n, phi, eta, steps)
    state = initial_state(params)
    for t in range(steps + 1):
        if t > 0:
            state = step(state, params)
        classes = symmetry_classes(state, params.marked)
        for block in classes:
            _note(worst, "symmetry-classes", float(np.abs(block - block.mean()).max()))
        _note(worst, "projection-residual",
              project(state, n, params.marked, classes=classes)[1])
        _note(worst, "full-vs-reduced",
              abs(success_probability(state, params.marked) - reduced_probs[t]))
        _note(worst, "norm-conservation", abs(_norm(state) - 1.0))
