"""Acceptance gate: one test per shipping criterion, at its stated tolerance.

Each test prints a single `ACCEPTANCE <k>: PASS/FAIL - detail` line outside
of pytest's capture so the verdicts are always visible in the run log, then
asserts.  Criteria 1-4 share module-scoped full-space N=1024 trajectories;
criterion 7 uses the reduced model, which matches full-space runs to 1e-10
(criterion 5) at a cost independent of N.
"""

import math

import numpy as np
import pytest

from barrierwalk.ctqw import CtqwParams, ctqw_runtime, ctqw_success_curve
from barrierwalk.experiments import run_sweep, run_verification
from barrierwalk.phases import corrected_eta, overlap_angle, rotation_angle_sigma
from barrierwalk.reduced import build_reduced_operators, evolve_reduced
from barrierwalk.walk import WalkParams, evolve

from oracles import hoyer_residual, reduced_initial_state, s_and_w_states

PHI_08 = math.asin(0.8)


@pytest.fixture
def report(capsys):
    def _report(criterion: int, passed: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")

    return _report


def _corrected_curve_1024(beta: float, steps: int) -> np.ndarray:
    phi = math.asin(beta)
    params = WalkParams(1024, phi=phi, eta=corrected_eta(phi, 1024))
    return evolve(params, steps)


def _uncorrected_curve_1024(beta: float, steps: int) -> np.ndarray:
    return evolve(WalkParams(1024, phi=math.asin(beta)), steps)


@pytest.fixture(scope="module")
def corrected_curves_1024():
    return {beta: _corrected_curve_1024(beta, 150) for beta in (0.0, 0.4, 0.8)}


@pytest.fixture(scope="module")
def uncorrected_curves_1024():
    return {beta: _uncorrected_curve_1024(beta, 100) for beta in (0.0, 0.02, 0.04)}


def test_criterion_1_corrected_anchor_peaks_at_59(report, corrected_curves_1024):
    # corrected N=1024, beta=0.8: peak at step 59 +- 1, peak in [0.45, 0.55]
    curve = corrected_curves_1024[0.8]
    peak_step = int(curve.argmax())
    peak = float(curve.max())
    passed = abs(peak_step - 59) <= 1 and 0.45 <= peak <= 0.55
    report(1, passed, f"corrected beta=0.8 peak {peak:.6f} at step {peak_step} (want 59 +- 1, value in [0.45, 0.55])")
    assert passed


def test_criterion_2_barrier_free_anchor_peaks_at_36(report, uncorrected_curves_1024):
    # error-free N=1024 walk: peak at step 36 +- 2, peak in [0.45, 0.55]
    curve = uncorrected_curves_1024[0.0]
    peak_step = int(curve.argmax())
    peak = float(curve.max())
    passed = abs(peak_step - 36) <= 2 and 0.45 <= peak <= 0.55
    report(2, passed, f"beta=0 peak {peak:.6f} at step {peak_step} (want 36 +- 2, value in [0.45, 0.55])")
    assert passed


def test_criterion_3_uncorrected_peaks_strictly_decreasing(report, uncorrected_curves_1024):
    peaks = [float(uncorrected_curves_1024[beta].max()) for beta in (0.0, 0.02, 0.04)]
    passed = peaks[0] > peaks[1] > peaks[2]
    report(3, passed, "uncorrected peaks " + " > ".join(f"{p:.6f}" for p in peaks))
    assert passed


def test_criterion_4_corrected_peaks_near_half(report, corrected_curves_1024):
    peaks = {beta: float(curve.max()) for beta, curve in corrected_curves_1024.items()}
    passed = all(0.45 <= p <= 0.55 for p in peaks.values())
    detail = ", ".join(f"beta={b}: {p:.6f}" for b, p in sorted(peaks.items()))
    report(4, passed, f"corrected peaks in [0.45, 0.55]: {detail}")
    assert passed


def test_criterion_5_full_reduced_equivalence(report):
    worst = 0.0
    for n in (4, 16, 64):
        for phi in (0.0, 0.3, PHI_08):
            for eta in (0.0, corrected_eta(phi, n)):
                full = evolve(WalkParams(n, phi=phi, eta=eta), 200)
                reduced = evolve_reduced(n, phi, eta, 200)
                worst = max(worst, float(np.abs(full - reduced).max()))
    passed = worst < 1e-10
    report(5, passed, f"max |full - reduced| over 200 steps = {worst:.3e} (tolerance 1e-10)")
    assert passed


def test_criterion_6_phase_matching_exactness(report):
    worst_residual = 0.0
    for phi in (0.1, 0.5, 1.0, 1.4):
        for n in (3, 4, 100, 1024):
            residual = abs(hoyer_residual(phi, corrected_eta(phi, n), overlap_angle(n)))
            worst_residual = max(worst_residual, residual)
    worst_sigma = 0.0
    for n, phi in [(3, 0.1), (4, 0.5), (100, 1.0), (1024, 1.4), (1024, PHI_08)]:
        eta = corrected_eta(phi, n)
        ops = build_reduced_operators(n, phi, eta)
        _, w = s_and_w_states(n)
        overlap = abs(np.vdot(w, ops.step @ reduced_initial_state(n)))
        worst_sigma = max(
            worst_sigma, abs(overlap - math.sin(rotation_angle_sigma(phi, n)))
        )
    passed = worst_residual < 1e-12 and worst_sigma < 1e-12
    report(
        6,
        passed,
        f"max Hoyer residual {worst_residual:.3e}, max |<w|U'|psi0>| - sin(sigma) = {worst_sigma:.3e} (tolerance 1e-12)",
    )
    assert passed


def test_criterion_7_sqrt_n_scaling_of_measured_runtime(report):
    # t*_measured / sqrt(N) constant within 2% across N for each beta, read
    # as: no ratio deviates from the group mean by more than 2%.  Reduced
    # mode keeps N=4096 instant; criterion 5 certifies it matches full space.
    details = []
    passed = True
    for beta in (0.0, 0.8):
        rows = run_sweep([256, 1024, 4096], [beta], corrected=True, max_full_n=128)
        ratios = [row.t_star_measured / math.sqrt(row.n_vertices) for row in rows]
        mean = sum(ratios) / len(ratios)
        deviation = max(abs(r - mean) / mean for r in ratios)
        passed = passed and deviation <= 0.02
        measured = [row.t_star_measured for row in rows]
        details.append(f"beta={beta}: t*={measured}, max dev from mean {deviation:.3%}")
    report(7, passed, "; ".join(details))
    assert passed


def test_criterion_8_invariant_suite_1000_steps(report):
    checks = run_verification(steps=1000)
    passed = all(check.passed for check in checks)
    detail = ", ".join(f"{c.name} {c.deviation:.2e}" for c in checks)
    report(8, passed, detail)
    assert passed


def test_criterion_9_ctqw_correction_and_peak_time(report):
    times = np.linspace(0.0, 3.0 * ctqw_runtime(1024), 3000)
    base = ctqw_success_curve(CtqwParams(1024), times)
    worst = 0.0
    for epsilon in (0.25, 0.5, 0.9):
        corrected = ctqw_success_curve(CtqwParams(1024, epsilon=epsilon), times)
        worst = max(worst, float(np.abs(corrected - base).max()))
    grid = np.linspace(0.0, 1.5 * ctqw_runtime(1024), 20001)
    peak_time = float(grid[int(np.argmax(ctqw_success_curve(CtqwParams(1024), grid)))])
    relative = abs(peak_time - ctqw_runtime(1024)) / ctqw_runtime(1024)
    passed = worst < 1e-10 and relative < 0.01
    report(
        9,
        passed,
        f"max corrected-vs-free gap {worst:.3e} (tol 1e-10); peak at t={peak_time:.4f} vs {ctqw_runtime(1024):.4f} ({relative:.4%})",
    )
    assert passed
