"""Correction phase, rotation angle, and runtime predictions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrierwalk.experiments import phi_from_beta, run_sweep
from barrierwalk.phases import (
    BlockedRegimeError,
    _scaled_hoyer_residual,
    build_phase_plan,
    corrected_eta,
    overlap_angle,
    rotation_angle_sigma,
    runtime_large_n,
    runtime_t_star,
    runtime_t_star_exact,
)
from barrierwalk.reduced import evolve_reduced

from oracles import blocking_regime_runtime, hoyer_residual, runtimes_60_digits

PHI_08 = math.asin(0.8)


@pytest.mark.parametrize("n", [3, 10, 1024])
def test_overlap_angle(n):
    assert math.sin(overlap_angle(n)) == pytest.approx(
        1.0 / math.sqrt(2.0 * (n - 1)), abs=1e-14
    )


def test_overlap_angle_n3():
    assert overlap_angle(3) == pytest.approx(math.pi / 6.0, abs=1e-14)


def test_corrected_eta_zero_barrier():
    eta = corrected_eta(0.0, 1024)
    assert eta == 0.0
    assert math.copysign(1.0, eta) == 1.0  # plain zero, not -0.0


def test_corrected_eta_large_n_limit():
    # approaches -2*phi as N grows
    eta = corrected_eta(0.3, 10**9)
    assert eta == pytest.approx(-0.6, abs=1e-8)
    assert eta == pytest.approx(-0.6000000005646424, rel=1e-14)


def test_corrected_eta_anchor():
    assert corrected_eta(PHI_08, 1024) == pytest.approx(
        -1.8555291827073437, rel=1e-14
    )


def test_corrected_eta_rejects_blocked():
    with pytest.raises(BlockedRegimeError):
        corrected_eta(math.pi / 2, 1024)
    with pytest.raises(ValueError):
        corrected_eta(-0.1, 1024)
    with pytest.raises(ValueError):
        corrected_eta(0.3, 2)


def test_hoyer_residual_trivial_and_matched():
    assert hoyer_residual(0.0, 0.0, 0.7) == 0.0
    for phi in (0.1, 0.5, 1.0, 1.4):
        for n in (3, 4, 100, 1024):
            residual = hoyer_residual(phi, corrected_eta(phi, n), overlap_angle(n))
            assert abs(residual) < 1e-12


def test_hoyer_residual_negative_control():
    theta = overlap_angle(1024)
    residual = hoyer_residual(0.3, -0.5, theta)
    expected = math.tan(-0.3) + math.tan(0.25) * (1.0 - 2.0 * math.sin(theta) ** 2)
    assert residual == pytest.approx(expected, abs=1e-15)
    assert residual == pytest.approx(-0.05424392948459972, abs=1e-12)
    assert abs(residual) > 1e-3  # clearly nonzero for a mismatched eta


def test_scaled_hoyer_residual_stays_small_near_blocking():
    # verify's form of the defect: the tangent form times cos(phi) cos(eta/2).
    # The unscaled defect at phi = 1.5707 rounds to about 1e-8; the scaled
    # one keeps every term at most 1 in size.
    for phi in (0.3, 1.0, 1.5707, math.pi / 2 - 1e-9):
        for n in (3, 16, 1024, 10**12):
            eta = corrected_eta(phi, n)
            assert abs(_scaled_hoyer_residual(phi, eta, overlap_angle(n))) < 1e-15
    theta = overlap_angle(1024)
    scale = math.cos(0.3) * math.cos(-0.25)
    assert _scaled_hoyer_residual(0.3, -0.5, theta) == pytest.approx(
        hoyer_residual(0.3, -0.5, theta) * scale, rel=1e-14
    )
    assert _scaled_hoyer_residual(0.3, 0.0, theta) == pytest.approx(-math.sin(0.3), rel=1e-15)


def test_vertex_count_ceiling():
    # 10^300 is the largest N accepted; its plan is finite throughout.
    plan = build_phase_plan(10**300, 0.3)
    assert plan.eta == -0.6
    assert 0.0 < plan.sigma and math.isfinite(plan.t_star_exact)
    for call in (
        lambda: build_phase_plan(10**300 + 1, 0.3),
        lambda: corrected_eta(0.3, 10**400),
        lambda: evolve_reduced(10**300 + 1, 0.3, -0.6, 1),
    ):
        with pytest.raises(ValueError, match="at most 10\\^300 vertices"):
            call()


def test_sigma_zero_barrier():
    # arcsin(sqrt(2/N)) at phi = 0
    assert rotation_angle_sigma(0.0, 1024) == pytest.approx(
        0.044208572607224716, rel=1e-14
    )


def test_sigma_blocked_is_zero():
    assert rotation_angle_sigma(math.pi / 2, 1024) == 0.0


@pytest.mark.parametrize("phi", [0.1, 0.8, PHI_08])
@pytest.mark.parametrize("n", [3, 64, 1024])
def test_sigma_from_exact_eta(phi, n):
    sigma = rotation_angle_sigma(phi, n)
    eta = corrected_eta(phi, n)
    assert math.sin(sigma) == pytest.approx(
        math.sqrt((1.0 + math.cos(eta)) / n), abs=1e-15
    )


def test_runtime_anchors():
    assert runtime_t_star(0.0, 1024) == 36
    assert runtime_t_star(math.asin(0.4), 1024) == 39
    assert runtime_t_star(PHI_08, 1024) == 59


def test_runtime_exact_and_large_n_forms():
    exact = runtime_t_star_exact(PHI_08, 1024)
    assert exact == pytest.approx(
        math.pi / (2.0 * rotation_angle_sigma(PHI_08, 1024)), rel=1e-15
    )
    assert 59.0 < exact < 59.5
    # leading-order form pi*sqrt(N)/(2*sqrt(1 + cos 2 phi))
    assert runtime_large_n(PHI_08, 1024) == pytest.approx(
        math.pi * 32.0 / (2.0 * math.sqrt(0.72)), rel=1e-12
    )
    assert runtime_large_n(0.0, 1024) == pytest.approx(
        math.pi * 32.0 / (2.0 * math.sqrt(2.0)), rel=1e-15
    )


def test_runtime_blocked_raises():
    with pytest.raises(BlockedRegimeError):
        runtime_t_star(math.pi / 2, 1024)
    with pytest.raises(BlockedRegimeError):
        runtime_large_n(math.pi / 2, 1024)


def test_runtime_monotone_in_phi():
    for n in (64, 1024):
        grid = np.linspace(0.0, math.pi / 2 - 1e-6, 41)
        values = [runtime_t_star(phi, n) for phi in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("phi", [0.0, 0.5, 1.0])
def test_runtime_sqrt_n_scaling(phi):
    r1 = runtime_t_star(phi, 1024) / math.sqrt(1024.0)
    r4 = runtime_t_star(phi, 4096) / math.sqrt(4096.0)
    assert abs(r1 - r4) / r1 < 0.02


def test_blocking_regime_runtime():
    # pi*sqrt(N) / (2*sqrt(2)*delta)
    assert blocking_regime_runtime(0.01, 1024) == pytest.approx(
        3554.3063505266923, rel=1e-14
    )
    assert blocking_regime_runtime(math.pi / 2, 1024) == pytest.approx(
        math.pi * 32.0 / (2.0 * math.sqrt(2.0) * (math.pi / 2.0)), rel=1e-15
    )


def test_blocking_regime_consistency_with_exact_runtime():
    # near the blocking point the asymptotic form tracks the exact t*
    delta = 0.05
    exact = runtime_t_star(math.pi / 2 - delta, 1024)
    asymptotic = blocking_regime_runtime(delta, 1024)
    assert abs(exact - asymptotic) / asymptotic < 0.05


def test_phase_plan_regular():
    plan = build_phase_plan(1024, PHI_08)
    assert not plan.blocked
    assert plan.n_vertices == 1024
    assert plan.theta == overlap_angle(1024)
    assert plan.delta == pytest.approx(math.pi / 2 - PHI_08, rel=1e-15)
    assert plan.eta == corrected_eta(PHI_08, 1024)
    assert plan.sigma == rotation_angle_sigma(PHI_08, 1024)
    assert plan.t_star == 59
    assert plan.t_star_exact == pytest.approx(runtime_t_star_exact(PHI_08, 1024))
    assert plan.t_star_large_n == pytest.approx(runtime_large_n(PHI_08, 1024))


def test_phase_plan_blocked():
    plan = build_phase_plan(1024, math.pi / 2)
    assert plan.blocked
    assert plan.eta is None
    assert plan.sigma == 0.0
    assert plan.t_star is None
    assert plan.t_star_exact is None
    assert plan.t_star_large_n is None
    assert plan.delta == 0.0


@pytest.mark.parametrize("n", [3, 16, 1024, 10**12])
def test_runtimes_near_blocking_match_60_digits(n):
    # 1 + cos(eta) and 1 + cos(2 phi) cancel as phi -> pi/2; the stable forms
    # 2 cos(eta/2)^2 and 2 cos(phi)^2 keep full relative accuracy there.
    pytest.importorskip("mpmath")
    for k in range(1, 16):
        phi = math.pi / 2 - 10.0**-k
        exact, large_n = runtimes_60_digits(phi, n)
        assert runtime_t_star_exact(phi, n) == pytest.approx(exact, rel=1e-14), k
        assert runtime_large_n(phi, n) == pytest.approx(large_n, rel=1e-14), k


@pytest.mark.parametrize("n", [3, 16, 10**6, 10**12])
def test_phase_plan_defined_on_every_float_below_blocking(n):
    phi = math.pi / 2
    for _ in range(2000):
        phi = math.nextafter(phi, 0.0)
        plan = build_phase_plan(n, phi)
        assert not plan.blocked
        assert plan.sigma > 0.0
        assert plan.t_star >= 1
        assert math.isfinite(plan.t_star_exact)
        assert math.isfinite(plan.t_star_large_n)


_PHIS = st.one_of(
    st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2)
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 10**12), phi=_PHIS)
@example(n=3, phi=math.pi / 2)
@example(n=10**12, phi=math.nextafter(math.pi / 2, 0.0))
def test_phase_plan_at_random_points(n, phi):
    plan = build_phase_plan(n, phi)
    assert plan.blocked == (phi == math.pi / 2)
    optional = (plan.eta, plan.t_star, plan.t_star_exact, plan.t_star_large_n)
    assert [value is None for value in optional] == [plan.blocked] * 4
    assert plan.theta == overlap_angle(n)
    assert plan.sigma == rotation_angle_sigma(phi, n)
    if not plan.blocked:
        assert plan.eta == corrected_eta(phi, n)
        assert plan.t_star == runtime_t_star(phi, n)
        assert plan.t_star_exact == runtime_t_star_exact(phi, n)
        assert plan.t_star_large_n == runtime_large_n(phi, n)
    # a sweep row carries the plan of its own (N, beta)
    beta = math.sin(phi)
    (row,) = run_sweep([n], [beta], corrected=False, steps=1, max_full_n=0)
    row_plan = build_phase_plan(n, phi_from_beta(beta))
    assert row.sigma == row_plan.sigma
    assert row.t_star_predicted == row_plan.t_star
