"""Continuous-time search versus the full N x N Hamiltonian."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrierwalk.ctqw import (
    CtqwParams,
    corrected_gamma,
    ctqw_runtime,
    ctqw_success_curve,
)

from oracles import ctqw_probs_mpmath, dense_ctqw_probs


def test_corrected_gamma_values():
    assert corrected_gamma(1024, 0.0) == pytest.approx(1.0 / 1024.0, rel=1e-15)
    assert corrected_gamma(1024, 0.5) == pytest.approx(1.0 / 512.0, rel=1e-15)
    for epsilon in (0.0, 0.1, 0.5, 0.9, 0.99):
        gamma = corrected_gamma(1024, epsilon)
        assert abs(gamma * 1024 * (1.0 - epsilon) - 1.0) < 1e-14


def test_corrected_gamma_rejects_full_blocking():
    with pytest.raises(ValueError):
        corrected_gamma(1024, 1.0)
    with pytest.raises(ValueError):
        corrected_gamma(1024, -0.1)
    with pytest.raises(ValueError):
        corrected_gamma(1, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        CtqwParams(1)
    with pytest.raises(ValueError):
        CtqwParams(8, epsilon=1.0)
    with pytest.raises(ValueError):
        CtqwParams(8, gamma=0.0)
    assert CtqwParams(8, epsilon=0.5).rate == pytest.approx(corrected_gamma(8, 0.5))
    assert CtqwParams(8, gamma=0.03).rate == 0.03


def test_params_share_the_vertex_ceiling():
    assert CtqwParams(10**300).rate == 1e-300
    with pytest.raises(ValueError, match="at most 10\\^300 vertices"):
        CtqwParams(10**300 + 1)
    with pytest.raises(ValueError, match="at most 10\\^300 vertices"):
        ctqw_runtime(10**400)


def test_params_reject_non_finite_gamma():
    with pytest.raises(ValueError, match="gamma must be finite"):
        CtqwParams(8, gamma=math.inf)


@pytest.mark.parametrize("n", [2, 5, 1024])
def test_initial_probability(n):
    assert ctqw_success_curve(CtqwParams(n), np.array([0.0]))[0] == pytest.approx(
        1.0 / n, abs=1e-14
    )
    with pytest.raises(ValueError):
        ctqw_success_curve(CtqwParams(n), np.array([-1.0]))


def test_peak_probability_barrier_free():
    params = CtqwParams(1024)
    assert ctqw_success_curve(params, np.array([ctqw_runtime(1024)]))[0] >= 0.99


@pytest.mark.parametrize("epsilon", [0.25, 0.5, 0.9])
def test_correction_reproduces_barrier_free_curve(epsilon):
    times = np.linspace(0.0, 3.0 * ctqw_runtime(64), 600)
    base = ctqw_success_curve(CtqwParams(64), times)
    corrected = ctqw_success_curve(CtqwParams(64, epsilon=epsilon), times)
    assert np.abs(base - corrected).max() < 1e-10


@pytest.mark.parametrize(
    "n,epsilon,gamma",
    [
        (5, 0.0, None),
        (5, 0.5, None),
        (33, 0.5, None),
        (33, 0.3, 1.0 / 33.0),  # deliberately uncorrected rate
    ],
)
def test_matches_dense_hamiltonian(n, epsilon, gamma):
    params = CtqwParams(n, epsilon=epsilon, gamma=gamma)
    times = np.linspace(0.0, 20.0, 101)
    expected = dense_ctqw_probs(n, epsilon, params.rate, times)
    np.testing.assert_allclose(
        ctqw_success_curve(params, times), expected, rtol=0, atol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    graph=st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    epsilon=st.floats(0.0, 0.99),
    gamma=st.none() | st.floats(1e-3, 1.0),
)
@example(graph=(33, 32), epsilon=0.3, gamma=1.0 / 33.0)  # last vertex, uncorrected rate
def test_matches_dense_hamiltonian_at_random_points(graph, epsilon, gamma):
    # graph is (N, marked vertex); the curve must not depend on which is marked
    n, marked = graph
    params = CtqwParams(n, epsilon=epsilon, gamma=gamma)
    times = np.linspace(0.0, 20.0, 101)
    expected = dense_ctqw_probs(n, epsilon, params.rate, times, marked=marked)
    np.testing.assert_allclose(
        ctqw_success_curve(params, times), expected, rtol=0, atol=1e-12
    )


def test_miscalibrated_rate_hurts():
    # gamma = 1/N with a strong barrier: the peak collapses
    times = np.linspace(0.0, 3.0 * ctqw_runtime(1024), 2000)
    wrong = ctqw_success_curve(CtqwParams(1024, epsilon=0.5, gamma=1.0 / 1024.0), times)
    right = ctqw_success_curve(CtqwParams(1024, epsilon=0.5), times)
    assert wrong.max() < right.max()
    assert wrong.max() < 0.05 and right.max() > 0.99


def test_runtime_values():
    assert ctqw_runtime(4) == pytest.approx(math.pi, rel=1e-15)
    assert ctqw_runtime(1024) == pytest.approx(16.0 * math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        ctqw_runtime(1)


def test_probability_bounds():
    params = CtqwParams(64, epsilon=0.4)
    times = np.linspace(0.0, 50.0, 400)
    curve = ctqw_success_curve(params, times)
    assert curve.min() >= -1e-12 and curve.max() <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    log_n=st.floats(math.log10(2.0), 300.0),
    epsilon=st.floats(0.0, 0.99),
    # gamma as a multiple of 1/N; None is the corrected rate
    scale=st.none() | st.floats(1e-3, 1e3),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@example(log_n=300.0, epsilon=0.99, scale=None, fractions=[1.0])
@example(log_n=300.0, epsilon=0.0, scale=1.0, fractions=[1.0])
def test_closed_form_invariants_at_random_points(log_n, epsilon, scale, fractions):
    # N log-uniform in [2, 10^300]; times up to 2^31 / (1 + scale), below the
    # 2^32 rad phase limit since w <= |Delta| + g sqrt(N-1) <= 1 + scale.
    n = min(max(2, int(10.0**log_n)), 10**300)
    gamma = None if scale is None else scale / n
    params = CtqwParams(n, epsilon=epsilon, gamma=gamma)
    times = np.array([0.0, *fractions]) * (2.0**31 / (1.0 + (scale or 1.0)))
    curve = ctqw_success_curve(params, times)
    assert curve[0] == pytest.approx(1.0 / n, rel=1e-15, abs=0.0)
    assert curve.min() >= 0.0 and curve.max() <= 1.0 + 1e-15
    if gamma is None:
        peak = ctqw_success_curve(params, np.array([ctqw_runtime(n)]))[0]
        assert peak >= 1.0 - 1e-12


# (epsilon, gamma as a function of N, largest power of ten, time cap).  With
# gamma = 1/(2N), w is about 1/4, so times are capped at 2^33 to stay below
# the phase limit.  The corrected and gamma = 1/N cases cancel in Delta.
_MPMATH_CASES = {
    "corrected": (0.3, lambda n: None, 299, math.inf),
    "gamma-1/N": (0.0, lambda n: 1.0 / n, 32, math.inf),
    "gamma-1/(2N)": (0.0, lambda n: 0.5 / n, 32, 2.0**33),
}
_MPMATH_POWERS = [3, 6, 10, 16, 24, 32, 50, 100, 150, 200, 250, 299]


@pytest.mark.parametrize("case", sorted(_MPMATH_CASES))
def test_curve_against_mpmath_at_any_n(case):
    # The closed form has no eigensolver and no global phase, so it holds
    # at any N; a 2x2 eigh missed by 3.3e-4 at N = 10^24 and by 1 from 10^32.
    pytest.importorskip("mpmath")
    epsilon, gamma_of, top, cap = _MPMATH_CASES[case]
    for power in [p for p in _MPMATH_POWERS if p <= top]:
        n = 10**power
        params = CtqwParams(n, epsilon=epsilon, gamma=gamma_of(n))
        times = np.array([0.3, 1.0, 1.4]) * min(ctqw_runtime(n), cap)
        expected = ctqw_probs_mpmath(n, epsilon, params.gamma, times)
        error = np.abs(ctqw_success_curve(params, times) - expected).max()
        assert error < 1e-14, (power, error)


def test_curve_refuses_a_phase_past_2_to_the_32():
    params = CtqwParams(3)  # w = 1/sqrt(3)
    limit = 2.0**32 * math.sqrt(3.0)
    ctqw_success_curve(params, np.array([0.0, 0.99 * limit]))
    with pytest.raises(ValueError, match=r"times up to 1e\+308 at jumping rate 0.333333"):
        ctqw_success_curve(params, np.array([0.0, 1e308]))
    with pytest.raises(ValueError, match="past 2\\^32 rad"):
        ctqw_success_curve(params, np.array([1.01 * limit]))
    # w = 5e305: even t = 1 is out of reach, and w * t is never formed
    with pytest.raises(ValueError, match="jumping rate 1e\\+300"):
        ctqw_success_curve(CtqwParams(10**6, gamma=1e300), np.array([1.0]))
    with pytest.raises(ValueError, match="overflows at N = 10000000000"):
        ctqw_success_curve(CtqwParams(10**10, gamma=1e300), np.array([1.0]))
    assert ctqw_success_curve(params, np.array([])).size == 0


def test_curve_rejects_negative_times():
    with pytest.raises(ValueError, match="must be non-negative"):
        ctqw_success_curve(CtqwParams(8), np.array([0.0, -0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curve_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="evolution times must be finite"):
        ctqw_success_curve(CtqwParams(8), np.array([0.0, bad]))
