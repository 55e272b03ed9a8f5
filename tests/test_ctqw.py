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
    effective_hamiltonian,
)

from oracles import dense_ctqw_probs


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
    with pytest.raises(ValueError):
        CtqwParams(8, marked=8)
    assert CtqwParams(8, epsilon=0.5).rate == pytest.approx(corrected_gamma(8, 0.5))
    assert CtqwParams(8, gamma=0.03).rate == 0.03


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
    # graph is (N, marked vertex)
    n, marked = graph
    params = CtqwParams(n, epsilon=epsilon, gamma=gamma, marked=marked)
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


def test_probability_bounds_and_unitarity():
    params = CtqwParams(64, epsilon=0.4)
    times = np.linspace(0.0, 50.0, 400)
    curve = ctqw_success_curve(params, times)
    assert curve.min() >= -1e-12 and curve.max() <= 1.0 + 1e-12
    # evolution operator reconstructed from the same eigensystem is unitary
    h = effective_hamiltonian(params)
    assert np.abs(h - h.T.conj()).max() == 0.0
    evals, evecs = np.linalg.eigh(h)
    for t in (0.0, 1.7, 31.4):
        u = (evecs * np.exp(-1j * evals * t)) @ evecs.T
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


def test_curve_rejects_negative_times():
    with pytest.raises(ValueError, match="must be non-negative"):
        ctqw_success_curve(CtqwParams(8), np.array([0.0, -0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curve_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="evolution times must be finite"):
        ctqw_success_curve(CtqwParams(8), np.array([0.0, bad]))
