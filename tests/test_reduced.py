"""3x3 reduced model versus the compressed dense operators and the closed-form states."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barrierwalk.experiments import WalkSpec, run_experiment
from barrierwalk.phases import build_phase_plan, corrected_eta, overlap_angle
from barrierwalk.reduced import (
    build_reduced_operators,
    embed,
    evolve_reduced,
    project,
    psi_minus_one,
)
from barrierwalk.walk import (
    _NORM_CHUNK,
    WalkParams,
    evolve,
    initial_state,
    success_probability,
)

from oracles import (
    dense_step,
    pair_index,
    project_to_reduced,
    random_state,
    reduced_power_probs,
    reduced_initial_state,
    reduced_probs_50_digits,
    reduced_step,
    s_and_w_states,
    s_perp_state,
    w_perp_state,
)


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("phi", [0.0, 0.3, 1.2])
def test_matrices_match_compressed_dense(n, phi):
    # compress the explicitly built full-space step onto the (ab, ba, bb)
    # basis and compare against the transcribed 3x3 matrices
    eta = corrected_eta(phi, n)
    ops = build_reduced_operators(n, phi, eta)
    compressed = project_to_reduced(dense_step(n, phi, eta), n)
    np.testing.assert_allclose(ops.step, compressed, rtol=0, atol=1e-13)
    # and so does the oracle the closed form is checked against
    np.testing.assert_allclose(reduced_step(n, phi, eta), compressed, rtol=0, atol=1e-13)


def test_matrices_validation_and_unitarity():
    with pytest.raises(ValueError):
        build_reduced_operators(2, 0.0)
    with pytest.raises(ValueError):
        build_reduced_operators(8, -0.5)
    with pytest.raises(ValueError):
        build_reduced_operators(8, 0.0, math.inf)
    ops = build_reduced_operators(1024, 0.3, corrected_eta(0.3, 1024))
    eye = np.eye(3)
    for matrix in (ops.shift, ops.coin_oracle, ops.step):
        assert np.abs(matrix.conj().T @ matrix - eye).max() < 1e-12
    assert np.abs(ops.step - ops.shift @ ops.coin_oracle).max() < 1e-15


def test_psi_minus_one_values_and_eigenrelation():
    np.testing.assert_allclose(
        psi_minus_one(3),
        np.array([-1.0, -1.0, 1.0]) / math.sqrt(3.0),
        rtol=0,
        atol=1e-15,
    )
    for n in (3, 10, 1024):
        psi = psi_minus_one(n)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        # (-1)-eigenvector of the coin/oracle product for every eta
        for eta in (0.0, 0.7, corrected_eta(0.3, n)):
            ops = build_reduced_operators(n, 0.3, eta)
            assert np.abs(ops.coin_oracle @ psi + psi).max() < 1e-12


@pytest.mark.parametrize("n", [3, 10, 1024])
def test_s_and_w_overlap_and_orthogonality(n):
    s, w = s_and_w_states(n)
    psi = psi_minus_one(n)
    assert abs(np.vdot(s, w)) == pytest.approx(
        1.0 / math.sqrt(2.0 * (n - 1)), abs=1e-14
    )
    assert abs(np.vdot(psi, s)) < 1e-14
    assert abs(np.vdot(psi, w)) < 1e-14
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)


def test_n3_overlap_angle_is_pi_over_6():
    s, w = s_and_w_states(3)
    assert abs(np.vdot(s, w)) == pytest.approx(0.5, abs=1e-14)
    assert overlap_angle(3) == pytest.approx(math.pi / 6.0, abs=1e-14)


def test_reduced_initial_state():
    np.testing.assert_allclose(
        reduced_initial_state(3), np.ones(3) / math.sqrt(3.0), rtol=0, atol=1e-15
    )
    for n in (4, 100, 1024):
        psi0 = reduced_initial_state(n)
        assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-14)
    s, _ = s_and_w_states(1024)
    assert abs(np.vdot(s, reduced_initial_state(1024))) >= 0.999


@pytest.mark.parametrize("n", [3, 8, 1024])
def test_perp_states_construction(n):
    s, w = s_and_w_states(n)
    psi = psi_minus_one(n)
    w_perp = w_perp_state(n)
    s_perp = s_perp_state(n)
    for vec, anchor in ((w_perp, w), (s_perp, s)):
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(anchor, vec)) < 1e-14
        assert abs(np.vdot(psi, vec)) < 1e-14
        assert vec[2].real > 0.0  # the sign convention: positive bb overlap


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.2])
def test_lazy_shift_phases_on_w_plane(phi):
    # the lazy shift acts on the working plane as phases -e^{-i phi}, e^{i phi}
    n = 64
    ops = build_reduced_operators(n, phi, 0.0)
    _, w = s_and_w_states(n)
    w_perp = w_perp_state(n)
    assert np.abs(ops.shift @ w - (-np.exp(-1j * phi)) * w).max() < 1e-12
    assert np.abs(ops.shift @ w_perp - np.exp(1j * phi) * w_perp).max() < 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.9, -1.8555291827073437])
def test_coin_oracle_phases_on_s_plane(eta):
    n = 64
    ops = build_reduced_operators(n, 0.3, eta)
    s, _ = s_and_w_states(n)
    s_perp = s_perp_state(n)
    assert np.abs(ops.coin_oracle @ s - np.exp(1j * eta) * s).max() < 1e-12
    assert np.abs(ops.coin_oracle @ s_perp + s_perp).max() < 1e-12


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_reflection_structure_rotation_by_two_theta(n):
    # at phi = eta = 0 one step rotates the working plane by 2*theta: the
    # diagonal element is cos(2 theta), and since s starts at angle theta
    # past orthogonal-to-w, the w element after one step is sin(theta)
    ops = build_reduced_operators(n, 0.0, 0.0)
    s, w = s_and_w_states(n)
    theta = overlap_angle(n)
    assert np.vdot(s, ops.step @ s).real == pytest.approx(
        math.cos(2.0 * theta), abs=1e-12
    )
    assert abs(np.vdot(w, ops.step @ s)) == pytest.approx(
        math.sin(theta), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    graph=st.integers(3, 64).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_overlaps_are_the_class_sums(graph, seed):
    # graph is (N, marked vertex); the edges 0 and N-1 are drawn often
    n, marked = graph
    state = random_state(n * (n - 1), seed)
    others = [v for v in range(n) if v != marked]
    # each class gathered through the index convention
    classes = [
        [pair_index(n, marked, w) for w in others],
        [pair_index(n, v, marked) for v in others],
        [pair_index(n, v, w) for v in others for w in others if v != w],
    ]
    expected = [state[idx].sum() / math.sqrt(len(idx)) for idx in classes]
    reduced, _ = project(state, n, marked)
    assert np.abs(reduced - expected).max() <= 1e-14


def test_embed_and_project_keep_nothing_state_sized():
    n = 700
    state_bytes = 16 * n * (n - 1)
    reduced = reduced_initial_state(n)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for marked in (0, 1, 2):
            project(embed(reduced, n, marked), n, marked)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < state_bytes / 4


@pytest.mark.parametrize("marked", [0, 1, 1399])
def test_project_holds_one_state_sized_temporary(marked):
    # Beyond its input, project holds the gap x - embed(reduced) and one
    # _norm chunk (1.6% of a state here).  A class mask (1/16 of a state)
    # beside a gathered bb class would read 1.06 state sizes.
    n = 1400
    state_bytes = 16 * n * (n - 1)
    state = random_state(n * (n - 1), seed=marked)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        project(state, n, marked)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * state_bytes + 8 * _NORM_CHUNK


def test_embed_initial_state_and_target():
    n = 8
    full = embed(reduced_initial_state(n), n)
    np.testing.assert_allclose(full, initial_state(WalkParams(n)), rtol=0, atol=1e-15)
    target = embed(np.array([1.0, 0.0, 0.0]), n)
    assert success_probability(target, 0) == pytest.approx(1.0, abs=1e-14)


def test_project_round_trip_and_residual():
    n = 8
    reduced = random_state(3, seed=7)
    back, residual = project(embed(reduced, n, marked=3), n, marked=3)
    np.testing.assert_allclose(back, reduced, rtol=0, atol=1e-14)
    assert residual < 1e-14
    with pytest.raises(ValueError):
        project(np.zeros(10), 8)
    for n_bad in (1, 2):  # a shape that fits, but too few vertices
        with pytest.raises(ValueError, match="at least 3 vertices"):
            project(np.zeros(n_bad * (n_bad - 1)), n_bad)
    with pytest.raises(ValueError):
        embed(np.zeros(4), 8)


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 64),
    parts=st.lists(st.tuples(_UNIT, _UNIT), min_size=3, max_size=3),
    data=st.data(),
)
def test_embed_project_round_trip_any_n_and_marked(n, parts, data):
    marked = data.draw(st.integers(0, n - 1), label="marked")
    reduced = np.array([complex(re, im) for re, im in parts])
    back, residual = project(embed(reduced, n, marked), n, marked)
    assert np.abs(back - reduced).max() <= 1e-13
    assert residual < 1e-13


@settings(max_examples=300, deadline=None)
@given(
    graph=st.integers(3, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    ),
    kind=st.sampled_from(["random", "embedded", "perturbed"]),
    parts=st.lists(st.tuples(_UNIT, _UNIT), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    nudge=st.floats(1e-18, 1e-8),
    data=st.data(),
)
# a class deviation whose square underflows: the residual once read 0
@example(graph=(3, 0), kind="embedded", seed=0, nudge=1e-18, data=None,
         parts=[(0.0, 0.0), (0.0, 0.0), (0.0, 3.20846806624405e-274)])
def test_projection_residual_bounds_every_class_deviation(graph, kind, parts, seed, nudge, data):
    # verify's one subspace check, projection-residual, is |d|_2 for
    # d = x - embed(project(x)); it also stands for max |d|, the largest
    # deviation of any amplitude from its class mean, since no entry of a
    # vector exceeds its 2-norm.  The allowance is four roundings of the norm.
    n, marked = graph
    if kind == "random":
        state = random_state(n * (n - 1), seed)
    else:
        state = embed(np.array([complex(re, im) for re, im in parts]), n, marked)
    if kind == "perturbed":
        state[data.draw(st.integers(0, n * (n - 1) - 1), label="slot")] += nudge
    reduced, residual = project(state, n, marked)
    assert np.abs(state - embed(reduced, n, marked)).max() <= residual * (1 + 4 * 2**-53)


def test_projection_residual_of_a_tiny_state():
    # Every square of this state's class deviations (9.7e-251 at most)
    # underflows to 0, so an unscaled sum of squares read a residual of 0.
    n, marked = 7, 3
    state = embed(np.array([0.0, 0.0, 7.7e-242j]), n, marked)
    state[0] += 1e-250
    reduced, residual = project(state, n, marked)
    worst = np.abs(state - embed(reduced, n, marked)).max()
    assert worst == pytest.approx(9.7e-251, rel=0.01, abs=0)
    assert worst <= residual * (1 + 4 * 2**-53)


def test_project_single_pair_residual():
    n = 8
    state = np.zeros(n * (n - 1), dtype=complex)
    state[pair_index(n, 3, 5)] = 1.0  # one unmarked-to-unmarked pair
    _, residual = project(state, n)
    expected = math.sqrt(1.0 - 1.0 / ((n - 1) * (n - 2)))
    assert residual == pytest.approx(expected, abs=1e-14)


def test_trajectory_stays_in_subspace():
    n, phi = 16, 0.3
    params = WalkParams(n, phi=phi, eta=corrected_eta(phi, n))
    state = initial_state(params)
    from barrierwalk.walk import step as walk_step

    for _ in range(100):
        state = walk_step(state, params)
        _, residual = project(state, n)
        assert residual < 1e-10


@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("corrected", [False, True])
def test_evolve_reduced_matches_full(phi, corrected):
    n = 5
    eta = corrected_eta(phi, n) if corrected else 0.0
    full = evolve(WalkParams(n, phi=phi, eta=eta), 50)
    red = evolve_reduced(n, phi, eta, 50)
    assert np.abs(full - red).max() < 1e-12


def test_evolve_reduced_validation():
    with pytest.raises(ValueError):
        evolve_reduced(5, 0.0, 0.0, -1)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 10**6),
    phi=st.floats(0.0, math.pi / 2),
    eta=st.floats(allow_nan=False, allow_infinity=False),
)
@example(n=3, phi=math.pi / 2, eta=-math.pi)  # in-plane eigenvalues meet: s ~ 0
@example(n=3, phi=math.pi / 2, eta=math.pi)  # s ~ pi
@example(n=10**6, phi=math.pi / 2, eta=-math.pi)
@example(n=64, phi=0.0, eta=math.pi)
@example(n=64, phi=0.3, eta=2.0 * math.pi + 1.0)
@example(n=64, phi=0.3, eta=-1e300)
def test_closed_form_matches_matrix_powers(n, phi, eta):
    closed = evolve_reduced(n, phi, eta, 400)
    assert np.abs(closed - reduced_power_probs(n, phi, eta, 400)).max() <= 1e-12


def test_closed_form_rotation_limit_at_s_zero():
    # Here sin^2(s/2) underflows to 0, so s = 0 exactly and sin(ts)/sin(s)
    # is its limit t; the curve is still the matrix powers' to 1e-12 relative.
    n, phi, eta = 10**300, math.pi / 2, -math.pi
    closed = evolve_reduced(n, phi, eta, 50)
    np.testing.assert_allclose(closed, reduced_power_probs(n, phi, eta, 50), rtol=1e-12)


# Step counts of the drift gate: a sparse grid up to 2.5 M, both sides of
# two boundaries between evolve_reduced's 16,384-step chunks, then every
# step of the last 300, which span whole rotation periods at N = 10^3.
_DRIFT_STEPS = [1, 2, 10, 100, 1_000, 10_000, 16_383, 16_384, 100_000, 1_000_000]
_DRIFT_STEPS += [2_490_367, 2_490_368, *range(2_499_700, 2_500_001)]


# The drift gate's N and its tolerance on |p - p_50 digits| at every step.
_DRIFT_TOLERANCES = [(10**3, 6e-12), (10**6, 2e-13), (10**9, 1e-14), (10**12, 1e-15)]


def _drift_tolerance(n):
    # The tolerance of the nearest gate N at or below n (the first gate's below 10^3).
    return [tol for gate, tol in _DRIFT_TOLERANCES if gate <= max(n, 10**3)][-1]


@pytest.mark.parametrize("n, tolerance", _DRIFT_TOLERANCES)
def test_evolve_reduced_drift_against_50_digits(n, tolerance):
    # The bounded drift of long trajectories at large N: no error builds up
    # step by step, only the rounding of s, phi and eta/2.  The bounds are
    # the ones documented in reduced.py; phases taken as exp(1j * (t * x)),
    # without _cis's exact head, miss them (9.9e-12 at N = 10^3, 1.1e-14 at
    # N = 10^9).
    pytest.importorskip("mpmath")
    for phi, corrected in [
        (0.0, False),
        (0.3, True),
        (math.asin(0.8), False),
        (math.asin(0.8), True),
        (1.5, False),
        (1.5, True),
    ]:
        eta = corrected_eta(phi, n) if corrected else 0.0
        closed = evolve_reduced(n, phi, eta, _DRIFT_STEPS[-1])[_DRIFT_STEPS]
        exact = reduced_probs_50_digits(n, phi, eta, _DRIFT_STEPS)
        assert np.abs(closed - exact).max() < tolerance, (phi, corrected)


def test_evolve_reduced_memory_is_its_output():
    # Steps are evaluated chunk by chunk, so no temporary grows with steps.
    n, phi = 10**12, math.asin(0.8)
    tracemalloc.start()
    try:
        probs = evolve_reduced(n, phi, corrected_eta(phi, n), 2_500_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * probs.nbytes


# The paper's claim, checked against bounds derived from evolve_reduced's
# closed form.  For the corrected walk the marked amplitude is
#     a(t) = c0 (-e^{i phi})^t + e^{ith} R(t),   R = A cos(ts) + D sin(ts)/sin(s),
# with c0 = (N-2)/((2N-3) sqrt(N)) < 1/(2 sqrt(N)).  F(tau) = |R|^2 at tau = ts
# is a quadratic form in (cos tau, sin tau), so
#     F(tau) = L cos^2(tau - tau_R) + l sin^2(tau - tau_R),
# and (sqrt(F) - c0)^2 <= p(t) <= (sqrt(F) + c0)^2.  Expanded in 1/N, with
# the constants of the next terms read off a 60-digit mpmath evaluation over
# N >= 100 and beta up to 0.9999:
#     L = 1/2 - sin^2(phi)/(4N) + (0 .. 0.39)/N^2,
#     l = sin^2(phi)/(4N) + (0 .. 0.27)/N^2,
#     s >= sqrt(2) cos(phi)/sqrt(N), and larger by at most 0.6/N relative,
#     s/sigma - 1 lies in [0, 1.3/N]  ((1 + 4 sin^2(phi))/(4N) to leading order),
#     tau_R = pi/2 - s/2 exactly, so F peaks at t_c = pi/(2s) - 1/2 steps.
# t* rounds pi/(2 sigma), so 0 <= t* - t_c <= 1 + 1.45/(cos(phi) sqrt(N)).
# Then:
#  1. The peak lies between (sqrt(L) cos(s/2) - c0)^2, at the step nearest
#     t_c, and (sqrt(L) + c0)^2, so
#         |p_peak - 1/2| sqrt(N) <= 1/sqrt(2) + 1/(4 sqrt(N)) + 1/N.
#  2. p(t*) >= (sqrt(L) cos(s (t* - t_c)) - c0)^2, so p_peak - p(t*) is at
#     most 4 c0 sqrt(L) + L s^2 (t* - t_c)^2, and
#         (p_peak - p(t*)) sqrt(N)
#             <= sqrt(2) + (cos(phi) + 1.5/sqrt(N))^2/sqrt(N) + 1/N.
#  3. p at the argmax t_m is at least the peak's lower bound, so
#     (L - l) sin^2(t_m s - tau_R) <= L sin^2(s/2) + 4 c0 sqrt(L), which gives
#         sin^2(t_m s - tau_R) <= Y = (2 sqrt(2)/sqrt(N) + 1/N) / (1 - 2/N):
#     a 1/sqrt(N) ripple on a peak whose curvature is cos^2(phi)/N.  Inside
#     the window |t_m s - tau_R| < pi/2, so
#         |t_m - t*| cos(phi)/N^(1/4)
#             <= arcsin(sqrt(Y)) N^(1/4)/sqrt(2) + (cos(phi) + 1.5/sqrt(N))/N^(1/4),
#     which tends to 2^(1/4).
# The 1/N terms, and 1.5 for 1.45, take in the O(1/N^2) remainders.  The
# cos(phi) in bound 3 matters: where cos(phi) sqrt(N) is about 1,
# |t_m - t*|/N^(1/4) alone reads 2.85.  Bounds 1 and 2 hold for the exact p;
# the computed p may differ from it by the drift gate's tolerance at each
# step, so bound 1 allows that drift times sqrt(N), and bound 2, a difference
# of two readings, twice it.  Over 400 random points the three
# readings, bound 3 with its cos(phi), peaked at 0.708, 1.414 and 0.646.
@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(2.0, 12.0), beta=st.floats(0.0, 0.995))
# cos(phi) sqrt(N) = 1.0: |argmax - t*|/N^(1/4) reads 2.85, or 0.28 times cos(phi)
@example(exponent=2.0, beta=0.995)
@example(exponent=12.0, beta=0.995)  # the costliest point, 15 M steps
# N = 79,853,002,016: the 50-digit peak sits 5.6e-11 under bound 1 in sqrt(N)
# units, the computed one, 2.2e-16 higher in p, 6.7e-12 over it unallowed
@example(exponent=10.90229124777133, beta=0.0)
def test_corrected_walk_peaks_at_one_half_near_t_star(exponent, beta):
    n = round(10**exponent)
    phi = math.asin(beta)
    plan = build_phase_plan(n, phi)
    probs = evolve_reduced(n, phi, plan.eta, math.ceil(1.35 * plan.t_star_exact))
    peak = int(np.argmax(probs))
    assert 0 < peak < len(probs) - 1
    root, quarter, cos = math.sqrt(n), n**0.25, math.cos(phi)
    drift = _drift_tolerance(n) * root
    assert abs(probs[peak] - 0.5) * root <= (
        1 / math.sqrt(2) + 1 / (4 * root) + 1 / n + drift
    )
    assert (probs[peak] - probs[plan.t_star]) * root <= (
        math.sqrt(2) + (cos + 1.5 / root) ** 2 / root + 1 / n + 2 * drift
    )
    y = (2 * math.sqrt(2) / root + 1 / n) / (1 - 2 / n)
    assert abs(peak - plan.t_star) * cos / quarter <= (
        math.asin(math.sqrt(y)) * quarter / math.sqrt(2) + (cos + 1.5 / root) / quarter
    )


# The paper's negative claim: without the correction the search fails once
# c = beta sqrt(N) grows, even as beta -> 0.  With eta = 0, evolve_reduced's
# closed form is exactly (sign +1, as cos(phi) > 0)
#     a(t) = c0 (-e^{i phi})^t + R(ts),   R(tau) = A cos(tau) + D sin(tau)/sin(s),
#     c0 = (N-2)/((2N-3) sqrt(N)) < 1/(2 sqrt(N)),  A = (N-1)/((2N-3) sqrt(N)),
#     A^2 <= (1 + 3/N)/(4N),  |D|^2 = cos^2(phi)/N + A^2 beta^2,
#     sin^2(s/2) = sin^2(phi/2) + cos(phi)/(2(N-1)),
#     sin^2(s) = beta^2 + cos^2(phi) (2N-3)/(N-1)^2.
#  1. Exactly, by the triangle inequality, p(t) <= (c0 + A + |D|/sin(s))^2.
#  2. The limit.  Let B = |D|/sin(s) and q = 1/(2 + c^2).  F = |R|^2 is a
#     quadratic form in (cos tau, sin tau) with maximum L, B^2 <= L <= A^2 + B^2
#     (F(pi/2) = B^2, and |R| <= A |cos| + B |sin|).  Since s exceeds the
#     error-free rotation angle, the default window of 2.8 error-free runtimes
#     spans more than 1.4 pi in tau, so some step lies within s/2 of a maximum
#     of F, and
#         L cos^2(s/2) - 2 c0 sqrt(L) <= p_peak <= (sqrt(L) + c0)^2.
#     Multiplying B^2 through by N, with c^2 = N beta^2,
#         B^2 = (1 - (3/4 - e) beta^2) / (2 + c^2 - (2 + d) beta^2 + d),
#     where N A^2 = 1/4 + e, e < 1/(2N), and d = (N-2)/(N-1)^2 < 1/N.  The
#     denominator is at least (2 + c^2)(1 - 2/N), and c^2/(2 + c^2)^2 <= 1/8,
#     so
#         -0.75/(N (1 - 2/N)) <= B^2 - q <= (1 + 4/N)/(16 N (1 - 2/N)).
#     Also B^2 sin^2(s/2) = |D|^2/(2(1 + cos(s))) <= 1/(2N), 2 c0 sqrt(N) < 1,
#     and sqrt(L) <= sqrt(q) + sqrt(A^2 + (B^2 - q)^+) <= 1/sqrt(2) + 0.57/sqrt(N).
#     At N >= 100 that gives, in sqrt(N) units,
#         p_peak - q <= 1/sqrt(2) + (0.57 + 0.26 + 0.25 + 0.07)/sqrt(N),
#         q - p_peak <= 1/sqrt(2) + (0.57 + 0.77 + 0.5)/sqrt(N),
#     so |p_peak - q| sqrt(N) <= K = 1/sqrt(2) + 2/sqrt(N).
# At beta = c/sqrt(N) the peak tends to 1/(2 + c^2): below the error-free
# 1/2 for any fixed c > 0, and to 0 as c grows.  The computed p may differ
# from the exact one by the drift gate's tolerance at each step, so bound 1
# allows that drift and bound 2 that drift times sqrt(N).  Over about 1,900 random
# points bound 1 read up to 0.999998 of itself and K up to 0.9999 (at large N
# and c = 0.01, where 1/sqrt(2) is the tight leading term).  The argmax is
# not gated: at large c the c0 ripple is as large as the rotating part.
@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(2.0, 12.0), log_c=st.floats(-2.0, 2.0))
@example(exponent=9.0, log_c=0.0)  # c = 1: peaks at 0.33335 against 1/3
@example(exponent=12.0, log_c=-2.0)  # the costliest point, 3.1 M steps
def test_uncorrected_walk_peaks_at_one_over_two_plus_c_squared(exponent, log_c):
    n = round(10**exponent)
    root = math.sqrt(n)
    beta = 10**log_c / root
    assume(beta < 1.0)
    result = run_experiment(WalkSpec(n, beta, corrected=False, mode="dtqw-reduced"))
    phi, tolerance = math.asin(beta), _drift_tolerance(n)
    c0 = (n - 2) / ((2 * n - 3) * root)
    a = (n - 1) / ((2 * n - 3) * root)
    s = 2 * math.asin(math.sqrt(math.sin(phi / 2) ** 2 + math.cos(phi) / (2 * (n - 1))))
    d = math.sqrt(math.cos(phi) ** 2 / n + (a * beta) ** 2)
    assert result.probabilities.max() <= (c0 + a + d / math.sin(s)) ** 2 + tolerance
    limit = 1 / (2 + n * beta**2)
    assert abs(result.peak_probability - limit) * root <= (
        1 / math.sqrt(2) + 2 / root + tolerance * root
    )
