"""3x3 reduced model versus the compressed dense operators and the closed-form states."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrierwalk.phases import corrected_eta, overlap_angle
from barrierwalk.reduced import (
    build_reduced_operators,
    embed,
    evolve_reduced,
    project,
    psi_minus_one,
    symmetry_classes,
)
from barrierwalk.walk import WalkParams, evolve, initial_state, success_probability

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
def test_symmetry_classes_shapes(graph, seed):
    # graph is (N, marked vertex); the edges 0 and N-1 are drawn often
    n, marked = graph
    state = random_state(n * (n - 1), seed)
    others = [v for v in range(n) if v != marked]
    # each class gathered through the index convention, in flat order
    expected = [
        [pair_index(n, marked, w) for w in others],
        [pair_index(n, v, marked) for v in others],
        [pair_index(n, v, w) for v in others for w in others if v != w],
    ]
    classes = symmetry_classes(state, marked)
    assert [block.size for block in classes] == [n - 1, n - 1, (n - 1) * (n - 2)]
    for block, idx in zip(classes, expected):
        assert np.array_equal(block, state[idx])


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
    with pytest.raises(ValueError):
        embed(np.zeros(4), 8)


def test_project_reads_classes_it_is_given():
    # verify takes the classes once per step and hands them to project;
    # the result is bitwise the one project gets by taking them itself
    n, marked = 40, 17
    state = random_state(n * (n - 1), seed=11)
    classes = symmetry_classes(state, marked)
    given, residual = project(state, n, marked, classes=classes)
    own, own_residual = project(state, n, marked)
    assert np.array_equal(given.view(np.uint64), own.view(np.uint64))
    assert residual == own_residual


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


@pytest.mark.parametrize(
    "n, tolerance", [(10**3, 6e-12), (10**6, 2e-13), (10**9, 1e-14), (10**12, 1e-15)]
)
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
