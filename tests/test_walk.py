"""Full-space walk engine versus definitions and dense references."""

import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrierwalk import walk
from barrierwalk.phases import corrected_eta
from barrierwalk.reduced import evolve_reduced
from barrierwalk.walk import (
    WalkParams,
    evolve,
    initial_state,
    step,
    success_probability,
    vertex_count,
)

from oracles import (
    apply_coin,
    apply_lazy_shift,
    apply_oracle,
    apply_step,
    dense_coin,
    dense_oracle,
    dense_shift,
    dense_step,
    pair_index,
    random_state,
)


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(2)
    with pytest.raises(ValueError):
        WalkParams(8, phi=-0.1)
    with pytest.raises(ValueError):
        WalkParams(8, phi=math.pi / 2 + 0.01)
    with pytest.raises(ValueError):
        WalkParams(8, marked=8)
    params = WalkParams(8, phi=0.3)
    assert params.alpha == math.cos(0.3)
    assert params.beta == 1j * math.sin(0.3)
    assert params.dim == 56


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        WalkParams(5, eta=eta)


def test_vertex_count():
    assert vertex_count(6) == 3
    assert vertex_count(1024 * 1023) == 1024
    for bad in (0, 5, 7, 100):
        with pytest.raises(ValueError):
            vertex_count(bad)


def test_initial_state_uniform():
    state = initial_state(WalkParams(3))
    assert state.shape == (6,)
    np.testing.assert_allclose(state, 1.0 / math.sqrt(6.0), rtol=0, atol=1e-15)
    assert initial_state(WalkParams(1024)).shape == (1024 * 1023,)


@pytest.mark.parametrize("n", [3, 10, 100])
def test_initial_success_probability(n):
    state = initial_state(WalkParams(n))
    assert success_probability(state, 0) == pytest.approx(1.0 / n, abs=1e-15)


def test_lazy_shift_phi0_is_flip_flop():
    n = 5
    state = random_state(n * (n - 1), seed=11)
    shifted = apply_lazy_shift(state, 0.0)
    for v in range(n):
        for w in range(n):
            if v != w:
                assert shifted[pair_index(n, v, w)] == state[pair_index(n, w, v)]


def test_lazy_shift_phi0_involution():
    state = random_state(30, seed=12)
    twice = apply_lazy_shift(apply_lazy_shift(state, 0.0), 0.0)
    assert np.abs(twice - state).max() < 1e-14


def test_lazy_shift_blocked_multiplies_by_i():
    # cos(pi/2) only underflows to ~6e-17, hence the tolerance
    state = random_state(30, seed=13)
    shifted = apply_lazy_shift(state, math.pi / 2)
    np.testing.assert_allclose(shifted, 1j * state, rtol=0, atol=1e-15)


def test_lazy_shift_preserves_norm():
    state = random_state(8 * 7, seed=14)
    assert abs(np.linalg.norm(apply_lazy_shift(state, 0.3)) - 1.0) < 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.7, -1.8555291827073437])
def test_coin_matches_dense(eta):
    n = 6
    state = random_state(n * (n - 1), seed=21)
    expected = dense_coin(n, eta) @ state
    np.testing.assert_allclose(apply_coin(state, eta), expected, rtol=0, atol=1e-14)


def test_coin_eigenblocks():
    n, eta = 6, 0.9
    dim = n * (n - 1)
    # all-equal coin block is an e^{i eta} eigenvector of the coin
    uniform = np.zeros(dim, dtype=complex)
    uniform[0 : n - 1] = 1.0 / math.sqrt(n - 1.0)
    out = apply_coin(uniform, eta)
    np.testing.assert_allclose(out, np.exp(1j * eta) * uniform, rtol=0, atol=1e-14)
    # zero-mean block gets negated
    skew = np.zeros(dim, dtype=complex)
    skew[0], skew[1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(apply_coin(skew, eta), -skew, rtol=0, atol=1e-14)


def test_oracle_eta0_sign_flip():
    n, marked = 6, 2
    state = random_state(n * (n - 1), seed=31)
    flipped = apply_oracle(state, marked, 0.0)
    lo, hi = marked * (n - 1), (marked + 1) * (n - 1)
    np.testing.assert_allclose(flipped[lo:hi], -state[lo:hi], rtol=0, atol=1e-15)
    assert np.array_equal(np.delete(flipped, range(lo, hi)), np.delete(state, range(lo, hi)))


def test_oracle_eta_pi_is_identity():
    state = random_state(30, seed=32)
    np.testing.assert_allclose(
        apply_oracle(state, 1, math.pi), state, rtol=0, atol=1e-15
    )


def test_oracle_matches_dense_and_preserves_block_norm():
    n, marked, eta = 8, 3, 0.5
    state = random_state(n * (n - 1), seed=33)
    out = apply_oracle(state, marked, eta)
    np.testing.assert_allclose(
        out, dense_oracle(n, marked, eta) @ state, rtol=0, atol=1e-14
    )
    lo, hi = marked * (n - 1), (marked + 1) * (n - 1)
    assert np.linalg.norm(out[lo:hi]) == pytest.approx(
        np.linalg.norm(state[lo:hi]), abs=1e-14
    )
    assert np.array_equal(np.delete(out, range(lo, hi)), np.delete(state, range(lo, hi)))
    with pytest.raises(ValueError):
        apply_oracle(state, n, eta)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("marked", [0, 2])
def test_step_matches_dense_operator(n, phi, marked):
    # the load-bearing test: structural update == explicit matrix product,
    # including the oracle -> coin -> shift application order
    eta = corrected_eta(phi, n)
    params = WalkParams(n, phi=phi, eta=eta, marked=marked)
    state = random_state(n * (n - 1), seed=41 + n + marked)
    expected = dense_step(n, phi, eta, marked) @ state
    np.testing.assert_allclose(step(state, params), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("tile", [2, 3])
@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_tiled_step_matches_dense_operator(monkeypatch, tile, n, phi):
    # tiles far below N: off-diagonal tile pairs, a short last tile (tile 2
    # at odd N, tile 3 at N = 5, 7, 8) and the marked vertex in every tile
    monkeypatch.setattr(walk, "_TILE", tile)
    eta = corrected_eta(phi, n)
    state = random_state(n * (n - 1), seed=97 + n)
    for marked in range(n):
        params = WalkParams(n, phi=phi, eta=eta, marked=marked)
        expected = dense_step(n, phi, eta, marked) @ state
        np.testing.assert_allclose(step(state, params), expected, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 300),
    phi=st.floats(0.0, math.pi / 2),
    eta=st.floats(allow_nan=False, allow_infinity=False),
    tile=st.sampled_from([2, 5, 16, walk._TILE]),
    threads=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_step_is_the_apply_composition_and_unitary(
    n, phi, eta, tile, threads, seed, data
):
    # threads > 1 splits the step whenever each thread gets two tile rows,
    # with a short last tile row whenever tile does not divide N
    marked = data.draw(st.integers(0, n - 1), label="marked")
    params = WalkParams(n, phi=phi, eta=eta, marked=marked)
    state = random_state(n * (n - 1), seed=seed)
    before = state.copy()
    with mock.patch.object(walk, "_TILE", tile), mock.patch.object(
        walk, "_THREADS", threads
    ):
        out = step(state, params)
    assert np.array_equal(out, apply_step(state, marked, phi, eta))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-13
    assert np.array_equal(state, before)


@pytest.mark.parametrize("tile", [2, 3])
@pytest.mark.parametrize("threads", [1, 2])
def test_one_vertex_last_tile_row_is_the_apply_composition(monkeypatch, tile, threads):
    # A last tile row of one vertex gives one-row slices of the row sums;
    # numpy rounds an in-place complex product over a one-element array
    # differently, which showed at N = 3 with tile 2 and eta = 2.
    monkeypatch.setattr(walk, "_TILE", tile)
    monkeypatch.setattr(walk, "_THREADS", threads)
    for n in range(3, 14):
        state = random_state(n * (n - 1), seed=n)
        for marked in range(n):
            for phi, eta in ((0.0, 2.0), (0.3, corrected_eta(0.3, n))):
                params = WalkParams(n, phi=phi, eta=eta, marked=marked)
                assert np.array_equal(step(state, params), apply_step(state, marked, phi, eta))


def _nan_empty(real_empty):
    # np.empty that fills what it returns with NaN, so an amplitude or a
    # scratch element read before it is written shows, whatever memory the
    # allocator hands back.
    def empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    return empty


@pytest.mark.parametrize("n", [385, 513, 1000])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_short_last_tile_row_is_the_apply_composition(monkeypatch, n, threads):
    # With the real _TILE these N end in a short tile row (1, 1 and 104
    # vertices), so short J tiles meet full I tiles and the transposed
    # scratch views must take the shape of the state's (J, I) tile; the
    # marked vertex sits in that short row.  Compared bit for bit, so a
    # signed zero that differs shows too.  evolve writes initial_state's
    # bytes itself, tile row by tile row on its threads; np.empty hands out
    # NaN here, so a tile row that fill skips changes every entry.  Three
    # and four threads (at N = 1000, eight tile rows) are three and four
    # drains of one iterator, so a tile row taken twice shows too.
    monkeypatch.setattr(walk, "_THREADS", threads)
    monkeypatch.setattr(np, "empty", _nan_empty(np.empty))
    phi = 0.7
    eta = corrected_eta(phi, n)
    params = WalkParams(n, phi=phi, eta=eta, marked=n - 1)

    state = random_state(n * (n - 1), seed=n)
    assert np.array_equal(
        step(state, params).view(np.uint64),
        apply_step(state, n - 1, phi, eta).view(np.uint64),
    )
    state = initial_state(params)
    probs = [success_probability(state, n - 1)]
    for _ in range(3):
        state = apply_step(state, n - 1, phi, eta)
        probs.append(success_probability(state, n - 1))
    assert np.array_equal(evolve(params, 3).view(np.uint64), np.array(probs).view(np.uint64))
    assert evolve(params, 0).tolist() == probs[:1]


def test_split_step_threads_end_with_the_call(monkeypatch):
    # Two threads split N = 512 (four 128-vertex tile rows) but not N = 256
    # (two rows): the calling thread and a pool of one worker.  Each evolve
    # or step call has its own pool, and no thread of it is alive once the
    # call returns.
    monkeypatch.setattr(walk, "_THREADS", 2)
    pools = []
    real_pool = walk.ThreadPoolExecutor

    def recording_pool(threads):
        pools.append(threads)
        return real_pool(threads)

    monkeypatch.setattr(walk, "ThreadPoolExecutor", recording_pool)
    before = threading.active_count()
    for n, expected in ((256, []), (512, [1, 1])):
        pools.clear()
        params = WalkParams(n, phi=0.3, eta=corrected_eta(0.3, n), marked=n - 1)
        evolve(params, 2)
        assert threading.active_count() == before
        state = random_state(n * (n - 1), seed=n)
        out = step(state, params)
        assert threading.active_count() == before
        assert pools == expected
        assert np.array_equal(out, apply_step(state, params.marked, 0.3, params.eta))


class _DrainError(Exception):
    pass


@pytest.mark.parametrize("where", ["pool", "caller"])
def test_split_evolve_reraises_a_drain_error(monkeypatch, where):
    # A split evolve (N = 512 on two threads) drains each pass on the calling
    # thread and on one pool thread.  An exception raised by either drain
    # comes out of evolve, and the pool's thread still ends with the call.
    monkeypatch.setattr(walk, "_THREADS", 2)
    caller = threading.get_ident()
    row_sums = walk._row_sums

    def failing_row_sums(tile_rows):
        if (threading.get_ident() == caller) == (where == "caller"):
            raise _DrainError(where)
        row_sums(tile_rows)

    monkeypatch.setattr(walk, "_row_sums", failing_row_sums)
    before = threading.active_count()
    with pytest.raises(_DrainError, match=where):
        evolve(WalkParams(512, phi=0.3, eta=corrected_eta(0.3, 512)), 2)
    assert threading.active_count() == before


def test_step_and_evolve_keep_no_index_alive():
    # The kernel caches the flip-flop permutation of its diagonal tiles only;
    # nothing the size of the state's N(N-1) index may stay alive after a
    # step or evolve call returns (at N = 4096 it is 134 MB).
    n = 600  # no other test steps at this N, and its last tile is short
    params = WalkParams(n, phi=0.3, eta=corrected_eta(0.3, n), marked=n - 1)
    state = random_state(n * (n - 1), seed=5)
    walk._tile_permutation.cache_clear()
    for call in (lambda: step(state, params), lambda: evolve(params, 2)):
        tracemalloc.start()
        try:
            out = call()
            kept = tracemalloc.get_traced_memory()[0] - out.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 8 * n * (n - 1) / 4


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_and_evolve_memory_stay_near_one_state():
    # evolve updates its one state in place; step adds only its output copy.
    # Beyond the states, only tile-sized scratch and O(N) vectors are allowed.
    phi = math.asin(0.8)
    params = WalkParams(1024, phi=phi, eta=corrected_eta(phi, 1024), marked=5)
    state_bytes = 16 * params.dim
    assert _traced_peak(lambda: evolve(params, 3)) <= 1.25 * state_bytes
    assert _traced_peak(lambda: step(initial_state(params), params)) <= 2.25 * state_bytes


@pytest.mark.parametrize("threads", [1, 2])
def test_evolve_scratch_stays_four_tiles_per_thread(monkeypatch, threads):
    # Beyond its state, evolve holds four 128 x 128 complex scratch tiles
    # (1 MiB) per thread and a few length-N vectors: 1.28 MiB per thread at
    # N = 1024.  A fifth tile would read 1.53 MiB and spill a 1 MB L2.
    monkeypatch.setattr(walk, "_THREADS", threads)
    params = WalkParams(1024, phi=0.4, eta=corrected_eta(0.4, 1024), marked=5)
    evolve(params, 1)  # the first call also caches the diagonal tiles' index
    per_thread = (_traced_peak(lambda: evolve(params, 3)) - 16 * params.dim) / threads
    assert per_thread <= 1.4 * 2**20


def test_step_rejects_mismatched_state():
    with pytest.raises(ValueError):
        step(initial_state(WalkParams(5)), WalkParams(6))


def test_step_norm_drift_200():
    params = WalkParams(64, phi=0.3, eta=corrected_eta(0.3, 64))
    state = initial_state(params)
    worst = 0.0
    for _ in range(200):
        state = step(state, params)
        worst = max(worst, abs(np.linalg.norm(state) - 1.0))
    assert worst < 1e-10


@pytest.mark.parametrize("size", [1, 7, 64, 1000])
def test_norm_is_a_pairwise_sum_in_chunks(monkeypatch, size):
    # Chunks of 64 doubles split the larger arrays; each chunk's squares are
    # summed pairwise, so the result stays within a few ulps of the exact sum
    # of the rounded squares.
    monkeypatch.setattr(walk, "_NORM_CHUNK", 64)
    x = random_state(size, seed=size) * 3.0
    v = x.view(np.float64)
    exact = math.sqrt(math.fsum(v * v))
    assert walk._norm(x) == pytest.approx(exact, rel=1e-15)
    assert walk._norm(x[:0]) == 0.0


def test_success_probability_concentrated():
    n = 6
    state = np.zeros(n * (n - 1), dtype=complex)
    state[0 : n - 1] = 1.0 / math.sqrt(n - 1.0)
    assert success_probability(state, 0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        success_probability(state, n)


def test_evolve_basics():
    probs = evolve(WalkParams(16), 0)
    assert probs.shape == (1,)
    assert probs[0] == pytest.approx(1.0 / 16.0, abs=1e-15)
    probs = evolve(WalkParams(16, phi=0.2), 25)
    assert probs.shape == (26,)
    assert probs.min() >= 0.0 and probs.max() <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        evolve(WalkParams(16), -1)


def test_full_engine_drift_stays_within_a_per_step_budget():
    # Rounding in the full-space step adds up about linearly in t; the 3x3
    # closed form adds none.  The largest drift / t measured was 7.9e-17 here
    # and 6.0e-17 at N = 256 over 2,000 steps.
    n, phi, steps = 128, math.asin(0.8), 5000
    eta = corrected_eta(phi, n)
    full = evolve(WalkParams(n, phi=phi, eta=eta), steps)
    drift = np.abs(full - evolve_reduced(n, phi, eta, steps))[1:]
    assert (drift <= 2e-16 * np.arange(1, steps + 1)).all()


def test_symmetry_classes_stay_flat():
    # premise of the 3D reduction: amplitudes stay equal within each class
    n, phi = 16, 0.3
    params = WalkParams(n, phi=phi, eta=corrected_eta(phi, n))
    v = np.repeat(np.arange(n), n - 1)
    c = np.tile(np.arange(n - 1), n)
    w = c + (c >= v)
    classes = [
        np.flatnonzero(v == 0),
        np.flatnonzero((v != 0) & (w == 0)),
        np.flatnonzero((v != 0) & (w != 0)),
    ]
    state = initial_state(params)
    for _ in range(100):
        state = step(state, params)
        for idx in classes:
            block = state[idx]
            assert np.abs(block - block.mean()).max() < 1e-10


def test_blocked_uncorrected_walk_stays_flat():
    # with beta = 1 nothing hops, so the marked vertex never accumulates mass
    probs = evolve(WalkParams(16, phi=math.pi / 2), 10)
    np.testing.assert_allclose(probs, 1.0 / 16.0, rtol=0, atol=1e-14)


def test_barrier_free_anchor_half_probability():
    # N=1024 error-free walk crosses 1/2 around step 36
    probs = evolve(WalkParams(1024), 36)
    assert 0.45 <= probs[36] <= 0.55
