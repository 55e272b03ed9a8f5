"""Statevector engine for coined quantum-walk search on the complete graph.

The walker lives on N vertices, each carrying an (N-1)-dimensional coin
register of outgoing directions.  Amplitudes are stored flat, vertex-major,
with shape (N*(N-1),): coin slot c at vertex v addresses neighbor
w = c if c < v else c + 1 (neighbors in ascending vertex order), so the
flip-flop pairing (v, w) <-> (w, v) is an O(1) index map and one walk step
costs O(N^2) time and memory.  The N(N-1) x N(N-1) unitary is never built.

One search step applies, reading the operator product right to left:

    1. oracle   -- multiply the marked vertex's coin block by -exp(-i*eta)
    2. coin     -- per-vertex diffusion (1 + exp(i*eta))|s><s| - I
    3. lazy shift -- cos(phi)*S + i*sin(phi)*I, the flip-flop shift with
                     amplitude i*sin(phi) of failing to hop (the barrier)

With phi = 0 and eta = 0 this is plain quantum-walk search; nonzero eta is
the phase-matched correction that compensates the barrier (see phases.py).

step and evolve run all three as one in-place pass over the N x (N-1)
matrix of amplitudes, tile pair by tile pair (see _stepper), with no index
permutation or state-sized temporary.  The result is bitwise that of the
three operators applied one at a time, as tests/oracles.py writes them.
Each off-diagonal tile pair is copied into one stacked scratch block, run
there in 9 numpy calls and copied back; the state's views are made once per
call.  Tile rows touch disjoint amplitudes, so a call spreads them, and the
row sums before them, over the calling thread and a pool of one thread per
further usable CPU (the affinity mask) that ends with the call, each thread
taking the next tile row from one shared iterator under a lock (see
_workers and _each).  Every amplitude gets the same floating-point
operations whatever the split.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable

import numpy as np

from .phases import _check_eta, _check_marked, _check_n, _check_phi, _check_steps

__all__ = [
    "WalkParams",
    "vertex_count",
    "initial_state",
    "step",
    "success_probability",
    "evolve",
]

@dataclass(frozen=True)
class WalkParams:
    """Parameters of one walk instance.

    phi parameterizes the barrier: hop amplitude alpha = cos(phi), stay
    amplitude beta = i*sin(phi).  Only this family is accepted; general
    (alpha, beta) pairs are not, since the phase analysis behind the
    correction holds only for real alpha and purely imaginary beta.
    eta = 0 together with phi = 0 reproduces the original error-free walk.
    """

    n_vertices: int
    phi: float = 0.0
    eta: float = 0.0
    marked: int = 0

    def __post_init__(self) -> None:
        _check_n(self.n_vertices)
        _check_phi(self.phi, allow_blocked=True)
        _check_eta(self.eta)
        _check_marked(self.marked, self.n_vertices)

    @property
    def alpha(self) -> float:
        """Amplitude of hopping through the barrier."""
        return math.cos(self.phi)

    @property
    def beta(self) -> complex:
        """Amplitude of staying put (purely imaginary by construction)."""
        return 1j * math.sin(self.phi)

    @property
    def dim(self) -> int:
        return self.n_vertices * (self.n_vertices - 1)


def vertex_count(dim: int) -> int:
    """Invert dim = N*(N-1); rejects lengths not of that form."""
    n = round((1.0 + math.sqrt(1.0 + 4.0 * dim)) / 2.0)
    if n < 3 or n * (n - 1) != dim:
        raise ValueError(f"state length {dim} is not N*(N-1) for any N >= 3")
    return n


# Side of the square tiles _stepper sweeps.  On a 2-vCPU Intel Xeon with
# 2 MB of L2 per core, 112 and 128 ran fastest among 64..128 at N = 1024..4096
# on two threads (96 was 5% faster on one thread at N = 4096); past 128 the
# four 256 KB scratch tiles of a tile row would pass 1 MB per thread.  128
# also ran fastest among 48..192 on a 2-vCPU AMD EPYC with 1 MB of L2 per core.
_TILE = 128


# Threads one evolve or step call may split its state-sized passes across:
# the CPUs this process may run on, from the affinity mask (taskset, cpusets)
# where the platform has one, else the host's count.
if hasattr(os, "sched_getaffinity"):
    _THREADS = len(os.sched_getaffinity(0))
else:
    _THREADS = os.cpu_count() or 1


def _workers(n: int) -> int:
    # Pool threads one evolve or step call at N adds to its calling thread;
    # the pool ends with the call.  The call splits only when every thread
    # gets at least two tile rows (N >= 385 on two threads): a step at
    # N = 200 (two 128-rows) ran slower split in two.  On a 2-vCPU Intel
    # Xeon, in process, a split step ran 7-20% slower than an unsplit one at
    # N = 512 and 1.29x faster at N = 640, so the break-even lies between
    # them; the rule awaits a per-layer figure at N = 512.  Unsplit, the
    # call has no pool and no thread.
    return max(min(_THREADS, -(-n // _TILE) // 2), 1) - 1


def _each(pool: ThreadPoolExecutor | None, workers: int, drain, items) -> None:
    # One pass of a call: drain on each of the pool's worker threads and on
    # the calling thread, all taking items (tile rows) from one iterator, so
    # a thread that finishes one takes the next and the caller is not left
    # idle.  That is one future per worker and pass, not one per tile row.
    # Each next() runs under one lock, so each item goes to exactly one
    # thread with or without a GIL (no item is None, the end of a drain);
    # result() re-raises what a pool thread raised.
    if not workers:
        return drain(items)
    it, lock = iter(items), threading.Lock()

    def take():
        with lock:
            return next(it, None)

    futures = [pool.submit(drain, iter(take, None)) for _ in range(workers)]
    drain(iter(take, None))
    for future in futures:
        future.result()


def _copy(dst: np.ndarray, src: np.ndarray, m: int, starts: Iterable) -> None:
    for k in starts:
        np.copyto(dst[k : k + m], src[k : k + m])


@lru_cache(maxsize=4)
def _tile_permutation(b: int) -> np.ndarray:
    # perm[index(v, ->w)] = index(w, ->v) on the flat layout of K_b, the
    # flip-flop pairing within one of the kernel's diagonal tiles; flat index
    # v*(b-1) + c is vertex v's coin slot c, pointing at w.  It is shaped as
    # the b x (b-1) tile.  Only tile-sized permutations are built and cached,
    # never the state-sized one.
    v = np.repeat(np.arange(b), b - 1)
    c = np.tile(np.arange(b - 1), b)
    w = c + (c >= v)
    # Cached, since a fresh build takes 250-274 us at b = 128.  The array
    # must stay writeable, though nothing ever writes it: numpy's take copies
    # a read-only index on every call (130,240 B and 16-18 us at b = 128,
    # against 96 B and 12-14 us for this one).
    return (w * (b - 1) + (v - (v > w))).reshape(b, b - 1)


def _as_state(state: np.ndarray) -> tuple[np.ndarray, int]:
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {arr.shape}")
    return arr, vertex_count(arr.shape[0])


# _sum_squares squares and sums this many doubles at a time (512 KB).
_NORM_CHUNK = 1 << 16


def _sum_squares(x: np.ndarray) -> float:
    # Sum of |x_i|^2 over a contiguous complex array, the one routine behind
    # every full-space figure (success probabilities, and through _norm the
    # norm drift and project's residual): numpy's pairwise sum over the
    # squares of its float view, a chunk at a time, so no temporary is state
    # sized.  A BLAS dot (np.vdot, np.linalg.norm) rounds differently with
    # the number of threads OpenBLAS splits it across, which it does above
    # 10,000 amplitudes, and its own error (5e-14 at N = 128) hid the 2e-15
    # norm drift of a 100-step walk.  Squares below about 1e-308 lose digits
    # and below 5e-324 vanish, so _norm rescales a state that tiny.
    v = x.view(np.float64)
    total = 0.0
    for k in range(0, v.size, _NORM_CHUNK):
        part = v[k : k + _NORM_CHUNK]
        total += np.add.reduce(part * part)
    return float(total)


def _norm(x: np.ndarray) -> float:
    total = _sum_squares(x)
    if total >= 2.0**-800:
        return math.sqrt(total)
    # Scale the largest component into [0.5, 1) by an exact power of two, so
    # no square underflows, and scale the root back; a zero state stays 0.
    v = x.view(np.float64)
    exponent = math.frexp(np.abs(v).max(initial=0.0))[1]
    return math.ldexp(math.sqrt(_sum_squares(np.ldexp(v, -exponent))), exponent)


def initial_state(params: WalkParams) -> np.ndarray:
    """Equal superposition over all (vertex, direction) pairs."""
    return np.full(params.dim, 1.0 / math.sqrt(params.dim), dtype=np.complex128)


def step(state: np.ndarray, params: WalkParams) -> np.ndarray:
    """One application of the search operator: oracle, then coin, then shift.

    The ordering is fixed; the two reflections sit in the opposite order
    from textbook Grover, which changes nothing asymptotically but matters
    for exact trajectories.  Returns a new array; the input is not modified.

    evolve keeps one state and steps it in place; step stays public because
    verify drives its full-space trajectories through it, one step at a
    time, and the benchmark's self-test counts its calls there.
    """
    arr, n = _as_state(state)
    if n != params.n_vertices:
        raise ValueError(
            f"state is for {n} vertices but params expect {params.n_vertices}"
        )
    out = arr.copy()
    with ThreadPoolExecutor(w) if (w := _workers(n)) else nullcontext() as pool:
        _stepper(out, params, pool, w)()
    return out


def _stepper(flat: np.ndarray, params: WalkParams, pool, workers: int) -> Callable:
    # A function that applies step() to the contiguous complex128 state flat
    # in place, with the same floating-point operations as the oracle, coin
    # and shift applied one at a time (the reference in tests/oracles.py).
    # Amplitude (v, ->w) and its flip-flop partner (w, ->v) sit in the same
    # pair of square tiles (vertex tile I pointing into tile J, and J back
    # into I), and the coin needs only the row means taken up front, so each
    # tile pair is read and rewritten once.  Both state-sized passes go tile
    # row by tile row through _each, on pool's workers and the caller.  What
    # stays fixed from step to step, every view of the state included, is
    # made here once.
    n = params.n_vertices
    a = flat.reshape(n, n - 1)
    marked_row = a[params.marked]
    oracle = -np.exp(-1j * params.eta)
    b = min(_TILE, n)
    sums = np.empty(n, dtype=np.complex128)
    # The coin's (1 + e^{i eta}) * mean, with np.mean's own sum and division.
    # The product goes to an array of its own, as the reference coin's does:
    # numpy rounds an in-place complex product over a one-element array
    # differently.
    coin = 1.0 + np.exp(1j * params.eta)
    cm = np.empty(n, dtype=np.complex128)
    # Per tile row I (vertices i0..i1-1): its rows and their sums; tile
    # (I, I), the flat layout of K_(i1-i0), with its flip-flop permutation
    # and coin means; and for each tile J after I, the slots of I pointing
    # into J (w > v, so slot w - 1), the slots of J pointing back (slot w),
    # and J's coin means.
    tile_rows = []
    for i0 in range(0, n, b):
        i1 = min(i0 + b, n)
        pairs = []
        for j0 in range(i1, n, b):
            u, low = a[i0:i1, j0 - 1 : j0 + b - 1], a[j0 : j0 + b, i0:i1]
            pairs.append((u, low, cm[None, j0 : j0 + b]))
        diagonal = a[i0:i1, i0 : i1 - 1], _tile_permutation(i1 - i0), cm[i0:i1, None]
        tile_rows.append(((a[i0:i1], sums[i0:i1]), (*diagonal, pairs)))
    coin_shift = partial(_coin_shift, b, params.alpha, params.beta)

    def advance() -> None:
        np.multiply(marked_row, oracle, out=marked_row)
        _each(pool, workers, _row_sums, tile_rows)
        np.true_divide(sums, n - 1, out=sums)
        np.multiply(coin, sums, out=cm)
        _each(pool, workers, coin_shift, tile_rows)

    return advance


def _row_sums(tile_rows: Iterable) -> None:
    # Sums of each row, each by one pairwise reduce, as np.mean takes.
    for (rows, total), _ in tile_rows:
        np.add.reduce(rows, 1, out=total)


def _coin_shift(b: int, cos: float, isin: complex, tile_rows: Iterable) -> None:
    # Coin and lazy shift of tile (I, I) and of each pair (I, J), (J, I) for
    # every tile row it takes.  Tile rows touch disjoint amplitudes, so any
    # number of them may run at once, each thread through four tile-sized
    # scratch tiles of its own.  A pair's tiles touch the state only through
    # np.copyto; every ufunc runs on contiguous scratch, and each result is
    # copied back once.  A ufunc over a strided 2-D view pays numpy's
    # overhead per row: at N = 4096 on a 2-vCPU Intel Xeon, a coin subtract
    # reading a state tile took 50-63 us, against 29 us to copy it and
    # subtract.
    scratch = np.empty((4, b * b), dtype=np.complex128)
    for _, (d, perm, cm_i, pairs) in tile_rows:
        x = scratch[0, : d.size].reshape(d.shape)
        y = scratch[1, : d.size].reshape(d.shape)
        np.subtract(cm_i, d, out=x)
        # the indices are in range; mode="raise" would buffer the output
        x.take(perm, out=y, mode="wrap")
        # Written twice: at N <= 128 this tile is the whole contiguous state,
        # where np.add(y, x, out=d) over three distinct arrays ran slower.
        np.multiply(y, cos, out=d)
        x *= isin
        d += x
        for u, low, cm_j in pairs:
            # x stacks the coins of (I, J) and of (J, I), the second in the
            # layout of (I, J), and p their products with cos; each tile's
            # result is cos * partner + i sin * self.
            x, p = scratch[:, : u.size].reshape(2, 2, *u.shape)
            xu, xl = x
            np.copyto(xu, u)
            np.copyto(xl, low.T)
            np.subtract(cm_i, xu, out=xu)
            np.subtract(cm_j, xl, out=xl)
            np.multiply(x, cos, out=p)
            x *= isin
            np.add(p[::-1], x, out=x)
            np.copyto(u, xu)
            np.copyto(low, xl.T)


def success_probability(state: np.ndarray, marked: int) -> float:
    """Total probability on the marked vertex across its coin directions."""
    arr, n = _as_state(state)
    _check_marked(marked, n)
    # contiguous for _sum_squares's float view; a strided state gets a copy
    block = np.ascontiguousarray(arr[marked * (n - 1) : (marked + 1) * (n - 1)])
    return _sum_squares(block)


def evolve(params: WalkParams, steps: int) -> np.ndarray:
    """Success-probability trajectory; entry t is after t steps (entry 0 = 1/N)."""
    _check_steps(steps)
    n = params.n_vertices
    state = np.empty(params.dim, dtype=np.complex128)
    probs = np.empty(steps + 1)
    with ThreadPoolExecutor(w) if (w := _workers(n)) else nullcontext() as pool:
        # initial_state's bytes, written tile row by tile row on the call's
        # threads, so the first touch of the state's pages (268 MB at
        # N = 4096) splits across them.
        fill = np.broadcast_to(1.0 / math.sqrt(params.dim), state.shape)
        m = _TILE * (n - 1)
        _each(pool, w, partial(_copy, state, fill, m), range(0, state.size, m))
        probs[0] = success_probability(state, params.marked)
        advance = _stepper(state, params, pool, w)
        for t in range(1, steps + 1):
            advance()
            probs[t] = success_probability(state, params.marked)
    return probs
