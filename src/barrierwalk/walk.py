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

The apply_* functions are the readable reference, one operator each.  step
and evolve run all three as one in-place pass over the N x (N-1) matrix of
amplitudes, tile pair by tile pair (see _stepper): no index
permutation or state-sized temporary, and bitwise the reference's result.
The pass touches the state only to copy each tile into tile-sized scratch
and the result back, once each; the arithmetic runs on contiguous scratch.
Tile rows of that pass touch disjoint amplitudes, so each evolve or step
call hands them, and the row sums taken before them, to a thread pool of
one thread per usable CPU (the affinity mask), which ends with the call;
evolve fills its initial state on the same pool.
A call splits only when every thread gets at least two 128-vertex tile rows
(N > 384 on two CPUs); smaller N runs inline.  Every amplitude gets the
same floating-point operations whatever the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .phases import _check_eta, _check_marked, _check_n, _check_phi, _check_steps

__all__ = [
    "WalkParams",
    "vertex_count",
    "initial_state",
    "apply_lazy_shift",
    "apply_coin",
    "apply_oracle",
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


def _kernel_pool(n: int) -> ThreadPoolExecutor | nullcontext[None]:
    # The pool _stepper spreads its tile rows over during one evolve or
    # step call; its threads take the next tile row as they finish one, and
    # all end with the call.  Split only when every thread gets at least two
    # tile rows: a step at N = 200 (two 128-rows) ran slower split in two, one
    # at N = 512 faster.  Unsplit, the call has no pool and no thread.
    threads = min(_THREADS, -(-n // _TILE) // 2)
    return ThreadPoolExecutor(threads) if threads > 1 else nullcontext()


def _flip_flop_permutation(n: int) -> np.ndarray:
    # perm[index(v, ->w)] = index(w, ->v); an involution on 0..N(N-1)-1.
    # Flat index v*(N-1) + c is vertex v's coin slot c, pointing at w.
    v = np.repeat(np.arange(n), n - 1)
    c = np.tile(np.arange(n - 1), n)
    w = c + (c >= v)
    return w * (n - 1) + (v - (v > w))


@lru_cache(maxsize=4)
def _tile_permutation(b: int) -> np.ndarray:
    # The kernel's diagonal tiles reuse the permutation at tile size; the
    # full-N one (up to 134 MB at N = 4096) is never cached.
    perm = _flip_flop_permutation(b)
    perm.flags.writeable = False
    return perm


def _as_state(state: np.ndarray) -> tuple[np.ndarray, int]:
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {arr.shape}")
    return arr, vertex_count(arr.shape[0])


# _norm squares and sums this many doubles at a time (512 KB).
_NORM_CHUNK = 1 << 16


def _norm(x: np.ndarray) -> float:
    # 2-norm of a contiguous complex array: numpy's pairwise sum over the
    # squares of its float view, a chunk at a time, so no temporary is state
    # sized.  np.linalg.norm is a BLAS dot, whose rounding changes with the
    # number of threads OpenBLAS splits it across, and whose own error (5e-14
    # at N = 128) hid the 2e-15 norm drift of a 100-step walk.
    v = x.view(np.float64)
    total = 0.0
    for k in range(0, v.size, _NORM_CHUNK):
        part = v[k : k + _NORM_CHUNK]
        total += np.add.reduce(part * part)
    return math.sqrt(total)


def initial_state(params: WalkParams) -> np.ndarray:
    """Equal superposition over all (vertex, direction) pairs."""
    return np.full(params.dim, 1.0 / math.sqrt(params.dim), dtype=np.complex128)


def apply_lazy_shift(state: np.ndarray, phi: float) -> np.ndarray:
    """Barrier-afflicted flip-flop shift cos(phi)*S + i*sin(phi)*I."""
    arr, n = _as_state(state)
    perm = _flip_flop_permutation(n)
    return math.cos(phi) * arr[perm] + (1j * math.sin(phi)) * arr


def apply_coin(state: np.ndarray, eta: float = 0.0) -> np.ndarray:
    """Per-vertex diffusion coin (1 + exp(i*eta))|s_c><s_c| - I.

    eta = 0 gives the standard Grover diffusion 2|s_c><s_c| - I.
    """
    arr, n = _as_state(state)
    blocks = arr.reshape(n, n - 1)
    mean = blocks.mean(axis=1, keepdims=True)
    return ((1.0 + np.exp(1j * eta)) * mean - blocks).reshape(-1)


def apply_oracle(state: np.ndarray, marked: int, eta: float = 0.0) -> np.ndarray:
    """Multiply the marked vertex's coin block by -exp(-i*eta).

    eta = 0 is the plain sign flip at the marked vertex.
    """
    arr, n = _as_state(state)
    _check_marked(marked, n)
    out = arr.copy()
    out[marked * (n - 1) : (marked + 1) * (n - 1)] *= -np.exp(-1j * eta)
    return out


def step(state: np.ndarray, params: WalkParams) -> np.ndarray:
    """One application of the search operator: oracle, then coin, then shift.

    The ordering is fixed; the two reflections sit in the opposite order
    from textbook Grover, which changes nothing asymptotically but matters
    for exact trajectories.  Returns a new array; the input is not modified.
    """
    arr, n = _as_state(state)
    if n != params.n_vertices:
        raise ValueError(
            f"state is for {n} vertices but params expect {params.n_vertices}"
        )
    out = arr.copy()
    with _kernel_pool(n) as pool:
        _stepper(out, params, pool)()
    return out


def _stepper(
    flat: np.ndarray, params: WalkParams, pool: ThreadPoolExecutor | None
) -> Callable[[], None]:
    # A function that applies step() to the contiguous complex128 state flat
    # in place, with the same floating-point operations as the apply_*
    # composition; what stays fixed from step to step is prepared here once.
    # Amplitude (v, ->w) and its flip-flop partner (w, ->v) sit in the same
    # pair of square tiles (vertex tile I pointing into tile J, and J back
    # into I), and the coin needs only the row means taken up front, so each
    # tile pair is read and rewritten once.  Both state-sized passes go tile
    # row by tile row, across the pool's threads if there is one (see
    # _kernel_pool); list() drains the map, which also raises what any tile
    # row raised.
    n = params.n_vertices
    a = flat.reshape(n, n - 1)
    marked_row = a[params.marked]
    oracle = -np.exp(-1j * params.eta)
    b = min(_TILE, n)
    starts = range(0, n, b)
    sums = np.empty(n, dtype=np.complex128)
    row_sums = partial(_row_sums, a, b, sums)
    # apply_coin's (1 + e^{i eta}) * mean, with np.mean's own sum and division.
    # The product goes to an array of its own, as apply_coin's does: numpy
    # rounds an in-place complex product over a one-element array differently.
    coin = 1.0 + np.exp(1j * params.eta)
    cm = np.empty(n, dtype=np.complex128)
    coin_shift = partial(_coin_shift_tile_row, a, b, cm, params.alpha, params.beta)
    run = map if pool is None else pool.map

    def advance() -> None:
        np.multiply(marked_row, oracle, out=marked_row)
        list(run(row_sums, starts))
        np.true_divide(sums, n - 1, out=sums)
        np.multiply(coin, sums, out=cm)
        list(run(coin_shift, starts))

    return advance


def _row_sums(a: np.ndarray, b: int, sums: np.ndarray, i0: int) -> None:
    # Sums of rows i0..i0+b-1, each by one pairwise reduce, as np.mean takes.
    np.add.reduce(a[i0 : i0 + b], 1, out=sums[i0 : i0 + b])


def _coin_shift_tile_row(
    a: np.ndarray, b: int, cm: np.ndarray, cos: float, isin: complex, i0: int
) -> None:
    # Coin and lazy shift of tiles (I, J) and (J, I) for J >= I, I the tile
    # of vertices i0..i0+b-1.  Tile rows touch disjoint amplitudes, so any
    # number of them may run at once, each through its own four tile-sized
    # scratch buffers.
    n = a.shape[0]
    i1 = min(i0 + b, n)
    cm_i = cm[i0:i1, None]
    scratch = np.empty((4, b * b), dtype=np.complex128)
    # Vertices i0..i1-1 among themselves: the flat layout of K_(i1-i0).
    d = a[i0:i1, i0 : i1 - 1]
    x, y = scratch[0, : d.size], scratch[1, : d.size]
    coin = x.reshape(d.shape)
    np.subtract(cm_i, d, out=coin)
    # the indices are in range; mode="raise" would buffer the output
    x.take(_tile_permutation(i1 - i0), out=y, mode="wrap")
    np.multiply(y.reshape(d.shape), cos, out=d)
    coin *= isin
    d += coin
    for j0 in range(i1, n, b):
        j1 = min(j0 + b, n)
        # Slots of tile I pointing into tile J (w > v, so slot w - 1), and
        # the slots of tile J pointing back (slot w), tile (J, I), copied in
        # the layout of (I, J).  Only np.copyto touches the state; every
        # ufunc runs on contiguous scratch, and each result is copied back
        # once.  A ufunc over a strided 2-D view pays numpy's overhead per
        # row: at N = 4096 on a 2-vCPU Intel Xeon, a coin subtract reading a
        # state tile took 50-63 us, against 29 us to copy it and subtract.
        u = a[i0:i1, j0 - 1 : j1 - 1]
        low = a[j0:j1, i0:i1]
        cu, cl, q, r = scratch[:, : u.size].reshape(4, *u.shape)
        np.copyto(cu, u)
        np.copyto(cl, low.T)
        np.subtract(cm_i, cu, out=cu)
        np.subtract(cm[None, j0:j1], cl, out=cl)
        np.multiply(cu, isin, out=q)
        np.multiply(cl, cos, out=r)
        np.add(r, q, out=q)
        np.copyto(u, q)
        cu *= cos
        cl *= isin
        np.add(cu, cl, out=q)
        np.copyto(low, q.T)


def success_probability(state: np.ndarray, marked: int) -> float:
    """Total probability on the marked vertex across its coin directions."""
    arr, n = _as_state(state)
    _check_marked(marked, n)
    block = arr[marked * (n - 1) : (marked + 1) * (n - 1)]
    return float(np.real(np.vdot(block, block)))


def evolve(params: WalkParams, steps: int) -> np.ndarray:
    """Success-probability trajectory; entry t is after t steps (entry 0 = 1/N)."""
    _check_steps(steps)
    n = params.n_vertices
    state = np.empty(params.dim, dtype=np.complex128)
    rows, b = state.reshape(n, n - 1), min(_TILE, n)
    value = 1.0 / math.sqrt(params.dim)
    probs = np.empty(steps + 1)
    with _kernel_pool(n) as pool:
        # initial_state's bytes, written tile row by tile row on the pool's
        # threads, so the first touch of the state's pages (268 MB at
        # N = 4096) splits across them.
        run = map if pool is None else pool.map
        list(run(lambda i0: rows[i0 : i0 + b].fill(value), range(0, n, b)))
        probs[0] = success_probability(state, params.marked)
        advance = _stepper(state, params, pool)
        for t in range(1, steps + 1):
            advance()
            probs[t] = success_probability(state, params.marked)
    return probs
