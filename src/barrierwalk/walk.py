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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _slot_endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    # For every flat index: the vertex v owning the slot and the neighbor w
    # its coin slot c points at.
    v = np.repeat(np.arange(n), n - 1)
    c = np.tile(np.arange(n - 1), n)
    return v, c + (c >= v)


@lru_cache(maxsize=4)
def _flip_flop_permutation(n: int) -> np.ndarray:
    # perm[index(v, ->w)] = index(w, ->v); an involution on 0..N(N-1)-1
    v, w = _slot_endpoints(n)
    perm = w * (n - 1) + (v - (v > w))
    perm.flags.writeable = False
    return perm


def _as_state(state: np.ndarray) -> tuple[np.ndarray, int]:
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {arr.shape}")
    return arr, vertex_count(arr.shape[0])


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
    for exact trajectories.
    """
    arr, n = _as_state(state)
    if n != params.n_vertices:
        raise ValueError(
            f"state is for {n} vertices but params expect {params.n_vertices}"
        )
    out = apply_oracle(arr, params.marked, params.eta)
    out = apply_coin(out, params.eta)
    return apply_lazy_shift(out, params.phi)


def success_probability(state: np.ndarray, marked: int) -> float:
    """Total probability on the marked vertex across its coin directions."""
    arr, n = _as_state(state)
    _check_marked(marked, n)
    block = arr[marked * (n - 1) : (marked + 1) * (n - 1)]
    return float(np.real(np.vdot(block, block)))


def evolve(params: WalkParams, steps: int) -> np.ndarray:
    """Success-probability trajectory; entry t is after t steps (entry 0 = 1/N)."""
    _check_steps(steps)
    state = initial_state(params)
    probs = np.empty(steps + 1)
    probs[0] = success_probability(state, params.marked)
    for t in range(1, steps + 1):
        state = step(state, params)
        probs[t] = success_probability(state, params.marked)
    return probs
