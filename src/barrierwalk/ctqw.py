"""Continuous-time walk search on the complete graph with weakened hopping.

Hamiltonian convention: H = -gamma * (1 - epsilon) * A - |m><m|, where A is
the adjacency matrix of the simple complete graph (no self-loops), epsilon
in [0, 1) scales down every hop the same way a potential barrier does, and
|m> is the marked vertex.  Because the barrier enters as an overall factor
on A, choosing gamma = 1/(N * (1 - epsilon)) cancels it exactly: the
corrected dynamics reproduce the error-free search (gamma = 1/N) for every
evolution time, and the peak stays at t = pi * sqrt(N) / 2.  This is the
continuous-time counterpart of the discrete walk's phase correction, with
the notable difference that here the fix is exact rather than asymptotic.

By vertex-transitivity the evolution from the uniform state stays in
span{|m>, uniform-over-unmarked}, so probabilities come from a 2x2
eigendecomposition instead of an N x N matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CtqwParams",
    "corrected_gamma",
    "effective_hamiltonian",
    "ctqw_success_probability",
    "ctqw_success_curve",
    "ctqw_runtime",
]


def corrected_gamma(n_vertices: int, epsilon: float) -> float:
    """Jumping rate 1/(N*(1-eps)) that undoes the hop attenuation."""
    if n_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {n_vertices}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    return 1.0 / (n_vertices * (1.0 - epsilon))


@dataclass(frozen=True)
class CtqwParams:
    """Search instance for the continuous-time walk.

    gamma = None means "use the corrected rate for this epsilon"; pass an
    explicit gamma to model a miscalibrated walk, e.g. gamma = 1/N with
    epsilon > 0 shows how badly the uncorrected choice performs.
    """

    n_vertices: int
    epsilon: float = 0.0
    gamma: float | None = None
    marked: int = 0

    def __post_init__(self) -> None:
        if self.n_vertices < 2:
            raise ValueError(f"need at least 2 vertices, got {self.n_vertices}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not 0 <= self.marked < self.n_vertices:
            raise ValueError(
                f"marked vertex {self.marked} outside [0, {self.n_vertices})"
            )

    @property
    def rate(self) -> float:
        """Jumping rate actually used."""
        if self.gamma is None:
            return corrected_gamma(self.n_vertices, self.epsilon)
        return self.gamma


def effective_hamiltonian(params: CtqwParams) -> np.ndarray:
    """H compressed to the orthonormal basis {|m>, |u>}.

    |u> is the uniform superposition over unmarked vertices; by symmetry the
    search dynamics never leave this plane.  The matrix is real symmetric.
    """
    n = params.n_vertices
    hop = params.rate * (1.0 - params.epsilon)
    root = math.sqrt(n - 1.0)
    return -hop * np.array([[0.0, root], [root, n - 2.0]]) - np.diag([1.0, 0.0])


def _eigensystem(params: CtqwParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    evals, evecs = np.linalg.eigh(effective_hamiltonian(params))
    n = params.n_vertices
    start = np.array([1.0 / math.sqrt(n), math.sqrt((n - 1.0) / n)])
    return evals, evecs, evecs.T @ start


def ctqw_success_curve(params: CtqwParams, times: np.ndarray) -> np.ndarray:
    """Success probability at each time in `times` (all must be >= 0)."""
    t = np.asarray(times, dtype=np.float64)
    if t.size and t.min() < 0.0:
        raise ValueError("evolution times must be non-negative")
    evals, evecs, coeffs = _eigensystem(params)
    # amplitude on |m>: sum_k e^{-i E_k t} <m|k><k|psi0>
    phases = np.exp(-1j * np.outer(t, evals))
    amps = phases @ (evecs[0] * coeffs)
    return np.abs(amps) ** 2


def ctqw_success_probability(params: CtqwParams, t: float) -> float:
    """Probability of measuring the marked vertex after evolving for time t."""
    if not t >= 0.0:
        raise ValueError(f"evolution time must be non-negative, got {t}")
    return float(ctqw_success_curve(params, np.array([t]))[0])


def ctqw_runtime(n_vertices: int) -> float:
    """Time pi*sqrt(N)/2 at which the corrected (or error-free) walk peaks."""
    if n_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {n_vertices}")
    return math.pi * math.sqrt(n_vertices) / 2.0
