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

By vertex-transitivity the walk from the uniform state stays in span{|m>, |u>}
for any marked m, |u> uniform over the rest, where H = -c I - K, K^2 = w^2 I.
With hop rate g = gamma (1 - epsilon), Delta = (1 - g (N-2)) / 2 and
w = hypot(Delta, g sqrt(N-1)), the global phase drops out and

    p(t) = cos^2(wt) / N + sin^2(wt) (Delta + g (N-1))^2 / (N w^2).

Delta cancels, so it comes from the exact rational g (1/N exactly when
corrected, not rate * (1 - epsilon)); p(t) is then within 1e-15 at any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phases import _check_n as _check_vertices

__all__ = [
    "CtqwParams",
    "corrected_gamma",
    "ctqw_success_curve",
    "ctqw_runtime",
]

_PHASE_LIMIT = 2.0**32  # rad; past it, rounding w*t exceeds 2^-21 rad


def _check_n(n_vertices: int) -> None:
    # The 2x2 model needs one unmarked vertex, not the discrete walk's two;
    # the ceiling on N is the discrete walk's.
    _check_vertices(n_vertices, least=2)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")


def corrected_gamma(n_vertices: int, epsilon: float) -> float:
    """Jumping rate 1/(N*(1-eps)) that undoes the hop attenuation."""
    _check_n(n_vertices)
    _check_epsilon(epsilon)
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

    def __post_init__(self) -> None:
        _check_n(self.n_vertices)
        _check_epsilon(self.epsilon)
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")

    @property
    def rate(self) -> float:
        """Jumping rate used; with gamma None the curve's hop rate is exactly 1/N."""
        if self.gamma is None:
            return corrected_gamma(self.n_vertices, self.epsilon)
        return self.gamma


def ctqw_success_curve(params: CtqwParams, times: np.ndarray) -> np.ndarray:
    """Success probability at each time in `times` (finite, >= 0, w t <= 2^32)."""
    t = np.asarray(times, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError("evolution times must be finite")
    if t.size and t.min() < 0.0:
        raise ValueError("evolution times must be non-negative")
    n, eps = params.n_vertices, Fraction(params.epsilon)
    g = Fraction(1, n) if params.gamma is None else Fraction(params.gamma) * (1 - eps)
    try:
        delta, top = float((1 - g * (n - 2)) / 2), float((1 + g * n) / 2)
    except OverflowError:
        raise ValueError(f"jumping rate {params.rate:g} overflows at N = {n}") from None
    w = math.hypot(delta, float(g) * math.sqrt(n - 1))
    if t.size and t.max() > _PHASE_LIMIT / w:  # t.max() * w could overflow
        raise ValueError(f"times up to {t.max():g} at jumping rate {params.rate:g}"
                         " put the phase w*t past 2^32 rad")
    # cos^2 and sin^2 of one phase array, squared in place: with t, the curve
    # takes three curve-sized arrays at its peak.  (asarray: a 0-d t gives a
    # scalar phase, which sin could not write into.)
    phase = np.asarray(w * t)
    probs = np.cos(phase)
    probs **= 2
    probs /= n
    np.sin(phase, out=phase)
    phase **= 2
    phase *= (top / w) ** 2 / n
    probs += phase
    return probs


def ctqw_runtime(n_vertices: int) -> float:
    """Time pi*sqrt(N)/2 at which the corrected (or error-free) walk peaks."""
    _check_n(n_vertices)
    return math.pi * math.sqrt(n_vertices) / 2.0
