"""Exact 3-dimensional model of walk search on the complete graph.

Started from the uniform superposition, the full walk never leaves the span
of three symmetry-adapted states, indexed in this order throughout:

    ab -- the marked vertex pointing at unmarked vertices
    ba -- unmarked vertices pointing at the marked one
    bb -- unmarked vertices pointing among themselves

This module builds the walk operators restricted to that subspace (3x3
matrices in the (ab, ba, bb) basis), their eta-independent eigenvector
psi_minus_one, and the isometry between the subspace and the full
N*(N-1)-dimensional space.  The in-plane states of the rotation analysis
(the target w, the unmarked state s and their complements) are written out
in tests/oracles.py, where the tests check them.  The classes are slices of
the N x (N-1) amplitude matrix, taken in one place (_class_slices): ab is the
marked row, ba the two slots pointing at the marked vertex, bb the four
rectangles around them.  embed writes through those slices and project sums
over them, so neither builds a mask, an index array or a copy of a class,
and nothing is cached.

The key structural fact: psi_minus_one below is a (-1)-eigenvector of the
combined coin/oracle matrix for every phase eta, so the interesting dynamics
happen in the plane orthogonal to it, spanned by the target state w and its
in-plane complement, where the step is a rotation.  evolve_reduced evaluates
that rotation in closed form for all steps at once, so no error builds up
from step to step: against 50-digit arithmetic up to t = 2.5 M the success
probability stays within 6e-12 at N = 10^3, 2e-13 at N = 10^6 and 1e-14 at
N >= 10^9.  Its cost is independent of N, which is what makes large sweeps affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phases import _check_eta, _check_marked, _check_n, _check_phi, _check_steps
from .walk import _norm

__all__ = [
    "ReducedOperators",
    "build_reduced_operators",
    "psi_minus_one",
    "embed",
    "project",
    "evolve_reduced",
]

@dataclass(frozen=True, eq=False)
class ReducedOperators:
    """The walk's 3x3 matrices in the (ab, ba, bb) basis.

    step = shift @ coin_oracle, i.e. coin and oracle first, shift last,
    matching the full-space operator ordering.  All three are unitary.
    """

    shift: np.ndarray
    coin_oracle: np.ndarray
    step: np.ndarray


def build_reduced_operators(
    n_vertices: int, phi: float, eta: float = 0.0
) -> ReducedOperators:
    """Construct the reduced shift, combined coin/oracle, and step matrices."""
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=True)
    _check_eta(eta)
    n = n_vertices
    # Flip-flop shift swaps ab <-> ba and fixes bb; the barrier mixes in
    # i*sin(phi) of the identity.
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128)
    shift = math.cos(phi) * swap + 1j * math.sin(phi) * np.eye(3)
    e = np.exp(1j * eta)
    off = (1.0 + e) * math.sqrt(n - 2.0) / (n - 1.0)
    coin_oracle = np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.0, -(n - 2.0 - e) / (n - 1.0), off],
            [0.0, off, ((n - 2.0) * e - 1.0) / (n - 1.0)],
        ],
        dtype=np.complex128,
    )
    return ReducedOperators(shift, coin_oracle, step=shift @ coin_oracle)


def psi_minus_one(n_vertices: int) -> np.ndarray:
    """(-1)-eigenvector of the coin/oracle matrix, independent of eta."""
    _check_n(n_vertices)
    root = math.sqrt(n_vertices - 2.0)
    vec = np.array([-root, -root, 1.0], dtype=np.complex128)
    return vec / math.sqrt(2.0 * n_vertices - 3.0)


def _class_slices(a: np.ndarray, marked: int) -> tuple[tuple[np.ndarray, ...], ...]:
    # The ab, ba and bb classes of the N x (N-1) matrix a, each as views.
    # Slot c of row v points at c + (c >= v), so rows above marked point at it
    # from slot marked - 1 and rows below it from slot marked: ab is the
    # marked row, ba those two column pieces, bb the four rectangles around
    # them.  At marked = 0 or N-1 some of the views are empty.
    m = marked
    ba = (a[:m, m - 1 : m], a[m + 1 :, m : m + 1])
    bb = (a[:m, : m - 1], a[:m, m:], a[m + 1 :, :m], a[m + 1 :, m + 1 :])
    return (a[m],), ba, bb


def _root_size(views: tuple[np.ndarray, ...]) -> float:
    # sqrt of a class's size: its mean is amp / _root_size, its overlap
    # sum / _root_size.
    return math.sqrt(sum(v.size for v in views))


def embed(
    reduced: np.ndarray, n_vertices: int, marked: int = 0
) -> np.ndarray:
    """Isometrically map (ab, ba, bb) amplitudes into the full flat state."""
    amps = np.asarray(reduced, dtype=np.complex128)
    if amps.shape != (3,):
        raise ValueError(f"reduced state must have shape (3,), got {amps.shape}")
    _check_n(n_vertices)
    _check_marked(marked, n_vertices)
    a = np.empty((n_vertices, n_vertices - 1), dtype=np.complex128)
    for amp, views in zip(amps, _class_slices(a, marked)):
        for view in views:
            view[...] = amp / _root_size(views)
    return a.reshape(-1)


def project(
    full: np.ndarray, n_vertices: int, marked: int = 0
) -> tuple[np.ndarray, float]:
    """Adjoint of embed, plus the norm of what the subspace misses.

    Returns (reduced, residual): reduced holds the class-wise overlaps, so
    project(embed(r)) round-trips any r, and residual is the L2 norm of
    full - embed(reduced).  The residual is computed from that difference
    vector directly; the algebraically equal sqrt(|full|^2 - |reduced|^2)
    would turn rounding noise into sqrt(eps)-sized garbage near zero.
    """
    _check_n(n_vertices)
    _check_marked(marked, n_vertices)
    arr = np.asarray(full, dtype=np.complex128)
    dim = n_vertices * (n_vertices - 1)
    if arr.shape != (dim,):
        raise ValueError(f"full state must have shape ({dim},), got {arr.shape}")
    classes = _class_slices(arr.reshape(n_vertices, n_vertices - 1), marked)
    sums = [sum(v.sum() for v in views) / _root_size(views) for views in classes]
    reduced = np.array(sums, dtype=np.complex128)
    gap = embed(reduced, n_vertices, marked)
    return reduced, _norm(np.subtract(arr, gap, out=gap))


# evolve_reduced evaluates steps in chunks of this many, so its temporaries
# stay about 2 MB whatever the step count.  Even, so each chunk starts at an
# even step and (-1)^t restarts with it.
_CHUNK = 1 << 14


def _cis(t, x: float):
    # exp(i t x) for integer t < 2^29, elementwise: the 24-bit head of x times
    # t is exact, so rounding t*x (up to 5e-10 at t = 2.5 M) misses the phase.
    head = float(np.float32(x))
    return np.exp(1j * (t * head)) * np.exp(1j * (t * (x - head)))


def evolve_reduced(n_vertices: int, phi: float, eta: float, steps: int) -> np.ndarray:
    """Success-probability trajectory from the 3x3 model; entry t is after t steps."""
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=True)
    _check_eta(eta)
    _check_steps(steps)
    # The step maps psi_minus_one to -e^{i phi} times itself and has
    # determinant e^{i eta} on the plane orthogonal to it, so its eigenvalues
    # there are e^{i(h +- s)}, h = eta/2.  With eta in [-pi, pi] (cos(h) >= 0)
    # and u = (phi + h)/2, k = cos(phi) cos(h) / (2(N-1)),
    #     sin^2(s/2) = sin^2(u) + k,   cos^2(s/2) = cos^2(u) - k >= cos^2(u) 3/4,
    # both free of cancellation, so s ~ 1/sqrt(N) keeps its relative precision
    # (an eigensolver's absolute error would not).  Past s = pi/2 the same
    # eigenvalues read -e^{ih} e^{+-i(pi - s)}: turn to that pair, so s stays
    # in [0, pi/2] and sin(s) is 0 only at s = 0, where sin(ts)/sin(s) is t.
    # The marked amplitude is then
    #     a(t) = c0 (-e^{i phi})^t + e^{ith} (A cos(ts) + D sin(ts)/sin(s)),
    #     c0 = (N-2)/((2N-3) sqrt(N)),  A = (N-1)/((2N-3) sqrt(N)),
    #     D = cos(phi) cos(h)/sqrt(N) + i A sin(h - phi)   (-D when turned),
    # evaluated below with e^{ith} (or (-e^{ih})^t) divided out of |a(t)|.
    if abs(eta) > math.pi:
        eta = math.atan2(math.sin(eta), math.cos(eta))
    h = 0.5 * eta
    k = math.cos(phi) * math.cos(h) / (2.0 * (n_vertices - 1.0))
    u = 0.5 * (phi + h)
    x, y = math.sin(u) ** 2 + k, math.cos(u) ** 2 - k
    sign = -1.0 if x > y else 1.0
    s = 2.0 * math.atan2(math.sqrt(min(x, y)), math.sqrt(max(x, y)))
    root = math.sqrt(n_vertices)
    c0 = (n_vertices - 2.0) / (2.0 * n_vertices - 3.0) / root
    a = (n_vertices - 1.0) / (2.0 * n_vertices - 3.0) / root
    d = sign * complex(math.cos(phi) * math.cos(h) / root, a * math.sin(h - phi))
    # Tables for t < _CHUNK; each chunk scales them by its first step's phases.
    t = np.arange(min(_CHUNK, steps + 1))
    psi_part = c0 * _cis(t, phi) * _cis(t, -h)
    psi_part[1::2] *= -sign
    rotation = _cis(t, s)
    sin_s = math.sin(s)
    probs = np.empty(steps + 1)
    for t0 in range(0, steps + 1, _CHUNK):
        m = min(_CHUNK, steps + 1 - t0)
        turn = complex(_cis(t0, s)) * rotation[:m]
        ratio = turn.imag / sin_s if sin_s else t0 + t[:m]
        amp = complex(_cis(t0, phi) * _cis(t0, -h)) * psi_part[:m]
        amp += a * turn.real + d * ratio
        probs[t0 : t0 + m] = amp.real**2 + amp.imag**2
    return probs
