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
in tests/oracles.py, where the tests check them.  The classes are read
straight off the N x (N-1) amplitude matrix (the ab row and the ba slots are
slices of it), so embed and project build no N(N-1) index array and cache
nothing.

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
from .walk import _as_state, _norm

__all__ = [
    "ReducedOperators",
    "build_reduced_operators",
    "psi_minus_one",
    "symmetry_classes",
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


def _ba_views(a: np.ndarray, marked: int) -> tuple[np.ndarray, np.ndarray]:
    # The slots of the N x (N-1) matrix a that point at the marked vertex.
    # Slot c of row v points at c + (c >= v), so rows above marked use slot
    # marked - 1 and rows below it slot marked; at marked = 0 or N-1 one
    # view is empty.
    return a[:marked, marked - 1 : marked], a[marked + 1 :, marked : marked + 1]


def symmetry_classes(
    full: np.ndarray, marked: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ab, ba and bb amplitudes of a full state, each class in flat order.

    ab is a view of the marked vertex's row; ba and bb are copied per call.
    """
    arr, n = _as_state(full)
    _check_marked(marked, n)
    a = arr.reshape(n, n - 1)
    others = np.ones(a.shape, dtype=bool)
    others[marked] = False
    for view in _ba_views(others, marked):
        view[...] = False
    return a[marked], np.concatenate(_ba_views(a, marked), axis=None), a[others]


def embed(
    reduced: np.ndarray, n_vertices: int, marked: int = 0
) -> np.ndarray:
    """Isometrically map (ab, ba, bb) amplitudes into the full flat state."""
    amps = np.asarray(reduced, dtype=np.complex128)
    if amps.shape != (3,):
        raise ValueError(f"reduced state must have shape (3,), got {amps.shape}")
    _check_n(n_vertices)
    _check_marked(marked, n_vertices)
    n = n_vertices
    a = np.full((n, n - 1), amps[2] / math.sqrt((n - 1) * (n - 2)))
    a[marked] = amps[0] / math.sqrt(n - 1)
    for view in _ba_views(a, marked):
        view[...] = amps[1] / math.sqrt(n - 1)
    return a.reshape(-1)


def project(
    full: np.ndarray, n_vertices: int, marked: int = 0, *, classes: tuple | None = None
) -> tuple[np.ndarray, float]:
    """Adjoint of embed, plus the norm of what the subspace misses.

    Returns (reduced, residual): reduced holds the class-wise overlaps, so
    project(embed(r)) round-trips any r, and residual is the L2 norm of
    full - embed(reduced).  The residual is computed from that difference
    vector directly; the algebraically equal sqrt(|full|^2 - |reduced|^2)
    would turn rounding noise into sqrt(eps)-sized garbage near zero.
    A caller that already holds symmetry_classes(full, marked) passes them
    as classes, and they are not taken again.
    """
    arr = np.asarray(full, dtype=np.complex128)
    dim = n_vertices * (n_vertices - 1)
    if arr.shape != (dim,):
        raise ValueError(f"full state must have shape ({dim},), got {arr.shape}")
    if classes is None:
        classes = symmetry_classes(arr, marked)
    reduced = np.array(
        [block.sum() / math.sqrt(block.size) for block in classes],
        dtype=np.complex128,
    )
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
