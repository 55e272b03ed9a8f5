"""Exact 3-dimensional model of walk search on the complete graph.

Started from the uniform superposition, the full walk never leaves the span
of three symmetry-adapted states, indexed in this order throughout:

    ab -- the marked vertex pointing at unmarked vertices
    ba -- unmarked vertices pointing at the marked one
    bb -- unmarked vertices pointing among themselves

This module builds the walk operators restricted to that subspace (3x3
matrices in the (ab, ba, bb) basis), the distinguished states used in the
rotation analysis, and the isometry between the subspace and the full
N*(N-1)-dimensional space.  Reduced trajectories match full-space ones to
machine precision at a cost independent of N, which is what makes large
sweeps affordable.

The key structural fact: psi_minus_one below is a (-1)-eigenvector of the
combined coin/oracle matrix for every phase eta, so the interesting dynamics
happen in the plane orthogonal to it, spanned by the target state w and its
in-plane complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phases import _check_eta, _check_marked, _check_n, _check_phi, _check_steps
from .walk import _slot_endpoints

__all__ = [
    "ReducedOperators",
    "build_reduced_operators",
    "psi_minus_one",
    "s_and_w_states",
    "w_perp_state",
    "s_perp_state",
    "reduced_initial_state",
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

    n_vertices: int
    phi: float
    eta: float
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
    return ReducedOperators(
        n_vertices=n_vertices,
        phi=phi,
        eta=eta,
        shift=shift,
        coin_oracle=coin_oracle,
        step=shift @ coin_oracle,
    )


def psi_minus_one(n_vertices: int) -> np.ndarray:
    """(-1)-eigenvector of the coin/oracle matrix, independent of eta."""
    _check_n(n_vertices)
    root = math.sqrt(n_vertices - 2.0)
    vec = np.array([-root, -root, 1.0], dtype=np.complex128)
    return vec / math.sqrt(2.0 * n_vertices - 3.0)


def s_and_w_states(n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """The coin-uniform unmarked state s and the target state w.

    Both are orthogonal to psi_minus_one, so they live in the plane where
    the corrected walk rotates.  Their overlap is <s|w> = -1/sqrt(2(N-1)),
    whose magnitude is sin(theta) from the phase-matching condition.
    """
    _check_n(n_vertices)
    n = n_vertices
    s = np.array(
        [0.0, 1.0 / math.sqrt(n - 1.0), math.sqrt((n - 2.0) / (n - 1.0))],
        dtype=np.complex128,
    )
    w = np.array([1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return s, w


def _perp_within_plane(anchor: np.ndarray, other: np.ndarray) -> np.ndarray:
    # Gram-Schmidt: unit vector orthogonal to anchor inside span{anchor, other},
    # sign fixed so the bb component is positive.
    vec = other - np.vdot(anchor, other) * anchor
    vec = vec / np.linalg.norm(vec)
    if vec[2].real < 0.0:
        vec = -vec
    return vec


def w_perp_state(n_vertices: int) -> np.ndarray:
    """Unit vector orthogonal to w in the plane orthogonal to psi_minus_one."""
    s, w = s_and_w_states(n_vertices)
    return _perp_within_plane(w, s)


def s_perp_state(n_vertices: int) -> np.ndarray:
    """Unit vector orthogonal to s in the plane orthogonal to psi_minus_one."""
    s, w = s_and_w_states(n_vertices)
    return _perp_within_plane(s, w)


def reduced_initial_state(n_vertices: int) -> np.ndarray:
    """The uniform full-space state expressed in the (ab, ba, bb) basis."""
    _check_n(n_vertices)
    vec = np.array(
        [1.0, 1.0, math.sqrt(n_vertices - 2.0)], dtype=np.complex128
    )
    return vec / math.sqrt(n_vertices)


@lru_cache(maxsize=8)
def symmetry_classes(
    n_vertices: int, marked: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the ab, ba, bb classes in the flat full-space layout."""
    _check_n(n_vertices)
    _check_marked(marked, n_vertices)
    v, w = _slot_endpoints(n_vertices)
    ab = np.flatnonzero(v == marked)
    ba = np.flatnonzero((v != marked) & (w == marked))
    bb = np.flatnonzero((v != marked) & (w != marked))
    for idx in (ab, ba, bb):
        idx.flags.writeable = False
    return ab, ba, bb


def embed(
    reduced: np.ndarray, n_vertices: int, marked: int = 0
) -> np.ndarray:
    """Isometrically map (ab, ba, bb) amplitudes into the full flat state."""
    amps = np.asarray(reduced, dtype=np.complex128)
    if amps.shape != (3,):
        raise ValueError(f"reduced state must have shape (3,), got {amps.shape}")
    ab, ba, bb = symmetry_classes(n_vertices, marked)
    full = np.zeros(n_vertices * (n_vertices - 1), dtype=np.complex128)
    full[ab] = amps[0] / math.sqrt(len(ab))
    full[ba] = amps[1] / math.sqrt(len(ba))
    full[bb] = amps[2] / math.sqrt(len(bb))
    return full


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
    arr = np.asarray(full, dtype=np.complex128)
    dim = n_vertices * (n_vertices - 1)
    if arr.shape != (dim,):
        raise ValueError(f"full state must have shape ({dim},), got {arr.shape}")
    ab, ba, bb = symmetry_classes(n_vertices, marked)
    reduced = np.array(
        [
            arr[ab].sum() / math.sqrt(len(ab)),
            arr[ba].sum() / math.sqrt(len(ba)),
            arr[bb].sum() / math.sqrt(len(bb)),
        ],
        dtype=np.complex128,
    )
    residual = float(np.linalg.norm(arr - embed(reduced, n_vertices, marked)))
    return reduced, residual


def evolve_reduced(
    n_vertices: int, phi: float, eta: float, steps: int
) -> np.ndarray:
    """Success-probability trajectory from the 3x3 model; entry t is after t steps."""
    _check_steps(steps)
    ops = build_reduced_operators(n_vertices, phi, eta)
    state = reduced_initial_state(n_vertices)
    probs = np.empty(steps + 1)
    probs[0] = abs(state[0]) ** 2
    for t in range(1, steps + 1):
        state = ops.step @ state
        probs[t] = abs(state[0]) ** 2
    return probs
