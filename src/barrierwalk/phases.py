"""Phase matching for barrier-corrected walk search.

A barrier of strength phi makes each lazy-shift application deposit an extra
phase on the moving part of the state.  Choosing the coin/oracle phase eta so
that the generalized Grover step closes back onto a two-dimensional rotation
restores the Theta(sqrt(N)) runtime of the error-free search.  This module
computes that correction phase, the per-step rotation angle sigma it induces,
and the resulting runtime predictions, including the asymptotic blowup as
phi approaches the blocking point pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BlockedRegimeError",
    "PhasePlan",
    "overlap_angle",
    "corrected_eta",
    "rotation_angle_sigma",
    "runtime_t_star",
    "runtime_t_star_exact",
    "runtime_large_n",
    "build_phase_plan",
]

_HALF_PI = math.pi / 2


class BlockedRegimeError(ValueError):
    """Raised at phi = pi/2, where the hop amplitude vanishes.

    The walker cannot move, the search never succeeds, and no finite
    correction phase or runtime exists.  Kept distinct from plain
    ValueError so callers can branch on "blocked" without string matching.
    """


# Largest N accepted: past it 1/N nears the subnormal floats (at N = 10^308
# the step-0 probability already rounds to 0), and past about 1.8e308 N no
# longer converts to a float at all.
_MAX_N = 10**300


def _check_n(n_vertices: int, least: int = 3) -> None:
    if n_vertices < least:
        raise ValueError(f"need at least {least} vertices, got {n_vertices}")
    if n_vertices > _MAX_N:
        raise ValueError(
            f"need at most 10^300 vertices, got a {len(str(n_vertices))}-digit N"
        )


def _check_phi(phi: float, allow_blocked: bool) -> None:
    if not 0.0 <= phi <= _HALF_PI:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    if not allow_blocked and phi == _HALF_PI:
        raise BlockedRegimeError(
            "phi = pi/2 blocks every hop; no correction phase exists"
        )


def _check_marked(marked: int, n_vertices: int) -> None:
    if not 0 <= marked < n_vertices:
        raise ValueError(f"marked vertex {marked} outside [0, {n_vertices})")


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")


def _check_eta(eta: float) -> None:
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def overlap_angle(n_vertices: int) -> float:
    """Angle theta between the uniform state and the unmarked subspace.

    sin(theta) = 1/sqrt(2(N-1)); this is the theta that enters the
    phase-matching condition.
    """
    _check_n(n_vertices)
    return math.asin(1.0 / math.sqrt(2.0 * (n_vertices - 1)))


def corrected_eta(phi: float, n_vertices: int) -> float:
    """Coin/oracle phase that compensates a barrier of strength phi.

    Solves tan(eta/2) = -tan(phi) * (N-1)/(N-2); the two-argument arctangent
    form below is exact for eta -> -2*phi as N grows and stays finite as
    phi -> pi/2, where tan(phi) would overflow.
    """
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=False)
    eta = -2.0 * math.atan2(
        math.sin(phi) * (n_vertices - 1), math.cos(phi) * (n_vertices - 2)
    )
    # adding 0.0 turns the -0.0 produced at phi = 0 into a plain 0.0
    return eta + 0.0


def _scaled_hoyer_residual(phi: float, eta: float, theta: float) -> float:
    # Hoyer's phase-matching defect tan(-phi) - tan(eta/2) (1 - 2 sin^2 theta),
    # zero exactly when (phi, eta) match for overlap angle theta, times
    # cos(phi) cos(eta/2), which has the same zeros and no tangent:
    #     -sin(phi) cos(eta/2) - sin(eta/2) cos(phi) (1 - 2 sin^2 theta).
    # Near phi = pi/2 the tangent form subtracts two tan(phi)-sized terms, and
    # the rounding of eta alone moves it by 1e-8 at phi = 1.5707; here every
    # term is at most 1 in size, so its rounding stays near 1e-16.  verify
    # checks this form; the tangent form is kept in tests/oracles.py.
    h = eta / 2.0
    return -math.sin(phi) * math.cos(h) - math.sin(h) * math.cos(phi) * (
        1.0 - 2.0 * math.sin(theta) ** 2
    )


def rotation_angle_sigma(phi: float, n_vertices: int) -> float:
    """Per-step rotation angle of the corrected walk.

    sin(sigma) equals the overlap between the marked target and the image of
    the uniform state under one corrected step, which evaluates to
    sqrt((1 + cos(eta))/N) with eta the exact correction phase.  Since
    tan(eta/2) = -y/x with x = cos(phi)(N-2) and y = sin(phi)(N-1), it is
    computed from 1 + cos(eta) = 2 cos(eta/2)^2 = 2x^2/(x^2 + y^2), which
    keeps full relative accuracy as phi approaches pi/2, where 1 + cos(eta)
    cancels; hypot keeps x^2 + y^2 from overflowing at huge N.  For large N
    sigma approaches asin(sqrt(2/N) cos(phi)).  At phi = pi/2 the rotation
    degenerates; sigma = 0 there.
    """
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=True)
    if phi == _HALF_PI:
        return 0.0
    x = math.cos(phi) * (n_vertices - 2)
    y = math.sin(phi) * (n_vertices - 1)
    return math.asin(math.sqrt(2.0 / n_vertices) * x / math.hypot(x, y))


def runtime_t_star_exact(phi: float, n_vertices: int) -> float:
    """Unrounded runtime pi/(2*sigma) of the corrected walk."""
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=False)
    return math.pi / (2.0 * rotation_angle_sigma(phi, n_vertices))


def runtime_t_star(phi: float, n_vertices: int) -> int:
    """Predicted number of corrected steps to peak success probability.

    Rounds pi/(2*sigma) half-up to an integer step count; >= 1 whenever
    phi < pi/2.  phi = pi/2 raises BlockedRegimeError rather than
    returning a sentinel.
    """
    return int(math.floor(runtime_t_star_exact(phi, n_vertices) + 0.5))


def runtime_large_n(phi: float, n_vertices: int) -> float:
    """Leading-order runtime pi*sqrt(N) / (2*sqrt(1 + cos(2*phi))).

    Computed as pi*sqrt(N) / (2*sqrt(2)*cos(phi)), since 1 + cos(2*phi) =
    2*cos(phi)^2 would cancel as phi approaches pi/2.
    """
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=False)
    return math.pi * math.sqrt(n_vertices) / (2.0 * math.sqrt(2.0) * math.cos(phi))


@dataclass(frozen=True)
class PhasePlan:
    """Everything phase-related for one (N, phi) search instance.

    blocked is True exactly at phi = pi/2; there eta and the runtimes are
    None (the walk never finds the target) and sigma is 0.  Otherwise all
    fields are populated and t_star >= 1.
    """

    n_vertices: int
    phi: float
    theta: float
    delta: float
    blocked: bool
    eta: float | None
    sigma: float
    t_star: int | None
    t_star_exact: float | None
    t_star_large_n: float | None


def build_phase_plan(n_vertices: int, phi: float) -> PhasePlan:
    """Assemble the full phase-matching plan for a corrected search.

    This is where the blocked regime is decided: callers read plan.blocked
    and the None fields rather than testing phi == pi/2 themselves.
    """
    _check_n(n_vertices)
    _check_phi(phi, allow_blocked=True)
    blocked = phi == _HALF_PI
    return PhasePlan(
        n_vertices=n_vertices,
        phi=phi,
        theta=overlap_angle(n_vertices),
        delta=_HALF_PI - phi,
        blocked=blocked,
        eta=None if blocked else corrected_eta(phi, n_vertices),
        sigma=rotation_angle_sigma(phi, n_vertices),
        t_star=None if blocked else runtime_t_star(phi, n_vertices),
        t_star_exact=None if blocked else runtime_t_star_exact(phi, n_vertices),
        t_star_large_n=None if blocked else runtime_large_n(phi, n_vertices),
    )
