"""Exact resolution of two-particle elastic collisions in light-cone form.

Writing sigma = E + P and rho = E - P for each particle, conservation of
energy and momentum fixes s = sigma_i + sigma_j and r = rho_i + rho_j, and
preservation of each squared mass fixes sigma_k * rho_k. Besides the
incoming state itself, that system has exactly one other solution:

    sigma_i' = rho_i * s / r        rho_i' = sigma_i * r / s
    sigma_j' = rho_j * s / r        rho_j' = sigma_j * r / s

valid whenever s * r != 0. The product s * r is the squared rest mass of
the pair; a collision with s * r < 0 (more momentum than energy) is called
tachyonic, and it is exactly the case in which a participant with mu >= 0
leaves with the opposite energy sign.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DegenerateCollisionError, NoCollisionError, SimulationError
from .kinematics import SigmaRho
from .numeric import Number, near_zero


def _distinct_velocities(
    sigma_i: Number, rho_i: Number, sigma_j: Number, rho_j: Number
) -> bool:
    a = sigma_i * rho_j
    b = sigma_j * rho_i
    return not near_zero(a - b, a, b)


def collision_condition(i: SigmaRho, j: SigmaRho) -> bool:
    """True iff the two particles have different velocities.

    Evaluated as sigma_i*rho_j - sigma_j*rho_i != 0, which avoids the
    divisions in v = P/E and is exact in rational mode.
    """
    return _distinct_velocities(i.sigma, i.rho, j.sigma, j.rho)


def rest_mass_squared(i: SigmaRho, j: SigmaRho) -> Number:
    """Squared rest mass (total E)**2 - (total P)**2 of the pair system."""
    return (i.sigma + j.sigma) * (i.rho + j.rho)


def is_tachyonic(i: SigmaRho, j: SigmaRho) -> bool:
    """Whether a collision of this pair would be tachyonic (s*r < 0)."""
    return rest_mass_squared(i, j) < 0


@dataclass(frozen=True)
class CollisionOutcome:
    """Post-collision light-cone states plus the collision invariants.

    s and r are the conserved coordinate sums; ``tachyonic`` records
    s*r < 0; the sign-flip flags compare each particle's energy sign
    before and after (computed independently of s*r, so the equivalence
    between the two is testable rather than assumed).
    """

    sr_i_after: SigmaRho
    sr_j_after: SigmaRho
    s: Number
    r: Number
    tachyonic: bool
    sign_flip_i: bool
    sign_flip_j: bool


def _opposite_signs(a: Number, b: Number) -> bool:
    """Whether a * b < 0, read from the signs without the product."""
    return a < 0 < b or b < 0 < a


def _underflows(a: Number, b: Number) -> bool:
    """Whether the float product of nonzero ``a`` and ``b`` is zero or
    subnormal, so that it no longer tells unequal velocities apart."""
    product = a * b
    return (
        type(product) is float
        and abs(product) < sys.float_info.min
        and a != 0
        and b != 0
    )


def collide(
    sigma_i: Number, rho_i: Number, sigma_j: Number, rho_j: Number
) -> tuple[Number, Number, Number, Number, Number, Number, bool, bool, bool]:
    """The collision rule on plain numbers, for the event loop: the pair's
    light-cone coordinates in; ``(sigma_i', rho_i', sigma_j', rho_j', s, r,
    tachyonic, sign_flip_i, sign_flip_j)`` out. ``resolve_collision``
    documents the rule, its flags and its errors."""
    if not _distinct_velocities(sigma_i, rho_i, sigma_j, rho_j):
        if _underflows(sigma_i, rho_j) or _underflows(sigma_j, rho_i):
            raise SimulationError(
                "float underflow: a product sigma*rho of nonzero factors "
                "fell below the float range, so the velocities cannot be "
                "compared"
            )
        raise NoCollisionError(
            "no collision: particles have equal velocities"
        )

    s = sigma_i + sigma_j
    r = rho_i + rho_j
    if sigma_i * rho_i == sigma_j * rho_j:
        sigma_i2, rho_i2, sigma_j2, rho_j2 = sigma_j, rho_j, sigma_i, rho_i
    else:
        if near_zero(s, sigma_i, sigma_j) or near_zero(r, rho_i, rho_j):
            raise DegenerateCollisionError(
                "degenerate collision (s*r = 0): zero rest mass pair"
            )
        sr_ratio = s / r
        rs_ratio = r / s
        sigma_i2, rho_i2 = rho_i * sr_ratio, sigma_i * rs_ratio
        sigma_j2, rho_j2 = rho_j * sr_ratio, sigma_j * rs_ratio

    # each flag compares the energies (sigma + rho)/2 before and after
    return (
        sigma_i2,
        rho_i2,
        sigma_j2,
        rho_j2,
        s,
        r,
        _opposite_signs(s, r),
        _opposite_signs(sigma_i + rho_i, sigma_i2 + rho_i2),
        _opposite_signs(sigma_j + rho_j, sigma_j2 + rho_j2),
    )


def resolve_collision(i: SigmaRho, j: SigmaRho) -> CollisionOutcome:
    """Resolve an elastic collision, always returning the non-identity solution.

    Raises NoCollisionError when the velocities are equal (the scheduler
    should never have queued such a pair), SimulationError when a float
    product of the collision condition underflowed instead, and
    DegenerateCollisionError when the pair's rest mass vanishes, since the
    outcome formulas divide by both s and r.

    Equal squared masses short-circuit to the coordinate swap
    sigma_i' = sigma_j etc., which is what the general formulas reduce to
    in that case but stays exact (and well defined) without divisions.
    """
    sigma_i, rho_i, sigma_j, rho_j, *rest = collide(
        i.sigma, i.rho, j.sigma, j.rho
    )
    return CollisionOutcome(
        SigmaRho(sigma_i, rho_i), SigmaRho(sigma_j, rho_j), *rest
    )
