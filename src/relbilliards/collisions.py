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


def collision_condition(i: SigmaRho, j: SigmaRho) -> bool:
    """True iff the two particles have different velocities.

    Evaluated as sigma_i*rho_j - sigma_j*rho_i != 0, which avoids the
    divisions in v = P/E and is exact in rational mode.
    """
    a = i.sigma * j.rho
    b = j.sigma * i.rho
    return not near_zero(a - b, a, b)


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


def _sign_flip(before: SigmaRho, after: SigmaRho) -> bool:
    """Whether the energy (sigma + rho)/2 changes sign."""
    return _opposite_signs(before.sigma + before.rho, after.sigma + after.rho)


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
    if not collision_condition(i, j):
        if _underflows(i.sigma, j.rho) or _underflows(j.sigma, i.rho):
            raise SimulationError(
                "float underflow: a product sigma*rho of nonzero factors "
                "fell below the float range, so the velocities cannot be "
                "compared"
            )
        raise NoCollisionError(
            "no collision: particles have equal velocities"
        )

    s = i.sigma + j.sigma
    r = i.rho + j.rho
    mu_i = i.sigma * i.rho
    mu_j = j.sigma * j.rho

    if mu_i == mu_j:
        after_i = SigmaRho(j.sigma, j.rho)
        after_j = SigmaRho(i.sigma, i.rho)
    else:
        if near_zero(s, i.sigma, j.sigma) or near_zero(r, i.rho, j.rho):
            raise DegenerateCollisionError(
                "degenerate collision (s*r = 0): zero rest mass pair"
            )
        sr_ratio = s / r
        rs_ratio = r / s
        after_i = SigmaRho(i.rho * sr_ratio, i.sigma * rs_ratio)
        after_j = SigmaRho(j.rho * sr_ratio, j.sigma * rs_ratio)

    return CollisionOutcome(
        sr_i_after=after_i,
        sr_j_after=after_j,
        s=s,
        r=r,
        tachyonic=_opposite_signs(s, r),
        sign_flip_i=_sign_flip(i, after_i),
        sign_flip_j=_sign_flip(j, after_j),
    )
