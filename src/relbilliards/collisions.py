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
from fractions import Fraction
from math import isfinite

from .errors import DegenerateCollisionError, NoCollisionError, SimulationError
from .kinematics import SigmaRho
from .numeric import Number, near_zero


def _distinct_velocities(
    sigma_i: Number, rho_i: Number, sigma_j: Number, rho_j: Number
) -> bool:
    """Whether sigma_i*rho_j != sigma_j*rho_i, to float tolerance; a
    SimulationError where a float product overflowed, since inf tells no
    two velocities apart."""
    a = sigma_i * rho_j
    b = sigma_j * rho_i
    if type(a) is float and not (isfinite(a) and isfinite(b)):
        raise SimulationError(
            "float overflow: a product sigma*rho passed the float range, "
            "so the velocities cannot be compared"
        )
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


def _energy_flipped(
    sigma: Number, rho: Number, sigma2: Number, rho2: Number
) -> bool:
    """Whether the energies (sigma + rho)/2 and (sigma2 + rho2)/2 have
    opposite signs, read by comparing each sigma with -rho, without the
    sums."""
    minus_rho, minus_rho2 = -rho, -rho2
    return (
        sigma < minus_rho and sigma2 > minus_rho2
        or sigma > minus_rho and sigma2 < minus_rho2
    )


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


#: The exact number types that ``collide`` reads as integer pairs.
_EXACT = (int, Fraction)

_EQUAL_VELOCITIES = "no collision: particles have equal velocities"
_DEGENERATE = "degenerate collision (s*r = 0): zero rest mass pair"


def _energy_sign(sigma: Number, rho: Number) -> int:
    """An int with the sign of the exact energy (sigma + rho)/2: the
    numerator of sigma + rho over the positive product of their
    denominators."""
    return (
        sigma.numerator * rho.denominator + rho.numerator * sigma.denominator
    )


def _collide_exact(
    sigma_i: Number, rho_i: Number, sigma_j: Number, rho_j: Number
) -> tuple[Number, Number, Number, Number, bool, bool, bool]:
    """``collide`` on int and Fraction coordinates, whose tests compare
    integers. With sigma_i = a/b, sigma_j = c/d, rho_i = e/f and
    rho_j = g/h, the sigmas are a*d and c*b over b*d and the rhos e*h and
    g*f over f*h (all denominators positive); those numerators decide the
    products sigma*rho and the signs of s and r. A swap builds no
    Fraction; otherwise s, r, their ratios and the outgoing values are the
    only Fractions built, and an int pair leaves with Fractions.

    r/s is taken as ``1 / (s/r)``: the reciprocal of a reduced fraction is
    reduced, so its division reduces by gcds against 1 (on Python 3.11 and
    later), where ``r / s`` would take two gcds of big integers to find
    the same value (Knuth, TAOCP vol. 2, 4.5.1)."""
    a, b = sigma_i.numerator, sigma_i.denominator
    c, d = sigma_j.numerator, sigma_j.denominator
    e, f = rho_i.numerator, rho_i.denominator
    g, h = rho_j.numerator, rho_j.denominator
    ad, cb, eh, gf = a * d, c * b, e * h, g * f
    if ad * gf == cb * eh:  # sigma_i*rho_j == sigma_j*rho_i
        raise NoCollisionError(_EQUAL_VELOCITIES)
    s_sign, r_sign = ad + cb, eh + gf
    tachyonic = s_sign < 0 < r_sign or r_sign < 0 < s_sign
    E_i, E_j = _energy_sign(sigma_i, rho_i), _energy_sign(sigma_j, rho_j)
    if ad * eh == cb * gf:  # sigma_i*rho_i == sigma_j*rho_j
        # each leaves with the other's energy: both flip or neither does
        flip = E_i < 0 < E_j or E_j < 0 < E_i
        return sigma_j, rho_j, sigma_i, rho_i, tachyonic, flip, flip
    if not s_sign or not r_sign:
        raise DegenerateCollisionError(_DEGENERATE)
    s = sigma_i + sigma_j
    r = rho_i + rho_j
    sr_ratio = Fraction(s, r) if type(s) is int and type(r) is int else s / r
    rs_ratio = 1 / sr_ratio
    sigma_i2, rho_i2 = rho_i * sr_ratio, sigma_i * rs_ratio
    sigma_j2, rho_j2 = rho_j * sr_ratio, sigma_j * rs_ratio
    E_i2 = _energy_sign(sigma_i2, rho_i2)
    E_j2 = _energy_sign(sigma_j2, rho_j2)
    return (
        sigma_i2,
        rho_i2,
        sigma_j2,
        rho_j2,
        tachyonic,
        E_i < 0 < E_i2 or E_i2 < 0 < E_i,
        E_j < 0 < E_j2 or E_j2 < 0 < E_j,
    )


def collide(
    sigma_i: Number, rho_i: Number, sigma_j: Number, rho_j: Number
) -> tuple[Number, Number, Number, Number, bool, bool, bool]:
    """The collision rule on plain numbers, for the event loop: the pair's
    light-cone coordinates in; the seven values ``(sigma_i', rho_i',
    sigma_j', rho_j', tachyonic, sign_flip_i, sign_flip_j)`` out, without
    the sums s and r, which the event loop does not read.
    ``resolve_collision`` documents the rule, its flags and its errors.

    An equal-mass pair swaps: its outgoing coordinates are the incoming
    objects themselves, exchanged, so a caller tells the swap by identity.
    In exact arithmetic the swap is an exchange, in which each particle
    leaves with its partner's energy, momentum and velocity. Int and
    Fraction coordinates go to ``_collide_exact``, which decides the same
    tests over integers; an int pair that does not swap leaves with
    Fractions."""
    if type(sigma_i) is not float and (
        type(sigma_i) in _EXACT and type(rho_i) in _EXACT
        and type(sigma_j) in _EXACT and type(rho_j) in _EXACT
    ):
        return _collide_exact(sigma_i, rho_i, sigma_j, rho_j)
    if not _distinct_velocities(sigma_i, rho_i, sigma_j, rho_j):
        if _underflows(sigma_i, rho_j) or _underflows(sigma_j, rho_i):
            raise SimulationError(
                "float underflow: a product sigma*rho of nonzero factors "
                "fell below the float range, so the velocities cannot be "
                "compared"
            )
        raise NoCollisionError(_EQUAL_VELOCITIES)

    s = sigma_i + sigma_j
    r = rho_i + rho_j
    if sigma_i * rho_i == sigma_j * rho_j:
        sigma_i2, rho_i2, sigma_j2, rho_j2 = sigma_j, rho_j, sigma_i, rho_i
    else:
        if near_zero(s, sigma_i, sigma_j) or near_zero(r, rho_i, rho_j):
            raise DegenerateCollisionError(_DEGENERATE)
        sr_ratio = s / r
        rs_ratio = r / s
        sigma_i2, rho_i2 = rho_i * sr_ratio, sigma_i * rs_ratio
        sigma_j2, rho_j2 = rho_j * sr_ratio, sigma_j * rs_ratio

    return (
        sigma_i2,
        rho_i2,
        sigma_j2,
        rho_j2,
        _opposite_signs(s, r),
        _energy_flipped(sigma_i, rho_i, sigma_i2, rho_i2),
        _energy_flipped(sigma_j, rho_j, sigma_j2, rho_j2),
    )


def resolve_collision(i: SigmaRho, j: SigmaRho) -> CollisionOutcome:
    """Resolve an elastic collision, always returning the non-identity solution.

    Raises NoCollisionError when the velocities are equal (the scheduler
    should never have queued such a pair), SimulationError when a float
    product of the collision condition underflowed or overflowed instead,
    and DegenerateCollisionError when the pair's rest mass vanishes, since
    the outcome formulas divide by both s and r.

    Equal squared masses short-circuit to the coordinate swap
    sigma_i' = sigma_j etc., which is what the general formulas reduce to
    in that case but stays exact (and well defined) without divisions.
    """
    sigma_i, rho_i, sigma_j, rho_j, *flags = collide(
        i.sigma, i.rho, j.sigma, j.rho
    )
    s, r = i.sigma + j.sigma, i.rho + j.rho
    return CollisionOutcome(
        SigmaRho(sigma_i, rho_i), SigmaRho(sigma_j, rho_j), s, r, *flags
    )
