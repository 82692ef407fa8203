"""Physical-scale estimate for tachyonic collisions.

With units in which the speed of light is 1, Newton's constant becomes a
length per mass, G = 7.4e-28 m/kg. Matching the inner particles' limiting
energy (proportional to 1/distance) against the Newtonian potential of the
outer pair pins the motion constant to k = G * m / 4 for outer particles
of mass m on the parabolic boundary, and the collision-scale bound then
reads |x1| <= 8|k| = 2*G*m: the outer-particle separation below which the
energy signs flip.
"""

from __future__ import annotations

import math

from .errors import ConfigError, SimulationError

#: Newton's gravitational constant in metres per kilogram (c = 1 units).
GRAVITY_M_PER_KG = 7.4e-28

#: Neutron mass in kilograms, a convenient heavy-particle reference.
NEUTRON_MASS_KG = 1.7e-27


def estimate_tachyonic_scale(
    mass_kg: float, g: float = GRAVITY_M_PER_KG
) -> float:
    """Length scale 2*G*m (metres) below which collisions turn tachyonic;
    a SimulationError where it leaves the float range or rounds to zero."""
    if not mass_kg > 0:
        raise ConfigError("mass must be positive")
    if not g > 0:
        raise ConfigError("gravitational constant must be positive")
    bound = 2 * g * mass_kg
    if not math.isfinite(bound) or bound == 0:
        what = "underflow" if bound == 0 else "overflow"
        raise SimulationError(
            f"float {what}: 2*G*m = {bound!r} at G = {g!r}, m = {mass_kg!r}"
        )
    return bound
