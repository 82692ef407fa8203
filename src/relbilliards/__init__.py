"""One-dimensional relativistic billiards with signed energies.

Elastic collisions of particles whose energy and squared mass may take
either sign, resolved exactly in light-cone coordinates; an event-driven
N-particle simulator; and a closed-form engine for the symmetric
four-particle configuration whose dynamics reduces to iterating a Moebius
map (fixed points, conjugacy to a rotation, periodic orbits, tachyonic
collision classification, asymptotics).

Feed in floats for ordinary runs or ``fractions.Fraction`` values for an
exact, bit-reproducible arithmetic mode.
"""

from .collisions import (
    CollisionOutcome,
    collision_condition,
    is_tachyonic,
    resolve_collision,
    rest_mass_squared,
)
from .errors import (
    BilliardError,
    ConfigError,
    DegenerateCollisionError,
    DegenerateKinematicsError,
    DiscriminantError,
    NoCollisionError,
    NoEventError,
    PoleError,
    SimulationError,
    TripleCollisionError,
    ValidationError,
    ZeroEnergyError,
)
from .kinematics import (
    ParticleState,
    SigmaRho,
    from_sigma_rho,
    massless,
    spin_velocity,
    to_sigma_rho,
    velocity,
    velocity_from_sigma,
)
from .mirror import (
    FixedPoints,
    LimitVelocities,
    MirrorParams,
    MirrorState,
    RationalPeriod,
    TachyonicCount,
    billiard_from_mirror,
    classify_tachyonic,
    conjugacy_h,
    conjugacy_h_inverse,
    e2_update,
    fixed_points,
    inverse_map,
    kappa_from_initial,
    limit_products,
    limit_velocities,
    mirror_initial,
    motion_constant,
    multiplier,
    period,
    reduced_map,
    reduced_states_from_events,
    reduced_trajectory,
    rotation_angle,
    tachyon_scale_bound,
    tachyonic_predicate,
    x1_update,
)
from .scale import GRAVITY_M_PER_KG, NEUTRON_MASS_KG, estimate_tachyonic_scale
from .simulator import (
    BilliardState,
    CollisionEvent,
    next_collisions,
    simulate,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BilliardError",
    "BilliardState",
    "CollisionEvent",
    "CollisionOutcome",
    "ConfigError",
    "DegenerateCollisionError",
    "DegenerateKinematicsError",
    "DiscriminantError",
    "FixedPoints",
    "GRAVITY_M_PER_KG",
    "LimitVelocities",
    "MirrorParams",
    "MirrorState",
    "NEUTRON_MASS_KG",
    "NoCollisionError",
    "NoEventError",
    "ParticleState",
    "PoleError",
    "RationalPeriod",
    "SigmaRho",
    "SimulationError",
    "TachyonicCount",
    "TripleCollisionError",
    "ValidationError",
    "ZeroEnergyError",
    "billiard_from_mirror",
    "classify_tachyonic",
    "collision_condition",
    "conjugacy_h",
    "conjugacy_h_inverse",
    "e2_update",
    "estimate_tachyonic_scale",
    "fixed_points",
    "from_sigma_rho",
    "inverse_map",
    "is_tachyonic",
    "kappa_from_initial",
    "limit_products",
    "limit_velocities",
    "massless",
    "mirror_initial",
    "motion_constant",
    "multiplier",
    "next_collisions",
    "period",
    "reduced_map",
    "reduced_states_from_events",
    "reduced_trajectory",
    "resolve_collision",
    "rest_mass_squared",
    "rotation_angle",
    "simulate",
    "spin_velocity",
    "step",
    "tachyon_scale_bound",
    "tachyonic_predicate",
    "to_sigma_rho",
    "velocity",
    "velocity_from_sigma",
    "x1_update",
]
