"""Exception hierarchy.

Degeneracy errors (pole / zero rest mass / triple collision) are the
probability-zero configurations the dynamics cannot resolve; they get their
own classes so the command-line harness can map them to a distinct exit code.
"""


class BilliardError(Exception):
    """Base class for all package errors."""


class ZeroEnergyError(BilliardError):
    """A particle with E = 0 has no defined velocity."""


class DegenerateKinematicsError(BilliardError):
    """Light-cone data with sigma**2 + mu = 0 leaves the velocity undefined."""


class NoCollisionError(BilliardError):
    """The pair has equal velocities; there is no collision to resolve."""


class DegenerateCollisionError(BilliardError):
    """The pair system has zero rest mass (s*r = 0); the outcome is singular."""


class TripleCollisionError(BilliardError):
    """More than two particles meet at the same time and place."""


class NoEventError(BilliardError):
    """No future (or past) collision exists from the current state."""


class SimulationError(BilliardError):
    """The evolution produced a state the scheduler cannot continue from."""


class PoleError(BilliardError):
    """The reduced map was evaluated at (or too close to) its pole."""


class DiscriminantError(BilliardError):
    """The operation requires the opposite sign of the discriminant."""


class ConfigError(BilliardError):
    """Invalid scenario configuration."""


class ValidationError(BilliardError, ValueError):
    """An argument or a state breaks the package's rules: inconsistent
    particle data, out-of-order positions, an unknown option. Also a
    ValueError, for callers that catch that."""
