"""Exception hierarchy.

Each class carries in ``exit_code`` the exit code that the command-line
harness returns for it: 2 for the degeneracies (pole / zero rest mass /
triple collision, the probability-zero configurations the dynamics cannot
resolve, and a state the scheduler cannot continue from), 1 for every
other error.
"""


class BilliardError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ZeroEnergyError(BilliardError):
    """A particle with E = 0 has no defined velocity."""


class DegenerateKinematicsError(BilliardError):
    """Light-cone data with sigma**2 + mu = 0 leaves the velocity undefined."""


class NoCollisionError(BilliardError):
    """The pair has equal velocities; there is no collision to resolve."""


class DegenerateCollisionError(BilliardError):
    """The pair system has zero rest mass (s*r = 0); the outcome is singular."""

    exit_code = 2


class TripleCollisionError(BilliardError):
    """More than two particles meet at the same time and place."""

    exit_code = 2


class NoEventError(BilliardError):
    """No future (or past) collision exists from the current state."""


class SimulationError(BilliardError):
    """The evolution produced a state the scheduler cannot continue from."""

    exit_code = 2


class PoleError(BilliardError):
    """The reduced map was evaluated at (or too close to) its pole."""

    exit_code = 2


class DiscriminantError(BilliardError):
    """The operation requires the opposite sign of the discriminant."""


class ConfigError(BilliardError):
    """Invalid scenario configuration."""


class ValidationError(BilliardError, ValueError):
    """An argument or a state breaks the package's rules: inconsistent
    particle data, out-of-order positions, an unknown option. Also a
    ValueError, for callers that catch that."""
