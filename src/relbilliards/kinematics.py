"""Free relativistic particles with energy and mass of arbitrary sign.

Units have the speed of light equal to 1. A free particle carries energy
``E != 0``, momentum ``P = E*v`` and squared mass ``mu = E**2 - P**2``;
``mu`` may be negative (tachyons, |v| > 1). The squared mass is stored
redundantly so that floating-point drift of ``E**2 - P**2 - mu`` stays an
observable diagnostic instead of being silently absorbed.

The light-cone coordinates ``sigma = E + P`` and ``rho = E - P`` satisfy
``sigma * rho = mu`` and are the natural variables for collision
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import DegenerateKinematicsError, ValidationError, ZeroEnergyError
from .numeric import REL_TOL, Number, is_exact


def velocity(E: Number, P: Number) -> Number:
    """Velocity v = P/E of a free particle."""
    if E == 0:
        raise ZeroEnergyError("undefined velocity: particle has zero energy")
    return P / E


def velocity_from_sigma(sigma: Number, mu: Number) -> Number:
    """Velocity from one light-cone coordinate and the squared mass.

    Computes (sigma**2 - mu) / (sigma**2 + mu), which equals P/E whenever
    sigma and mu come from the same particle.
    """
    s2 = sigma * sigma
    denom = s2 + mu
    if denom == 0:
        raise DegenerateKinematicsError(
            "degenerate kinematics: sigma**2 + mu = 0"
        )
    return (s2 - mu) / denom


def spin_velocity(m: Number, E: Number) -> Number:
    """Watch-hand rate m/E for a chosen signed square root m of mu.

    Satisfies S**2 = 1 - v**2 for |v| < 1; the sign distinguishes the two
    square roots once the energy sign is fixed. A massless particle has a
    stopped watch (S = 0).
    """
    if E == 0:
        raise ZeroEnergyError("undefined spin velocity: zero energy")
    return m / E


@dataclass(frozen=True)
class SigmaRho:
    """Light-cone coordinates (sigma, rho) = (E + P, E - P)."""

    sigma: Number
    rho: Number

    @classmethod
    def from_energy_momentum(cls, E: Number, P: Number) -> "SigmaRho":
        return cls(E + P, E - P)

    @property
    def energy(self) -> Number:
        return (self.sigma + self.rho) / 2

    @property
    def momentum(self) -> Number:
        return (self.sigma - self.rho) / 2

    @property
    def mass_squared(self) -> Number:
        return self.sigma * self.rho

    @property
    def velocity(self) -> Number:
        return velocity(self.energy, self.momentum)


#: Drift bound for evolved data: dynamics that pass near a resolution pole
#: legitimately amplify the drift beyond fresh-data levels.
_EVOLVED_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class ParticleState:
    """One free particle: energy, momentum, stored squared mass, position.

    ``mu`` must agree with E**2 - P**2 on construction (exactly in exact
    mode, to 1e-12 relative in float mode). During evolution the stored
    value is carried through collisions unchanged while E and P pick up
    rounding noise, so ``mass_drift`` measures the accumulated error; it
    is reported, never corrected. Evolved data, rebuilt from light-cone
    coordinates or read back from an event log, goes through the internal
    constructor ``_evolved`` and its looser bound instead.
    """

    E: Number
    P: Number
    mu: Number
    x: Number
    label: int = 0

    def __post_init__(self) -> None:
        self._validate(REL_TOL)

    def _validate(self, drift_tol: float) -> None:
        if self.E == 0:
            raise ZeroEnergyError(
                f"particle {self.label}: energy must be nonzero"
            )
        E, P, mu = self.E, self.P, self.mu
        if is_exact(E) and is_exact(P) and is_exact(mu):
            # With E = e/b, P = p/d and mu = m/n, E**2 - P**2 == mu reads
            # (e*d - p*b) * (e*d + p*b) * n == m * (b*d)**2 over ints, with
            # no gcd; the Fraction drift is built only for the message.
            e, b = E.numerator, E.denominator
            p, d = P.numerator, P.denominator
            m, n = mu.numerator, mu.denominator
            ed, pb = e * d, p * b
            if (ed - pb) * (ed + pb) * n != m * (b * d) ** 2:
                drift = (E - P) * (E + P) - mu
                raise ValidationError(
                    f"particle {self.label}: mu != E**2 - P**2 "
                    f"(off by {drift})"
                )
            return
        # Floats take the drift in mass_drift's order.
        drift = float(self.mass_drift())
        if not isfinite(drift):
            raise ValidationError(
                f"particle {self.label}: the mass drift E**2 - P**2 - mu "
                f"is {drift}, past the float range"
            )
        # Each term is scaled before the sum, which can pass the float
        # range while the drift does not.
        bound = (
            drift_tol * (E * E) + drift_tol * (P * P) + drift_tol * abs(mu)
        )
        if abs(drift) > bound:
            scale = float(E * E + P * P + abs(mu))
            raise ValidationError(
                f"particle {self.label}: mu inconsistent with E, P "
                f"(drift {drift:.3e} at scale {scale:.3e})"
            )

    @classmethod
    def _unchecked(
        cls, E: Number, P: Number, mu: Number, x: Number, label: int
    ) -> "ParticleState":
        """Build without ``__post_init__``. Results that change only x or
        the sign of P need no check: E**2 - P**2 - mu stays bit-identical."""
        p = object.__new__(cls)
        object.__setattr__(p, "E", E)
        object.__setattr__(p, "P", P)
        object.__setattr__(p, "mu", mu)
        object.__setattr__(p, "x", x)
        object.__setattr__(p, "label", label)
        return p

    @classmethod
    def _evolved(
        cls, E: Number, P: Number, mu: Number, x: Number, label: int
    ) -> "ParticleState":
        """Internal constructor for evolved data: the loose drift bound."""
        p = cls._unchecked(E, P, mu, x, label)
        p._validate(_EVOLVED_DRIFT_TOL)
        return p

    @property
    def velocity(self) -> Number:
        return self.P / self.E

    def mass_drift(self) -> Number:
        """Current value of E**2 - P**2 - mu (diagnostic, never corrected)."""
        return self.E * self.E - self.P * self.P - self.mu

    def sigma_rho(self) -> SigmaRho:
        return SigmaRho(self.E + self.P, self.E - self.P)

    def moved(self, dt: Number) -> "ParticleState":
        """The same particle after free flight for a time dt."""
        return self._unchecked(
            self.E, self.P, self.mu, self.x + self.velocity * dt, self.label
        )

    def with_position(self, x: Number) -> "ParticleState":
        return self._unchecked(self.E, self.P, self.mu, x, self.label)

    def momentum_reversed(self) -> "ParticleState":
        """Time-reversal image: P -> -P, everything else unchanged."""
        return self._unchecked(self.E, -self.P, self.mu, self.x, self.label)

    @classmethod
    def from_sigma_rho(
        cls,
        sr: SigmaRho,
        x: Number,
        label: int = 0,
        mu: Number | None = None,
    ) -> "ParticleState":
        """Build a particle from light-cone data, optionally carrying a
        previously stored squared mass through unchanged. Uses the loose
        drift bound: this is the internal evolution path."""
        if mu is None:
            mu = sr.mass_squared
        return cls._evolved(sr.energy, sr.momentum, mu, x, label)


def to_sigma_rho(p: ParticleState) -> SigmaRho:
    return p.sigma_rho()


def from_sigma_rho(sr: SigmaRho) -> tuple[Number, Number]:
    """Inverse linear map back to (E, P)."""
    return sr.energy, sr.momentum


def massless(
    E: Number, direction: int, x: Number = 0.0, label: int = 0
) -> ParticleState:
    """A massless particle moving at light speed in the given direction (+-1).

    P is set to ``direction * E`` exactly, so |velocity| == 1 holds
    bit-for-bit and the stored mu is exactly zero.
    """
    if direction not in (1, -1):
        raise ValidationError("direction must be +1 or -1")
    return ParticleState(E=E, P=direction * E, mu=E - E, x=x, label=label)
