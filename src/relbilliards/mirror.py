"""Closed-form engine for the symmetric four-particle configuration.

The configuration: two outer particles of equal squared mass mu > 0 at
mirror positions x1 = -x4 < 0, and two massless inner particles at
x2 = -x3 whose energies match by symmetry. The inner particles shuttle
between the outer ones at light speed, swapping coordinates when they meet
at the origin, so the whole evolution is driven by the successive
collisions of particle 1 with particle 2.

Writing sigma1 for particle 1's light-cone coordinate E1 + P1 and
E_total for the conserved half-system energy E1 + E2, one collision maps

    sigma1 -> mu / (2*E_total - sigma1)          (the reduced map)
    E2     -> E2 * sigma1 / (2*E_total - sigma1)
    x1     -> x1 * mu / sigma1**2

with the flight time between collisions tau = -x1 - x1'. The reduced map
is a Moebius transformation; the sign of the discriminant
delta = E_total**2 - mu decides between hyperbolic escape (delta > 0),
the parabolic boundary case (delta = 0) and elliptic rotation with
bounded, possibly periodic orbits (delta < 0). The combination
k = x1 * E2 / sigma1 is invariant under the collision map and sets the
time scale of periodic orbits.

Checks against the full simulation: ``cross_check`` compares it with the
reduced map, ``mirror_columns`` reads the reduced coordinates off its
event log, and ``tachyonic_census`` counts tachyonic collisions along an
orbit for ``census_agrees`` to set against ``classify_tachyonic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional

from .errors import (
    ConfigError,
    DiscriminantError,
    PoleError,
    SimulationError,
    ValidationError,
)
from .kinematics import ParticleState, massless
from .numeric import Number, near_zero, rel_diff
from .simulator import BilliardState, CollisionEvent, simulate


@dataclass(frozen=True)
class MirrorParams:
    """System constants: outer squared mass, half-system energy, and
    (once initial data is chosen) the motion constant k."""

    mu: Number
    E_total: Number
    k: Optional[Number] = None

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ConfigError("outer squared mass mu must be positive")
        if self.E_total == 0:
            raise ConfigError("half-system energy E_total must be nonzero")

    @property
    def delta(self) -> Number:
        """Discriminant E_total**2 - mu of the reduced map's fixed points."""
        return self.E_total * self.E_total - self.mu


@dataclass(frozen=True)
class MirrorState:
    """State at the n-th collision of particle 1: its light-cone coordinate
    and position, the inner-particle energy, and the collision time."""

    n: int
    sigma1: Number
    E2: Number
    x1: Number
    t: Number


class TachyonicCount(Enum):
    """How many tachyonic collisions a full solution contains."""

    INFINITELY_MANY = "infinitely-many"
    EXACTLY_TWO_CONSECUTIVE = "exactly-two-consecutive"
    NONE = "none"


def _check_pole(sigma: Number, two_e: Number) -> Number:
    """The reduced map's denominator ``two_e - sigma``, where ``two_e`` is
    2*E_total; PoleError where it vanishes."""
    denom = two_e - sigma
    if near_zero(denom, two_e, sigma):
        raise PoleError(
            f"pole of reduced map: sigma = {sigma!r} at 2*E_total"
        )
    return denom


def reduced_map(sigma: Number, params: MirrorParams) -> Number:
    """One collision of particle 1: sigma -> mu / (2*E_total - sigma)."""
    return params.mu / _check_pole(sigma, 2 * params.E_total)


def _inverse(sigma: Number, two_e: Number, mu: Number) -> Number:
    if sigma == 0:
        raise PoleError("inverse map undefined at sigma = 0")
    return two_e - mu / sigma


def inverse_map(sigma: Number, params: MirrorParams) -> Number:
    """Algebraic inverse 2*E_total - mu/sigma (one collision backward).

    Only sigma exactly zero is a pole; a tiny nonzero sigma has a huge but
    perfectly well-defined preimage (the previous collision was far away).
    """
    return _inverse(sigma, 2 * params.E_total, params.mu)


@dataclass(frozen=True)
class FixedPoints:
    """Fixed points of the reduced map with their stability data.

    kind is "hyperbolic" (delta > 0: attractor plus repeller),
    "parabolic" (delta = 0: one double fixed point, neither attracting nor
    repelling) or "elliptic" (delta < 0: a complex-conjugate pair and the
    map acts as a rotation). The real attracting/repelling values and
    their |f'| are filled for delta >= 0; the conjugate pair for delta < 0.
    """

    kind: str
    attracting: Optional[float] = None
    repelling: Optional[float] = None
    derivative_attracting: Optional[float] = None
    derivative_repelling: Optional[float] = None
    complex_pair: Optional[tuple[complex, complex]] = None


def _fixed_pair(params: MirrorParams) -> tuple[complex, complex]:
    """(near, far): the roots of sigma**2 - 2*E_total*sigma + mu = 0 as
    complex numbers. For delta >= 0 near is the root on the origin's side
    of E_total, for either sign of E_total; for delta < 0 the pair is
    E_total +- i*sqrt(-delta)."""
    e = float(params.E_total)
    delta = float(params.delta)
    if delta < 0:
        root = math.sqrt(-delta)
        return complex(e, root), complex(e, -root)
    root = math.sqrt(delta)
    far = e + root if e > 0 else e - root
    if delta == 0:
        return complex(far), complex(far)
    # near * far = mu: the quotient keeps the digits that e -+ root loses
    # when |E_total| dwarfs sqrt(delta)
    return complex(float(params.mu) / far), complex(far)


def fixed_points(params: MirrorParams) -> FixedPoints:
    """Solve sigma**2 - 2*E_total*sigma + mu = 0 and classify the roots.

    For delta >= 0 the near root is the attractor (|f'| < 1) and the far
    one the repeller (|f'| > 1). At a fixed point s = mu/(2*E_total - s),
    so f'(s) = mu/(2*E_total - s)**2 = s**2/mu.
    """
    near, far = _fixed_pair(params)
    delta = float(params.delta)
    if delta < 0:
        return FixedPoints(kind="elliptic", complex_pair=(near, far))
    at, re = near.real, far.real
    if delta == 0:
        return FixedPoints("parabolic", at, re, 1.0, 1.0)
    mu = float(params.mu)
    return FixedPoints("hyperbolic", at, re, at * at / mu, re * re / mu)


def e2_update(E2: Number, sigma1: Number, params: MirrorParams) -> Number:
    """Inner-particle energy across one collision:
    E2 -> E2 * sigma1 / (2*E_total - sigma1)."""
    return E2 * sigma1 / _check_pole(sigma1, 2 * params.E_total)


def x1_update(x1: Number, sigma1: Number, params: MirrorParams) -> Number:
    """Collision position of particle 1 across one collision:
    x1 -> x1 * mu / sigma1**2 (the ratio (1 - v1)/(1 + v1))."""
    if sigma1 == 0:
        raise PoleError("x1 update undefined at sigma1 = 0")
    return x1 * params.mu / (sigma1 * sigma1)


def motion_constant(x1: Number, E2: Number, sigma1: Number) -> Number:
    """The collision invariant k = x1 * E2 / sigma1."""
    if sigma1 == 0:
        raise PoleError("motion constant undefined at sigma1 = 0")
    return x1 * E2 / sigma1


def e2_from_sigma(sigma1: Number, params: MirrorParams) -> Number:
    """Inner-particle energy implied by the energy split:
    2*E2 = 2*E_total - sigma1 - mu/sigma1."""
    if sigma1 == 0:
        raise PoleError("energy split undefined at sigma1 = 0")
    return (2 * params.E_total - sigma1 - params.mu / sigma1) / 2


def mirror_initial(
    mu: Number,
    E_total: Number,
    sigma1_0: Number,
    x1_0: Number,
    t0: Number = 0,
) -> tuple[MirrorParams, MirrorState]:
    """Build consistent parameters and the collision-0 state from raw data.

    The inner energy follows from the energy split, and the motion
    constant k is recorded on the returned parameters. Initial data
    sitting exactly on a fixed point is rejected: there the inner
    particles carry zero energy, which is not a legal particle.
    """
    params = MirrorParams(mu, E_total)
    if sigma1_0 == 0:
        raise ConfigError("sigma1 must be nonzero")
    if not x1_0 < 0:
        raise ConfigError("x1 must be negative (particle 1 left of origin)")
    E2 = e2_from_sigma(sigma1_0, params)
    if E2 == 0:
        raise ConfigError(
            "initial sigma1 sits on a fixed point: the inner particles "
            "would carry zero energy"
        )
    k = motion_constant(x1_0, E2, sigma1_0)
    state = MirrorState(n=0, sigma1=sigma1_0, E2=E2, x1=x1_0, t=t0)
    return MirrorParams(mu, E_total, k), state


def _next_state(state: MirrorState, two_e: Number, mu: Number) -> MirrorState:
    """The state at collision n + 1: reduced_map, e2_update and x1_update
    over one pole check, and the flight time tau = -x1 - x1_next."""
    sigma1, x1 = state.sigma1, state.x1
    try:
        denom = _check_pole(sigma1, two_e)
        if sigma1 == 0:
            raise PoleError("x1 update undefined at sigma1 = 0")
    except PoleError as exc:
        raise PoleError(f"{exc} (at collision index {state.n})") from exc
    x1_next = x1 * mu / (sigma1 * sigma1)
    tau = -x1 - x1_next
    e2_next = state.E2 * sigma1 / denom
    return MirrorState(
        state.n + 1, mu / denom, e2_next, x1_next, state.t + tau
    )


def _previous_state(
    state: MirrorState, two_e: Number, mu: Number
) -> MirrorState:
    """The state at collision n - 1, by the inverse of each update; a
    PoleError where the backward orbit reaches sigma = 0, so that the
    state handed back always has sigma1 != 0."""
    sigma_prev = _inverse(state.sigma1, two_e, mu)
    if sigma_prev == 0:
        raise PoleError(
            f"backward orbit reached sigma = 0 at collision index "
            f"{state.n - 1}"
        )
    x1_prev = state.x1 * sigma_prev * sigma_prev / mu
    e2_prev = state.E2 * (two_e - sigma_prev) / sigma_prev
    tau = -x1_prev - state.x1
    return MirrorState(
        state.n - 1, sigma_prev, e2_prev, x1_prev, state.t - tau
    )


def reduced_trajectory(
    params: MirrorParams,
    initial: MirrorState,
    n_forward: int,
    n_backward: int = 0,
) -> list[MirrorState]:
    """Iterate the collision map n_backward steps back and n_forward steps
    ahead, accumulating collision times via tau = -x1 - x1_next.

    The returned list is ordered by collision index. Raises ConfigError if
    the initial state breaks the energy split, and PoleError with the
    offending index if the orbit hits the map's pole.
    """
    res = initial.E2 - e2_from_sigma(initial.sigma1, params)
    if not near_zero(res, initial.E2, initial.sigma1 / 2, params.E_total):
        raise ConfigError(
            f"initial state violates the energy split (residual {res!r})"
        )
    two_e, mu = 2 * params.E_total, params.mu
    forward = [initial]
    for _ in range(n_forward):
        forward.append(_next_state(forward[-1], two_e, mu))
    backward = [initial]
    for _ in range(n_backward):
        backward.append(_previous_state(backward[-1], two_e, mu))
    return backward[:0:-1] + forward


def conjugacy_h(sigma: Number, params: MirrorParams) -> complex:
    """Moebius change of variable sending the fixed points to 0 and infinity.

    h(sigma) = (sigma - s_at) / (s_re - sigma). Conjugates the reduced map
    to multiplication by lambda = s_at / s_re; for delta < 0 it carries the
    real line onto the unit circle, with h(E_total) = 1.
    """
    s_at, s_re = _fixed_pair(params)
    z = complex(sigma)
    denom = s_re - z
    if denom == 0:
        raise PoleError("conjugacy undefined at the repelling fixed point")
    return (z - s_at) / denom


def conjugacy_h_inverse(z: complex, params: MirrorParams) -> complex:
    """Inverse of the conjugacy: sigma = (s_at + z * s_re) / (1 + z)."""
    s_at, s_re = _fixed_pair(params)
    z = complex(z)
    if z == -1:
        raise PoleError("inverse conjugacy undefined at z = -1")
    return (s_at + z * s_re) / (1 + z)


def multiplier(params: MirrorParams) -> complex:
    """Derivative of the conjugated map: lambda = s_at / s_re."""
    s_at, s_re = _fixed_pair(params)
    return s_at / s_re


def rotation_angle(params: MirrorParams) -> float:
    """Rotation angle theta in (0, 2*pi) of the elliptic reduced map.

    With delta < 0 the multiplier lies on the unit circle and equals
    exp(i*theta) with theta = 2*atan2(sqrt(-delta), E_total).
    """
    delta = float(params.delta)
    if delta >= 0:
        raise DiscriminantError("not elliptic: discriminant is nonnegative")
    return 2 * math.atan2(math.sqrt(-delta), float(params.E_total))


def _convergents(x: float, b_max: int):
    """Continued-fraction convergents a/b of x with b <= b_max."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    y = x
    for _ in range(64):
        a = math.floor(y)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > b_max:
            return
        yield p1, q1
        frac = y - a
        if frac <= 1e-17:
            return
        y = 1 / frac


@dataclass(frozen=True)
class RationalPeriod:
    """Detected rational rotation number a/b and the orbit period T;
    ``exact`` tells a cycle from a near cycle within the tolerance."""

    a: int
    b: int
    T: float
    exact: bool


def period(
    params: MirrorParams,
    k: Optional[Number] = None,
    b_max: int = 10_000,
    tol: float = 1e-9,
) -> Optional[RationalPeriod]:
    """Detect a rational rotation number a/b and return the orbit period
    T = 2 * k * b * mu / (mu - E_total**2), or None within bounds.

    cos(theta) = 2*E_total**2/mu - 1 is rational, as every float is, so
    by Niven's theorem the orbit is an exact cycle only where
    4*E_total**2/mu, taken on the exact parameter values, is 1, 2 or 3:
    b = 3, 4 or 6, with a = 1 for E_total > 0 and a = b - 1 otherwise.
    Failing that, a near cycle is the first continued-fraction convergent
    a/b of theta/(2*pi) with b <= b_max whose b-th collision misses a
    whole number of turns by at most ``tol`` turns.
    """
    x = rotation_angle(params) / (2 * math.pi)  # raises unless delta < 0
    e, mu = Fraction(params.E_total), Fraction(params.mu)
    b = {1: 3, 2: 4, 3: 6}.get(4 * e * e / mu)
    if b is not None and b <= b_max:
        a, exact = (1 if e > 0 else b - 1), True
    else:
        for a, b in _convergents(x, b_max):
            if 0 < a < b and abs(b * x - a) <= tol:
                break
        else:
            return None
        exact = False
    k_value = params.k if k is None else k
    if k_value is None:
        raise ValidationError(
            "motion constant k required to compute the period time"
        )
    mu, e = float(mu), float(e)
    T = 2 * float(k_value) * b * mu / (mu - e * e)
    return RationalPeriod(a, b, T, exact)


def _tachyonic(sigma1: Number, two_e: Number) -> bool:
    return sigma1 * (sigma1 - two_e) > 0


def tachyonic_predicate(sigma1: Number, params: MirrorParams) -> bool:
    """Whether the collision entered with this sigma1 is tachyonic:
    0 < sigma1 * (sigma1 - 2*E_total) (strict; the boundary is not)."""
    return _tachyonic(sigma1, 2 * params.E_total)


def classify_tachyonic(
    params: MirrorParams, sigma1_0: Number
) -> TachyonicCount:
    """How many tachyonic collisions the full solution through sigma1_0 has.

    delta < 0: infinitely many. delta >= 0: exactly two consecutive ones
    iff (sigma1_0 - E_total)**2 > delta, none otherwise. Initial data
    sitting exactly on a fixed point is stationary and classified by its
    own predicate value, i.e. NONE.
    """
    delta = params.delta
    if delta < 0:
        return TachyonicCount.INFINITELY_MANY
    gap = sigma1_0 - params.E_total
    if gap * gap > delta:
        return TachyonicCount.EXACTLY_TWO_CONSECUTIVE
    return TachyonicCount.NONE


def tachyonic_census(
    params: MirrorParams, sigma1_0: Number, steps: int
) -> tuple[int, bool]:
    """Count tachyonic collisions over the orbit window [-steps, steps].

    Returns (count, consecutive) where ``consecutive`` reports whether the
    hits form one run of adjacent collision indices. A ConfigError rejects
    sigma1_0 = 0, where the inverse map has its pole, as ``mirror_initial``
    does.
    """
    if sigma1_0 == 0:
        raise ConfigError("sigma1 must be nonzero")
    two_e, mu = 2 * params.E_total, params.mu
    hits = [0] if _tachyonic(sigma1_0, two_e) else []
    ahead = behind = sigma1_0
    for n in range(1, steps + 1):
        ahead = mu / _check_pole(ahead, two_e)  # reduced_map
        behind = _inverse(behind, two_e, mu)
        if _tachyonic(ahead, two_e):
            hits.append(n)
        if _tachyonic(behind, two_e):
            hits.append(-n)
    hits.sort()
    consecutive = all(b - a == 1 for a, b in zip(hits, hits[1:]))
    return len(hits), consecutive


def census_agrees(
    label: TachyonicCount, count: int, consecutive: bool
) -> bool:
    """Whether a finite census is what the classification predicts: more
    than two hits, exactly two consecutive ones, or none."""
    if label is TachyonicCount.INFINITELY_MANY:
        return count > 2
    if label is TachyonicCount.EXACTLY_TWO_CONSECUTIVE:
        return count == 2 and consecutive
    return count == 0


@dataclass(frozen=True)
class LimitVelocities:
    """Asymptotic velocities of particle 1 in the far past and future."""

    past: float
    future: float
    note: Optional[str] = None


def limit_velocities(params: MirrorParams) -> LimitVelocities:
    """Escape velocities for delta >= 0: particle 1 comes in from -infinity
    at +sqrt(delta)/|E_total| and leaves toward -infinity at the opposite
    value. At delta = 0 both limits are zero, approached one-sidedly
    (0+ in the past, 0- in the future): the bounce at zero speed.
    """
    delta = float(params.delta)
    if delta < 0:
        raise DiscriminantError(
            "no limit velocities: negative discriminant (bounded orbits)"
        )
    if delta == 0:
        return LimitVelocities(
            past=0.0,
            future=0.0,
            note="bounce at zero speed: past -> 0+, future -> 0-",
        )
    v = math.sqrt(delta) / abs(float(params.E_total))
    return LimitVelocities(past=v, future=-v)


def limit_products(
    params: MirrorParams, initial: MirrorState
) -> tuple[float, float]:
    """Limits of x1 * E2 in the far past and future (delta >= 0).

    Both equal k times a fixed point of the reduced map: the repeller for
    the past, the attractor for the future; they coincide at delta = 0.
    """
    if float(params.delta) < 0:
        raise DiscriminantError(
            "no product limits: negative discriminant (bounded orbits)"
        )
    near, far = _fixed_pair(params)
    k0 = float(motion_constant(initial.x1, initial.E2, initial.sigma1))
    return k0 * far.real, k0 * near.real


def kappa_from_initial(initial: MirrorState) -> Number:
    """Scale parameter kappa = -2 * E2_0 / sigma1_0 of the collision bound."""
    if initial.sigma1 == 0:
        raise PoleError("kappa undefined at sigma1 = 0")
    return -2 * initial.E2 / initial.sigma1


def tachyon_scale_bound(params: MirrorParams, kappa: Number) -> Number:
    """Upper bound 4 * kappa * E_total**2 / mu on x1_n / x1_0 over all
    tachyonic collisions, valid for delta >= -E_total**2 (mu <= 2*E_total**2).
    """
    e2 = params.E_total * params.E_total
    if not params.delta >= -e2:
        raise DiscriminantError(
            "bound requires delta >= -E_total**2 (i.e. mu <= 2*E_total**2)"
        )
    if kappa < 0:
        raise ValidationError(
            "bound requires kappa >= 0 (solutions with tachyonic collisions "
            "have kappa > 0)"
        )
    return 4 * kappa * e2 / params.mu


def billiard_from_mirror(
    params: MirrorParams, state: MirrorState
) -> BilliardState:
    """The full four-particle state just after the given collision.

    Particles 1 and 2 sit together at x1 (the collision just resolved),
    particle 2 now moving right at light speed; particles 3 and 4 mirror
    them at -x1. Exact negations keep the configuration bit-for-bit
    symmetric, which is what makes the paired collisions land at exactly
    equal times in the event simulator.
    """
    sigma1, E2, x1 = state.sigma1, state.E2, state.x1
    if sigma1 == 0:
        raise ConfigError("sigma1 must be nonzero")
    if not x1 < 0:
        raise ConfigError("x1 must be negative")
    if E2 == 0:
        raise ConfigError("inner particles cannot carry zero energy")
    rho1 = params.mu / sigma1
    E1 = (sigma1 + rho1) / 2
    P1 = (sigma1 - rho1) / 2
    outer_left = ParticleState(E=E1, P=P1, mu=params.mu, x=x1, label=0)
    inner_right_mover = massless(E2, +1, x=x1, label=1)
    inner_left_mover = massless(E2, -1, x=-x1, label=2)
    outer_right = ParticleState(E=E1, P=-P1, mu=params.mu, x=-x1, label=3)
    return BilliardState(
        (outer_left, inner_right_mover, inner_left_mover, outer_right),
        t=state.t,
    )


def _reduced_walk(
    events: list[CollisionEvent], start: MirrorState
) -> Iterator[MirrorState]:
    """The reduced state in force after each event of a log simulated, in
    either direction, from ``billiard_from_mirror(params, start)``.

    Each collision of the leftmost pair (0, 1) gives the state of that
    collision: particle 0's sigma and particle 1's energy just after it in
    time (``post``), and the event's position and time. A forward log
    passes collisions start.n + 1, start.n + 2, ...; a backward log undoes
    start.n at the start time, then start.n - 1, ... The direction, which
    only numbers the collisions, is read once, from the first such event's
    time, so a float step that rounds to zero cannot flip it. Other events
    keep the state, ``start`` at first.
    """
    first = next((e for e in events if e.pair == (0, 1)), None)
    backward = first is not None and first.t == start.t
    step = -1 if backward else 1
    n, state = start.n if backward else start.n + 1, start
    for event in events:
        if event.pair == (0, 1):
            p0, p1 = event.post
            state = MirrorState(n, p0.E + p0.P, p1.E, event.x, event.t)
            n += step
        yield state


def reduced_states_from_events(
    events: list[CollisionEvent], start: MirrorState
) -> list[MirrorState]:
    """Extract the reduced-coordinate sequence from a four-particle event
    log: one state per collision of the leftmost pair, in the log's
    order."""
    walk = zip(events, _reduced_walk(events, start))
    return [state for event, state in walk if event.pair == (0, 1)]


def mirror_columns(
    params: MirrorParams,
    start: MirrorState,
    events: list[CollisionEvent],
) -> list[dict[str, Number]]:
    """The mirror-mode columns of events.csv: sigma1, E2, x1 and k in force
    after each event of the log simulated from
    ``billiard_from_mirror(params, start)``. Until the first collision of
    the leftmost pair, sigma1 and E2 are that billiard's own; then all
    four follow the last such collision the log has passed, with k
    recomputed from it so that its rounding drift shows."""
    p0, p1 = billiard_from_mirror(params, start).particles[:2]
    first = replace(start, sigma1=p0.E + p0.P, E2=p1.E)
    rows = []
    for state in _reduced_walk(events, first):
        k = params.k
        if state is not first:
            k = motion_constant(state.x1, state.E2, state.sigma1)
        rows.append(dict(sigma1=state.sigma1, E2=state.E2, x1=state.x1, k=k))
    return rows


@dataclass
class CrossCheckReport:
    """Largest relative deviation of the simulated reduced coordinates from
    the closed-form ones, and how fast the deviation grows per step."""

    n_collisions: int
    max_dev: dict[str, float]
    growth_rate: Optional[float]
    passed: bool
    tol: float

    def render(self) -> str:
        lines = [
            f"cross-check over {self.n_collisions} collisions "
            f"(tolerance {self.tol:g})",
        ]
        for key in ("sigma1", "E2", "x1", "t"):
            lines.append(
                f"  max relative deviation {key:6s} = {self.max_dev[key]:.3e}"
            )
        if self.growth_rate is not None:
            lines.append(
                f"  deviation growth rate ~ {self.growth_rate:.3f} per step"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def cross_check(
    params: MirrorParams,
    state0: MirrorState,
    n_collisions: int,
    tol: float = 1e-9,
) -> CrossCheckReport:
    """Run the four-particle simulation against the reduced map and compare
    (sigma1, E2, x1, t) at every collision of the leftmost pair."""
    oracle = reduced_trajectory(params, state0, n_collisions)[1:]
    billiard = billiard_from_mirror(params, state0)
    # each reduced collision costs three events: the inner-pair swap plus
    # the two simultaneous outer collisions
    _, events = simulate(billiard, "forward", max_events=3 * n_collisions)
    simulated = reduced_states_from_events(events, state0)
    if len(simulated) < n_collisions:
        raise SimulationError(
            f"simulation produced {len(simulated)} collisions, "
            f"expected {n_collisions}"
        )

    pairs = list(zip(oracle, simulated))
    devs = {
        key: [rel_diff(getattr(r, key), getattr(g, key)) for r, g in pairs]
        for key in ("sigma1", "E2", "x1", "t")
    }
    max_dev = {key: max(vals, default=0.0) for key, vals in devs.items()}

    seq = devs["sigma1"]
    ratios = sorted(
        b / a for a, b in zip(seq, seq[1:]) if a > 1e-14 and b > 1e-14
    )
    growth = ratios[len(ratios) // 2] if len(ratios) >= 3 else None
    passed = all(v <= tol for v in max_dev.values())
    return CrossCheckReport(n_collisions, max_dev, growth, passed, tol)
