"""Event-driven evolution of N particles on a line.

Between collisions every particle moves freely at v = P/E; the scheduler
finds the earliest adjacent-pair intersection(s), moves every position
there, and resolves each colliding pair elastically. A run keeps positions
and velocities as plain numbers and builds ``ParticleState`` objects only
for the colliding pairs and the returned state. Several collisions at
the same time but different places are legal and resolved left to right
(the pairs are disjoint, so the order does not matter); two collisions at
the same time *and* place are a genuine discontinuity of the dynamics and
raise TripleCollisionError.

The scheduler only runs forward, one scan per event. ``_forward_frame``
maps a backward call into the time-reversed frame (every momentum and the
clock negated) and its result back. The collision law is symmetric under
that reversal, so a forward run followed by a backward run of the same
length retraces itself (exactly in rational mode).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

from .collisions import resolve_collision
from .errors import (
    BilliardError,
    NoEventError,
    SimulationError,
    TripleCollisionError,
)
from .kinematics import ParticleState
from .numeric import REL_TOL, Number, is_exact, near_zero

Direction = Literal["forward", "backward"]

Pair = tuple[int, int]


def _contact(a: Number, b: Number) -> Number:
    """Neighbours at ``a > b``: a zero of the positions' type if the gap is
    rounding slack (they are in contact), else ValueError."""
    gap = b - a
    if not near_zero(gap, a, b, 1):
        raise ValueError(f"positions must be nondecreasing, got {a!r} > {b!r}")
    return gap - gap


@dataclass(frozen=True)
class BilliardState:
    """Ordered particles plus the current time. A transferable value."""

    particles: tuple[ParticleState, ...]
    t: Number = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.particles, tuple):
            object.__setattr__(self, "particles", tuple(self.particles))
        xs = [p.x for p in self.particles]
        for a, b in zip(xs, xs[1:]):
            if b - a < 0:
                _contact(a, b)

    def __len__(self) -> int:
        return len(self.particles)

    def total_energy(self) -> Number:
        return sum(p.E for p in self.particles)

    def total_momentum(self) -> Number:
        return sum(p.P for p in self.particles)


@dataclass(frozen=True)
class CollisionEvent:
    """Log record of one resolved collision.

    ``pre``/``post`` are in traversal order: in a backward run ``post``
    holds the chronologically earlier states. Momenta are always physical
    (never the internally time-reversed ones).
    """

    t: Number
    pair: Pair
    x: Number
    pre: tuple[ParticleState, ParticleState]
    post: tuple[ParticleState, ParticleState]
    tachyonic: bool
    sign_flips: tuple[bool, bool]


def _time_reversed(value):
    """Time-reversal image of a state, an event, particles or a time."""
    if isinstance(value, BilliardState):
        return BilliardState(_time_reversed(value.particles), -value.t)
    if isinstance(value, CollisionEvent):
        pre, post = _time_reversed(value.pre), _time_reversed(value.post)
        return replace(value, t=-value.t, pre=pre, post=post)
    if isinstance(value, tuple):
        return tuple(p.momentum_reversed() for p in value)
    return -value


def _forward_frame(state: BilliardState, direction: Direction):
    """``state`` in the frame where ``direction`` runs forward, and the map
    that takes results back out of it (reversal is its own inverse)."""
    if direction == "forward":
        return state, lambda value: value
    if direction != "backward":
        raise ValueError(f"unknown direction {direction!r}")
    return _time_reversed(state), _time_reversed


def _earliest(xs: list, vs: list, t: Number) -> list[tuple[Pair, Number]]:
    """Adjacent pairs achieving the earliest intersection after time ``t``
    (positions ``xs``, velocities ``vs``), each with the event time.

    Also checks that the positions are nondecreasing, as ``BilliardState``
    does. A pair ties with the earliest when its flight time exceeds the
    shortest by zero, or, if that excess is a float, by at most ``REL_TOL``
    times ``max(1, |t_event|)``: the rule of ``near_zero``, with the
    tolerance computed once, and only when some flight time is a float.
    """
    cands = []
    for idx, (a, b, va, vb) in enumerate(zip(xs, xs[1:], vs, vs[1:])):
        gap = b - a
        if gap < 0:
            gap = _contact(a, b)
        w = va - vb  # closing speed
        if w > 0:
            cands.append((idx, gap / w))
    if not cands:
        return []
    dt_min = min(dt for _, dt in cands)
    t_event = t + dt_min
    tol = 0  # an exact excess is positive, so it fails <= tol
    if not all(is_exact(dt) for _, dt in cands):
        tol = REL_TOL * max(1.0, abs(float(t_event)))
    return [
        ((idx, idx + 1), t_event)
        for idx, dt in cands
        if dt == dt_min
        or (dt - dt_min <= tol and not is_exact(dt - dt_min))
    ]


def next_collisions(
    state: BilliardState, direction: Direction = "forward"
) -> list[tuple[Pair, Number]]:
    """Adjacent pairs achieving the earliest intersection, with the event time.

    Simultaneous events at distinct positions are all returned (they share
    the snapped event time); an empty list means no collision lies ahead.
    """
    state, back = _forward_frame(state, direction)
    ps = state.particles
    found = _earliest([p.x for p in ps], [p.velocity for p in ps], state.t)
    return [(pair, back(t)) for pair, t in found]


def _check_disjoint(selected: list[Pair]) -> None:
    """Reject simultaneous events that share a particle.

    Disjoint pairs commute, so several collisions at one time but
    different places are fine no matter how close those places are. A
    shared particle is exactly the configuration whose outcome depends on
    resolution order (three or more particles meeting at one point always
    shows up this way, since the inner pair ties too).
    """
    used: set[int] = set()
    for i, j in selected:
        if i in used or j in used:
            raise TripleCollisionError(
                f"triple collision: particle shared between simultaneous "
                f"events at pairs {selected}"
            )
        used.update((i, j))


def _resolve(
    ps: list, xs: list, vs: list, t: Number, found: list[tuple[Pair, Number]]
) -> list[CollisionEvent]:
    """Resolve the collisions ``found`` at time ``t``, where the particles
    ``ps`` sit at ``xs``; update ``ps``, ``xs`` and ``vs`` for the colliding
    pairs and return their events."""
    selected = [pair for pair, _ in found]
    _check_disjoint(selected)

    events = []
    for i, j in selected:  # left-to-right; pairs are disjoint
        a, b = xs[i], xs[j]
        # An exact pair meets at one point. Floats keep the midpoint: it
        # takes -0.0 and 0.0 to 0.0, and is a float for a mixed pair.
        x_e = a if a == b and is_exact(a) and is_exact(b) else (a + b) / 2
        pre_i = ps[i].with_position(x_e)
        pre_j = ps[j].with_position(x_e)
        outcome = resolve_collision(pre_i.sigma_rho(), pre_j.sigma_rho())
        post_i = ParticleState.from_sigma_rho(
            outcome.sr_i_after, x_e, pre_i.label, mu=pre_i.mu
        )
        post_j = ParticleState.from_sigma_rho(
            outcome.sr_j_after, x_e, pre_j.label, mu=pre_j.mu
        )
        v_i, v_j = post_i.velocity, post_j.velocity
        dv = v_i - v_j
        if dv > 0 and not near_zero(dv, v_i, v_j, 1):
            raise SimulationError(
                f"pair ({i}, {j}) still approaching after resolution"
            )
        ps[i], ps[j] = post_i, post_j
        xs[i] = xs[j] = x_e
        vs[i], vs[j] = v_i, v_j
        events.append(
            CollisionEvent(
                t=t,
                pair=(i, j),
                x=x_e,
                pre=(pre_i, pre_j),
                post=(post_i, post_j),
                tachyonic=outcome.tachyonic,
                sign_flips=(outcome.sign_flip_i, outcome.sign_flip_j),
            )
        )
    return events


def step(
    state: BilliardState, direction: Direction = "forward"
) -> tuple[BilliardState, list[CollisionEvent]]:
    """Advance to the next event time and resolve every collision there."""
    state, events = simulate(state, direction, max_events=1)
    if not events:
        raise NoEventError("no next event")
    return state, events


def simulate(
    state: BilliardState,
    direction: Direction = "forward",
    *,
    max_events: int | None = None,
    t_limit: Number | None = None,
) -> tuple[BilliardState, list[CollisionEvent]]:
    """Run the event loop until an event or time budget is exhausted.

    Simultaneous events are resolved atomically, so the log may exceed
    ``max_events`` by the simultaneity multiplicity minus one. With
    ``t_limit`` the returned state sits exactly at the limit time; events
    strictly inside the interval are resolved, an event landing exactly on
    the limit is left unresolved (the state is its pre-collision
    configuration). Identical inputs produce identical logs. Scheduler
    errors are re-raised with the index of the offending event attached.
    """
    state, back = _forward_frame(state, direction)
    if max_events is None and t_limit is None:
        raise ValueError("need max_events and/or t_limit to bound the run")
    if t_limit is not None:
        t_limit = back(t_limit)
        if t_limit < state.t:
            bound = "precede" if direction == "forward" else "exceed"
            raise ValueError(
                f"{direction} t_limit must not {bound} the start time"
            )

    # The particles as last resolved, their positions at time t and their
    # velocities; only colliding pairs get new particles.
    ps = list(state.particles)
    xs = [p.x for p in ps]
    vs = [p.velocity for p in ps]
    t = state.t
    log: list[CollisionEvent] = []
    found = _earliest(xs, vs, t)
    while max_events is None or len(log) < max_events:
        if not found or (t_limit is not None and found[0][1] >= t_limit):
            if t_limit is not None:
                dt = t_limit - t
                xs = [x + v * dt for x, v in zip(xs, vs)]
                t = t_limit
            break
        t_event = found[0][1]
        dt = t_event - t
        xs = [x + v * dt for x, v in zip(xs, vs)]
        t = t_event
        try:
            events = _resolve(ps, xs, vs, t, found)
            found = _earliest(xs, vs, t)
        except BilliardError as exc:
            raise type(exc)(f"{exc} (at event index {len(log)})") from exc
        except ValueError as exc:
            raise SimulationError(
                f"{exc} (at event index {len(log)})"
            ) from exc
        log.extend(events)
    particles = tuple(p.with_position(x) for p, x in zip(ps, xs))
    return back(BilliardState(particles, t)), [back(e) for e in log]
