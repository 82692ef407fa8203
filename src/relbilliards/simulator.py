"""Event-driven evolution of N particles on a line.

Between collisions every particle moves freely at v = P/E; the scheduler
finds the earliest adjacent-pair intersection(s), advances the whole state
there, and resolves each colliding pair elastically. Several collisions at
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
from .numeric import Number, near_zero

Direction = Literal["forward", "backward"]

Pair = tuple[int, int]


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
            gap = b - a
            if gap < 0 and not near_zero(gap, abs(a) + abs(b) + 1):
                raise ValueError(
                    f"positions must be nondecreasing, got {a!r} > {b!r}"
                )

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


def _forward_candidates(state: BilliardState) -> list[tuple[int, Number]]:
    """All (left index, flight time) pairs with a genuine future intersection."""
    out = []
    ps = state.particles
    for idx, (a, b) in enumerate(zip(ps, ps[1:])):
        w = a.velocity - b.velocity  # closing speed
        if w <= 0:
            continue
        gap = b.x - a.x
        if gap < 0:
            # rounding slack from a previous event; treat as contact
            gap = gap - gap  # zero of the right number type
        out.append((idx, gap / w))
    return out


def next_collisions(
    state: BilliardState, direction: Direction = "forward"
) -> list[tuple[Pair, Number]]:
    """Adjacent pairs achieving the earliest intersection, with the event time.

    Simultaneous events at distinct positions are all returned (they share
    the snapped event time); an empty list means no collision lies ahead.
    """
    state, back = _forward_frame(state, direction)
    cands = _forward_candidates(state)
    if not cands:
        return []
    dt_min = min(dt for _, dt in cands)
    t_event = state.t + dt_min
    scale = max(1.0, abs(float(t_event)))
    return [
        ((idx, idx + 1), back(t_event))
        for idx, dt in cands
        if near_zero(dt - dt_min, scale)
    ]


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


def _advance(
    state: BilliardState,
    t: Number,
    found: list[tuple[Pair, Number]],
) -> tuple[BilliardState, list[CollisionEvent]]:
    """Move every particle freely to ``t`` and resolve the collisions
    ``found`` there (the forward result of ``next_collisions``, or none)."""
    dt = t - state.t
    advanced = [p.moved(dt) for p in state.particles]
    selected = [pair for pair, _ in found]
    _check_disjoint(selected)

    events = []
    for i, j in selected:  # left-to-right; pairs are disjoint
        x_e = (advanced[i].x + advanced[j].x) / 2
        pre_i = advanced[i].with_position(x_e)
        pre_j = advanced[j].with_position(x_e)
        outcome = resolve_collision(pre_i.sigma_rho(), pre_j.sigma_rho())
        post_i = ParticleState.from_sigma_rho(
            outcome.sr_i_after, x_e, pre_i.label, mu=pre_i.mu
        )
        post_j = ParticleState.from_sigma_rho(
            outcome.sr_j_after, x_e, pre_j.label, mu=pre_j.mu
        )
        dv = post_i.velocity - post_j.velocity
        if dv > 0 and not near_zero(
            dv, abs(post_i.velocity) + abs(post_j.velocity) + 1
        ):
            raise SimulationError(
                f"pair ({i}, {j}) still approaching after resolution"
            )
        advanced[i] = post_i
        advanced[j] = post_j
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
    return BilliardState(tuple(advanced), t), events


def step(
    state: BilliardState, direction: Direction = "forward"
) -> tuple[BilliardState, list[CollisionEvent]]:
    """Advance to the next event time and resolve every collision there."""
    state, back = _forward_frame(state, direction)
    found = next_collisions(state, "forward")
    if not found:
        raise NoEventError("no next event")
    state, events = _advance(state, found[0][1], found)
    return back(state), [back(e) for e in events]


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

    log: list[CollisionEvent] = []
    while max_events is None or len(log) < max_events:
        found = next_collisions(state, "forward")
        if not found or (t_limit is not None and found[0][1] >= t_limit):
            if t_limit is not None:
                state, _ = _advance(state, t_limit, [])
            break
        try:
            state, events = _advance(state, found[0][1], found)
        except BilliardError as exc:
            raise type(exc)(f"{exc} (at event index {len(log)})") from exc
        except ValueError as exc:
            raise SimulationError(
                f"{exc} (at event index {len(log)})"
            ) from exc
        log.extend(events)
    return back(state), [back(e) for e in log]
