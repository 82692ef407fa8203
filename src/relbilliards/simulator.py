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

The scheduler only runs forward. A run of many pairs picks each event from
a binary heap of pair meeting times and refreshes only the pairs next to a
collision; a run of few pairs scans all of them at every event. Both read
each pair through one rule (``_flights``) and give the same events, bit
for bit. A backward run is the forward run of the time-reversed frame: it
negates the start time, every velocity and ``t_limit`` once, on entry
(``_frame``). Its particles stay in the caller's frame, where time
reversal swaps sigma and rho, so ``_resolve`` hands the swapped pair to
the collision law and writes its events in the caller's frame, each with
its ``pre`` and ``post`` states in time order. The collision law is
symmetric under that reversal, so a forward run followed by a backward
run of the same length retraces itself; in rational mode its log is the
forward log with the batches of simultaneous events in reverse order.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .collisions import collide
# Unused here, but perfbench's tracer wraps collisions under this name.
from .collisions import resolve_collision  # noqa: F401
from .errors import (
    BilliardError,
    NoEventError,
    SimulationError,
    TripleCollisionError,
    ValidationError,
)
from .kinematics import ParticleState
from .numeric import REL_TOL, Number, is_exact, near_zero

Direction = Literal["forward", "backward"]

Pair = tuple[int, int]


def _contact(a: Number, b: Number) -> Number:
    """Neighbours at ``a > b``: a zero of the positions' type if the gap is
    rounding slack (they are in contact), else ValidationError."""
    gap = b - a
    if not near_zero(gap, a, b, 1):
        raise ValidationError(
            f"positions must be nondecreasing, got {a!r} > {b!r}"
        )
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
            if b < a:
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

    ``pre`` and ``post`` are the pair's states just before and just after
    the collision in time, whichever way the run went, so a backward log
    is the forward log of the same history in reverse. Momenta are always
    physical (never the internally time-reversed ones).
    """

    t: Number
    pair: Pair
    x: Number
    pre: tuple[ParticleState, ParticleState]
    post: tuple[ParticleState, ParticleState]
    tachyonic: bool
    sign_flips: tuple[bool, bool]


def _frame(state: BilliardState, direction: Direction):
    """Whether ``direction`` is backward, and the time, positions and
    velocities of ``state`` in the frame where it runs forward: time
    reversal negates the clock and every velocity."""
    ps = state.particles
    xs = [p.x for p in ps]
    if direction == "forward":
        return False, state.t, xs, [p.velocity for p in ps]
    if direction != "backward":
        raise ValidationError(f"unknown direction {direction!r}")
    return True, -state.t, xs, [-p.velocity for p in ps]


def _flights(
    xs: list, vs: list, inverted: set | None = None, pairs: list | None = None
) -> list[tuple[int, Number]]:
    """``(idx, flight time)`` of every closing adjacent pair ``(idx, idx +
    1)`` at positions ``xs`` and velocities ``vs``, in the order of the pair
    indices ``pairs`` (all pairs, in index order, if omitted).

    Also checks that the positions are nondecreasing, as ``BilliardState``
    does; a gap within rounding slack counts as contact (zero). The pairs
    in such contact that do not close are added to ``inverted``, if given.
    """
    cands = []
    for idx in range(len(xs) - 1) if pairs is None else pairs:
        a, b = xs[idx], xs[idx + 1]
        va, vb = vs[idx], vs[idx + 1]
        # The closing speed, or 0 for a pair that does not close: compared
        # before it is built. It rounds to 0.0 only for a Fraction faster
        # than a float by less than the float's spacing: not closing.
        w = va - vb if va > vb else 0
        if b < a:
            gap = _contact(a, b)
            if not w and inverted is not None:
                inverted.add(idx)
        elif w:
            gap = b - a
        if w:
            cands.append((idx, gap / w))
    return cands


def _select(
    cands: list[tuple[int, Number]], t: Number
) -> list[tuple[Pair, Number]]:
    """The candidates ``(idx, flight time)``, given in index order, that
    achieve the earliest intersection after time ``t``, each with the event
    time.

    A pair ties with the earliest when its flight time exceeds the
    shortest by zero, or, if that excess is a float, by at most ``REL_TOL``
    times ``max(1, |t_event|)``: the rule of ``near_zero``, with the
    tolerance computed once, and the tolerance and the excesses only when
    some flight time is a float.
    """
    if not cands:
        return []
    dt_min = min(dt for _, dt in cands)
    t_event = t + dt_min
    tol = 0  # an exact excess is positive: only the minimum ties
    if not all(is_exact(dt) for _, dt in cands):
        tol = REL_TOL * max(1.0, abs(float(t_event)))
    return [
        ((idx, idx + 1), t_event)
        for idx, dt in cands
        if dt == dt_min
        or (tol and dt - dt_min <= tol and not is_exact(dt - dt_min))
    ]


def _earliest(xs: list, vs: list, t: Number) -> list[tuple[Pair, Number]]:
    """Adjacent pairs achieving the earliest intersection after time ``t``,
    from a scan of every pair."""
    return _select(_flights(xs, vs), t)


#: Runs with fewer adjacent pairs scan all of them at every event: below
#: this count the heap's bookkeeping costs more than the scan it saves. Per
#: event over 400 events of the seed-7 bradyon gas (Python 3.11, one CPU of
#: a 2-vCPU Xeon VM), scan against heap: 0.0210 against 0.0214 ms at 44
#: particles, 0.0235 against 0.0222 ms at 48, 0.0246 against 0.0214 ms
#: at 64; the crossover lies between 44 and 48 particles.
_HEAP_MIN_PAIRS = 48

_EPS = sys.float_info.epsilon


class _PairQueue:
    """Event selection from a binary heap of adjacent-pair meeting times,
    with the result of ``_earliest`` over all pairs (Lubachevsky, J.
    Comput. Phys. 94, 1991).

    After an event only the pairs next to a resolved pair are refreshed
    (``gap/w`` from the current positions). Every other candidate of a
    selection joins the heap, keyed by ``t + dt``, unless the next event
    touches it; an entry is live while it is its pair's entry in ``live``.
    A selection pops every entry keyed within a slack of the earliest key
    or fresh time, recomputes ``gap/w`` for the popped pairs, and applies
    ``_select`` to the fresh and popped pairs together. Every pair is read
    through ``_flights``, the scan's rule, so the two share one definition
    of gap, contact and flight time.

    The slack is zero in exact mode, where a key is the scan's exact
    ``t + gap/w`` at every later time. In float mode ``_slack`` bounds how
    far that value can drift from the key, so the popped pairs include
    every pair that the scan would select. An unpopped pair then cannot be
    out of order: if it closes, its flight time exceeds the earliest, so
    its gap is positive; if it does not close, monotone rounding keeps it
    in order. Pairs already inverted within contact slack that do not
    close are rechecked at every selection, as the scan does.
    """

    def __init__(self, xs: list, vs: list, t: Number, exact: bool) -> None:
        self.exact = exact
        self.live: list = [None] * (len(xs) - 1)
        self.heap: list = []
        self.inverted: set[int] = set()
        cands = _flights(xs, vs, self.inverted)
        self.found = _select(cands, t)
        # The last selection's candidates, as heap entries (key, idx, w).
        self.pending = self._entries(cands, vs, t)
        if not exact:
            # Float-mode drift bookkeeping: the start, the largest |x| at
            # the start and |v| so far, and, since the heap last ran
            # empty, its time, the moves made and the smallest w pushed.
            self.t0 = t
            self.x0 = max(map(abs, xs))
            self.vmax = max(map(abs, vs))
            self.t_empty, self.moves, self.w_min = t, 0, math.inf

    @staticmethod
    def _entries(cands: list, vs: list, t: Number) -> list:
        return [(t + dt, idx, vs[idx] - vs[idx + 1]) for idx, dt in cands]

    def after(
        self, xs: list, vs: list, t: Number, resolved: list
    ) -> list[tuple[Pair, Number]]:
        """The selection after the collisions ``resolved`` at time ``t``."""
        try:
            return self._after(xs, vs, t, resolved)
        except ValueError:
            _earliest(xs, vs, t)  # an order violation: raise the scan's
            raise

    def _after(
        self, xs: list, vs: list, t: Number, resolved: list
    ) -> list[tuple[Pair, Number]]:
        live, heap, inverted = self.live, self.heap, self.inverted
        last = len(live) - 1
        touched = []  # ascending, as the resolved pairs are
        for (i, _), _ in resolved:
            for idx in (i - 1, i, i + 1):
                if 0 <= idx <= last and idx not in touched:
                    touched.append(idx)
                    live[idx] = None
        pushed = [e for e in self.pending if e[1] not in touched]
        for entry in pushed:
            live[entry[1]] = entry
        if heap:
            for entry in pushed:
                heapq.heappush(heap, entry)
        else:
            heap.extend(pushed)
            heapq.heapify(heap)
        if not self.exact:
            self.moves += 1
            for (i, j), _ in resolved:
                self.vmax = max(self.vmax, abs(vs[i]), abs(vs[j]))
            if pushed:
                self.w_min = min(self.w_min, min(e[2] for e in pushed))

        # Refresh the touched pairs and recheck the inverted ones, which do
        # not close; ``_flights`` adds back those still inverted.
        refresh = touched
        if inverted:
            refresh = sorted(inverted.union(touched))
            inverted.clear()
        cands = _flights(xs, vs, inverted, refresh)
        while heap and live[heap[0][1]] is not heap[0]:
            heapq.heappop(heap)
        if heap:
            limit = heap[0][0]
            if cands:
                limit = min(limit, t + min(dt for _, dt in cands))
            if not self.exact:
                limit += self._slack(limit, t)
            popped = []
            while heap and heap[0][0] <= limit:
                entry = heapq.heappop(heap)
                if live[entry[1]] is entry:
                    live[entry[1]] = None
                    popped.append(entry[1])
            # A live entry's w is still its pair's closing speed, bit for
            # bit: velocities change only at a collision, which drops it.
            cands += _flights(xs, vs, pairs=popped)
            cands.sort()
        elif not self.exact:
            self.t_empty, self.moves, self.w_min = t, 0, math.inf
        self.pending = self._entries(cands, vs, t)
        return _select(cands, t)

    def _slack(self, m: float, t: float) -> float:
        """How far above the earliest key or fresh time ``m`` a key must
        lie for its pair to be left in the heap at time ``t``.

        A move ``x + v*dt`` shifts a position by at most
        ``eps*(|x| + 2|v*dt|)``; summed over the moves since the heap last
        ran empty, twice that (two particles) over the pair's closing speed
        bounds how far the scan's ``t + gap/w`` drifts from the key. The
        slack covers the drift of the popped pair and of the left one,
        rounding of order ``eps`` times the times involved, and the tie
        window of ``_select``, all doubled for second-order terms.
        """
        reach = 2 * (self.x0 + self.vmax * (t - self.t0))  # >= every |x|
        shift = _EPS * (
            self.moves * reach + 2 * self.vmax * (t - self.t_empty)
        )
        return 2 * (
            REL_TOL * (1 + abs(m) + abs(t))
            + 4 * shift / self.w_min
            + 16 * _EPS * (abs(m) + abs(t) + abs(self.t_empty))
        )


def _scheduler(xs: list, vs: list, t: Number, max_events: int | None):
    """The first selection of a run from ``xs``, ``vs`` at time ``t``, and
    the function that makes each later one from the positions, velocities
    and time after an event and the pairs it resolved.

    The heap serves runs of at least ``_HEAP_MIN_PAIRS`` pairs that are
    all float or all exact and may take more than one event (building it
    costs about one scan); the others scan every pair at every event. The
    heap costs 10% more on four float particles, half on Fraction gases.
    """
    if len(xs) > _HEAP_MIN_PAIRS and (max_events is None or max_events > 1):
        types = {*map(type, xs), *map(type, vs)}
        if types == {float} and (
            type(t) is float or type(t) is int and abs(t) <= 2**53
        ):
            queue = _PairQueue(xs, vs, t, exact=False)
            return queue.found, queue.after
        if types <= {int, Fraction} and is_exact(t):
            queue = _PairQueue(xs, vs, t, exact=True)
            return queue.found, queue.after
    return _earliest(xs, vs, t), lambda xs, vs, t, _: _earliest(xs, vs, t)


def next_collisions(
    state: BilliardState, direction: Direction = "forward"
) -> list[tuple[Pair, Number]]:
    """Adjacent pairs achieving the earliest intersection, with the event time.

    Simultaneous events at distinct positions are all returned (they share
    the snapped event time); an empty list means no collision lies ahead.
    A float event time that is not finite is a SimulationError, as in
    ``simulate``.
    """
    back, t, xs, vs = _frame(state, direction)
    found = _earliest(xs, vs, t)
    if found:
        _finite(found[0][1], "event time")
    return [(pair, -t if back else t) for pair, t in found]


def _finite(value: Number, what: str) -> None:
    """SimulationError if the float ``value`` has left the float range
    (inf or NaN). Exact values are always finite and are not converted."""
    if type(value) is float and not math.isfinite(value):
        raise SimulationError(f"{what} is not finite: {value!r}")


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
    ps: list, xs: list, vs: list, t: Number, found: list, back: bool
) -> list[CollisionEvent]:
    """Resolve the collisions ``found`` at time ``t``, where the particles
    ``ps`` sit at ``xs``; update ``ps``, ``xs`` and ``vs`` for the colliding
    pairs and return their events.

    ``t`` and ``vs`` are in the frame where the run goes forward, which is
    time-reversed if ``back``; ``ps`` and the events are in the caller's.
    """
    selected = [pair for pair, _ in found]
    _check_disjoint(selected)

    t_event = -t if back else t
    events = []
    for i, j in selected:  # left-to-right; pairs are disjoint
        a, b = xs[i], xs[j]
        # An exact pair meets at one point. Floats keep the midpoint: it
        # takes -0.0 and 0.0 to 0.0, and is a float for a mixed pair.
        x_e = a if a == b and is_exact(a) and is_exact(b) else (a + b) / 2
        _finite(x_e, "collision point")
        p, q = ps[i], ps[j]
        # (sigma, rho) = (E + P, E - P); time reversal swaps the two
        s_i, r_i, s_j, r_j = p.E + p.P, p.E - p.P, q.E + q.P, q.E - q.P
        if back:
            s_i, r_i, s_j, r_j = r_i, s_i, r_j, s_j
        (sigma_i, rho_i, sigma_j, rho_j, _, _, tachyonic, flip_i, flip_j) = (
            collide(s_i, r_i, s_j, r_j)
        )
        # E = (sigma + rho)/2 and P = (sigma - rho)/2 in the run's frame,
        # P negated in the caller's; each mu carried over
        P_i, P_j = (sigma_i - rho_i) / 2, (sigma_j - rho_j) / 2
        post_i = ParticleState._evolved(
            (sigma_i + rho_i) / 2, -P_i if back else P_i, p.mu, x_e, p.label
        )
        post_j = ParticleState._evolved(
            (sigma_j + rho_j) / 2, -P_j if back else P_j, q.mu, x_e, q.label
        )
        v_i, v_j = P_i / post_i.E, P_j / post_j.E
        if v_i > v_j and not near_zero(v_i - v_j, v_i, v_j, 1):
            raise SimulationError(
                f"pair ({i}, {j}) still approaching after resolution"
            )
        ps[i], ps[j] = post_i, post_j
        xs[i] = xs[j] = x_e
        vs[i], vs[j] = v_i, v_j
        # The pair's states in the run's order; the event keeps time order.
        run = (p.with_position(x_e), q.with_position(x_e)), (post_i, post_j)
        pre, post = run[::-1] if back else run
        events.append(
            CollisionEvent(
                t=t_event,
                pair=(i, j),
                x=x_e,
                pre=pre,
                post=post,
                tachyonic=tachyonic,
                sign_flips=(flip_i, flip_j),
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
    errors are re-raised with the index of the offending event attached;
    a float event time, collision point or returned position that is not
    finite is a SimulationError.
    """
    # The particles as last resolved, their positions at time t and their
    # velocities, with t and the velocities in the frame where the run goes
    # forward; only colliding pairs get new particles.
    back, t, xs, vs = _frame(state, direction)
    ps = list(state.particles)
    if max_events is None and t_limit is None:
        raise ValidationError(
            "need max_events and/or t_limit to bound the run"
        )
    if t_limit is not None:
        t_limit = -t_limit if back else t_limit
        if t_limit < t:
            bound = "exceed" if back else "precede"
            raise ValidationError(
                f"{direction} t_limit must not {bound} the start time"
            )

    log: list[CollisionEvent] = []
    found, select = _scheduler(xs, vs, t, max_events)
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
            _finite(t, "event time")
            events = _resolve(ps, xs, vs, t, found, back)
            found = select(xs, vs, t, found)
        except ValueError as exc:  # bad positions or particle data
            raise SimulationError(
                f"{exc} (at event index {len(log)})"
            ) from exc
        except BilliardError as exc:
            raise type(exc)(f"{exc} (at event index {len(log)})") from exc
        log.extend(events)
    for i, x in enumerate(xs):  # the checks of _finite, inlined
        if type(x) is float and not math.isfinite(x):
            raise SimulationError(
                f"position of particle {i} is not finite: {x!r} "
                f"(at event index {len(log)})"
            )
    particles = tuple(p.with_position(x) for p, x in zip(ps, xs))
    return BilliardState(particles, -t if back else t), log
