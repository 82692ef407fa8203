"""Event-driven evolution of N particles on a line.

Between collisions every particle moves freely at v = P/E; the scheduler
finds the earliest adjacent-pair intersection(s), moves the positions
there, and resolves each colliding pair elastically. A run keeps positions
and velocities as plain numbers and builds ``ParticleState`` objects only
for the colliding pairs and the returned state. Several collisions at
the same time but different places are legal and resolved left to right
(the pairs are disjoint, so the order does not matter). Two collisions at
the same time *and* place are a genuine discontinuity of the dynamics and
raise TripleCollisionError.

The scheduler only runs forward, and selects each event as its step, its
time and the left indices of the pairs that meet then (``_Selection``). A
run of many pairs picks each event from a binary heap of pair meeting
times, refreshes only the pairs next to a collision, and moves a particle
only when it reads its position, through the same float steps that the scan
takes; a run of few pairs scans all of them and moves every position at
every event. Both read each pair through one rule (``_flights``) and give
the same events, bit for bit. A backward run is the forward run of the
time-reversed frame: it negates the start time, every velocity and
``t_limit`` once, on entry (``_frame``). Its particles stay in the caller's
frame, where time reversal swaps sigma and rho, so ``_resolve`` hands the
swapped pair to the collision law and writes its events in the caller's
frame, each with its ``pre`` and ``post`` states in time order. The
collision law is symmetric under that reversal, so a forward run followed
by a backward run of the same length retraces itself; in rational mode its
log is the forward log with the batches of simultaneous events in reverse
order.

An exact run (int or Fraction clock, positions and velocities, decided once
per run) recomputes nothing it already holds. It carries each particle's
(sigma, rho) next to its position and velocity, in the run's frame, so that
``_resolve`` hands the carried pair to the collision law and keeps what the
law returns, on an exchange the exchanged pair; a run of any other kind
builds each colliding pair's sigma and rho from E and P. Exact meeting
times bring both particles of a pair to one point, so the scan moves only
the left one there and ``_resolve`` writes it to both, and each step is the
selected flight time itself rather than the event time less the clock, a
value equal to it. One scan class (``_Scan``) takes both kinds of run and
moves the positions by the run's kind.

A scan run from a parity-symmetric start, float or exact, scans and
resolves the pairs up to the middle and writes each other pair from its
mirror image (``_MirrorScan``, which adds only its scan and the writing of
the right half to ``_Scan``). An exact step moves only the left half.
Every number is the one that recomputing it would give, in value and type,
the sign of a float zero included.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_right
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
from .kinematics import ParticleState, unchecked_constructor
from .numeric import (
    REL_TOL, Number, is_count, is_exact, near_zero, repr_number,
)

Direction = Literal["forward", "backward"]

Pair = tuple[int, int]

#: A selection: the step to the next event, its time, and the ascending
#: left indices ``i`` of the pairs ``(i, i + 1)`` that meet then.
_Selection = tuple[Number | None, Number | None, list[int]]


def _contact(a: Number, b: Number) -> Number:
    """Neighbours at ``a > b``: a zero of the positions' type if the gap is
    rounding slack (they are in contact), else ValidationError."""
    gap = b - a
    if not near_zero(gap, a, b, 1):
        raise ValidationError(
            "positions must be nondecreasing, got "
            f"{repr_number(a)} > {repr_number(b)}"
        )
    return gap - gap


@dataclass(frozen=True)
class BilliardState:
    """Ordered particles plus the current time, 0 (an int, so exact data
    runs on an exact clock) unless given. A transferable value."""

    particles: tuple[ParticleState, ...]
    t: Number = 0

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


@unchecked_constructor
@dataclass(frozen=True, slots=True)
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
    """Whether ``direction`` is backward; the particles of ``state``, each
    of int E and P at an exact position taken with Fractions, whose
    quotients stay exact; and the time, positions and velocities of
    ``state`` in the frame where it runs forward: time reversal negates
    the clock and every velocity."""
    ps = [
        ParticleState._unchecked(
            Fraction(p.E), Fraction(p.P), p.mu, p.x, p.label
        )
        if type(p.E) is int and type(p.P) is int and is_exact(p.x) else p
        for p in state.particles
    ]
    xs = [p.x for p in ps]
    if direction == "forward":
        return False, state.t, ps, xs, [p.P / p.E for p in ps]
    if direction != "backward":
        raise ValidationError(f"unknown direction {direction!r}")
    return True, -state.t, ps, xs, [-(p.P / p.E) for p in ps]


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


def _select(cands: list[tuple[int, Number]], t: Number) -> _Selection:
    """The step from time ``t`` to the earliest intersection after it, its
    time, and the indices of the candidates ``(idx, flight time)``, given
    in index order, that achieve it; ``(None, None, [])`` if there are none.

    The step is the shortest flight time itself where it and ``t`` are
    exact, since the event time less ``t`` equals it there; otherwise it is
    that difference, as the float clock gives it.

    A pair ties with the earliest when its flight time exceeds the
    shortest by zero, or, if that excess is a float, by at most ``REL_TOL``
    times ``max(1, |t_event|)``: the rule of ``near_zero``, with the
    tolerance computed once, and the tolerance and the excesses only when
    some flight time is a float.
    """
    if not cands:
        return None, None, []
    dts = [dt for _, dt in cands]
    dt_min = min(dts)
    t_event = t + dt_min
    tol = 0  # an exact excess is positive: only the minimum ties
    step = dt_min
    if float in map(type, dts):
        tol = REL_TOL * max(1.0, abs(float(t_event)))
        step = t_event - t
    elif type(t) is float:
        step = t_event - t
    return step, t_event, [
        idx
        for idx, dt in cands
        if dt == dt_min
        or (tol and dt - dt_min <= tol and not is_exact(dt - dt_min))
    ]


#: Runs with fewer adjacent pairs scan all of them at every event: below
#: this count the heap's bookkeeping costs more than the scan it saves. Per
#: event over 400 events of the seed-7 bradyon gas (Python 3.11, one CPU of
#: a 2-vCPU Xeon VM, least CPU time of 30 alternating calls, five rounds),
#: scan against heap: 0.0227-0.0241 against 0.0240-0.0257 ms at 48
#: particles, 0.0229-0.0246 against 0.0234-0.0248 ms at 52, 0.0236-0.0274
#: against 0.0234-0.0263 ms at 56, 0.0260-0.0272 against 0.0242-0.0251 ms
#: at 64. The float crossover lies between 52 and 56 particles; the count
#: stays at 48 because exact runs gain from the heap at every size: 0.87
#: against 0.59 ms per event over 60 events of a 50-particle Fraction gas.
_HEAP_MIN_PAIRS = 48

_EPS = sys.float_info.epsilon


class _Scan:
    """Event selection by a scan of every pair (``_flights`` and
    ``_select``) at every event. A float step moves every position, since
    the scan reads them all. An exact step moves every particle but the
    right one of each pair of the selection: that pair meets at one point,
    exactly, and ``_resolve`` gives the right particle the left one's
    position."""

    mirror = False  # whether ``_resolve`` writes image pairs (_MirrorScan)

    def __init__(self, xs: list, vs: list, t: Number, exact: bool) -> None:
        self.xs, self.vs, self.exact = xs, vs, exact
        # The particles an exact step moves: in a mirror run the left half,
        # from which the right half is written.
        self.moving = range((len(xs) + 1) // 2 if self.mirror else len(xs))
        self.selection = self.after(t, [])

    def advance(self, dt: Number, lefts: list) -> None:
        xs, vs = self.xs, self.vs
        if not self.exact:
            xs[:] = [x + v * dt for x, v in zip(xs, vs)]
            return
        met = {i + 1 for i in lefts}
        for k in self.moving:
            if k not in met:
                xs[k] = xs[k] + vs[k] * dt

    def after(self, t: Number, lefts: list) -> _Selection:
        return _select(_flights(self.xs, self.vs), t)

    def settle(self) -> None:
        pass


class _MirrorScan(_Scan):
    """The scan of a parity-symmetric run (``_scheduler``): it reads pairs
    ``0 ... n//2 - 1`` and adds to each pair ``i`` it selects its image ``n
    - 2 - i``, which ``_resolve`` writes from it (``mirror``). A float step
    moves every position, since a sum that rounds to zero has a sign of its
    own; an exact step moves particles ``0 ... ceil(n/2) - 1`` only, and a
    right-half position is written as its image's negated where it is read:
    the middle pair's right (even n) before each scan, every one in
    ``settle``."""

    mirror = True

    def after(self, t: Number, lefts: list) -> _Selection:
        xs, n = self.xs, len(self.xs)
        if self.exact and not n % 2:
            xs[n // 2] = -xs[n // 2 - 1]
        selection = _select(_flights(xs, self.vs, pairs=range(n // 2)), t)
        lefts = selection[2]
        for i in lefts[::-1]:  # each pair's image, the middle pair's aside
            if 2 * i + 2 != n:
                lefts.append(n - 2 - i)
        return selection

    def settle(self) -> None:
        if self.exact:
            xs = self.xs
            for k in range((len(xs) + 1) // 2, len(xs)):
                xs[k] = -xs[~k]


class _PairQueue:
    """Event selection from a binary heap of adjacent-pair meeting times,
    with the result of a scan of all pairs (Lubachevsky, J.
    Comput. Phys. 94, 1991).

    After an event only the pairs next to a resolved pair are refreshed
    (``gap/w`` from the current positions). Every candidate ``(idx, dt)``
    of a selection joins the heap as ``(t + dt, idx)`` when the selection
    is made; an entry is live while it is its pair's entry in ``live``. The pairs that
    the next event touches lose their entries there, and a stale entry is
    dropped when it is popped. A selection pops every entry keyed within a
    slack of the earliest key or fresh time, recomputes ``gap/w`` for the
    popped pairs, and applies ``_select`` to the fresh and popped pairs
    together. Every pair is read through ``_flights``, the scan's rule, so
    the two share one definition of gap, contact and flight time.

    A particle moves only when a pair of it is read. Each event's step
    ``dt`` joins ``steps``, and ``taken[i]`` counts the steps that ``xs[i]``
    has taken; just before a pair is read, or resolved, each of its
    particles takes the steps it missed, one at a time, as ``x + v*dt``
    with its current velocity. A velocity changes only at a collision, and
    its particle is up to date then, so every position goes through the
    float operations of a scan run's move of every position, in the same
    order, and holds the same bits whenever it is read. Once the steps
    number as many as the particles, every particle takes them and the
    list starts again.

    The slack is zero in exact mode, where a key is the scan's exact
    ``t + gap/w`` at every later time. In float mode ``_slack`` bounds how
    far that value can drift from the key, so the popped pairs include
    every pair that the scan would select. The bound counts every step,
    which each position still takes. An unpopped pair then cannot be
    out of order: if it closes, its flight time exceeds the earliest, so
    its gap is positive; if it does not close, monotone rounding keeps it
    in order. Pairs already inverted within contact slack that do not
    close are rechecked at every selection, as the scan does.

    The same invariant makes the heap's order errors the scan's. The
    touched and inverted pairs are read first, in ascending order; a live
    pair in the heap, popped or not, was not selected at the event after
    which it was pushed (those pairs are touched), so it closes with a key
    past that event and its gap is positive, and a pair that does not
    close stays in order. The first pair that ``_flights`` finds out of
    order is therefore the scan's first.
    """

    mirror = False

    def __init__(self, xs: list, vs: list, t: Number, exact: bool) -> None:
        self.xs, self.vs, self.exact = xs, vs, exact
        self.steps: list = []
        self.taken = [0] * len(xs)
        self.live: list = [None] * (len(xs) - 1)
        self.heap: list = []
        self.inverted: set[int] = set()
        # The smallest w pushed since the heap last ran empty, stale entries
        # included, which only widens the slack; exact mode keeps it at inf.
        self.w_min = math.inf
        cands = _flights(xs, vs, self.inverted)
        self._push(cands, t)
        self.selection = _select(cands, t)
        if not exact:
            # Float-mode drift bookkeeping: the start, the largest |x| at
            # the start and |v| so far, and, since the heap last ran
            # empty, its time and the moves made.
            self.t0 = t
            self.x0 = max(map(abs, xs))
            self.vmax = max(map(abs, vs))
            self.t_empty, self.moves = t, 0

    def _push(self, cands: list, t: Number) -> None:
        """Push each candidate ``(idx, dt)`` of the selection at time ``t``
        as its pair's live entry ``(t + dt, idx)``; in float mode, lower
        ``w_min`` to the pair's closing speed."""
        vs, live, heap, exact = self.vs, self.live, self.heap, self.exact
        w_min = self.w_min
        for idx, dt in cands:
            live[idx] = entry = (t + dt, idx)
            heapq.heappush(heap, entry)
            if not exact:
                w = vs[idx] - vs[idx + 1]
                if w < w_min:
                    w_min = w
        self.w_min = w_min

    def _take_steps(self, pairs) -> None:
        """Bring both particles of each pair in ``pairs`` up to date."""
        xs, vs, steps, taken = self.xs, self.vs, self.steps, self.taken
        k = len(steps)
        for idx in pairs:
            for i in idx, idx + 1:
                m = taken[i]
                if m != k:
                    x, v = xs[i], vs[i]
                    for dt in steps[m:] if m else steps:
                        x = x + v * dt
                    xs[i] = x
                    taken[i] = k

    def advance(self, dt: Number, lefts: list) -> None:
        """Move the run by ``dt``: the particles of the pairs at ``lefts``
        now, the others when they are read."""
        self.steps.append(dt)
        if len(self.steps) < len(self.taken):
            self._take_steps(lefts)
        else:
            self.settle()

    def settle(self) -> None:
        """Bring every particle up to date and start the steps again."""
        self._take_steps(range(len(self.live)))
        self.steps.clear()
        self.taken = [0] * len(self.taken)

    def after(self, t: Number, lefts: list) -> _Selection:
        """The selection after the collisions of the pairs at ``lefts`` at
        time ``t``."""
        xs, vs, exact = self.xs, self.vs, self.exact
        live, heap, inverted = self.live, self.heap, self.inverted
        last = len(live) - 1
        touched = []  # ascending, as the lefts are
        for i in lefts:
            for idx in (i - 1, i, i + 1):
                if 0 <= idx <= last and idx not in touched:
                    touched.append(idx)
                    live[idx] = None
        if not exact:
            self.moves += 1
            for i in lefts:
                self.vmax = max(self.vmax, abs(vs[i]), abs(vs[i + 1]))

        # Refresh the touched pairs and recheck the inverted ones, which do
        # not close; ``_flights`` adds back those still inverted.
        refresh = touched
        if inverted:
            refresh = sorted(inverted.union(touched))
            inverted.clear()
        self._take_steps(refresh)
        cands = _flights(xs, vs, inverted, refresh)
        while heap and live[heap[0][1]] is not heap[0]:
            heapq.heappop(heap)
        if heap:
            limit = heap[0][0]
            for _, dt in cands:
                key = t + dt
                if key < limit:
                    limit = key
            if not exact:
                limit += self._slack(limit, t)
            popped = []
            while heap and heap[0][0] <= limit:
                entry = heapq.heappop(heap)
                if live[entry[1]] is entry:
                    live[entry[1]] = None
                    popped.append(entry[1])
            if popped:
                self._take_steps(popped)
                cands += _flights(xs, vs, pairs=popped)
                cands.sort()
        elif not exact:
            self.t_empty, self.moves, self.w_min = t, 0, math.inf
        self._push(cands, t)
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


def _scheduler(
    ps: list, xs: list, vs: list, t: Number, max_events: int | None,
    lc: list | None,
):
    """The scheduler of a run of the particles ``ps`` from ``xs``, ``vs``
    at time ``t``, with carried (sigma, rho) ``lc`` if the run is exact,
    else None, built as ``(xs, vs, t, exact)`` whatever its class: its
    first ``selection``, ``(dt, t_event, lefts)``;
    ``advance(dt, lefts)``, which moves the run by the step ``dt`` to the
    collisions of the pairs at ``lefts`` (or to a time limit, with
    ``lefts`` empty); ``after(t, lefts)``, which makes the next selection
    after those collisions at time ``t``; and ``settle()``, which brings
    every position up to date. It updates ``xs`` in place.

    The heap serves runs of at least ``_HEAP_MIN_PAIRS`` pairs that are
    all float or all exact and may take more than one event (building it
    costs about one scan); the others scan every pair at every event. The
    heap costs 10% more on four float particles, half on Fraction gases.
    A scan run whose start is parity-symmetric, each particle ``k`` the
    image of ``~k`` = ``n - 1 - k`` (x, v and P negated, the same E and
    mu, each in value and type), stays so, and computes one half of the
    line (``_MirrorScan``); any other scan run takes ``_Scan``, float or
    exact.
    """
    exact = lc is not None
    if (
        len(xs) > _HEAP_MIN_PAIRS and (max_events is None or max_events > 1)
        and (
            exact
            or {*map(type, xs), *map(type, vs)} == {float}
            and (type(t) is float or type(t) is int and abs(t) <= 2**53)
        )
    ):
        return _PairQueue(xs, vs, t, exact)
    symmetric = len(xs) > 1 and all(
        a == b and type(a) is type(b)
        for k in range((len(xs) + 1) // 2)
        for a, b in zip(
            (xs[k], vs[k], ps[k].E, ps[k].P, ps[k].mu),
            (-xs[~k], -vs[~k], ps[~k].E, -ps[~k].P, ps[~k].mu),
        )
    )
    return (_MirrorScan if symmetric else _Scan)(xs, vs, t, exact)


def next_collisions(
    state: BilliardState, direction: Direction = "forward"
) -> list[tuple[Pair, Number]]:
    """Adjacent pairs achieving the earliest intersection, with the event time.

    Simultaneous events at distinct positions are all returned (they share
    the snapped event time); an empty list means no collision lies ahead.
    A float event time that is not finite is a SimulationError, as in
    ``simulate``.
    """
    back, t, _, xs, vs = _frame(state, direction)
    _, t_event, lefts = _select(_flights(xs, vs), t)
    if lefts:
        _finite(t_event, "event time")
    return [((i, i + 1), -t_event if back else t_event) for i in lefts]


def _finite(value: Number, what: str) -> None:
    """SimulationError if the float ``value`` has left the float range
    (inf or NaN). Exact values are always finite and are not converted."""
    if type(value) is float and not math.isfinite(value):
        raise SimulationError(f"{what} is not finite: {value!r}")


def _check_disjoint(lefts: list[int]) -> None:
    """Reject simultaneous events, at the ascending left indices ``lefts``,
    that share a particle: two lefts one apart.

    Disjoint pairs commute, so several collisions at one time but
    different places are fine no matter how close those places are. A
    shared particle is exactly the configuration whose outcome depends on
    resolution order (three or more particles meeting at one point always
    shows up this way, since the inner pair ties too).
    """
    for a, b in zip(lefts, lefts[1:]):
        if b - a == 1:
            raise TripleCollisionError(
                f"triple collision: particle shared between simultaneous "
                f"events at pairs {[(i, i + 1) for i in lefts]}"
            )


def _resolve(
    ps: list,
    xs: list,
    vs: list,
    t: Number,
    lefts: list,
    back: bool,
    lc: list | None,
    mirror: bool,
) -> list[CollisionEvent]:
    """Resolve the collisions of the pairs ``(i, i + 1)``, ``i`` in the
    ascending ``lefts``, at time ``t``, where the particles ``ps`` sit at
    ``xs``; update ``ps``, ``xs``, ``vs`` and ``lc`` for those pairs and
    return their events.

    ``t`` and ``vs`` are in the frame where the run goes forward, which is
    time-reversed if ``back``; ``ps`` and the events are in the caller's.
    In an exact run ``lc`` holds each particle's (sigma, rho) in the run's
    frame, and each pair's left particle sits at its meeting point, which
    is written to both; in any other run it is None, and each pair's
    coordinates are built from its particles.

    In a parity-symmetric run (``mirror``, ``_MirrorScan``) only the pairs
    up to the middle are resolved. Each other pair ``n - 2 - i`` is written
    from its image ``i``: E kept, x, P and v negated, the sign flips
    swapped, and in an exact run (sigma, rho) exchanged. Any check on it
    would repeat one that its image passed, on bit-identical operands.
    Zeros are written as recomputing gives them: a P or v of zero is its
    image's, not negated, in either kind of run. A float zero keeps its
    sign, since recomputing gives P = (sigma - rho)/2 = 0.0 to both in the
    run's frame, and v = P/E with the same E; an exact zero is its own
    negation. A float meeting point of zero is the midpoint of the pair's
    positions, whose sign the image's does not fix (its rounding may
    differ).
    """
    _check_disjoint(lefts)

    t_event = -t if back else t
    n = len(ps)
    events = []
    # The pairs below the middle and the middle pair: 2*i + 2 <= n.
    own = lefts[:bisect_right(lefts, n // 2 - 1)] if mirror else lefts
    for i in own:  # left-to-right; pairs are disjoint
        j = i + 1
        p, q = ps[i], ps[j]
        if lc is None:
            a, b = xs[i], xs[j]
            # An exact pair meets at one point. Floats keep the midpoint: it
            # takes -0.0 and 0.0 to 0.0, and is a float for a mixed pair.
            x_e = a if a == b and is_exact(a) and is_exact(b) else (a + b) / 2
            _finite(x_e, "collision point")
            # (sigma, rho) = (E + P, E - P); time reversal swaps the two
            s_i, r_i, s_j, r_j = p.E + p.P, p.E - p.P, q.E + q.P, q.E - q.P
            if back:
                s_i, r_i, s_j, r_j = r_i, s_i, r_j, s_j
        else:  # exact: one meeting point, and the carried coordinates
            x_e = xs[i]
            (s_i, r_i), (s_j, r_j) = lc[i], lc[j]
        sigma_i, rho_i, sigma_j, rho_j, tachyonic, flip_i, flip_j = collide(
            s_i, r_i, s_j, r_j
        )
        if (
            sigma_i is s_j and rho_i is r_j  # collide's swap
            and type(p.E) is Fraction and type(p.P) is Fraction
            and type(q.E) is Fraction and type(q.P) is Fraction
        ):
            # An exact exchange, in either frame: each particle leaves with
            # the other's E, P and velocity, which its own mu fits, and the
            # pair separates, since it closed.
            post_i = ParticleState._unchecked(q.E, q.P, p.mu, x_e, p.label)
            post_j = ParticleState._unchecked(p.E, p.P, q.mu, x_e, q.label)
            v_i, v_j = vs[j], vs[i]
        else:
            # E = (sigma + rho)/2 and P = (sigma - rho)/2 in the run's
            # frame, P negated in the caller's; each mu carried over
            P_i, P_j = (sigma_i - rho_i) / 2, (sigma_j - rho_j) / 2
            post_i = ParticleState._evolved(
                (sigma_i + rho_i) / 2, -P_i if back else P_i, p.mu, x_e,
                p.label,
            )
            post_j = ParticleState._evolved(
                (sigma_j + rho_j) / 2, -P_j if back else P_j, q.mu, x_e,
                q.label,
            )
            v_i, v_j = P_i / post_i.E, P_j / post_j.E
            if v_i > v_j and not near_zero(v_i - v_j, v_i, v_j, 1):
                raise SimulationError(
                    f"pair ({i}, {j}) still approaching after resolution"
                )
        if lc is not None:
            lc[i], lc[j] = (sigma_i, rho_i), (sigma_j, rho_j)
        ps[i], ps[j] = post_i, post_j
        xs[i] = xs[j] = x_e
        vs[i], vs[j] = v_i, v_j
        # The pair's states in the run's order; the event keeps time order.
        run = (p.with_position(x_e), q.with_position(x_e)), (post_i, post_j)
        pre, post = run[::-1] if back else run
        events.append(
            CollisionEvent._unchecked(
                t_event, (i, j), x_e, pre, post, tachyonic, (flip_i, flip_j)
            )
        )
    if len(own) == len(lefts):  # no image pairs
        return events
    for event in events[len(lefts) - len(own) - 1::-1]:  # in image order
        i = event.pair[0]
        j, k = i + 1, n - 2 - i
        m = k + 1
        p, q, a, b = ps[k], ps[m], ps[j], ps[i]  # a, b: k's, m's mirrors
        x_e = event.x
        x_e = -x_e if x_e or type(x_e) is not float else (xs[k] + xs[m]) / 2
        P_k, P_m = -a.P if a.P else a.P, -b.P if b.P else b.P
        v_k, v_m = -vs[j] if vs[j] else vs[j], -vs[i] if vs[i] else vs[i]
        if lc is not None:
            lc[k], lc[m] = lc[j][::-1], lc[i][::-1]
        post_k = ParticleState._unchecked(a.E, P_k, p.mu, x_e, p.label)
        post_m = ParticleState._unchecked(b.E, P_m, q.mu, x_e, q.label)
        ps[k], ps[m] = post_k, post_m
        xs[k] = xs[m] = x_e
        vs[k], vs[m] = v_k, v_m
        run = (p.with_position(x_e), q.with_position(x_e)), (post_k, post_m)
        pre, post = run[::-1] if back else run
        events.append(
            CollisionEvent._unchecked(
                t_event, (k, m), x_e, pre, post, event.tachyonic,
                event.sign_flips[::-1],
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
    configuration). Identical inputs produce identical logs. A float
    ``t_limit`` must be finite, and ``max_events`` a nonnegative int
    (ValidationError). Scheduler errors are re-raised with the index of
    the offending event attached; a float event time, collision point or
    returned position that is not finite is a SimulationError.
    """
    # The particles as last resolved, their positions (at time t once the
    # scheduler has moved them) and their velocities, with t and the
    # velocities in the frame where the run goes forward; only colliding
    # pairs get new particles.
    back, t, ps, xs, vs = _frame(state, direction)
    if max_events is None and t_limit is None:
        raise ValidationError(
            "need max_events and/or t_limit to bound the run"
        )
    if max_events is not None and not is_count(max_events):
        raise ValidationError(
            f"max_events must be a nonnegative integer, got {max_events!r}"
        )
    if t_limit is not None:
        if isinstance(t_limit, float) and not math.isfinite(t_limit):
            # inf and nan bound no run, either way
            raise ValidationError(f"t_limit must be finite, got {t_limit!r}")
        t_limit = -t_limit if back else t_limit
        if t_limit < t:
            bound = "exceed" if back else "precede"
            raise ValidationError(
                f"{direction} t_limit must not {bound} the start time"
            )

    log: list[CollisionEvent] = []
    # An exact run (int or Fraction clock, positions and velocities, decided
    # once per run) carries each particle's (sigma, rho) = (E + P, E - P)
    # in the run's frame, where time reversal swaps the two.
    lc = None
    if is_exact(t) and all(map(is_exact, vs)) and all(map(is_exact, xs)):
        lc = [
            (p.E - p.P, p.E + p.P) if back else (p.E + p.P, p.E - p.P)
            for p in ps
        ]
    run = _scheduler(ps, xs, vs, t, max_events, lc)
    mirror = run.mirror
    dt, t_event, lefts = run.selection
    while max_events is None or len(log) < max_events:
        if not lefts or (t_limit is not None and t_event >= t_limit):
            if t_limit is not None:
                run.advance(t_limit - t, [])
                t = t_limit
            break
        run.advance(dt, lefts)
        t = t_event
        try:
            _finite(t, "event time")
            events = _resolve(ps, xs, vs, t, lefts, back, lc, mirror)
            dt, t_event, lefts = run.after(t, lefts)
        except ValueError as exc:  # bad positions or particle data
            raise SimulationError(
                f"{exc} (at event index {len(log)})"
            ) from exc
        except BilliardError as exc:
            raise type(exc)(f"{exc} (at event index {len(log)})") from exc
        log.extend(events)
    run.settle()
    for i, x in enumerate(xs):  # the checks of _finite, inlined
        if type(x) is float and not math.isfinite(x):
            raise SimulationError(
                f"position of particle {i} is not finite: {x!r} "
                f"(at event index {len(log)})"
            )
    unchecked = ParticleState._unchecked
    particles = tuple([
        unchecked(p.E, p.P, p.mu, x, p.label) for p, x in zip(ps, xs)
    ])
    return BilliardState(particles, -t if back else t), log
