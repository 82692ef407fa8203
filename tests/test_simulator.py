"""Event-driven N-particle evolution: scheduling, stepping, reversibility."""

import itertools
import math
import random
import re
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relbilliards as rb
from conftest import any_particle, bradyon_gas, relative_error
from relbilliards import mirror, simulator
from relbilliards.numeric import repr_number
from relbilliards.serialize import events_to_csv
from test_golden_gas import _fraction_gas


def _two_body(x1, v1, mu1, x2, v2, mu2, E1=1.0, E2=1.0):
    p1 = rb.ParticleState(E1, E1 * v1, E1 * E1 * (1 - v1 * v1) if mu1 is None else mu1, x1, 0)
    p2 = rb.ParticleState(E2, E2 * v2, E2 * E2 * (1 - v2 * v2) if mu2 is None else mu2, x2, 1)
    return rb.BilliardState((p1, p2), 0.0)


class TestNextCollisions:
    def test_linear_intersection(self):
        # x = -1 at v = 0.5 meets x = 1 at v = -1 at t = 4/3, x = -1/3
        s = _two_body(-1.0, 0.5, None, 1.0, -1.0, None)
        found = rb.next_collisions(s)
        assert len(found) == 1
        (pair, t), = found
        assert pair == (0, 1)
        assert t == pytest.approx(4 / 3, rel=1e-15)
        new, events = rb.step(s)
        assert events[0].x == pytest.approx(-1 / 3, rel=1e-14)

    def test_equal_velocities_no_event(self):
        s = _two_body(-1.0, 0.5, None, 1.0, 0.5, None)
        assert rb.next_collisions(s) == []

    def test_diverging_no_event(self):
        s = _two_body(-1.0, -0.5, None, 1.0, 0.5, None)
        assert rb.next_collisions(s) == []

    def test_mirror_simultaneity(self):
        params, m0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        state = rb.billiard_from_mirror(params, m0)
        state, _ = rb.step(state)  # inner-pair swap
        found = rb.next_collisions(state)
        assert [pair for pair, _ in found] == [(0, 1), (2, 3)]
        t0 = found[0][1]
        assert all(t == t0 for _, t in found)

    def test_float_candidate_ties_an_exact_earliest(self):
        """An exact earliest flight time (pair 0, 1 meets at t = 1) ties a
        float one within REL_TOL (pair 2, 3 at 1 + 1e-14): one float among
        the candidates turns the tolerance on, wherever it stands."""
        s = rb.BilliardState(
            (
                rb.massless(Fraction(1), 1, x=Fraction(-1), label=0),
                rb.massless(Fraction(1), -1, x=Fraction(1), label=1),
                rb.massless(1.0, 1, x=3.0, label=2),
                rb.massless(1.0, -1, x=5.0 + 2e-14, label=3),
            ),
            Fraction(0),
        )
        assert rb.next_collisions(s) == [((0, 1), 1), ((2, 3), 1)]

    def test_backward_times_negative(self):
        s = _two_body(-1.0, -0.5, None, 1.0, 0.5, None)  # diverging forward
        found = rb.next_collisions(s, "backward")
        assert len(found) == 1
        assert found[0][1] == pytest.approx(-2.0)


class TestStep:
    def test_worked_example_setup(self):
        """Rest particle at origin hit by a left-moving negative-energy
        massless particle from x = 1: single event, particle 0 stays at
        rest with flipped energy sign.

        Closing speed is 1 over a unit gap, so the event lands at t = 1.
        """
        p1 = rb.ParticleState(1.0, 0.0, 1.0, 0.0, 0)
        p2 = rb.massless(-1.0, -1, x=1.0, label=1)
        assert p2.velocity == -1.0
        s = rb.BilliardState((p1, p2), 0.0)
        new, events = rb.step(s)
        assert len(events) == 1
        event = events[0]
        assert event.t == pytest.approx(1.0)
        assert event.x == pytest.approx(0.0, abs=1e-15)
        assert event.tachyonic is True
        post1, post2 = event.post
        assert post1.E == -1.0 and post1.P == 0.0
        assert post2.E == 1.0 and post2.P == 1.0
        assert new.particles[0].velocity == 0.0

    def test_no_event_raises(self):
        s = _two_body(-1.0, 0.5, None, 1.0, 0.5, None)
        with pytest.raises(rb.NoEventError):
            rb.step(s)

    def test_triple_collision_detected(self):
        ps = (
            rb.ParticleState(1.0, 0.5, 0.75, -1.0, 0),
            rb.ParticleState(1.0, 0.0, 1.0, 0.0, 1),
            rb.ParticleState(1.0, -0.5, 0.75, 1.0, 2),
        )
        s = rb.BilliardState(ps, 0.0)
        with pytest.raises(rb.TripleCollisionError):
            rb.step(s)

    def test_error_carries_event_index(self):
        ps = (
            rb.ParticleState(1.0, 0.5, 0.75, -1.0, 0),
            rb.ParticleState(1.0, 0.0, 1.0, 0.0, 1),
            rb.ParticleState(1.0, -0.5, 0.75, 1.0, 2),
        )
        s = rb.BilliardState(ps, 0.0)
        with pytest.raises(rb.TripleCollisionError, match="event index 0"):
            rb.step(s)

    def test_mirror_double_event_conserves_totals(self):
        params, m0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        state = rb.billiard_from_mirror(params, m0)
        E0, P0 = state.total_energy(), state.total_momentum()
        state, _ = rb.step(state)
        state, events = rb.step(state)
        assert len(events) == 2
        assert state.total_energy() == pytest.approx(E0, rel=1e-12)
        assert state.total_momentum() == pytest.approx(P0, abs=1e-12)

    def test_ordering_reestablished(self):
        params, m0 = rb.mirror_initial(0.75, 1.0, 1.0, -1.0)
        state = rb.billiard_from_mirror(params, m0)
        for _ in range(12):
            state, _ = rb.step(state)
            xs = [float(p.x) for p in state.particles]
            assert all(b - a >= -1e-12 for a, b in zip(xs, xs[1:]))


class TestSimulate:
    def test_max_events_zero(self):
        s = _two_body(-1.0, 0.5, None, 1.0, -1.0, None)
        final, log = rb.simulate(s, max_events=0)
        assert final == s
        assert log == []

    def test_equal_velocity_terminates_quietly(self):
        s = _two_body(-1.0, 0.5, None, 1.0, 0.5, None)
        final, log = rb.simulate(s, max_events=10)
        assert log == []
        assert final == s

    def test_t_limit_advances_free_motion(self):
        s = _two_body(-1.0, 0.5, None, 1.0, 0.5, None)
        final, log = rb.simulate(s, t_limit=4.0)
        assert log == []
        assert final.t == 4.0
        assert final.particles[0].x == pytest.approx(1.0)

    def test_sigma_cycle_in_simulation(self):
        """12 events of the bounded three-collision orbit visit the sigma
        cycle (1, 4, -2) repeatedly."""
        params, m0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        state = rb.billiard_from_mirror(params, m0)
        _, events = rb.simulate(state, max_events=12)
        assert len(events) == 12
        sigmas = [
            e.post[0].E + e.post[0].P for e in events if e.pair == (0, 1)
        ]
        assert sigmas == pytest.approx([4.0, -2.0, 1.0, 4.0])

    def test_determinism(self):
        params, m0 = rb.mirror_initial(0.75, 1.0, 0.9, -2.0)
        s = rb.billiard_from_mirror(params, m0)
        a = rb.simulate(s, max_events=40)
        b = rb.simulate(s, max_events=40)
        assert a == b

    def test_conservation_along_log(self):
        params, m0 = rb.mirror_initial(2.0, 1.0, -1.0, -1.0)
        state = rb.billiard_from_mirror(params, m0)
        E0, P0 = state.total_energy(), state.total_momentum()
        final, log = rb.simulate(state, max_events=60)
        assert len(log) == 60
        assert final.total_energy() == pytest.approx(E0, rel=1e-10)
        assert final.total_momentum() == pytest.approx(P0, abs=1e-10)
        for p in final.particles:
            assert abs(float(p.mass_drift())) <= 1e-10 * (
                float(p.E) ** 2 + float(p.P) ** 2 + 1
            )

    def test_error_carries_event_index(self):
        ps = (
            rb.ParticleState(1.0, 0.5, 0.75, -1.0, 0),
            rb.ParticleState(1.0, 0.0, 1.0, 0.0, 1),
            rb.ParticleState(1.0, -0.5, 0.75, 1.0, 2),
        )
        s = rb.BilliardState(ps, 0.0)
        with pytest.raises(rb.TripleCollisionError, match="event index 0"):
            rb.simulate(s, max_events=5)

    @pytest.mark.parametrize("num", [float, Fraction])
    @pytest.mark.parametrize("heap_min_pairs", [simulator._HEAP_MIN_PAIRS, 1])
    @pytest.mark.parametrize(
        "pair, pairs",
        [
            (None, "[(0, 1), (1, 2)]"),
            ("right", "[(0, 1), (1, 2), (3, 4)]"),
            ("left", "[(0, 1), (2, 3), (3, 4)]"),
        ],
    )
    def test_triple_collision_message(self, num, heap_min_pairs, pair, pairs):
        """Three particles meet at x = 0 at t = 2, and a disjoint pair, if
        any, at x = 4 or x = -4: the error lists every pair found then, on
        the scan and on the heap."""
        half = num(1) / 2
        triple = [(2, half, -1), (1, 0, 0), (2, -half, 1)]
        if pair == "right":
            triple += [(2, half, 3), (2, -half, 5)]
        elif pair == "left":
            triple[:0] = [(2, half, -5), (2, -half, -3)]
        s = rb.BilliardState(
            tuple(
                _at(num(E), v, num(x), k) for k, (E, v, x) in enumerate(triple)
            ),
            num(0),
        )
        message = (
            "triple collision: particle shared between simultaneous events "
            f"at pairs {pairs} (at event index 0)"
        )
        with patch.object(simulator, "_HEAP_MIN_PAIRS", heap_min_pairs):
            with pytest.raises(rb.TripleCollisionError) as info:
                rb.simulate(s, max_events=5)
        assert str(info.value) == message

    def test_degenerate_collision_surfaces(self):
        # s = sigma_i + sigma_j = 0 with distinct masses: zero rest mass
        p1 = rb.ParticleState(1.0, 0.0, 1.0, 0.0, 0)  # sigma = 1, rho = 1
        p2 = rb.ParticleState(0.5, -1.5, -2.0, 1.0, 1)  # sigma = -1, rho = 2
        s = rb.BilliardState((p1, p2), 0.0)
        with pytest.raises(rb.DegenerateCollisionError):
            rb.simulate(s, max_events=1)


@st.composite
def float_gases(draw):
    """Float bradyon gases of 2 to 64 particles near 0 or 1e6. Each gap is
    of order 1, or a few ulps wide with the pair closing at 1e-9 to 1e-7,
    so that rounding moves its meeting time by a lot."""
    n = draw(st.integers(2, 64))
    rng = draw(st.randoms(use_true_random=False))
    x = draw(st.sampled_from((0.0, 1e6)))
    v = rng.uniform(-0.9, 0.9)
    particles = []
    for label in range(n):
        if label and rng.random() < 0.3:
            x += rng.randint(0, 16) * math.ulp(max(x, 1.0))
            v -= rng.uniform(1e-9, 1e-7)
        elif label:
            x += rng.uniform(0.05, 2.0)
            v = rng.uniform(-0.9, 0.9)
        E = rng.uniform(0.5, 2.0)
        P = E * v
        particles.append(rb.ParticleState(E, P, E * E - P * P, x, label))
    return rb.BilliardState(tuple(particles), 0.0)


@st.composite
def mixed_gases(draw):
    """2 to 64 float particles of every species and energy sign."""
    n = draw(st.integers(2, 64))
    gaps = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    particles = []
    x = 0.0
    for label, gap in enumerate(gaps):
        x += gap
        p = draw(any_particle(label))
        particles.append(replace(p, x=x))
    return rb.BilliardState(tuple(particles), 0.0)


@st.composite
def runs(draw):
    """A start state, a direction, an event budget and maybe a time limit."""
    kind = draw(st.sampled_from(("float", "mixed", "fraction")))
    if kind == "fraction":
        seed, n = draw(st.integers(0, 999)), draw(st.integers(2, 8))
        state = _fraction_gas(seed, n)
        t_limit = Fraction(draw(st.integers(1, 40)), 8)
    else:
        state = draw(float_gases() if kind == "float" else mixed_gases())
        t_limit = draw(st.floats(0.01, 10.0))
    direction = draw(st.sampled_from(("forward", "backward")))
    if direction == "backward":
        t_limit = -t_limit
    max_events = draw(st.integers(1, 12 if kind == "fraction" else 100))
    return state, direction, max_events, draw(st.sampled_from((None, t_limit)))


def _at(E, v, x, label):
    return rb.ParticleState(E, E * v, E * E - (E * v) ** 2, x, label)


def _mirror_and_drifters() -> rb.BilliardState:
    """7 float particles: the mu=4.005 mirror system, which collides
    without end, and three particles that drift away from it and from each
    other; a heap run reads the last two only when it brings every
    particle up to date."""
    mirror = rb.billiard_from_mirror(*rb.mirror_initial(4.005, 1.0, 1.0, -1.0))
    drifters = (
        _at(1.5, 0.5, 50.0, 4), _at(0.8, 0.7, 61.0, 5), _at(1.2, 0.9, 75.0, 6)
    )
    return rb.BilliardState(mirror.particles + drifters, mirror.t)


def _stepped(state, direction, max_events, t_limit):
    """``simulate`` as chained ``step`` calls, each of which selects its
    event by a scan of every pair. An error names its index in the run."""
    sign = 1 if direction == "forward" else -1
    events = []
    while len(events) < max_events:
        try:
            found = rb.next_collisions(state, direction)
        except rb.SimulationError:
            # an event time past the float range lies past any t_limit;
            # without one, ``step`` raises the error with the run's index
            found = [(None, sign * math.inf)]
        if found and t_limit is not None:
            if sign * found[0][1] >= sign * t_limit:  # at or past the limit
                found = []
        if not found:
            if t_limit is not None:
                state, _ = rb.simulate(state, direction, t_limit=t_limit)
            break
        try:
            state, batch = rb.step(state, direction)
        except rb.BilliardError as exc:
            raise type(exc)(
                str(exc).replace(
                    "(at event index 0)", f"(at event index {len(events)})"
                )
            ) from exc
        events.extend(batch)
    return state, events


def _outcome(run):
    try:
        return run()
    except rb.BilliardError as exc:
        return type(exc), str(exc)


def _exact_mirror() -> rb.BilliardState:
    """The exact mirror system mu=5/4, E_total=1, sigma1=1/3, x1=-1: its
    massless inner pair exchanges, and its outer pairs collide at one
    time."""
    F = Fraction
    return rb.billiard_from_mirror(
        *rb.mirror_initial(F(5, 4), F(1), F(1, 3), F(-1), t0=F(0))
    )


class TestStepMatchesSimulate:
    @pytest.mark.parametrize("num", [float, Fraction])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_n_steps_equal_simulate(self, num, direction):
        ps = (
            rb.ParticleState(num(2), num(1), num(3), num(-2), 0),
            rb.ParticleState(num(-1), num(1), num(0), num(0), 1),
            rb.ParticleState(num(3) / 2, num(-1), num(5) / 4, num(1), 2),
            rb.ParticleState(num(1), num(1) / 2, num(3) / 4, num(3), 3),
        )
        s0 = rb.BilliardState(ps, num(0))
        n = 8
        state, events = s0, []
        for _ in range(n):
            state, batch = rb.step(state, direction)
            events.extend(batch)
        assert len(events) == n  # one collision per event time
        assert rb.simulate(s0, direction, max_events=n) == (state, events)

    @pytest.mark.parametrize("calls_of", [1, 7])
    def test_exact_mirror_in_chained_calls(self, calls_of):
        """An exact run carries each particle's sigma and rho from event to
        event within a call: 60 events of the mu=5/4 mirror system forward,
        then 60 backward, with equal-mass exchanges and simultaneous pairs,
        give in one call what chained calls of ``calls_of`` events give,
        equal and in the type of every number."""
        state = _exact_mirror()
        n = 60
        for direction in ("forward", "backward"):
            whole = rb.simulate(state, direction, max_events=n)
            chained, events = state, []
            while len(events) < n:
                chained, batch = rb.simulate(
                    chained, direction,
                    max_events=min(calls_of, n - len(events)),
                )
                events.extend(batch)
            assert (chained, events) == whole
            assert [*map(type, _numbers((chained, events)))] == [
                *map(type, _numbers(whole))
            ]
            log = whole[1]
            assert any(  # an exchange: i leaves with j's E and P
                e.post[0].E == e.pre[1].E and e.post[0].P == e.pre[1].P
                for e in log
            )
            assert any(a.t == b.t for a, b in zip(log, log[1:]))
            state = whole[0]

    def test_float_clock_on_exact_data(self):
        """Fraction particles on a float clock: the first step is the event
        time less the clock, a float, so the positions turn float while E
        and P stay Fractions; ``simulate`` gives what chained steps give."""
        s0 = rb.BilliardState(_fraction_gas(0, 6).particles, 0.0)
        state, events = s0, []
        while len(events) < 8:
            state, batch = rb.step(state)
            events.extend(batch)
        assert rb.simulate(s0, max_events=len(events)) == (state, events)
        assert type(state.t) is float
        assert {type(p.x) for p in state.particles} == {float}
        assert {type(v) for p in state.particles for v in (p.E, p.P)} == {
            Fraction
        }

    @settings(max_examples=150, deadline=None)
    @given(runs())
    # Runs of many times N events, which restart the heap's list of
    # pending steps and move particles by long catch-ups; and a Fraction
    # gas that takes the heap at the default crossover.
    @example(run=(_mirror_and_drifters(), "forward", 200, 60.0))
    @example(run=(_mirror_and_drifters(), "backward", 40, None))
    @example(run=(_fraction_gas(0, 50), "forward", 60, None))
    def test_heap_matches_scan(self, run):
        """With the heap serving every pair count, ``simulate`` gives the
        result, or the error, of chained steps: float gases with rounding
        that moves meeting times, mixed species, Fractions, both
        directions, with and without a time limit."""
        state, direction, max_events, t_limit = run
        with patch.object(simulator, "_HEAP_MIN_PAIRS", 1):
            expected = _outcome(
                lambda: _stepped(state, direction, max_events, t_limit)
            )
            got = _outcome(
                lambda: rb.simulate(
                    state, direction, max_events=max_events, t_limit=t_limit
                )
            )
        assert got == expected


def _counting_collide(monkeypatch) -> list:
    """Count the event loop's calls of ``collide`` in the returned list."""
    calls = []
    collide = simulator.collide

    def counting(*args):
        calls.append(args)
        return collide(*args)

    monkeypatch.setattr(simulator, "collide", counting)
    return calls


class TestObjectCost:
    """Objects built by one run, counted rather than timed: a run builds
    particles for the colliding pairs and the returned state, not for every
    particle at every event, and in exact mode only the Fractions that its
    results need."""

    def test_objects_scale_with_events_not_particles(self, monkeypatch):
        n = 512
        start = bradyon_gas(7, n)
        built = 0
        unchecked = vars(rb.ParticleState)["_unchecked"].__func__

        def counting(cls, *args):
            nonlocal built
            built += 1
            return unchecked(cls, *args)

        monkeypatch.setattr(
            rb.ParticleState, "_unchecked", classmethod(counting)
        )
        # The returned state, and two particles before and two after each
        # collision, in either direction.
        state, log = rb.simulate(start, max_events=50)
        assert len(log) >= 50
        assert built <= n + 4 * len(log)
        built = 0
        _, log = rb.simulate(state, "backward", max_events=50)
        assert len(log) >= 50
        assert built <= n + 4 * len(log)

    def test_pending_steps_bounded_by_particles(self, monkeypatch):
        """A heap run defers the moves of the particles it does not read,
        and holds at most N pending steps over a run of 20N events."""
        start = _mirror_and_drifters()
        n = len(start)
        held = []
        after = simulator._PairQueue.after

        def recording(queue, t, resolved):
            held.append(len(queue.steps))
            return after(queue, t, resolved)

        monkeypatch.setattr(simulator._PairQueue, "after", recording)
        monkeypatch.setattr(simulator, "_HEAP_MIN_PAIRS", 1)
        _, log = rb.simulate(start, max_events=20 * n)
        assert len(log) >= 20 * n
        assert 1 < max(held) <= n

    def test_exact_mode_fractions_per_event(self, monkeypatch):
        """Exact mode builds no float tolerance scale and no product read
        only for its sign: Fractions built per event of the mu=5/4 mirror
        system, over events 600 to 900."""
        params, m0 = rb.mirror_initial(
            Fraction(5, 4), Fraction(1), Fraction(1, 3), Fraction(-1),
            t0=Fraction(0),
        )
        start = rb.billiard_from_mirror(params, m0)
        state, _ = rb.simulate(start, max_events=600)
        built = 0

        def counted(name, wrap):
            make = vars(Fraction)[name].__func__

            def counting(cls, *args, **kwargs):
                nonlocal built
                built += 1
                return make(cls, *args, **kwargs)

            monkeypatch.setattr(Fraction, name, wrap(counting))

        counted("__new__", staticmethod)
        # Python 3.12 builds arithmetic results here, not in __new__, and
        # also turns each int operand into a Fraction: 4 per event here,
        # from the /2 of energy and momentum.
        bound = 50
        if "_from_coprime_ints" in vars(Fraction):
            counted("_from_coprime_ints", classmethod)
            bound += 4
        _, log = rb.simulate(state, max_events=300)
        assert len(log) == 300
        assert built <= bound * len(log)

    def test_exact_mode_operator_calls(self, monkeypatch):
        """The exact loop's Fraction arithmetic, counted as calls of its
        arithmetic operators, which our code makes and which do not depend
        on the Python version: the mu=5/4 mirror system over 300 events in
        calls of 30, and its retrace to the start in calls of 30, makes
        6,741 such calls, measured on Python 3.11: its start is
        parity-symmetric, so each call moves and scans only the left half
        and reflects the right. It calls ``collide`` 400 times: 200 of its
        600 pair collisions are the mirror images of pairs resolved at the
        same time, and are written from them."""
        start = _exact_mirror()
        calls = 0
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        ):
            def counting(a, b, op=vars(Fraction)[name]):
                nonlocal calls
                calls += 1
                return op(a, b)

            monkeypatch.setattr(Fraction, name, counting)
        collides = _counting_collide(monkeypatch)
        state, events = start, 0
        for _ in range(10):
            state, log = rb.simulate(state, max_events=30)
            events += len(log)
        while state.t != start.t:
            state, _ = rb.simulate(
                state, "backward", max_events=30, t_limit=start.t
            )
        monkeypatch.undo()
        assert events == 300
        assert state == start
        assert calls <= 6_741
        assert len(collides) <= 400

    def test_float_mirror_resolves_half_the_pairs(self, monkeypatch):
        """3000 events of the float mirror system mu=4.005 resolve 2000
        pairs: the 1000 exchanges of the middle pair, and the left one of
        each of the 1000 simultaneous outer pairs, whose image is written
        from it. That is 2000 ``collide`` calls and two
        ``ParticleState._evolved`` calls per resolved pair."""
        start = rb.billiard_from_mirror(
            *rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
        )
        collides = _counting_collide(monkeypatch)
        evolved = 0
        make = vars(rb.ParticleState)["_evolved"].__func__

        def counting(cls, *args):
            nonlocal evolved
            evolved += 1
            return make(cls, *args)

        monkeypatch.setattr(
            rb.ParticleState, "_evolved", classmethod(counting)
        )
        _, log = rb.simulate(start, max_events=3000)
        assert len(log) == 3000
        assert len(collides) <= 2000
        assert evolved <= 4000

    def test_no_collision_records_in_float_loop(self, monkeypatch):
        """The event loop resolves collisions on plain numbers: a float
        mirror run of 300 events builds no SigmaRho and no
        CollisionOutcome."""
        start = rb.billiard_from_mirror(
            *rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
        )
        built = []
        for cls in (rb.SigmaRho, rb.CollisionOutcome):
            init = vars(cls)["__init__"]

            def counting(self, *args, init=init, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        _, log = rb.simulate(start, max_events=300)
        assert len(log) == 300
        assert built == []


class TestBackwardObjectCost:
    def test_returned_state_built_once(self, monkeypatch):
        """A backward run builds each returned particle once, in the
        caller's frame, and per collision two particles before and two
        after, as a forward run does: it reverses numbers, not particles."""
        n = 512
        state, _ = rb.simulate(bradyon_gas(7, n), max_events=50)
        built = 0
        unchecked = vars(rb.ParticleState)["_unchecked"].__func__

        def counting(cls, *args):
            nonlocal built
            built += 1
            return unchecked(cls, *args)

        monkeypatch.setattr(
            rb.ParticleState, "_unchecked", classmethod(counting)
        )
        _, log = rb.simulate(state, "backward", max_events=50)
        assert len(log) >= 50
        assert built <= n + 4 * len(log)


def _typed(p: rb.ParticleState) -> tuple:
    """A particle's numbers, each with its type, so that 1 and 1.0 and
    Fraction(1) differ."""
    return tuple((type(v), v) for v in (p.E, p.P, p.mu, p.x, p.label))


def _mirrored(p: rb.ParticleState, n: int) -> tuple:
    """``_typed`` of the parity image of particle ``p`` of ``n``: P and x
    negated, and the label of the particle it maps to."""
    return _typed(rb.ParticleState._unchecked(
        p.E, -p.P, p.mu, -p.x, n - 1 - p.label
    ))


def _from_halves(left, right) -> rb.BilliardState:
    """Particles ``(E, P, x)`` with mu = E**2 - P**2, the ``left`` ones
    then the ``right`` ones, labelled in order, at time 0."""
    particles = [
        rb.ParticleState(E, P, E * E - P * P, x, label)
        for label, (E, P, x) in enumerate(left + right)
    ]
    return rb.BilliardState(tuple(particles), 0 * particles[0].x)


class TestMirrorReflection:
    """In a parity-symmetric run, a pair that is the parity image of a
    pair resolved at the same time is written from that pair's outcome,
    reflected, and logs what recomputing it would give."""

    @pytest.mark.parametrize(
        "start",
        [
            lambda: rb.billiard_from_mirror(
                *rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
            ),
            _exact_mirror,
        ],
        ids=["float-mu4.005", "exact-mu5/4"],
    )
    def test_outer_pairs_are_reflections(self, start, monkeypatch):
        calls = _counting_collide(monkeypatch)
        start = start()
        end, log = rb.simulate(start, max_events=300)
        _, back_log = rb.simulate(end, "backward", max_events=300)
        reflected = 0
        for run in log, back_log:
            for _, batch in itertools.groupby(run, lambda e: e.t):
                batch = {e.pair: e for e in batch}
                if (2, 3) not in batch:
                    continue
                image, event = batch[0, 1], batch[2, 3]
                assert (type(event.x), event.x) == (type(image.x), -image.x)
                for states, image_states in (
                    (event.pre, image.pre), (event.post, image.post),
                ):
                    assert [_typed(p) for p in states] == [
                        _mirrored(p, 4) for p in image_states[::-1]
                    ]
                assert event.tachyonic == image.tachyonic
                assert event.sign_flips == image.sign_flips[::-1]
                reflected += 1
        assert reflected >= 100
        assert len(calls) == len(log) + len(back_log) - reflected

    def test_particles_left_at_rest_log_zero(self):
        """Pairs (0, 1) and (2, 3) meet at t = 4.375 and leave particles 0
        and 3 at rest. Each pair logs, bit for bit, what it logs when
        resolved alone, forward, in the retrace, and backward from the
        time-reversed start: a momentum recomputed as (sigma - rho)/2 is
        0.0 in the run's frame, where a negated 0.0 would be -0.0."""
        left = [(2.5, 1.5, -3.0), (3.5, 0.5, -1.0)]
        right = [(E, -P, -x) for E, P, x in reversed(left)]
        start = _from_halves(left, right)
        reversed_start = _time_reversed(start)
        end, log = rb.simulate(start, max_events=2)
        _, retrace = rb.simulate(end, "backward", max_events=2)
        _, backward = rb.simulate(reversed_start, "backward", max_events=2)
        assert [e.t for e in log] == [4.375, 4.375]
        rest = log[0].post[0], log[1].post[1]
        assert [(p.label, repr(p.P)) for p in rest] == [(0, "0.0"), (3, "0.0")]
        assert repr(retrace) == repr(log)
        for run, run_start, direction in (
            (log, start, "forward"),
            (backward, reversed_start, "backward"),
        ):
            for event in run:
                i = event.pair[0]
                half = rb.BilliardState(
                    run_start.particles[i:i + 2], run_start.t
                )
                _, (alone,) = rb.simulate(half, direction, max_events=1)
                assert repr(event.post) == repr(alone.post)
                assert repr(event.pre) == repr(alone.pre)

    def test_translates_and_mixed_types_collide_each_pair(self, monkeypatch):
        """Two pairs that meet at one time call ``collide`` once each when
        the right one is a translate of the left one, not its mirror image,
        and when it is the mirror image in value but in floats where the
        left one is in Fractions, whose outcome it keeps in floats."""
        F = Fraction
        left = [(F(5, 2), F(3, 2), F(-3)), (F(7, 2), F(1, 2), F(-1))]
        translate = [(E, P, x + 10) for E, P, x in left]
        mirror = [(float(E), float(-P), float(-x)) for E, P, x in left[::-1]]
        for right in translate, mirror:
            calls = _counting_collide(monkeypatch)
            state, log = rb.step(_from_halves(left, right))
            assert [e.pair for e in log] == [(0, 1), (2, 3)]
            assert len(calls) == 2
            post = [(p.E, p.P) for p in state.particles]
            if right is translate:
                assert post[2:] == post[:2]
            else:
                assert post[2:] == [(E, -P) for E, P in post[1::-1]]
            kinds = {type(v) for p in state.particles[2:] for v in (p.E, p.P)}
            assert kinds == {type(right[0][0])}


def _symmetric_start(seed: int) -> rb.BilliardState:
    """A seeded parity-symmetric state of ``2 + seed % 8`` particles: a
    left half of bradyons, massless particles and tachyons of either
    energy sign, its mirror image (P and x negated) on the right, and for
    an odd count a resting particle at 0 between them. Its data is int,
    Fraction, int or Fraction by mirrored pair, float, or float or Fraction
    by mirrored pair. A float zero, of a momentum or of a position (the
    innermost pair sits at 0 in one start of three), takes either sign,
    drawn for each particle."""
    rng = random.Random(seed)
    n = 2 + seed % 8
    kind = ("int", "fraction", "mixed", "float", "float-fraction")[
        seed // 8 % 5
    ]
    nums = {
        "int": (int,), "fraction": (Fraction,), "mixed": (int, Fraction),
        "float": (float,), "float-fraction": (float, Fraction),
    }[kind]

    def number(num, top):
        if num is int:
            return rng.randint(1, top)
        return num(rng.randint(1, 4 * top)) / rng.randint(1, 4)

    def signed(v):
        return rng.choice((0.0, -0.0)) if type(v) is float and not v else v

    left, x = [], 0
    for _ in range(n // 2):
        num = rng.choice(nums)
        if left or rng.random() < 2 / 3:
            x -= number(num, 3)
        else:
            x = num(0)
        E = number(num, 4)
        species = rng.choice(("bradyon", "massless", "tachyon"))
        if species == "massless":
            P = E
        elif species == "tachyon":
            P = E + number(num, 2)
        else:
            P = E * rng.randint(0, 3) // 4 if num is int else E * num(
                rng.randint(0, 7)
            ) / 8
        E, P = rng.choice((E, -E)), rng.choice((P, -P))
        left.insert(0, (E, P, x))
    middle = []
    if n % 2:
        num = nums[-1]
        E = rng.choice((1, -1)) * number(num, 4)
        middle = [(E, 0 * E, 0 * E)]
    right = [(E, -P, -x) for E, P, x in reversed(left)]
    start = _from_halves(
        [(E, signed(P), signed(x)) for E, P, x in left + middle + right], []
    )
    return rb.BilliardState(start.particles, rng.choice(nums)(
        rng.randint(-2, 2)
    ))


def _mirrored_at_rest_pair(x: float) -> rb.BilliardState:
    """``_at_rest_pair`` moved so that its resting particle sits at ``x``
    <= 0, with its mirror image on the right: run backward, the moving
    particles are brought to rest, with P = -0.0 where a negated 0.0 would
    be 0.0; at ``x`` = 0 the four meet at the origin."""
    left = [(p.E, p.P, p.x + x) for p in _at_rest_pair().particles]
    return _from_halves(left, [(E, -P, -x) for E, P, x in reversed(left)])


def _choosing(monkeypatch) -> list:
    """Record the class of each scheduler that ``simulate`` builds."""
    chosen = []
    scheduler = simulator._scheduler

    def spy(*args):
        run = scheduler(*args)
        chosen.append(type(run).__name__)
        return run

    monkeypatch.setattr(simulator, "_scheduler", spy)
    return chosen


class TestMirrorScan:
    """A scan run from a parity-symmetric start computes one half of the
    line and writes the other from it: it gives the full scan's state and
    log, or its error, bit for bit (``repr`` tells the number types apart,
    and -0.0 from 0.0)."""

    @staticmethod
    def _runs(start: rb.BilliardState, rng: random.Random) -> list:
        """Forward, backward, retraced, cut by ``t_limit`` either way at
        an event time or halfway to it, and as one ``step``."""
        m = rng.randint(3, 10)
        runs = [
            lambda: rb.simulate(start, max_events=m),
            lambda: rb.simulate(start, "backward", max_events=m),
            lambda: rb.step(start),
        ]
        for direction in "forward", "backward":
            back = "backward" if direction == "forward" else "forward"
            try:
                end, log = rb.simulate(start, direction, max_events=m)
            except rb.BilliardError:
                continue
            if log:
                runs.append(lambda end=end, back=back: rb.simulate(
                    end, back, t_limit=start.t
                ))
                t_cut = rng.choice(log).t
                if rng.random() < 0.5:
                    t_cut = (start.t + t_cut) / 2
            else:
                t_cut = start.t + (1 if direction == "forward" else -1)
            runs.append(lambda direction=direction, t_cut=t_cut: rb.simulate(
                start, direction, max_events=m, t_limit=t_cut
            ))
        return runs

    @staticmethod
    def _same_as_the_full_scan(runs, monkeypatch) -> list:
        """The outcome of each run, asserted to be the full scan's; the
        first three runs take ``_MirrorScan``."""
        with monkeypatch.context() as patched:
            chosen = _choosing(patched)
            got = [_outcome(run) for run in runs]
        assert chosen[:3] == ["_MirrorScan"] * 3
        with monkeypatch.context() as patched:
            patched.setattr(simulator, "_MirrorScan", simulator._Scan)
            chosen = _choosing(patched)
            expected = [repr(_outcome(run)) for run in runs]
        assert "_MirrorScan" not in chosen
        assert [repr(outcome) for outcome in got] == expected
        return got

    @pytest.mark.parametrize(
        "seeds", [range(s, s + 40) for s in range(0, 200, 40)]
    )
    def test_same_as_the_full_scan(self, seeds, monkeypatch):
        errors, batches = set(), 0
        for seed in seeds:
            start = _symmetric_start(seed)
            runs = self._runs(start, random.Random(seed))
            got = self._same_as_the_full_scan(runs, monkeypatch)
            for outcome in got:
                if outcome[0] is rb.TripleCollisionError:
                    errors.add((len(start) % 2, outcome[0]))
            log = got[0][1]
            if isinstance(log, list):
                batches += len(log) > len({e.t for e in log})
        # the odd starts' neighbours of the resting middle reach it at
        # once, and simultaneous mirrored pairs are resolved
        assert (1, rb.TripleCollisionError) in errors
        assert batches >= 5

    @pytest.mark.parametrize(
        "start",
        [
            lambda: _mirrored_at_rest_pair(-1.0),
            lambda: _mirrored_at_rest_pair(0.0),
            # Four particles at the origin, the right two at -0.0: pair
            # (2, 3) leaves particle 3 at rest at -0.0, where the sign of
            # its velocity's zero shows in its next move.
            lambda: _from_halves(
                [(1.25, 0.75, 0.0), (1.0, 0.0, 0.0)],
                [(1.0, -0.0, -0.0), (1.25, -0.75, -0.0)],
            ),
            # Pairs (0, 1) and (2, 3) meet at 5e-324 and at -5e-324, across
            # the middle pair inverted within contact slack: their
            # midpoints round to 0.0 and -0.0, not to a zero and its image.
            lambda: _from_halves(
                [(1.0, 0.5, 0.0), (1.0, -0.5, 5e-324)],
                [(1.0, 0.5, -5e-324), (1.0, -0.5, 0.0)],
            ),
            lambda: rb.billiard_from_mirror(
                *rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
            ),
            # Exact: the equal-mass exchange of pair (0, 1) leaves particle
            # 0 at rest, and its image, particle 3, with P = Fraction(0).
            lambda: _from_halves(
                [(Fraction(5, 4), Fraction(3, 4), Fraction(-3)),
                 (Fraction(1), Fraction(0), Fraction(-1))],
                [(Fraction(1), Fraction(0), Fraction(1)),
                 (Fraction(5, 4), Fraction(-3, 4), Fraction(3))],
            ),
        ],
        ids=[
            "at-rest", "at-rest-at-0", "origin", "subnormal", "float-mu4.005",
            "exact-at-rest",
        ],
    )
    def test_float_zeros_same_as_the_full_scan(self, start, monkeypatch):
        """Float starts whose runs make zeros of either sign, and an exact
        one whose images come to rest at an exact zero, run from the start
        and from its time-reversed image, with event budgets of 3 to 10."""
        start = start()
        for run_start in start, _time_reversed(start):
            for seed in range(6):
                runs = self._runs(run_start, random.Random(seed))
                got = self._same_as_the_full_scan(runs, monkeypatch)
                assert isinstance(got[0][1], list)  # no error

    def test_refused(self, monkeypatch):
        """Starts that are not parity-symmetric in value and type take the
        full scan, and a symmetric exact gas of 50 particles the heap: an
        exact mirror whose particle 2 carries 11/10 of its energy and
        momentum (the same x and v) or an int mu of 0, Fraction positions
        mirrored by ints, a float mirror whose particle 3 sits at an int
        position or has a momentum one ulp off. The float mirror itself
        takes the half-line scan."""
        F = Fraction
        mirror = _exact_mirror()
        ps = list(mirror.particles)
        p = ps[2]
        ps[2] = rb.ParticleState(
            p.E * F(11, 10), p.P * F(11, 10), p.mu * F(121, 100), p.x, 2
        )
        heavier = rb.BilliardState(tuple(ps), mirror.t)
        ps[2] = replace(p, mu=int(p.mu))
        int_mu = rb.BilliardState(tuple(ps), mirror.t)
        left = [(F(5, 2), F(3, 2), F(-3)), (F(7, 2), F(1, 2), F(-1))]
        ints = _from_halves(
            left, [(E, -P, int(-x)) for E, P, x in reversed(left)]
        )
        float_mirror = rb.billiard_from_mirror(
            *rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
        )
        ps = list(float_mirror.particles)
        p = ps[3]
        ps[3] = replace(p, x=int(p.x))
        int_x = rb.BilliardState(tuple(ps), float_mirror.t)
        assert int_x.particles[3].x == -ps[0].x
        ps[3] = replace(p, P=math.nextafter(p.P, math.inf))
        ulp_off = rb.BilliardState(tuple(ps), float_mirror.t)
        gas = _fraction_gas(0, 25).particles
        gas = _from_halves(
            [(p.E, p.P, p.x - 10**6) for p in gas],
            [(p.E, -p.P, 10**6 - p.x) for p in reversed(gas)],
        )
        cases = [
            (heavier, "_Scan"), (int_mu, "_Scan"), (ints, "_Scan"),
            (int_x, "_Scan"), (ulp_off, "_Scan"),
            (float_mirror, "_MirrorScan"), (gas, "_PairQueue"),
        ]
        for start, name in cases:
            runs = [
                lambda: rb.simulate(start, max_events=20),
                lambda: rb.simulate(start, "backward", max_events=20),
            ]
            with monkeypatch.context() as patched:
                chosen = _choosing(patched)
                got = [repr(_outcome(run)) for run in runs]
            assert chosen == [name, name]
            with monkeypatch.context() as patched:
                if name != "_MirrorScan":
                    patched.setattr(simulator, "_MirrorScan", None)
                else:
                    patched.setattr(simulator, "_MirrorScan", simulator._Scan)
                assert [repr(_outcome(run)) for run in runs] == got
            assert isinstance(_outcome(runs[0])[1], list), name  # no error

    def test_no_pair(self, monkeypatch):
        """No particle, or one at rest at 0, leaves no pair to reflect: the
        run takes the full scan to its time limit."""
        F = Fraction
        chosen = _choosing(monkeypatch)
        for particles in (), (rb.ParticleState(F(2), F(0), F(4), F(0), 0),):
            assert rb.simulate(
                rb.BilliardState(particles, F(0)), t_limit=F(1)
            ) == (rb.BilliardState(particles, F(1)), [])
        assert chosen == ["_Scan"] * 2


def _time_reversed(value):
    """A state or an event with every momentum and the clock negated, and
    an event's earlier and later states exchanged."""
    def flip(ps):
        return tuple(p.momentum_reversed() for p in ps)

    if isinstance(value, rb.BilliardState):
        return rb.BilliardState(flip(value.particles), -value.t)
    return replace(
        value, t=-value.t, pre=flip(value.post), post=flip(value.pre)
    )


def _at_rest_pair() -> rb.BilliardState:
    """Equal masses, one at rest: run backward, the other is brought to
    rest, with a momentum of zero whose sign is part of the output."""
    return rb.BilliardState(
        (
            rb.ParticleState(1.25, -0.75, 1.0, -1.0, 0),
            rb.ParticleState(1.0, 0.0, 1.0, 0.0, 1),
        ),
        0.0,
    )


class TestTimeReversal:
    """A backward run is the forward run of the time-reversed state, with
    every momentum and the clock negated back, bit for bit (``repr`` tells
    -0.0 from 0.0)."""

    @pytest.mark.parametrize(
        "start, events",
        [
            (_at_rest_pair, 20),
            (lambda: rb.simulate(bradyon_gas(3, 80), max_events=60)[0], 40),
            (lambda: _fraction_gas(29, 6), 8),  # digits grow fast backward
        ],
        ids=["at-rest", "gas80", "fraction6"],
    )
    def test_backward_is_the_reversed_forward_run(self, start, events):
        start = start()
        state, log = rb.simulate(start, "backward", max_events=events)
        assert log
        mirrored, mirrored_log = rb.simulate(
            _time_reversed(start), max_events=events
        )
        assert repr(state) == repr(_time_reversed(mirrored))
        assert repr(log) == repr([_time_reversed(e) for e in mirrored_log])


def _batches_reversed(log):
    """``log`` with its batches of simultaneous events in reverse order,
    each batch left to right as the scheduler resolves it."""
    batches = [list(b) for _, b in itertools.groupby(log, lambda e: e.t)]
    return [event for batch in reversed(batches) for event in batch]


class TestReversibility:
    def test_backward_log_is_the_forward_log_reversed(self):
        """An exact retrace to the start time logs the same collisions as
        the forward run, each with the same earlier and later states."""
        params, m0 = rb.mirror_initial(
            Fraction(5, 4), Fraction(1), Fraction(3, 10), Fraction(-1),
            t0=Fraction(0),
        )
        b0 = rb.billiard_from_mirror(params, m0)
        end, log = rb.simulate(b0, max_events=200)
        back, back_log = rb.simulate(end, "backward", t_limit=b0.t)
        assert back == b0
        assert len(log) >= 200
        assert back_log == _batches_reversed(log)

    def test_mirror_exact_rational(self):
        params, m0 = rb.mirror_initial(
            Fraction(4), Fraction(1), Fraction(1), Fraction(-1), t0=Fraction(0)
        )
        b0 = rb.billiard_from_mirror(params, m0)
        fwd, ev = rb.simulate(b0, "forward", max_events=30)
        assert len(ev) == 30
        back, ev2 = rb.simulate(fwd, "backward", t_limit=Fraction(0))
        assert back == b0
        assert len(ev2) == 30

    def test_generic_rational_short(self):
        ps = (
            rb.ParticleState(Fraction(2), Fraction(1), Fraction(3), Fraction(-2), 0),
            rb.ParticleState(Fraction(-1), Fraction(1), Fraction(0), Fraction(0), 1),
            rb.ParticleState(Fraction(3, 2), Fraction(-1), Fraction(5, 4), Fraction(1), 2),
        )
        s0 = rb.BilliardState(ps, Fraction(0))
        s1, e1 = rb.simulate(s0, "forward", max_events=6)
        assert len(e1) > 0
        s2, e2 = rb.simulate(s1, "backward", t_limit=Fraction(0))
        assert s2 == s0

    def test_float_round_trip(self):
        ps = (
            rb.ParticleState(1.0, 0.5, 0.75, -2.0, 0),
            rb.ParticleState(-1.0, 1.0, 0.0, -0.5, 1),
            rb.ParticleState(2.0, -1.0, 3.0, 1.0, 2),
        )
        s0 = rb.BilliardState(ps, 0.0)
        s1, e1 = rb.simulate(s0, "forward", max_events=8)
        s2, _ = rb.simulate(s1, "backward", t_limit=0.0)
        for p, q in zip(s0.particles, s2.particles):
            assert relative_error(p.x, q.x) < 1e-12 or abs(p.x - q.x) < 1e-12
            assert p.P == pytest.approx(q.P, rel=1e-12, abs=1e-12)
            assert p.E == pytest.approx(q.E, rel=1e-12)

    def test_backward_matches_forward_of_reversed(self):
        """Stepping backward equals momentum-reversing, stepping forward,
        and reversing back (times negated)."""
        params, m0 = rb.mirror_initial(0.75, 1.0, 0.7, -1.5)
        s = rb.billiard_from_mirror(params, m0)
        s, _ = rb.step(s)  # move off the gap-zero start
        # first backward step re-resolves the event we are sitting on
        back, ev_b = rb.step(s, "backward")
        assert all(e.t <= s.t for e in ev_b)
        assert back.t == s.t
        back2, _ = rb.step(back, "backward")
        assert back2.t < s.t


class TestValidationErrors:
    def test_bad_arguments_raise_a_named_error(self):
        """Bad arguments raise ValidationError, which is also a ValueError."""
        p = rb.ParticleState(1.0, 0.0, 1.0, 0.0, 0)
        q = rb.ParticleState(1.0, 0.0, 1.0, -1.0, 1)
        s = rb.BilliardState((q, p), 0.0)
        mirror_data = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        calls = [
            lambda: rb.ParticleState(1.0, 0.0, 2.0, 0.0, 0),
            lambda: rb.massless(1.0, 0),
            lambda: rb.BilliardState((p, q), 0.0),
            lambda: rb.simulate(s, "sideways", max_events=1),
            lambda: rb.simulate(s),
            lambda: rb.simulate(s, t_limit=-1.0),
            lambda: rb.tachyon_scale_bound(rb.MirrorParams(1.5, 1.0), -0.1),
            lambda: rb.simulate(s, max_events=-3),
            lambda: rb.reduced_trajectory(*mirror_data, -5, -3),
            lambda: rb.reduced_trajectory(*mirror_data, 5, -3),
            lambda: mirror.tachyonic_census(mirror_data[0], 1.0, -4),
            lambda: mirror.cross_check(*mirror_data, -2),
        ]
        for call in calls:
            with pytest.raises(rb.ValidationError):
                call()
        # A count that is not an int, a bool included, fails as a negative
        # one does, rather than with a TypeError or a run of its own length.
        for count in 2.5, True, Fraction(3), -1:
            for call in [
                lambda: rb.simulate(s, max_events=count),
                lambda: rb.reduced_trajectory(*mirror_data, count),
                lambda: rb.reduced_trajectory(*mirror_data, 3, count),
                lambda: mirror.tachyonic_census(mirror_data[0], 0.3, count),
                lambda: mirror.cross_check(*mirror_data, count),
            ]:
                with pytest.raises(
                    rb.ValidationError, match="must be (a )?nonnegative int"
                ):
                    call()
        assert issubclass(rb.ValidationError, (rb.BilliardError, ValueError))

    @pytest.mark.parametrize("t_limit", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("max_events", [None, 5])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_time_limit_not_finite(self, t_limit, max_events, direction):
        """A float time limit that is not finite bounds no run: it is
        refused on entry, in either direction, with an event budget or
        without, for the exact three-cycle as for the float mirror (whose
        run would otherwise go on until its mass drifts)."""
        F = Fraction
        for data in (F(4), F(1), F(1, 2), F(-1)), (4.005, 1.0, 1.0, -1.0):
            start = rb.billiard_from_mirror(*rb.mirror_initial(*data))
            with pytest.raises(
                rb.ValidationError, match=r"^t_limit must be finite, got "
            ):
                rb.simulate(
                    start, direction, max_events=max_events, t_limit=t_limit
                )

    @pytest.mark.parametrize("heap_min_pairs", [1, 10**9])
    def test_order_violation_inside_simulate(
        self, monkeypatch, heap_min_pairs
    ):
        """Positions out of order after a collision surface as a
        SimulationError naming the event, from the heap or the scan."""
        resolve = simulator._resolve

        def misplacing(ps, xs, vs, t, found, *args):
            events = resolve(ps, xs, vs, t, found, *args)
            i, j = found[0], found[0] + 1
            xs[i] = xs[j] + 1.0
            return events

        monkeypatch.setattr(simulator, "_resolve", misplacing)
        monkeypatch.setattr(simulator, "_HEAP_MIN_PAIRS", heap_min_pairs)
        message = r"^positions must be nondecreasing, .* \(at event index 0\)$"
        with pytest.raises(rb.SimulationError, match=message):
            rb.simulate(bradyon_gas(7, 64), max_events=5)


class TestFloatOverflow:
    """A float run whose event time, collision point or final position
    leaves the float range stops with a SimulationError naming the event
    index, instead of returning or logging inf and NaN."""

    def test_meeting_time_overflows(self):
        s = rb.BilliardState(
            (_at(1.0, 1e-10, -1e300, 0), _at(1.0, -1e-10, 1e300, 1)), 0.0
        )
        message = r"^event time is not finite: inf \(at event index 0\)$"
        with pytest.raises(rb.SimulationError, match=message):
            rb.simulate(s, max_events=1)

    def test_collision_point_overflows(self):
        # they meet at 1.6e308, but the midpoint's sum is past the range
        s = rb.BilliardState(
            (_at(1.0, 0.5, 1.5e308, 0), _at(1.0, -0.5, 1.7e308, 1)), 0.0
        )
        message = r"^collision point is not finite: inf \(at event index 0\)$"
        with pytest.raises(rb.SimulationError, match=message):
            rb.simulate(s, max_events=1)

    def test_move_overflows(self):
        s = rb.BilliardState(
            (
                rb.ParticleState(1.0, -0.99, 1.0 - 0.99**2, -1e308, 0),
                _at(1.0, 0.0, 0.0, 1),
            ),
            0.0,
        )
        message = (
            r"^position of particle 0 is not finite: -inf "
            r"\(at event index 0\)$"
        )
        with pytest.raises(rb.SimulationError, match=message):
            rb.simulate(s, t_limit=1e308)

    def test_huge_fraction_is_not_converted(self):
        big = Fraction(10**400)
        s = rb.BilliardState(
            (
                rb.ParticleState(Fraction(1), Fraction(1, 2), Fraction(3, 4),
                                 -big, 0),
                rb.ParticleState(Fraction(1), Fraction(-1, 2), Fraction(3, 4),
                                 big, 1),
            ),
            Fraction(0),
        )
        state, log = rb.simulate(s, max_events=1)
        assert log[0].t == 2 * big and log[0].x == 0
        assert state.particles[0].x == 0


@st.composite
def exact_mixed_gases(draw):
    """2 to 6 rational particles at distinct positions: bradyons, tachyons
    and massless particles, each energy sign, small numerators and
    denominators, and a rational start time. Some draws give their
    integral values as ints, and some omit the start time."""
    ints = draw(st.booleans())

    def num(value):
        return int(value) if ints and value.denominator == 1 else value

    n = draw(st.integers(2, 6))
    sites = draw(st.lists(st.integers(-24, 24), min_size=n, max_size=n,
                          unique=True))
    energies = st.fractions(-2, 2, max_denominator=4).filter(bool)
    particles = []
    for label, site in enumerate(sorted(sites)):
        x = num(Fraction(site, 4))
        E = num(draw(energies))
        kind = draw(st.sampled_from(("bradyon", "tachyon", "massless")))
        if kind == "massless":
            particles.append(
                rb.massless(E, draw(st.sampled_from((1, -1))), x=x,
                            label=label)
            )
            continue
        if kind == "bradyon":
            v = draw(st.fractions(-1, 1, max_denominator=8))
            assume(abs(v) < 1)
        else:
            v = draw(st.fractions(-4, 4, max_denominator=8))
            assume(abs(v) > 1)
        P = num(E * v)
        particles.append(rb.ParticleState(E, P, num(E * E - P * P), x, label))
    if draw(st.booleans()):
        return rb.BilliardState(tuple(particles))
    t0 = num(draw(st.fractions(-4, 4, max_denominator=4)))
    return rb.BilliardState(tuple(particles), t0)


class TestExactMixedSpecies:
    @settings(max_examples=150, deadline=None)
    @given(exact_mixed_gases())
    def test_conserves_and_retraces_or_fails_by_name(self, start):
        """A rational run of every species either stops with a named
        error, or conserves E and P exactly and a backward run to the start
        time gives back the start state and the reversed log exactly, with
        no float in either run, on the scan and on the heap."""
        self._check(start)
        with patch.object(simulator, "_HEAP_MIN_PAIRS", 1):
            self._check(start)

    @staticmethod
    def _check(start):
        try:
            end, log = rb.simulate(start, max_events=12)
        except rb.BilliardError:
            return
        assert end.total_energy() == start.total_energy()
        assert end.total_momentum() == start.total_momentum()
        back, back_log = rb.simulate(end, "backward", t_limit=start.t)
        assert back == start
        assert len(back_log) == len(log)
        assert back_log == _batches_reversed(log)
        runs = end, log, back, back_log
        assert float not in set(map(type, _numbers(runs)))


class TestExactCsv:
    """Exact runs write their logs in rational CSV as integers and ratios
    of integers: no float enters an exact run."""

    @settings(max_examples=100, deadline=None)
    @given(exact_mixed_gases())
    def test_mixed_species(self, start):
        for heap_min_pairs in (simulator._HEAP_MIN_PAIRS, 1):
            with patch.object(simulator, "_HEAP_MIN_PAIRS", heap_min_pairs):
                try:
                    end, log = rb.simulate(start, max_events=12)
                    _, back_log = rb.simulate(
                        end, "backward", t_limit=start.t
                    )
                except rb.BilliardError:
                    return
            _assert_rational_csv(log + back_log)

    def test_mirror(self):
        end, log = rb.simulate(_exact_mirror(), max_events=60)
        _, back_log = rb.simulate(end, "backward", max_events=60)
        _assert_rational_csv(log + back_log)


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _assert_rational_csv(log):
    """Every numeric field that ``events_to_csv`` writes for ``log`` in
    rational mode, from ``n`` to ``P_j_post``, is an integer or a ratio."""
    lines = events_to_csv(log, "rational").splitlines()
    header = lines[1].split(",")
    numeric = header.index("tachyonic")  # the flags and reduced columns follow
    assert len(lines) == len(log) + 2
    for line in lines[2:]:
        for field in line.split(",")[:numeric]:
            assert _RATIONAL.fullmatch(field), (line, field)


def _numbers(value):
    """Every number in a run's state or log, or in mirror data, found
    through the fields of its records."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif is_dataclass(value):
        for field in fields(value):
            yield from _numbers(getattr(value, field.name))
    else:
        yield value


class TestIntData:
    """Int particle data runs in exact mode, as Fractions would."""

    @staticmethod
    def _start(num):
        return rb.BilliardState(
            (
                rb.ParticleState(num(5), num(3), num(16), num(0), 0),
                rb.ParticleState(num(5), num(-4), num(9), num(1), 1),
                rb.ParticleState(num(3), num(0), num(9), num(3), 2),
                rb.ParticleState(num(-5), num(4), num(9), num(7), 3),
            ),
            num(0),
        )

    def test_same_run_as_fractions(self):
        """Seven events, four of them exchanges of the mu = 9 pairs, and
        the retrace: equal to the run on Fractions, with no float."""
        runs = []
        for num in (int, Fraction):
            state, log = rb.simulate(self._start(num), max_events=20)
            back, back_log = rb.simulate(state, "backward", t_limit=num(0))
            assert back == self._start(num)
            runs.append((state, log, back, back_log))
        assert len(runs[0][1]) == 7
        assert runs[0] == runs[1]
        assert float not in set(map(type, _numbers(runs[0])))

    def test_mirror_same_as_fractions(self):
        """``mirror_initial`` on ints gives the exact data that it gives on
        Fractions, and so do the reduced orbit, the billiard built from it,
        a nine-event run of that billiard and the orbit read from its log,
        with no float."""
        runs = []
        for num in (int, Fraction):
            params, initial = rb.mirror_initial(num(4), num(1), num(1),
                                                num(-1))
            orbit = rb.reduced_trajectory(params, initial, 6, 6)
            billiard = rb.billiard_from_mirror(params, initial)
            state, log = rb.simulate(billiard, max_events=9)
            reduced = rb.reduced_states_from_events(log, initial)
            runs.append((params, initial, orbit, billiard, state, log,
                         reduced))
        assert len(runs[0][5]) == 9
        assert runs[0] == runs[1]
        assert float not in set(map(type, _numbers(runs[0])))


def _scan_and_heap(run):
    """The outcome of ``run`` with the default crossover, after checking
    that the heap, forced at every pair count, gives the same one."""
    scanned = _outcome(run)
    with patch.object(simulator, "_HEAP_MIN_PAIRS", 1):
        assert _outcome(run) == scanned
    return scanned


class TestContactSlack:
    """Neighbours out of order by no more than rounding slack are in
    contact: a closing pair meets at once, and a pair that does not close
    is rechecked at every event, on the scan and the heap alike."""

    def test_inverted_pair_that_closes(self):
        state = rb.BilliardState(
            (
                _at(1.0, 0.5, 1.0, 0),
                _at(1.0, -0.5, 1.0 - 1e-15, 1),
                _at(1.0, -0.2, 3.0, 2),
            ),
            0.0,
        )
        final, log = _scan_and_heap(
            lambda: rb.simulate(state, max_events=10)
        )
        assert len(log) == 2
        assert (log[0].t, log[0].pair) == (0.0, (0, 1))  # meets at once

    def test_inverted_pair_whose_slack_shrinks(self):
        """Two particles 1e-10 out of order near x = 1000 move together
        towards the origin until the gap exceeds the contact slack."""
        mirror = rb.billiard_from_mirror(
            *rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
        )
        extra = (_at(1.0, -0.5, 1000.0, 4), _at(1.0, -0.5, 1000.0 - 1e-10, 5))
        state = rb.BilliardState(mirror.particles + extra, mirror.t)
        outcome = _scan_and_heap(
            lambda: rb.simulate(state, max_events=3000)
        )
        assert outcome == (
            rb.SimulationError,
            "positions must be nondecreasing, got 48.11894237321053 > "
            "48.118942373110485 (at event index 1423)",
        )


class TestBilliardState:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            rb.BilliardState(
                (
                    rb.ParticleState(1.0, 0.0, 1.0, 1.0, 0),
                    rb.ParticleState(1.0, 0.0, 1.0, -1.0, 1),
                ),
                0.0,
            )

    def test_particles_as_a_list(self):
        particles = _fraction_gas(3, 5).particles
        state = rb.BilliardState(list(particles), Fraction(1, 2))
        assert state == rb.BilliardState(particles, Fraction(1, 2))
        assert type(state.particles) is tuple

    @pytest.mark.parametrize(
        "x", [Fraction(10**5000 + 1, 3), 10**5000], ids=["Fraction", "int"]
    )
    def test_order_error_over_the_digit_limit(self, x):
        """Positions too long for ``repr`` are written by the number codec:
        the ValidationError is built, and no bare ValueError escapes."""
        ps = (
            rb.ParticleState(Fraction(1), Fraction(0), 1, x, 0),
            rb.ParticleState(Fraction(1), Fraction(0), 1, x - 1, 1),
        )
        with pytest.raises(rb.ValidationError) as info:
            rb.BilliardState(ps)
        assert str(info.value) == (
            "positions must be nondecreasing, got "
            f"{repr_number(x)} > {repr_number(x - 1)}"
        )

    def test_tachyons_accepted(self):
        s = _two_body(-1.0, 2.0, -3.0, 1.0, -2.0, -3.0)
        final, log = rb.simulate(s, max_events=1)
        assert len(log) == 1


class TestNextCollisionsOverflow:
    def test_event_time_not_finite(self):
        """The pair of ``TestFloatOverflow`` meets past the float range:
        ``next_collisions`` raises what the event loop raises, and does not
        return the time inf."""
        for back in (False, True):
            s = rb.BilliardState(
                (
                    _at(1.0, -1e-10 if back else 1e-10, -1e300, 0),
                    _at(1.0, 1e-10 if back else -1e-10, 1e300, 1),
                ),
                0.0,
            )
            direction = "backward" if back else "forward"
            with pytest.raises(
                rb.SimulationError, match=r"^event time is not finite: inf$"
            ):
                rb.next_collisions(s, direction)


def _flights_by_subtraction(xs, vs, inverted):
    """``simulator._flights`` over all pairs as written before its tests
    became comparisons: the gap and the closing speed built for every
    pair, then signed. The reference for ``TestComparisonForms``."""
    cands = []
    for idx in range(len(xs) - 1):
        a, b = xs[idx], xs[idx + 1]
        w = vs[idx] - vs[idx + 1]
        gap = b - a
        if gap < 0:
            gap = simulator._contact(a, b)
            if w <= 0:
                inverted.add(idx)
        if w > 0:
            cands.append((idx, gap / w))
    return cands


def _scan(flights, xs, vs):
    """``flights(xs, vs, inverted)`` as comparable text: the candidates'
    repr and the inverted pairs, or the type of the error raised."""
    inverted = set()
    try:
        return repr(flights(xs, vs, inverted)), inverted
    except ValueError as exc:
        return type(exc).__name__, inverted


class TestComparisonForms:
    """The scheduler compares positions and velocities before it subtracts
    them: the same flight times, contacts and order errors as the
    subtractions gave, on every pair of edge floats and of Fractions."""

    @pytest.mark.parametrize(
        "values",
        [
            (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0, 1e-300),
            tuple(map(Fraction, (0, 1, -1, "1/3", "-7/5"))),
        ],
        ids=["floats", "fractions"],
    )
    def test_flights_same_as_the_differences(self, values):
        for a, b, va, vb in itertools.product(values, repeat=4):
            xs, vs = [a, b], [va, vb]
            assert _scan(simulator._flights, xs, vs) == _scan(
                _flights_by_subtraction, xs, vs
            ), (xs, vs)

    def test_fraction_against_float(self):
        """1/3 against the float nearest it: the difference rounds to 0.0,
        which never read as closing, and still does not. (Such a pair now
        counts as in contact; only the heap reads ``inverted``, and it takes
        no run that mixes Fractions and floats.)"""
        third, near = Fraction(1, 3), 1 / 3
        for xs, vs in (
            ([third, near], [third, near]),
            ([near, third], [near, third]),
            ([near, near], [third, near]),
        ):
            assert _scan(simulator._flights, xs, vs)[0] == _scan(
                _flights_by_subtraction, xs, vs
            )[0] == "[]"
        state = rb.BilliardState(
            (
                rb.ParticleState(Fraction(3), Fraction(1), Fraction(8),
                                 Fraction(1, 3), 0),
                rb.ParticleState(3, 1, 8, 1 / 3, 1),  # velocity 1/3 as a float
            ),
            0.0,
        )
        assert rb.next_collisions(state) == []
