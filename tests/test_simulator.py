"""Event-driven N-particle evolution: scheduling, stepping, reversibility."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relbilliards as rb
from conftest import any_particle, bradyon_gas, relative_error
from relbilliards import simulator
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


def _stepped(state, direction, max_events, t_limit):
    """``simulate`` as chained ``step`` calls, each of which selects its
    event by a scan of every pair. An error names its index in the run."""
    sign = 1 if direction == "forward" else -1
    events = []
    while len(events) < max_events:
        found = rb.next_collisions(state, direction)
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

    @settings(max_examples=150, deadline=None)
    @given(runs())
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
        calls = [
            lambda: rb.ParticleState(1.0, 0.0, 2.0, 0.0, 0),
            lambda: rb.massless(1.0, 0),
            lambda: rb.BilliardState((p, q), 0.0),
            lambda: rb.simulate(s, "sideways", max_events=1),
            lambda: rb.simulate(s),
            lambda: rb.simulate(s, t_limit=-1.0),
            lambda: rb.tachyon_scale_bound(rb.MirrorParams(1.5, 1.0), -0.1),
        ]
        for call in calls:
            with pytest.raises(rb.ValidationError):
                call()
        assert issubclass(rb.ValidationError, (rb.BilliardError, ValueError))

    @pytest.mark.parametrize("heap_min_pairs", [1, 10**9])
    def test_order_violation_inside_simulate(
        self, monkeypatch, heap_min_pairs
    ):
        """Positions out of order after a collision surface as a
        SimulationError naming the event, from the heap or the scan."""
        resolve = simulator._resolve

        def misplacing(ps, xs, vs, t, found, back):
            events = resolve(ps, xs, vs, t, found, back)
            (i, j), _ = found[0]
            xs[i] = xs[j] + 1.0
            return events

        monkeypatch.setattr(simulator, "_resolve", misplacing)
        monkeypatch.setattr(simulator, "_HEAP_MIN_PAIRS", heap_min_pairs)
        message = r"^positions must be nondecreasing, .* \(at event index 0\)$"
        with pytest.raises(rb.SimulationError, match=message):
            rb.simulate(bradyon_gas(7, 64), max_events=5)


def _at(E, v, x, label):
    return rb.ParticleState(E, E * v, E * E - (E * v) ** 2, x, label)


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
    denominators, and a rational start time."""
    n = draw(st.integers(2, 6))
    sites = draw(st.lists(st.integers(-24, 24), min_size=n, max_size=n,
                          unique=True))
    energies = st.fractions(-2, 2, max_denominator=4).filter(bool)
    particles = []
    for label, site in enumerate(sorted(sites)):
        x = Fraction(site, 4)
        E = draw(energies)
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
        P = E * v
        particles.append(rb.ParticleState(E, P, E * E - P * P, x, label))
    t0 = draw(st.fractions(-4, 4, max_denominator=4))
    return rb.BilliardState(tuple(particles), t0)


class TestExactMixedSpecies:
    @settings(max_examples=150, deadline=None)
    @given(exact_mixed_gases())
    def test_conserves_and_retraces_or_fails_by_name(self, start):
        """A rational run of every species either stops with a named
        error, or conserves E and P exactly and a backward run to the start
        time gives back the start state and the reversed log exactly."""
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
