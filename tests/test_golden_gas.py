"""Golden bytes of many-particle runs, pinned by digest.

``test_golden.py`` pins the CLI's four-particle mirror runs, where nearly
every particle collides at every event. These runs pin the library on
gases where most particles fly freely between events: each digest covers
the ``events_to_csv`` text of the log and the ``repr`` of the final state,
so every float bit of every position, energy and momentum is compared.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import relbilliards as rb
from conftest import bradyon_gas
from relbilliards.serialize import events_to_csv


def _fraction_gas(seed: int, n: int) -> rb.BilliardState:
    """Rational bradyons of both energy signs at distinct integer sites."""
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(4 * n), n))
    particles = []
    for label, x in enumerate(xs):
        E = Fraction(rng.randint(2, 8), 4) * rng.choice((1, -1))
        P = E * Fraction(rng.randint(-9, 9), 10)
        particles.append(
            rb.ParticleState(E, P, E * E - P * P, Fraction(x), label)
        )
    return rb.BilliardState(tuple(particles), Fraction(0))


def _mixed_gas(seed: int) -> rb.BilliardState:
    """3 to 8 float particles in [0, 10]: bradyons, tachyons and massless
    particles, with |E| in [0.3, 2] of either sign."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    xs = sorted(rng.uniform(0.0, 10.0) for _ in range(n))
    particles = []
    for label, x in enumerate(xs):
        E = rng.uniform(0.3, 2.0) * rng.choice((1, -1))
        kind = rng.choice(("bradyon", "tachyon", "massless"))
        if kind == "massless":
            particles.append(
                rb.massless(E, rng.choice((1, -1)), x=x, label=label)
            )
            continue
        if kind == "bradyon":
            v = rng.uniform(-0.9, 0.9)
        else:
            v = rng.uniform(1.1, 3.0) * rng.choice((1, -1))
        P = E * v
        particles.append(rb.ParticleState(E, P, E * E - P * P, x, label))
    return rb.BilliardState(tuple(particles), 0.0)


def _digest(state, log, arithmetic: str = "float") -> str:
    text = events_to_csv(log, arithmetic) + repr(state) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "gas64-forward":
        "6b27a65dd472f0ec3e1437dae50d93a5fab8ff512bf520c156c61dafc7f919a5",
    "gas64-retraced":
        "2485db26e51fc7cde3e7798d7d4c6d7c6b944c17b56b6bfd7d84e57599fa35f2",
    "gas64-t_limit-forward":
        "794ff1990d2628e97af172fbec1f4e61c2d10936a92eaa794b5fe79fcbcc4e38",
    "gas64-t_limit-backward":
        "0b100e585b3bb600159abb8ca3ab61a9497b7cc8e531f4312161b15ce49ad3bf",
    "fraction6-forward":
        "db93ae523acdffcf37fbd2f01978718821659ee77dc4fe02ee5bd3977e5781f2",
    "fraction6-retraced":
        "fc0fe0373da534869972d42c06b42bc2298612e7dd109c3997081e507a843f45",
    "mixed-forward":
        "a95b70caf7814d13154fdedf3f93d9cadba86b68a4eef4cebe2ff6116e265a28",
    "mixed-backward":
        "6057c395556cc5bb065e11817850e7eafb38f7835891ddb882e7f628db77342b",
}


@pytest.fixture(scope="module")
def gas64():
    start = bradyon_gas(11, 64)
    state, log = rb.simulate(start, max_events=300)
    return start, state, log


def test_float_gas_forward_then_retraced(gas64):
    start, state, log = gas64
    assert len(log) == 300
    assert _digest(state, log) == GOLDEN["gas64-forward"]
    back, back_log = rb.simulate(state, "backward", t_limit=0.0)
    assert back.t == 0.0
    assert _digest(back, back_log) == GOLDEN["gas64-retraced"]


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_t_limit_on_an_event_time(gas64, direction):
    """The event at the limit is left unresolved, in either direction."""
    start, state, log = gas64
    if direction == "backward":
        start = state
        _, log = rb.simulate(start, "backward", max_events=300)
    t_hit = log[150].t
    final, cut = rb.simulate(start, direction, t_limit=t_hit)
    assert final.t == t_hit
    assert cut == log[: len(cut)] and cut[-1].t != t_hit
    assert _digest(final, cut) == GOLDEN[f"gas64-t_limit-{direction}"]


def test_fraction_gas_forward_then_retraced():
    start = _fraction_gas(29, 6)
    state, log = rb.simulate(start, max_events=20)
    assert len(log) == 20
    assert _digest(state, log, "rational") == GOLDEN["fraction6-forward"]
    back, back_log = rb.simulate(state, "backward", t_limit=Fraction(0))
    assert back == start
    assert _digest(back, back_log, "rational") == GOLDEN["fraction6-retraced"]


def test_mixed_species_run():
    state, log = rb.simulate(_mixed_gas(4), max_events=200)
    assert len(log) == 200 and any(e.tachyonic for e in log)
    assert _digest(state, log) == GOLDEN["mixed-forward"]


def test_mixed_species_backward_run():
    """A backward run where negative energies, tachyons and massless
    particles meet, so the sign of every reversed momentum is pinned."""
    state, _ = rb.simulate(_mixed_gas(4), max_events=200)
    back, log = rb.simulate(state, "backward", max_events=200)
    assert len(log) == 200 and any(e.tachyonic for e in log)
    assert _digest(back, log) == GOLDEN["mixed-backward"]


def test_mixed_species_error_message():
    with pytest.raises(rb.SimulationError) as info:
        rb.simulate(_mixed_gas(6), max_events=200)
    assert str(info.value) == (
        "pair (4, 5) still approaching after resolution (at event index 9)"
    )
