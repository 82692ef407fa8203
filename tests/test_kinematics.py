"""Kinematics: velocities, light-cone conversions, spin velocity."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import relbilliards as rb
from conftest import any_particle, bradyon_states, finite_floats, nonzero_floats
from relbilliards.numeric import format_number
from relbilliards.serialize import events_from_csv, events_to_csv


class TestVelocity:
    def test_rest_particle(self):
        assert rb.velocity(1.0, 0.0) == 0.0

    def test_negative_energy_massless(self):
        # E = -1, P = 1 moves left at light speed
        assert rb.velocity(-1.0, 1.0) == -1.0

    def test_direct_quotient(self):
        assert rb.velocity(2.0, 1.0) == 0.5

    def test_zero_energy_rejected(self):
        with pytest.raises(rb.ZeroEnergyError):
            rb.velocity(0.0, 1.0)


class TestVelocityFromSigma:
    def test_rest(self):
        assert rb.velocity_from_sigma(1.0, 1.0) == 0.0

    def test_massless_right_mover(self):
        assert rb.velocity_from_sigma(2.0, 0.0) == 1.0

    def test_direct_evaluation(self):
        # (1 - 0.75) / (1 + 0.75) = 1/7, cross-checked against velocity(E, P)
        v = rb.velocity_from_sigma(1.0, 0.75)
        assert v == pytest.approx(1 / 7, rel=1e-15)
        E = (1.0 + 0.75 / 1.0) / 2
        P = (1.0 - 0.75 / 1.0) / 2
        assert v == pytest.approx(rb.velocity(E, P), rel=1e-14)

    def test_degenerate(self):
        with pytest.raises(rb.DegenerateKinematicsError):
            rb.velocity_from_sigma(1.0, -1.0)

    @given(any_particle())
    def test_agrees_with_velocity(self, p):
        sr = p.sigma_rho()
        if sr.sigma * sr.sigma + p.mu == 0:
            return  # massless left-mover: outside the formula's domain
        assert rb.velocity_from_sigma(sr.sigma, p.mu) == pytest.approx(
            p.velocity, rel=1e-12
        )

    def test_agreement_sweep_bradyons_and_tachyons(self):
        # 1e4 random particles of both speed classes, 1e-12 relative
        import random

        rng = random.Random(20240811)
        for _ in range(10_000):
            E = rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)
            if rng.random() < 0.5:
                v = rng.uniform(-0.95, 0.95)
            else:
                v = rng.choice([-1, 1]) * rng.uniform(1.05, 4.0)
            P = E * v
            mu = E * E - P * P
            got = rb.velocity_from_sigma(E + P, mu)
            assert abs(got - v) <= 1e-12 * max(1.0, abs(v))


class TestSigmaRhoRoundTrip:
    def test_rest_particle(self):
        p = rb.ParticleState(1.0, 0.0, 1.0, 0.0)
        sr = rb.to_sigma_rho(p)
        assert (sr.sigma, sr.rho) == (1.0, 1.0)

    def test_massless_left_mover(self):
        p = rb.ParticleState(-1.0, 1.0, 0.0, 0.0)
        sr = rb.to_sigma_rho(p)
        assert (sr.sigma, sr.rho) == (0.0, -2.0)

    def test_inverse_linear_map(self):
        assert rb.from_sigma_rho(rb.SigmaRho(3.0, 1.0)) == (2.0, 1.0)

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=64),
        st.fractions(min_value=-8, max_value=8, max_denominator=64),
    )
    def test_round_trip_exact_in_rational_mode(self, E, P):
        if E == 0:
            E = Fraction(1)
        p = rb.ParticleState(E, P, E * E - P * P, Fraction(0))
        back = rb.from_sigma_rho(rb.to_sigma_rho(p))
        assert back == (E, P)

    @given(nonzero_floats(0.2, 3.0), finite_floats(-3.0, 3.0))
    def test_round_trip_float(self, E, P):
        p = rb.ParticleState(E, P, E * E - P * P, 0.0)
        e2, p2 = rb.from_sigma_rho(rb.to_sigma_rho(p))
        assert e2 == pytest.approx(E, rel=1e-12)
        assert p2 == pytest.approx(P, rel=1e-12, abs=1e-12)

    def test_sigma_rho_reproduces_mu(self):
        p = rb.ParticleState(2.0, 1.0, 3.0, 0.0)
        assert rb.to_sigma_rho(p).mass_squared == pytest.approx(3.0, rel=1e-12)


class TestSigmaRhoVelocity:
    def test_velocity_is_p_over_e(self):
        assert rb.SigmaRho(3.0, 1.0).velocity == 0.5
        assert rb.SigmaRho(Fraction(1, 3), 3).velocity == Fraction(-4, 5)

    def test_zero_energy(self):
        with pytest.raises(rb.ZeroEnergyError):
            rb.SigmaRho(1.0, -1.0).velocity


class TestSpinVelocity:
    def test_rest(self):
        assert rb.spin_velocity(1.0, 1.0) == 1.0

    def test_sign_from_energy(self):
        assert rb.spin_velocity(1.0, -1.0) == -1.0

    def test_stopped_watch_for_massless(self):
        assert rb.spin_velocity(0.0, -1.0) == 0.0

    def test_zero_energy(self):
        with pytest.raises(rb.ZeroEnergyError):
            rb.spin_velocity(1.0, 0.0)

    @given(bradyon_states())
    def test_squared_relation(self, p):
        import math

        m = math.sqrt(p.mu)
        s = rb.spin_velocity(m, p.E)
        assert s * s == pytest.approx(1 - p.velocity**2, rel=1e-12)


class TestParticleState:
    def test_zero_energy_rejected(self):
        with pytest.raises(rb.ZeroEnergyError):
            rb.ParticleState(0.0, 1.0, -1.0, 0.0)

    def test_inconsistent_mu_rejected(self):
        with pytest.raises(ValueError):
            rb.ParticleState(1.0, 0.0, 0.5, 0.0)

    def test_drift_is_observable_not_corrected(self):
        mu = 1.0 + 1e-14  # inside tolerance
        p = rb.ParticleState(1.0, 0.0, mu, 0.0)
        assert p.mu == mu
        assert p.mass_drift() != 0.0
        assert abs(p.mass_drift()) < 1e-12

    def test_exact_mode_requires_exact_mu(self):
        with pytest.raises(ValueError):
            rb.ParticleState(
                Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0)
            )
        # ~1000-bit data, mu off by 1e-300: far below any float tolerance
        E = Fraction(3**600 + 1, 7**300)
        P = Fraction(2**900 - 1, 5**400)
        mu = E * E - P * P + Fraction(1, 10**300)
        with pytest.raises(ValueError) as info:
            rb.ParticleState(E, P, mu, Fraction(0), label=3)
        unchecked = rb.ParticleState._unchecked(E, P, mu, Fraction(0), 3)
        drift = unchecked.mass_drift()
        assert drift == Fraction(-1, 10**300)
        assert str(info.value) == (
            f"particle 3: mu != E**2 - P**2 (off by {drift})"
        )
        # int and Fraction mixed: still the exact rule
        assert rb.ParticleState(2, Fraction(1), 3, 0).mass_drift() == 0
        big = 10**6
        with pytest.raises(ValueError, match=r"off by -1/1000000000\)"):
            rb.ParticleState(big, 0, big * big + Fraction(1, 10**9), 0)

    @pytest.mark.parametrize(
        "E, P",
        [
            # mu = (E - P)*(E + P) is finite, E**2 and P**2 are inf: the
            # drift is nan, and a head-on pair of these particles read
            # equal velocities
            (1e160, 1e160 - 2 * math.ulp(1e160)),
            (1e160, 1e100),  # E**2 alone is inf: the drift is inf
        ],
    )
    def test_drift_past_the_float_range_rejected(self, E, P):
        mu = (E - P) * (E + P)
        with pytest.raises(rb.ValidationError, match="past the float range"):
            rb.ParticleState(E, P, mu, 0.0)
        with pytest.raises(rb.ValidationError, match="past the float range"):
            rb.ParticleState._evolved(E, P, mu, 0.0, 0)

    def test_drift_at_a_scale_past_the_float_range(self):
        """E**2 + P**2 + |mu| overflows while the drift stays finite: the
        drift bound is still formed, so a wrong mu is refused by name and
        the consistent mu = E**2 - P**2 accepted."""
        E, P = 1e154, 9e153
        with pytest.raises(rb.ValidationError, match="mu inconsistent"):
            rb.ParticleState(E, P, 5.0, 0.0)
        with pytest.raises(rb.ValidationError, match="mu inconsistent"):
            rb.ParticleState._evolved(E, P, 5.0, 0.0, 0)
        p = rb.ParticleState(E, P, E * E - P * P, 0.0)
        assert p.mass_drift() == 0.0

    def test_from_sigma_rho_takes_mu_from_the_product(self):
        p = rb.ParticleState.from_sigma_rho(rb.SigmaRho(4.0, 0.25), 1.0, 2)
        assert (p.E, p.P, p.mu, p.x, p.label) == (2.125, 1.875, 1.0, 1.0, 2)

    def test_massless_factory_exact_speed(self):
        for E in (0.3, -1.7, 2.0):
            for d in (1, -1):
                p = rb.massless(E, d)
                assert p.velocity == float(d)
                assert p.mu == 0.0
                assert repr(p.x) == "0.0"

    def test_massless_factory_exact_position(self):
        """An exact E puts the particle at an exact zero, so a state of
        exact particles runs on the exact clock: its first event is at the
        int 1, not at 1.0."""
        p = rb.massless(Fraction(1), 1)
        assert (p.x, type(p.x), p.mu, type(p.mu)) == (0, Fraction, 0, Fraction)
        F = Fraction
        q = rb.ParticleState(F(2), F(0), F(4), F(1), 1)
        ((pair, t),) = rb.next_collisions(rb.BilliardState((p, q)))
        assert (pair, t, type(t)) == ((0, 1), 1, Fraction)

    def test_moved(self):
        p = rb.ParticleState(2.0, 1.0, 3.0, 1.0)
        assert p.moved(2.0).x == pytest.approx(2.0)

    def test_evolved_data_keeps_loose_drift_bound(self):
        # sigma * rho misses the stored mu by a relative ~3e-10: within the
        # bound for evolved data, beyond the strict bound for fresh data
        sr = rb.SigmaRho(2.0, 0.5 * (1 + 1e-9))
        p = rb.ParticleState.from_sigma_rho(sr, 0.0, 0, mu=1.0)
        scale = p.E ** 2 + p.P ** 2 + abs(p.mu)
        assert 1e-12 < abs(p.mass_drift()) / scale < 1e-6
        for q in (p.moved(0.5), p.with_position(3.0), p.momentum_reversed()):
            assert q.mass_drift() == p.mass_drift()
        other = rb.ParticleState.from_sigma_rho(sr, 0.0, 1, mu=1.0)
        event = rb.CollisionEvent(
            t=0.0,
            pair=(0, 1),
            x=0.0,
            pre=(p, other),
            post=(p, other),
            tachyonic=False,
            sign_flips=(False, False),
        )
        assert events_from_csv(events_to_csv([event])) == ([event], "float")
        with pytest.raises(ValueError):
            rb.ParticleState(p.E, p.P, p.mu, p.x)


#: Exact numbers of both types: small and wide ints and Fractions.
_exact_numbers = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**200), 2**200),
    st.fractions(max_denominator=50),
    st.fractions(),
)


@st.composite
def exact_particle_data(draw):
    """``(E, P, mu)`` with E nonzero and mu equal to E**2 - P**2, off by a
    drawn amount, or drawn on its own; int-valued mu sometimes as an int."""
    E = draw(_exact_numbers.filter(bool))
    P = draw(_exact_numbers)
    exact = (E - P) * (E + P)
    mu = draw(
        st.one_of(
            st.just(exact),
            _exact_numbers,
            _exact_numbers.map(lambda off: exact + off),
        )
    )
    if Fraction(mu).denominator == 1 and draw(st.booleans()):
        mu = int(mu)
    return E, P, mu


class TestExactValidation:
    """The exact check compares over ints; it never builds the drift
    E**2 - P**2 - mu that it tests."""

    @given(exact_particle_data())
    def test_accepts_exactly_where_the_fraction_rule_does(self, data):
        E, P, mu = data
        drift = (E - P) * (E + P) - mu
        for make in (rb.ParticleState, rb.ParticleState._evolved):
            if drift == 0:
                assert make(E, P, mu, 0, 2).mass_drift() == 0
                continue
            with pytest.raises(rb.ValidationError) as info:
                make(E, P, mu, 0, 2)
            assert str(info.value) == (
                f"particle 2: mu != E**2 - P**2 (off by {drift})"
            )

    def test_drift_over_the_digit_limit(self):
        """A drift too long for ``str`` is written by the number codec: the
        ValidationError is built, and no bare ValueError escapes."""
        E, P = Fraction(10**5000 + 1, 3), Fraction(1, 7)
        with pytest.raises(rb.ValidationError) as info:
            rb.ParticleState(E, P, 1, 0)
        drift = (E - P) * (E + P) - 1
        assert str(info.value) == (
            f"particle 0: mu != E**2 - P**2 (off by {format_number(drift)})"
        )

    def test_wide_data_builds_no_fraction(self, monkeypatch):
        """Valid data of about 1000 bits, checked fresh and evolved,
        builds no Fraction at all."""
        E = Fraction(3**600 + 1, 7**300)
        P = Fraction(2**900 - 1, 5**400)
        mu = (E - P) * (E + P)
        minus_E = -E
        built = 0

        def counted(name, wrap):
            make = vars(Fraction)[name].__func__

            def counting(cls, *args, **kwargs):
                nonlocal built
                built += 1
                return make(cls, *args, **kwargs)

            monkeypatch.setattr(Fraction, name, wrap(counting))

        counted("__new__", staticmethod)
        if "_from_coprime_ints" in vars(Fraction):  # Python 3.12
            counted("_from_coprime_ints", classmethod)
        rb.ParticleState(E, P, mu, 0)
        rb.ParticleState._evolved(minus_E, P, mu, 0, 1)
        assert built == 0


def _accepted(E, P, mu, tol):
    """The float rule of ``_validate``: the drift in ``mass_drift``'s
    order against each term of the scale times the bound."""
    drift = E * E - P * P - mu
    return abs(drift) <= tol * (E * E) + tol * (P * P) + tol * abs(mu)


def _edge_mus(E, P, tol):
    """The last mu that the rule accepts and the first that it refuses,
    below and above E**2 - P**2, in steps of its ulp, by bisection."""
    mu0 = E * E - P * P
    edge = []
    for side in (-1, 1):
        lo, hi = 0, 1
        while _accepted(E, P, mu0 + side * hi * math.ulp(mu0), tol):
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _accepted(E, P, mu0 + side * mid * math.ulp(mu0), tol):
                lo = mid
            else:
                hi = mid
        edge += [mu0 + side * n * math.ulp(mu0) for n in (lo, hi)]
    return edge


class TestFloatValidationEdge:
    """The float check writes out mass_drift's operations in its order, so
    at the edge of the bound, where one rounding decides, the fresh and
    the evolved constructors accept exactly what the rule accepts."""

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-0.99, max_value=0.99),
    )
    def test_same_decision_at_the_edge(self, E, ratio):
        P = ratio * E
        for make, tol in (
            (lambda mu: rb.ParticleState(E, P, mu, 0.0), 1e-12),
            (lambda mu: rb.ParticleState._evolved(E, P, mu, 0.0, 0), 1e-6),
        ):
            for mu in _edge_mus(E, P, tol):
                if _accepted(E, P, mu, tol):
                    assert make(mu).mu == mu
                else:
                    with pytest.raises(rb.ValidationError):
                        make(mu)
