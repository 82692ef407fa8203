"""Collision engine: the worked example, conservation, involution, swaps."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

import relbilliards as rb
from conftest import any_particle, rational_sigma_rho_pairs, sigma_rho_pairs


@st.composite
def species_pairs(draw):
    """Two light-cone states of any species (bradyon, tachyon, massless)
    and energy sign, both float or both Fraction."""
    exact = draw(st.booleans())

    def state():
        p = draw(any_particle())
        if not exact:
            return p.sigma_rho()
        E = Fraction(p.E).limit_denominator(16)
        v = Fraction(p.velocity).limit_denominator(16)
        return rb.SigmaRho(E * (1 + v), E * (1 - v))

    return state(), state()


def _quadratic_oracle(i: rb.SigmaRho, j: rb.SigmaRho):
    """Independent outcome oracle: solve the conservation system directly.

    Eliminating everything but sigma_i' gives
        r*x**2 + (mu_j - mu_i - r*s)*x + mu_i*s = 0
    whose roots are the incoming sigma_i and the outgoing one. Pick the
    root farther from the input and rebuild the rest from conservation.
    """
    s = i.sigma + j.sigma
    r = i.rho + j.rho
    mu_i = i.sigma * i.rho
    mu_j = j.sigma * j.rho
    a = r
    b = mu_j - mu_i - r * s
    c = mu_i * s
    disc = b * b - 4 * a * c
    assert disc >= -1e-12 * abs(b * b)
    root = math.sqrt(max(disc, 0.0))
    x1 = (-b + root) / (2 * a)
    x2 = (-b - root) / (2 * a)
    sigma_i_after = x1 if abs(x1 - i.sigma) > abs(x2 - i.sigma) else x2
    sigma_j_after = s - sigma_i_after
    rho_i_after = mu_i / sigma_i_after
    rho_j_after = r - rho_i_after
    return sigma_i_after, rho_i_after, sigma_j_after, rho_j_after


class TestCollisionCondition:
    def test_identical_particles(self):
        i = rb.SigmaRho(1.0, 1.0)
        assert rb.collision_condition(i, i) is False

    def test_rest_vs_massless(self):
        assert rb.collision_condition(rb.SigmaRho(1, 1), rb.SigmaRho(0, -2))

    def test_direct_determinant(self):
        # 3*2 - 1*1 = 5 != 0
        assert rb.collision_condition(rb.SigmaRho(3, 1), rb.SigmaRho(1, 2))

    def test_tolerance_in_float_mode(self):
        i = rb.SigmaRho(1.0, 1.0)
        j = rb.SigmaRho(1.0 + 1e-15, 1.0 - 1e-15)
        assert rb.collision_condition(i, j) is False


class TestRestMassSquared:
    def test_worked_pair(self):
        # s = 1, r = -1: squared rest mass -1 < 0
        assert rb.rest_mass_squared(rb.SigmaRho(1, 1), rb.SigmaRho(0, -2)) == -1

    def test_two_rest_particles(self):
        assert rb.rest_mass_squared(rb.SigmaRho(1, 1), rb.SigmaRho(1, 1)) == 4

    def test_direct_product(self):
        assert rb.rest_mass_squared(rb.SigmaRho(3, 1), rb.SigmaRho(0, 2)) == 9


class TestIsTachyonic:
    def test_worked_pair(self):
        assert rb.is_tachyonic(rb.SigmaRho(1, 1), rb.SigmaRho(0, -2)) is True

    def test_rest_pair(self):
        assert rb.is_tachyonic(rb.SigmaRho(1, 1), rb.SigmaRho(1, 1)) is False

    def test_sign_of_product(self):
        # s = 4, r = -1.75
        assert rb.is_tachyonic(rb.SigmaRho(4, 0.25), rb.SigmaRho(0, -2))


class TestResolveCollision:
    def test_zero_energy_tachyonic_example(self):
        """Rest massive particle vs massless negative-energy partner."""
        i = rb.SigmaRho.from_energy_momentum(1.0, 0.0)
        j = rb.SigmaRho.from_energy_momentum(-1.0, 1.0)
        out = rb.resolve_collision(i, j)
        assert out.sr_i_after.energy == -1.0
        assert out.sr_i_after.momentum == 0.0
        assert out.sr_j_after.energy == 1.0
        assert out.sr_j_after.momentum == 1.0
        assert out.tachyonic is True
        assert out.sign_flip_i is True
        assert out.sign_flip_j is True

    def test_zero_energy_tachyonic_example_exact(self):
        i = rb.SigmaRho.from_energy_momentum(Fraction(1), Fraction(0))
        j = rb.SigmaRho.from_energy_momentum(Fraction(-1), Fraction(1))
        out = rb.resolve_collision(i, j)
        assert out.sr_i_after == rb.SigmaRho(Fraction(-1), Fraction(-1))
        assert out.sr_j_after == rb.SigmaRho(Fraction(2), Fraction(0))

    def test_hand_evaluated_case(self):
        # (E=2, P=1, mu=3) vs (E=1, P=-1, mu=0): s = r = 3
        i = rb.SigmaRho.from_energy_momentum(2.0, 1.0)
        j = rb.SigmaRho.from_energy_momentum(1.0, -1.0)
        out = rb.resolve_collision(i, j)
        assert out.sr_i_after.energy == pytest.approx(2.0, rel=1e-14)
        assert out.sr_i_after.momentum == pytest.approx(-1.0, rel=1e-14)
        assert out.sr_j_after.energy == pytest.approx(1.0, rel=1e-14)
        assert out.sr_j_after.momentum == pytest.approx(1.0, rel=1e-14)
        assert out.tachyonic is False
        # totals conserved, masses preserved
        assert out.sr_i_after.energy + out.sr_j_after.energy == pytest.approx(3.0)
        assert out.sr_i_after.momentum + out.sr_j_after.momentum == pytest.approx(0.0, abs=1e-14)
        assert out.sr_i_after.mass_squared == pytest.approx(3.0, rel=1e-14)
        assert out.sr_j_after.mass_squared == pytest.approx(0.0, abs=1e-14)

    def test_equal_velocities_rejected(self):
        with pytest.raises(rb.NoCollisionError):
            rb.resolve_collision(rb.SigmaRho(1.0, 1.0), rb.SigmaRho(2.0, 2.0))

    def test_degenerate_rest_mass(self):
        # s = 0 with distinct masses and velocities
        i = rb.SigmaRho(1.0, 1.0)
        j = rb.SigmaRho(-1.0, 2.0)
        with pytest.raises(rb.DegenerateCollisionError):
            rb.resolve_collision(i, j)

    @given(sigma_rho_pairs())
    def test_equal_mass_reduces_to_swap(self, pair):
        i, _ = pair
        # rescale j to share i's squared mass with a different velocity
        j = rb.SigmaRho(i.rho * 2, i.sigma / 2)
        if not rb.collision_condition(i, j):
            return
        out = rb.resolve_collision(i, j)
        assert out.sr_i_after == rb.SigmaRho(j.sigma, j.rho)
        assert out.sr_j_after == rb.SigmaRho(i.sigma, i.rho)

    # r = 1e-5 sends the outgoing energies to about +-1e5, where one ulp
    # exceeds 1e-12 of the incoming ones: the sums round at the scale of
    # the incoming and the outgoing terms together.
    @given(sigma_rho_pairs())
    @example((rb.SigmaRho(1.0, 1.0), rb.SigmaRho(1.0, -0.99999)))
    def test_conservation_and_mass_preservation(self, pair):
        i, j = pair
        out = rb.resolve_collision(i, j)
        i_out, j_out = out.sr_i_after, out.sr_j_after
        scale = (
            abs(i.energy) + abs(j.energy)
            + abs(i_out.energy) + abs(j_out.energy)
        )
        assert abs(
            (i_out.energy + j_out.energy) - (i.energy + j.energy)
        ) <= 1e-12 * scale
        pscale = (
            abs(i.momentum) + abs(j.momentum)
            + abs(i_out.momentum) + abs(j_out.momentum) + scale
        )
        assert abs(
            (i_out.momentum + j_out.momentum) - (i.momentum + j.momentum)
        ) <= 1e-12 * pscale
        for before, after in ((i, out.sr_i_after), (j, out.sr_j_after)):
            mscale = abs(before.sigma * before.rho) + 1e-6
            assert (
                abs(after.mass_squared - before.mass_squared)
                <= 1e-12 * mscale
            )

    @given(sigma_rho_pairs())
    def test_matches_quadratic_oracle(self, pair):
        i, j = pair
        out = rb.resolve_collision(i, j)
        si, ri, sj, rj = _quadratic_oracle(i, j)
        # the oracle loses digits near double roots; modest tolerance
        scale = abs(si) + abs(sj) + abs(ri) + abs(rj)
        assert abs(out.sr_i_after.sigma - si) <= 1e-6 * scale
        assert abs(out.sr_i_after.rho - ri) <= 1e-6 * scale
        assert abs(out.sr_j_after.sigma - sj) <= 1e-6 * scale
        assert abs(out.sr_j_after.rho - rj) <= 1e-6 * scale

    @given(sigma_rho_pairs())
    def test_involution(self, pair):
        """Resolving the primed pair lands back on the original."""
        i, j = pair
        out = rb.resolve_collision(i, j)
        back = rb.resolve_collision(out.sr_i_after, out.sr_j_after)
        scale = abs(i.sigma) + abs(i.rho) + abs(j.sigma) + abs(j.rho)
        assert abs(back.sr_i_after.sigma - i.sigma) <= 1e-10 * scale
        assert abs(back.sr_i_after.rho - i.rho) <= 1e-10 * scale
        assert abs(back.sr_j_after.sigma - j.sigma) <= 1e-10 * scale
        assert abs(back.sr_j_after.rho - j.rho) <= 1e-10 * scale

    @given(rational_sigma_rho_pairs())
    def test_exact_mode_conservation_and_involution(self, pair):
        i, j = pair
        out = rb.resolve_collision(i, j)
        assert out.sr_i_after.energy + out.sr_j_after.energy == i.energy + j.energy
        assert (
            out.sr_i_after.momentum + out.sr_j_after.momentum
            == i.momentum + j.momentum
        )
        assert out.sr_i_after.mass_squared == i.mass_squared
        assert out.sr_j_after.mass_squared == j.mass_squared
        back = rb.resolve_collision(out.sr_i_after, out.sr_j_after)
        assert back.sr_i_after == i
        assert back.sr_j_after == j

    @given(sigma_rho_pairs())
    def test_energy_sign_flip_iff_tachyonic_for_bradyons(self, pair):
        """For nonnegative squared mass the energy sign flips exactly in
        tachyonic collisions (checked against flags computed from energies)."""
        i, j = pair
        out = rb.resolve_collision(i, j)
        sr_sign = out.s * out.r
        if i.mass_squared >= 0:
            assert out.sign_flip_i == (sr_sign < 0)
        if j.mass_squared >= 0:
            assert out.sign_flip_j == (sr_sign < 0)

    @given(species_pairs())
    @example((rb.SigmaRho(1.0, 1.0), rb.SigmaRho(0.0, -2.0)))
    def test_tachyonic_flag_matches_rest_mass(self, pair):
        """The flags, read from signs, agree with the products they stand
        for: s*r for ``tachyonic``, E_before*E_after for each sign flip."""
        i, j = pair
        try:
            out = rb.resolve_collision(i, j)
        except (rb.NoCollisionError, rb.DegenerateCollisionError):
            reject()
        assert out.tachyonic == (rb.rest_mass_squared(i, j) < 0)
        assert out.tachyonic == (out.s * out.r < 0)
        assert out.sign_flip_i == (i.energy * out.sr_i_after.energy < 0)
        assert out.sign_flip_j == (j.energy * out.sr_j_after.energy < 0)


def _paper_species_gas(seed: int) -> rb.BilliardState:
    """2 to 8 float bradyons and massless particles in [0, 10], with |E| in
    [0.3, 2] of either sign."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    xs = sorted(rng.uniform(0, 10) for _ in range(n))
    particles = []
    for label, x in enumerate(xs):
        E = rng.uniform(0.3, 2) * rng.choice((1, -1))
        if rng.choice(("b", "m")) == "b":
            v = rng.uniform(-0.9, 0.9)
            p = rb.ParticleState(E, E * v, E * E - (E * v) ** 2, x, label)
        else:
            p = rb.massless(E, rng.choice((1, -1)), x=x, label=label)
        particles.append(p)
    return rb.BilliardState(tuple(particles), 0.0)


class TestFloatUnderflow:
    """A head-on pair whose energies fall near 1e-163 has products
    sigma*rho of about 1e-325, which round to zero: the collision condition
    then reads equal velocities, and the error says what happened. So does
    the error for a product past the float range."""

    def test_subnormal_product_named(self):
        i, j = rb.SigmaRho(2e-163, 0.0), rb.SigmaRho(0.0, 2e-163)
        with pytest.raises(rb.SimulationError, match="^float underflow: "):
            rb.resolve_collision(i, j)

    @pytest.mark.parametrize(
        "args",
        [
            (1e300, 1e300, 1e300, 1e300),  # both products inf: was a swap
            (1e300, 1e-10, 1e10, 1e300),  # one inf: was NoCollisionError
            (-1e300, 1e300, 1e300, 1e300),  # -inf and inf
        ],
    )
    def test_overflowing_product_named(self, args):
        with pytest.raises(rb.SimulationError, match="^float overflow: "):
            rb.collisions.collide(*args)
        i, j = rb.SigmaRho(*args[:2]), rb.SigmaRho(*args[2:])
        with pytest.raises(rb.SimulationError, match="^float overflow: "):
            rb.collision_condition(i, j)

    @pytest.mark.parametrize(
        "i, j",
        [
            (rb.SigmaRho(1.0, 1.0), rb.SigmaRho(2.0, 2.0)),
            (rb.SigmaRho(2.0, 0.0), rb.SigmaRho(4.0, 0.0)),  # zero factors
            (rb.SigmaRho(1e-150, 1e-150), rb.SigmaRho(2e-150, 2e-150)),
        ],
    )
    def test_equal_velocities_still_no_collision(self, i, j):
        with pytest.raises(rb.NoCollisionError):
            rb.resolve_collision(i, j)

    @pytest.mark.parametrize(
        "make, max_events, index",
        [
            (lambda: _paper_species_gas(365), 200, 169),
            (lambda: _paper_species_gas(2864), 200, 166),
            (
                lambda: rb.billiard_from_mirror(
                    *rb.mirror_initial(0.96, 1.0, 0.3, -1.0)
                ),
                3000,
                2742,
            ),
        ],
        ids=["gas-365", "gas-2864", "escaping-mirror"],
    )
    def test_runs_that_underflow(self, make, max_events, index):
        message = rf"^float underflow: .* \(at event index {index}\)$"
        with pytest.raises(rb.SimulationError, match=message):
            rb.simulate(make(), max_events=max_events)


def _collide_by_sums(sigma_i, rho_i, sigma_j, rho_j):
    """``collide`` as written before its sign tests became comparisons:
    each energy sign read from the sum sigma + rho, built. The reference
    for ``TestComparisonForms``."""
    a, b = sigma_i * rho_j, sigma_j * rho_i
    if type(a) is float and not (math.isfinite(a) and math.isfinite(b)):
        raise rb.SimulationError("float overflow")
    if rb.collisions.near_zero(a - b, a, b):
        if rb.collisions._underflows(sigma_i, rho_j) or (
            rb.collisions._underflows(sigma_j, rho_i)
        ):
            raise rb.SimulationError("float underflow")
        raise rb.NoCollisionError("equal velocities")
    s, r = sigma_i + sigma_j, rho_i + rho_j
    if sigma_i * rho_i == sigma_j * rho_j:
        out = sigma_j, rho_j, sigma_i, rho_i
    else:
        if rb.collisions.near_zero(s, sigma_i, sigma_j) or (
            rb.collisions.near_zero(r, rho_i, rho_j)
        ):
            raise rb.DegenerateCollisionError("s*r = 0")
        out = (
            rho_i * (s / r), sigma_i * (r / s),
            rho_j * (s / r), sigma_j * (r / s),
        )

    def opposite(u, v):
        return u < 0 < v or v < 0 < u

    return (*out, s, r, opposite(s, r),
            opposite(sigma_i + rho_i, out[0] + out[1]),
            opposite(sigma_j + rho_j, out[2] + out[3]))


def _outcome(collide, args):
    """``collide(*args)`` as comparable text: its repr (NaN equals NaN),
    or the type of the error it raised."""
    try:
        return repr(collide(*args))
    except rb.BilliardError as exc:
        return type(exc).__name__


class TestComparisonForms:
    """``collide`` reads each energy sign by comparing sigma with -rho,
    not from the sum: the same outputs, flags and errors as the sums gave,
    on every tuple of edge floats (signed zeros, the smallest subnormal,
    products past the float range, equal velocities, massless pairs) and
    of Fractions."""

    @pytest.mark.parametrize(
        "values",
        [
            (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0, 0.5),
            tuple(map(Fraction, (0, 1, -1, "1/3", "-7/5", 2))),
        ],
        ids=["floats", "fractions"],
    )
    def test_same_as_the_sums(self, values):
        for args in itertools.product(values, repeat=4):
            assert _outcome(rb.collisions.collide, args) == _outcome(
                _collide_by_sums, args
            ), args
