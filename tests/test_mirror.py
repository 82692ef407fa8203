"""Reduced-map engine: fixed points, conjugacy, periods, classification."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import relbilliards as rb
from relbilliards import mirror
from conftest import finite_floats, nonzero_floats, relative_error


P43 = rb.MirrorParams(4.0, 1.0)        # elliptic, 3-cycle
P_ATT = rb.MirrorParams(0.75, 1.0)     # hyperbolic
P_PARA = rb.MirrorParams(1.0, 1.0)     # parabolic


@st.composite
def hyperbolic_params(draw):
    e = draw(nonzero_floats(0.5, 2.0))
    ratio = draw(finite_floats(0.15, 0.95))
    return rb.MirrorParams(ratio * e * e, e)


@st.composite
def elliptic_params(draw):
    e = draw(nonzero_floats(0.5, 2.0))
    ratio = draw(finite_floats(1.05, 4.0))
    return rb.MirrorParams(ratio * e * e, e)


class TestReducedMap:
    def test_fixed_point(self):
        assert rb.reduced_map(0.5, P_ATT) == 0.5

    def test_three_cycle(self):
        assert rb.reduced_map(1.0, P43) == 4.0
        assert rb.reduced_map(4.0, P43) == -2.0
        assert rb.reduced_map(-2.0, P43) == 1.0

    def test_direct_value(self):
        assert rb.reduced_map(3.0, rb.MirrorParams(1.0, 1.0)) == -1.0

    def test_pole(self):
        with pytest.raises(rb.PoleError):
            rb.reduced_map(2.0, P43)

    def test_params_validation(self):
        with pytest.raises(rb.ConfigError):
            rb.MirrorParams(-1.0, 1.0)
        with pytest.raises(rb.ConfigError):
            rb.MirrorParams(1.0, 0.0)


class TestInverseMap:
    def test_inverse_of_cycle_step(self):
        assert rb.inverse_map(4.0, P43) == 1.0

    def test_fixed_points_map_to_themselves(self):
        assert rb.inverse_map(0.5, P_ATT) == pytest.approx(0.5, rel=1e-15)
        assert rb.inverse_map(1.5, P_ATT) == pytest.approx(1.5, rel=1e-15)

    def test_inverse_of_direct_value(self):
        assert rb.inverse_map(-1.0, rb.MirrorParams(1.0, 1.0)) == 3.0

    def test_zero_rejected(self):
        with pytest.raises(rb.PoleError):
            rb.inverse_map(0.0, P43)

    @given(elliptic_params(), nonzero_floats(0.1, 5.0))
    def test_left_inverse(self, params, sigma):
        try:
            image = rb.reduced_map(sigma, params)
            back = rb.inverse_map(image, params)
        except rb.PoleError:
            return
        assert back == pytest.approx(sigma, rel=1e-10)


class TestFixedPoints:
    def test_hyperbolic_values_and_derivatives(self):
        fp = rb.fixed_points(P_ATT)
        assert fp.kind == "hyperbolic"
        assert fp.attracting == pytest.approx(0.5)
        assert fp.repelling == pytest.approx(1.5)
        assert fp.derivative_attracting == pytest.approx(1 / 3)
        assert fp.derivative_repelling == pytest.approx(3.0)

    def test_derivatives_match_finite_differences(self):
        fp = rb.fixed_points(P_ATT)
        h = 1e-7
        for point, expected in (
            (fp.attracting, fp.derivative_attracting),
            (fp.repelling, fp.derivative_repelling),
        ):
            fd = (
                rb.reduced_map(point + h, P_ATT)
                - rb.reduced_map(point - h, P_ATT)
            ) / (2 * h)
            assert abs(fd) == pytest.approx(expected, rel=1e-6)

    def test_parabolic_double_root(self):
        fp = rb.fixed_points(P_PARA)
        assert fp.kind == "parabolic"
        assert fp.attracting == fp.repelling == 1.0
        assert fp.derivative_attracting == 1.0

    @pytest.mark.parametrize("e_total", [1e8, -1e8, 1e20, 1e150, -1e150])
    def test_near_root_at_large_e_total(self, e_total):
        """Where E_total**2 dwarfs mu, the near root is about
        mu/(2*E_total); E_total -+ sqrt(delta) would cancel to 0."""
        fp = rb.fixed_points(rb.MirrorParams(0.25, e_total))
        near = 0.25 / (2 * e_total)
        assert fp.attracting == pytest.approx(near, rel=1e-15, abs=0)
        assert fp.repelling == 2 * e_total

    def test_elliptic_conjugate_pair(self):
        fp = rb.fixed_points(P43)
        assert fp.kind == "elliptic"
        a, b = fp.complex_pair
        assert a == pytest.approx(complex(1.0, math.sqrt(3)))
        assert b == pytest.approx(complex(1.0, -math.sqrt(3)))

    @given(hyperbolic_params())
    def test_stability_both_energy_signs(self, params):
        fp = rb.fixed_points(params)
        assert fp.kind == "hyperbolic"
        assert fp.derivative_attracting < 1.0
        assert fp.derivative_repelling > 1.0
        # both are genuine fixed points
        for point in (fp.attracting, fp.repelling):
            assert rb.reduced_map(point, params) == pytest.approx(
                point, rel=1e-9
            )


class TestStateUpdates:
    def test_e2_update_on_cycle(self):
        assert rb.e2_update(-1.5, 1.0, P43) == -1.5
        assert rb.e2_update(-1.5, 4.0, P43) == 3.0

    def test_e2_zero_invariant(self):
        assert rb.e2_update(0.0, 3.0, P43) == 0.0

    def test_x1_update_on_cycle(self):
        assert rb.x1_update(-1.0, 1.0, P43) == -4.0
        assert rb.x1_update(-4.0, 4.0, P43) == -1.0

    def test_x1_fixed_ratio(self):
        assert rb.x1_update(-2.5, 2.0, P43) == -2.5  # sigma**2 == mu

    def test_motion_constant_values(self):
        assert rb.motion_constant(-1.0, -1.5, 1.0) == 1.5
        assert rb.motion_constant(-4.0, -1.5, 4.0) == 1.5
        assert rb.motion_constant(-1.0, 0.0, 2.0) == 0.0


class TestReducedTrajectory:
    def test_three_cycle_full(self):
        params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        assert params.k == 1.5
        traj = rb.reduced_trajectory(params, s0, 3)
        assert [s.sigma1 for s in traj] == [1.0, 4.0, -2.0, 1.0]
        assert [s.x1 for s in traj] == [-1.0, -4.0, -1.0, -1.0]
        taus = [b.t - a.t for a, b in zip(traj, traj[1:])]
        assert taus == [5.0, 5.0, 2.0]
        assert traj[3].t - traj[0].t == 12.0

    def test_singleton(self):
        params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        assert rb.reduced_trajectory(params, s0, 0, 0) == [s0]

    def test_hyperbolic_convergence(self):
        params, s0 = rb.mirror_initial(0.75, 1.0, 1.0, -1.0)
        traj = rb.reduced_trajectory(params, s0, 60)
        sigmas = [s.sigma1 for s in traj]
        # monotone decrease toward the attractor at 0.5 (flat once converged)
        assert all(
            a > b or a == b == pytest.approx(0.5)
            for a, b in zip(sigmas, sigmas[1:])
        )
        assert sigmas[-1] == pytest.approx(0.5, abs=1e-10)
        assert abs(traj[-1].E2) < 1e-20

    def test_backward_matches_inverse(self):
        params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        traj = rb.reduced_trajectory(params, s0, 0, 3)
        assert [s.n for s in traj] == [-3, -2, -1, 0]
        assert traj[0].sigma1 == pytest.approx(1.0)
        # a backward sweep is the time-mirror of a forward one
        fwd = rb.reduced_trajectory(params, traj[0], 3)
        assert fwd[-1].sigma1 == pytest.approx(s0.sigma1)
        assert fwd[-1].t == pytest.approx(s0.t)
        assert fwd[-1].x1 == pytest.approx(s0.x1)

    def test_energy_split_holds_along_orbit(self):
        params, s0 = rb.mirror_initial(2.0, 1.0, -1.0, -1.0)
        for state in rb.reduced_trajectory(params, s0, 200, 200):
            res = float(
                2 * state.E2
                + state.sigma1
                + params.mu / state.sigma1
                - 2 * params.E_total
            )
            scale = abs(float(state.sigma1)) + abs(2 * float(state.E2)) + 2
            assert abs(res) <= 1e-10 * scale

    def test_motion_constant_invariant_1000_steps(self):
        for mu, e, sig in ((4.0, 1.0, 1.0), (2.0, 1.0, -1.0), (3.0, 1.0, 0.4)):
            params, s0 = rb.mirror_initial(mu, e, sig, -1.0)
            traj = rb.reduced_trajectory(params, s0, 500, 500)
            for state in traj:
                k = rb.motion_constant(state.x1, state.E2, state.sigma1)
                assert relative_error(k, params.k) <= 1e-10

    def test_inconsistent_initial_state_rejected(self):
        params = rb.MirrorParams(4.0, 1.0, 1.5)
        bad = rb.MirrorState(n=0, sigma1=1.0, E2=7.0, x1=-1.0, t=0.0)
        with pytest.raises(rb.ConfigError):
            rb.reduced_trajectory(params, bad, 1)

    def test_pole_error_carries_index(self):
        # mu = 2E**2 sends sigma = E to the pole in one step
        params, s0 = rb.mirror_initial(2.0, 1.0, 1.0, -1.0)
        with pytest.raises(rb.PoleError, match="index"):
            rb.reduced_trajectory(params, s0, 3)

    def test_exact_rational_cycle(self):
        params, s0 = rb.mirror_initial(
            Fraction(4), Fraction(1), Fraction(1), Fraction(-1), t0=Fraction(0)
        )
        traj = rb.reduced_trajectory(params, s0, 300, 300)
        for state in traj:
            assert rb.motion_constant(state.x1, state.E2, state.sigma1) == params.k
        assert traj[-1].sigma1 == traj[0].sigma1


class TestConjugacy:
    def test_h_at_total_energy(self):
        assert rb.conjugacy_h(1.0, P43) == pytest.approx(1.0)
        assert rb.conjugacy_h(1.0, P_ATT) == pytest.approx(1.0)

    def test_h_at_attractor_is_zero(self):
        fp = rb.fixed_points(P_ATT)
        assert rb.conjugacy_h(fp.attracting, P_ATT) == pytest.approx(0.0)

    def test_unit_modulus_on_reals(self):
        for sigma in (-10.0, 0.3, 7.0):
            assert abs(rb.conjugacy_h(sigma, P43)) == pytest.approx(1.0)

    def test_pole_at_repeller(self):
        with pytest.raises(rb.PoleError):
            rb.conjugacy_h(1.5, P_ATT)

    def test_h_inverse_round_trip(self):
        for sigma in (-3.0, 0.2, 0.9, 5.0):
            z = rb.conjugacy_h(sigma, P43)
            back = rb.conjugacy_h_inverse(z, P43)
            assert back.real == pytest.approx(sigma, rel=1e-12)
            assert back.imag == pytest.approx(0.0, abs=1e-12)

    def test_intertwines_map_and_rotation(self):
        rng = random.Random(7)
        lam = rb.multiplier(P43)
        for _ in range(10_000):
            sigma = rng.uniform(-20.0, 20.0)
            if abs(2 * 1.0 - sigma) < 1e-6:
                continue
            lhs = rb.conjugacy_h(rb.reduced_map(sigma, P43), P43)
            rhs = lam * rb.conjugacy_h(sigma, P43)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @given(hyperbolic_params(), nonzero_floats(0.05, 6.0))
    def test_intertwines_for_positive_discriminant(self, params, sigma):
        fp = rb.fixed_points(params)
        if (
            abs(sigma - fp.repelling) < 1e-3
            or abs(sigma - 2 * params.E_total) < 1e-3
        ):
            return
        lam = rb.multiplier(params)
        lhs = rb.conjugacy_h(rb.reduced_map(sigma, params), params)
        rhs = lam * rb.conjugacy_h(sigma, params)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestRotationAngle:
    def test_three_cycle_angle(self):
        assert rb.rotation_angle(P43) == pytest.approx(2 * math.pi / 3)

    def test_quarter_turn(self):
        assert rb.rotation_angle(rb.MirrorParams(2.0, 1.0)) == pytest.approx(
            math.pi / 2
        )
        assert rb.rotation_angle(rb.MirrorParams(4.5, 1.5)) == pytest.approx(
            math.pi / 2
        )

    def test_small_angle_limit(self):
        theta = rb.rotation_angle(rb.MirrorParams(1.0 + 1e-10, 1.0))
        assert 0 < theta < 1e-4

    def test_requires_negative_discriminant(self):
        with pytest.raises(rb.DiscriminantError):
            rb.rotation_angle(P_ATT)

    def test_matches_multiplier_argument(self):
        for params in (P43, rb.MirrorParams(2.0, 1.0), rb.MirrorParams(3.0, -1.0)):
            theta = rb.rotation_angle(params)
            lam = rb.multiplier(params)
            assert cmath.phase(lam) % (2 * math.pi) == pytest.approx(
                theta % (2 * math.pi), rel=1e-12
            )


class TestPeriod:
    def test_three_cycle(self):
        found = rb.period(P43, k=1.5)
        assert (found.a, found.b) == (1, 3)
        assert found.T == pytest.approx(12.0)

    def test_quarter_turn_family(self):
        # mu = 2E**2 rotates by a quarter turn: b = 4, T = 16k
        found = rb.period(rb.MirrorParams(2.0, 1.0), k=2.5)
        assert (found.a, found.b) == (1, 4)
        assert found.T == pytest.approx(16 * 2.5)

    def test_period_matches_trajectory_time(self):
        params, s0 = rb.mirror_initial(2.0, 1.0, -1.0, -1.0)
        found = rb.period(params)
        assert found.b == 4
        traj = rb.reduced_trajectory(params, s0, found.b)
        assert traj[-1].t - traj[0].t == pytest.approx(found.T, rel=1e-12)
        assert traj[-1].sigma1 == pytest.approx(s0.sigma1, rel=1e-12)
        assert traj[-1].x1 == pytest.approx(s0.x1, rel=1e-12)

    def test_aperiodic_within_bounds(self):
        # theta/ein 2*pi for mu=3, E=1 has no convergent within 1e-9 below 1000
        assert rb.period(rb.MirrorParams(3.0, 1.0), k=1.0, b_max=1000) is None

    def test_requires_negative_discriminant(self):
        with pytest.raises(rb.DiscriminantError):
            rb.period(P_ATT, k=1.0)

    def test_brute_force_rationality_oracle(self):
        """Independent check of the continued-fraction detector: scan all
        b <= 60 for the best |b*x - round(b*x)|."""
        for params in (P43, rb.MirrorParams(2.0, 1.0)):
            x = rb.rotation_angle(params) / (2 * math.pi)
            best_b = min(
                range(1, 61), key=lambda b: abs(b * x - round(b * x))
            )
            found = rb.period(params, k=1.0)
            assert found.b == best_b


def _matrix_power(params, b):
    """M**b in Fractions, for M = [[0, mu], [-1, 2*E_total]]: the matrix
    whose Moebius action is the reduced map."""
    mu, e = Fraction(params.mu), Fraction(params.E_total)
    result, square = ((1, 0), (0, 1)), ((0, mu), (-1, 2 * e))

    def mul(m, n):
        return tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    while b:
        if b & 1:
            result = mul(result, square)
        square, b = mul(square, square), b >> 1
    return result


class TestPeriodExactness:
    """An exact cycle is decided on the exact parameter values (Niven:
    4*E_total**2/mu in {1, 2, 3}); any other period is a near cycle whose
    b-th collision misses a whole number of turns by at most tol turns."""

    def test_golden_ratio_five_cycle_is_near(self):
        # theta ~ 2*pi/5, but exact iteration of the float's value gives
        # sigma5 - sigma0 = 7.8e-18
        found = rb.period(rb.MirrorParams(1.5278640450004206, 1.0), k=1.0)
        assert (found.a, found.b, found.exact) == (1, 5, False)

    def test_tol_is_the_turn_miss(self):
        params = rb.MirrorParams(2.5, 1.0)
        assert rb.period(params, k=1.0) is None
        found = rb.period(params, k=1.0, tol=1e-3)
        assert (found.a, found.b, found.exact) == (11, 39, False)
        x = rb.rotation_angle(params) / (2 * math.pi)
        assert abs(39 * x - 11) <= 1e-3

    def test_float_four_thirds_is_near_fraction_is_exact(self):
        near = rb.period(rb.MirrorParams(1.3333333333333333, 1.0), k=1.0)
        assert (near.a, near.b, near.exact) == (1, 6, False)
        exact = rb.period(rb.MirrorParams(Fraction(4, 3), 1), k=1)
        assert (exact.a, exact.b, exact.exact) == (1, 6, True)

    @pytest.mark.parametrize(
        "mu, b", [(Fraction(4), 3), (Fraction(2), 4), (Fraction(4, 3), 6)]
    )
    def test_negative_energy_turns_backward(self, mu, b):
        found = rb.period(rb.MirrorParams(mu, Fraction(-1)), k=1)
        assert (found.a, found.b, found.exact) == (b - 1, b, True)

    def test_exact_cycle_beyond_b_max(self):
        params = rb.MirrorParams(Fraction(4, 3), 1)
        assert rb.period(params, k=1, b_max=5) is None

    def test_exact_iff_matrix_power_is_scalar(self):
        """Reference: on a grid of rational and float parameters, every
        period found has M**b scalar exactly when it is reported exact."""
        kinds = {True: 0, False: 0}
        for n in range(3, 40):
            for e in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                for mu in (Fraction(n, 8), n / 8, Fraction(4, 3), 4 / 3):
                    params = rb.MirrorParams(mu, e)
                    if params.delta >= 0:
                        continue
                    for tol in (1e-9, 1e-3):
                        found = rb.period(params, k=1, b_max=200, tol=tol)
                        if found is None:
                            continue
                        (p, q), (r, s) = _matrix_power(params, found.b)
                        scalar = q == 0 and r == 0 and p == s
                        assert scalar == found.exact, (mu, e, found)
                        kinds[found.exact] += 1
        assert kinds[True] > 0 and kinds[False] > 0


class TestTachyonicPredicate:
    def test_cycle_values(self):
        assert rb.tachyonic_predicate(4.0, P43) is True
        assert rb.tachyonic_predicate(1.0, P43) is False
        assert rb.tachyonic_predicate(-2.0, P43) is True

    def test_boundary_strict(self):
        assert rb.tachyonic_predicate(2.0, P43) is False  # sigma = 2*E

    def test_matches_pair_rest_mass_in_simulation(self):
        """The reduced-coordinate predicate agrees with the collision
        engine's s*r sign at the corresponding simulated collisions."""
        params, m0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        state = rb.billiard_from_mirror(params, m0)
        _, events = rb.simulate(state, max_events=30)
        traj = rb.reduced_trajectory(params, m0, 12)
        flags = [
            e.tachyonic for e in events if e.pair == (0, 1)
        ]
        # event n enters with sigma1 of trajectory state n-1
        expected = [
            rb.tachyonic_predicate(s.sigma1, params) for s in traj[:-3]
        ]
        assert flags[: len(expected)] == expected


class TestClassifyTachyonic:
    def test_elliptic_infinitely_many(self):
        for sigma0 in (1.0, -2.0, 0.3, 5.0):
            assert (
                rb.classify_tachyonic(P43, sigma0)
                is rb.TachyonicCount.INFINITELY_MANY
            )

    def test_parabolic_two_consecutive(self):
        assert (
            rb.classify_tachyonic(P_PARA, 3.0)
            is rb.TachyonicCount.EXACTLY_TWO_CONSECUTIVE
        )
        # iteration shows them at sigma = 3 then -1, never again
        hits = []
        sigma = 3.0
        for n in range(40):
            if rb.tachyonic_predicate(sigma, P_PARA):
                hits.append(n)
            sigma = rb.reduced_map(sigma, P_PARA)
        assert hits == [0, 1]

    def test_hyperbolic_inside_interval_none(self):
        assert (
            rb.classify_tachyonic(P_ATT, 1.0) is rb.TachyonicCount.NONE
        )
        sigma = 1.0
        for direction in (rb.reduced_map, rb.inverse_map):
            s = sigma
            for _ in range(1000):
                s = direction(s, P_ATT)
                assert not rb.tachyonic_predicate(s, P_ATT)

    def test_hyperbolic_outside_interval_two(self):
        params = rb.MirrorParams(0.5, 1.0)
        assert (
            rb.classify_tachyonic(params, 3.0)
            is rb.TachyonicCount.EXACTLY_TWO_CONSECUTIVE
        )

    def test_fixed_point_initial_data_is_none(self):
        fp = rb.fixed_points(P_ATT)
        assert (
            rb.classify_tachyonic(P_ATT, fp.repelling)
            is rb.TachyonicCount.NONE
        )

    def test_infinitely_many_count_grows_with_window(self):
        from relbilliards.mirror import tachyonic_census

        for params, sigma0 in ((P43, 1.0), (rb.MirrorParams(1.7, 1.0), 0.5)):
            small, _ = tachyonic_census(params, sigma0, 400)
            large, _ = tachyonic_census(params, sigma0, 1000)
            assert 2 < small < large


class TestLimits:
    def test_limit_velocities_hyperbolic(self):
        lv = rb.limit_velocities(P_ATT)
        assert (lv.past, lv.future) == (0.5, -0.5)

    def test_limit_velocities_parabolic(self):
        lv = rb.limit_velocities(P_PARA)
        assert (lv.past, lv.future) == (0.0, 0.0)
        assert "0+" in lv.note and "0-" in lv.note

    def test_limit_velocities_negative_energy(self):
        """Escape speeds are symmetric under flipping every energy sign:
        the outer particle still leaves toward -infinity in the future."""
        lv = rb.limit_velocities(rb.MirrorParams(0.75, -1.0))
        assert (lv.past, lv.future) == (0.5, -0.5)

    def test_limit_velocities_negative_energy_by_iteration(self):
        params, s0 = rb.mirror_initial(0.75, -1.0, -1.0, -1.0)
        traj = rb.reduced_trajectory(params, s0, 200, 200)
        v_future = rb.velocity_from_sigma(traj[-1].sigma1, 0.75)
        v_past = rb.velocity_from_sigma(traj[0].sigma1, 0.75)
        lv = rb.limit_velocities(params)
        assert v_future == pytest.approx(lv.future, abs=1e-10)
        assert v_past == pytest.approx(lv.past, abs=1e-10)

    def test_limit_velocities_elliptic_rejected(self):
        with pytest.raises(rb.DiscriminantError):
            rb.limit_velocities(P43)

    def test_limit_products_parabolic_coincide(self):
        params, s0 = rb.mirror_initial(1.0, 1.0, 3.0, -1.0)
        past, future = rb.limit_products(params, s0)
        k = float(params.k)
        assert past == pytest.approx(k) and future == pytest.approx(k)

    def test_limit_products_hyperbolic(self):
        params, s0 = rb.mirror_initial(0.75, 1.0, 1.0, -1.0)
        assert s0.E2 == pytest.approx(0.125)
        assert params.k == pytest.approx(-0.125)
        past, future = rb.limit_products(params, s0)
        assert future == pytest.approx(-0.0625)
        assert past == pytest.approx(-0.1875)
        traj = rb.reduced_trajectory(params, s0, 200, 200)
        assert traj[-1].x1 * traj[-1].E2 == pytest.approx(future, abs=1e-8)
        assert traj[0].x1 * traj[0].E2 == pytest.approx(past, abs=1e-8)

    def test_limit_products_zero_inner_energy(self):
        state = rb.MirrorState(n=0, sigma1=1.0, E2=0.0, x1=-1.0, t=0.0)
        past, future = rb.limit_products(P_ATT, state)
        assert past == 0.0 and future == 0.0

    def test_limit_products_elliptic_rejected(self):
        params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        with pytest.raises(rb.DiscriminantError):
            rb.limit_products(params, s0)

    def test_positions_eventually_escape_both_directions(self):
        """For nonnegative discriminant the outer particle's collision
        positions head to -infinity in both time directions."""
        for mu, e, sigma0 in ((0.75, 1.0, 1.0), (1.0, 1.0, 3.0), (0.96, 1.0, 0.6)):
            params, s0 = rb.mirror_initial(mu, e, sigma0, -1.0)
            traj = rb.reduced_trajectory(params, s0, 120, 120)
            xs = [float(s.x1) for s in traj]
            future = xs[-100:]
            assert all(a > b for a, b in zip(future, future[1:]))
            past = xs[:100]
            assert all(a < b for a, b in zip(past, past[1:]))
            assert xs[0] < 10 * xs[120] and xs[-1] < 10 * xs[120]


class TestTachyonScaleBound:
    def test_parabolic_case(self):
        params, s0 = rb.mirror_initial(1.0, 1.0, 3.0, -1.0)
        kappa = rb.kappa_from_initial(s0)
        assert kappa == pytest.approx(4 / 9)
        bound = rb.tachyon_scale_bound(params, kappa)
        assert bound == pytest.approx(16 / 9)
        # the two tachyonic collisions sit at position ratios 1 and 1/9
        traj = rb.reduced_trajectory(params, s0, 2)
        ratios = [
            s.x1 / s0.x1
            for s in traj
            if rb.tachyonic_predicate(s.sigma1, params)
        ]
        assert ratios == pytest.approx([1.0, 1 / 9])
        assert all(ratio <= bound for ratio in ratios)

    def test_zero_kappa(self):
        assert rb.tachyon_scale_bound(P_PARA, 0.0) == 0.0

    def test_boundary_mu(self):
        # mu = 2*E**2 sits exactly on the validity edge; bound is 2*kappa
        params = rb.MirrorParams(2.0, 1.0)
        assert rb.tachyon_scale_bound(params, 0.7) == pytest.approx(1.4)

    def test_out_of_range_mu_rejected(self):
        with pytest.raises(rb.DiscriminantError):
            rb.tachyon_scale_bound(rb.MirrorParams(2.5, 1.0), 0.5)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            rb.tachyon_scale_bound(P_PARA, -0.1)


class TestMirrorInitial:
    def test_rejects_bad_data(self):
        with pytest.raises(rb.ConfigError):
            rb.mirror_initial(4.0, 1.0, 0.0, -1.0)  # sigma1 = 0
        with pytest.raises(rb.ConfigError):
            rb.mirror_initial(4.0, 1.0, 1.0, 1.0)  # x1 > 0
        with pytest.raises(rb.ConfigError):
            rb.mirror_initial(0.75, 1.0, 1.5, -1.0)  # on the repeller

    def test_energy_split(self):
        params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        assert s0.E2 == -1.5
        assert params.k == 1.5


class TestOracleEquivalence:
    def test_simulation_matches_reduced_trajectory(self):
        from relbilliards.mirror import cross_check

        for mu, e, sig, x in (
            (4.0, 1.0, 1.0, -1.0),
            (0.75, 1.0, 0.9, -2.0),
            (1.0, 1.0, 3.0, -0.7),
            (2.25, -1.5, -1.2, -1.3),
        ):
            params, s0 = rb.mirror_initial(mu, e, sig, x)
            report = cross_check(params, s0, 60, tol=1e-9)
            assert report.passed, (mu, e, sig, report.max_dev)

    def test_rational_mode_agrees_exactly(self):
        from relbilliards.mirror import cross_check

        params, s0 = rb.mirror_initial(
            Fraction(4), Fraction(1), Fraction(1), Fraction(-1), t0=Fraction(0)
        )
        report = cross_check(params, s0, 30, tol=0.0)
        assert report.passed
        assert all(v == 0.0 for v in report.max_dev.values())


class TestLogWalk:
    """A four-particle log reads back as the reduced orbit in the log's own
    time order: forward it passes collisions 1, 2, ...; backward it undoes
    collision 0 first, then -1, -2, ..."""

    @pytest.mark.parametrize(
        "mu, sigma1",
        [(Fraction(4), Fraction(1)), (Fraction(5, 4), Fraction(3, 10))],
    )
    def test_rational_logs_are_the_orbit(self, mu, sigma1):
        params, s0 = rb.mirror_initial(
            mu, Fraction(1), sigma1, Fraction(-1), t0=Fraction(0)
        )
        start = rb.billiard_from_mirror(params, s0)
        _, log = rb.simulate(start, "backward", max_events=60)
        back = rb.reduced_states_from_events(log, s0)
        assert [s.n for s in back] == list(range(0, -20, -1))
        assert back == rb.reduced_trajectory(params, s0, 0, 19)[::-1]
        _, log = rb.simulate(start, "forward", max_events=60)
        ahead = rb.reduced_states_from_events(log, s0)
        assert ahead == rb.reduced_trajectory(params, s0, 20)[1:]

    @pytest.mark.parametrize(
        "mu, sigma1", [(1.25, 0.3), (4.005, 1.0), (0.75, 1.5000000000000002)]
    )
    def test_float_backward_log_matches_the_map(self, mu, sigma1):
        params, s0 = rb.mirror_initial(mu, 1.0, sigma1, -1.0, t0=0.1)
        start = rb.billiard_from_mirror(params, s0)
        _, log = rb.simulate(start, "backward", max_events=180)
        back = rb.reduced_states_from_events(log, s0)
        orbit = rb.reduced_trajectory(params, s0, 0, 59)[::-1]
        assert [s.n for s in back] == [s.n for s in orbit]
        assert back[0].t == s0.t
        for got, want in zip(back, orbit):
            for key in ("sigma1", "E2", "x1", "t"):
                assert rb.numeric.rel_diff(
                    getattr(got, key), getattr(want, key)
                ) <= 1e-9, (got.n, key)

    def test_mirror_columns_hold_the_last_collision_passed(self):
        params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
        for direction, sigmas in (
            ("forward", [4.0, -2.0, 1.0]),
            ("backward", [1.0, -2.0, 4.0]),
        ):
            start = rb.billiard_from_mirror(params, s0)
            _, log = rb.simulate(start, direction, max_events=9)
            rows = mirror.mirror_columns(params, s0, log)
            assert len(rows) == len(log)
            assert {row["k"] for row in rows} == {1.5}
            passed = [
                row["sigma1"] for row, event in zip(rows, log)
                if event.pair == (0, 1)
            ]
            assert passed == sigmas


class TestRefusals:
    """Each refusal of the reduced system is a named error."""

    @pytest.mark.parametrize("num", [float, Fraction])
    def test_sigma1_zero(self, num):
        params = rb.MirrorParams(num(4), num(1))
        state = rb.MirrorState(0, num(0), num(1), num(-1), num(0))
        with pytest.raises(rb.PoleError, match="energy split undefined"):
            rb.reduced_trajectory(params, state, 1)
        with pytest.raises(rb.PoleError, match="kappa undefined"):
            rb.kappa_from_initial(state)
        with pytest.raises(rb.PoleError, match="x1 update undefined"):
            rb.x1_update(num(-1), num(0), params)
        with pytest.raises(rb.PoleError, match="motion constant undefined"):
            rb.motion_constant(num(-1), num(1), num(0))
        with pytest.raises(rb.PoleError, match="energy split undefined"):
            mirror.e2_from_sigma(num(0), params)

    def test_forward_orbit_underflows_to_sigma_zero(self):
        # sigma1 = mu / (2e300 - 1) underflows to 0 at collision 1
        params, s0 = rb.mirror_initial(5e-324, 1e300, 1.0, -1.0)
        message = r"x1 update undefined at sigma1 = 0 \(at collision index 1\)"
        with pytest.raises(rb.PoleError, match=f"^{message}$"):
            rb.reduced_trajectory(params, s0, 3)

    @pytest.mark.parametrize("num", [float, Fraction])
    def test_backward_orbit_reaches_sigma_zero(self, num):
        # 2*E_total - mu/sigma1 = 2 - (5/4)/(5/8) = 0
        params, s0 = rb.mirror_initial(num(5) / 4, num(1), num(5) / 8, num(-1))
        with pytest.raises(
            rb.PoleError,
            match="^backward orbit reached sigma = 0 at collision index -1$",
        ):
            rb.reduced_trajectory(params, s0, 0, 3)

    def test_billiard_from_mirror(self):
        params = rb.MirrorParams(4.0, 1.0)
        for state, message in (
            (rb.MirrorState(0, 0.0, -1.5, -1.0, 0.0), "sigma1 must be"),
            (rb.MirrorState(0, 1.0, -1.5, 0.0, 0.0), "x1 must be negative"),
            (rb.MirrorState(0, 1.0, 0.0, -1.0, 0.0), "zero energy"),
        ):
            with pytest.raises(rb.ConfigError, match=message):
                rb.billiard_from_mirror(params, state)

    def test_conjugacy_h_inverse_at_minus_one(self):
        with pytest.raises(rb.PoleError, match="z = -1"):
            rb.conjugacy_h_inverse(-1, P43)

    def test_period_needs_k(self):
        with pytest.raises(rb.ValidationError, match="motion constant k"):
            rb.period(P43)

    def test_far_root_at_twice_e_total(self):
        """A float far root that rounds to 2*E_total leaves the map's
        denominator zero there, but not fixed_points, whose derivatives
        are s**2/mu, nor the multiplier, the conjugacy or the limit
        products, which need only the roots. The near root is mu/far."""
        params, s0 = rb.mirror_initial(0.25, -1e150, -1.0, -1.0)
        fp = rb.fixed_points(params)
        assert (fp.kind, fp.attracting, fp.repelling) == (
            "hyperbolic", -1.25e-151, -2e150
        )
        assert fp.derivative_attracting == (-1.25e-151) ** 2 / 0.25
        assert fp.derivative_repelling == (-2e150) ** 2 / 0.25
        assert rb.multiplier(params) == -1.25e-151 / -2e150
        assert rb.conjugacy_h(-1.0, params) == pytest.approx(
            5e-151, rel=1e-15, abs=0
        )
        past, future = rb.limit_products(params, s0)
        assert past == float(params.k) * -2e150
        assert future == float(params.k) * -1.25e-151
