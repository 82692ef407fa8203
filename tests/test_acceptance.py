"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import relbilliards as rb
from relbilliards.cli import main
from relbilliards.mirror import cross_check, tachyonic_census


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _best_of(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------
# 1. worked zero-energy tachyonic collision, exact values
# --------------------------------------------------------------------------


def test_01_worked_collision_example():
    i = rb.SigmaRho.from_energy_momentum(1.0, 0.0)
    j = rb.SigmaRho.from_energy_momentum(-1.0, 1.0)

    out = rb.resolve_collision(i, j)
    assert abs(out.sr_i_after.energy - (-1.0)) <= 1e-14
    assert abs(out.sr_i_after.momentum - 0.0) <= 1e-14
    assert abs(out.sr_j_after.energy - 1.0) <= 1e-14
    assert abs(out.sr_j_after.momentum - 1.0) <= 1e-14
    assert out.tachyonic is True
    assert out.sign_flip_i is True and out.sign_flip_j is True

    # exact arithmetic: zero tolerance
    ix = rb.SigmaRho.from_energy_momentum(Fraction(1), Fraction(0))
    jx = rb.SigmaRho.from_energy_momentum(Fraction(-1), Fraction(1))
    outx = rb.resolve_collision(ix, jx)
    assert outx.sr_i_after.energy == Fraction(-1)
    assert outx.sr_i_after.momentum == Fraction(0)
    assert outx.sr_j_after.energy == Fraction(1)
    assert outx.sr_j_after.momentum == Fraction(1)

    elapsed = _best_of(lambda: rb.resolve_collision(i, j))
    assert elapsed < 1e-3
    _report(1, f"worked collision exact; resolve in {elapsed * 1e6:.1f} us")


# --------------------------------------------------------------------------
# 2. conservation suite over 1e5 randomized collisions
# --------------------------------------------------------------------------


def test_02_conservation_suite():
    rng = random.Random(987654321)
    resolved = 0
    while resolved < 100_000:
        coords = [
            rng.choice([-1, 1]) * rng.uniform(0.1, 4.0) for _ in range(4)
        ]
        i = rb.SigmaRho(coords[0], coords[1])
        j = rb.SigmaRho(coords[2], coords[3])
        det = i.sigma * j.rho - j.sigma * i.rho
        if abs(det) <= 1e-6 * (abs(i.sigma * j.rho) + abs(j.sigma * i.rho)):
            continue
        s = i.sigma + j.sigma
        r = i.rho + j.rho
        if abs(s) <= 1e-6 * (abs(i.sigma) + abs(j.sigma)):
            continue
        if abs(r) <= 1e-6 * (abs(i.rho) + abs(j.rho)):
            continue
        if abs(i.energy) < 1e-3 or abs(j.energy) < 1e-3:
            continue
        out = rb.resolve_collision(i, j)
        resolved += 1

        # nearly-degenerate draws amplify the outgoing coordinates, so
        # "relative" must include the magnitudes actually present; for
        # well-conditioned draws that reduces to the input scale
        e_scale = (
            abs(i.energy) + abs(j.energy)
            + abs(out.sr_i_after.energy) + abs(out.sr_j_after.energy)
        )
        p_scale = e_scale + abs(i.momentum) + abs(j.momentum)
        assert (
            abs((out.sr_i_after.energy + out.sr_j_after.energy)
                - (i.energy + j.energy)) <= 1e-12 * e_scale
        )
        assert (
            abs((out.sr_i_after.momentum + out.sr_j_after.momentum)
                - (i.momentum + j.momentum)) <= 1e-12 * p_scale
        )
        conditioned = abs(s) > 1e-3 * (abs(i.sigma) + abs(j.sigma)) and abs(
            r
        ) > 1e-3 * (abs(i.rho) + abs(j.rho))
        if conditioned:
            in_scale = abs(i.energy) + abs(j.energy)
            assert (
                abs((out.sr_i_after.energy + out.sr_j_after.energy)
                    - (i.energy + j.energy)) <= 1e-12 * in_scale
            )
        for before, after in ((i, out.sr_i_after), (j, out.sr_j_after)):
            mu = before.mass_squared
            mscale = abs(before.sigma) * abs(before.rho) + abs(mu)
            assert abs(after.mass_squared - mu) <= 1e-12 * mscale
            # energy sign flips exactly in tachyonic collisions
            if mu >= 0:
                assert (before.energy * after.energy < 0) == (out.s * out.r < 0)
    _report(2, f"{resolved} randomized collisions conserve E, P, mass")


# --------------------------------------------------------------------------
# 3. oracle equivalence: simulation vs reduced map, 50 random configs
# --------------------------------------------------------------------------


def _orbit_amplification(params, sigma0, steps=101):
    """Worst window product of |f'| along the orbit: the factor by which
    one step's rounding noise can grow inside the comparison window."""
    mu, e = float(params.mu), float(params.E_total)
    log_sum = low = worst = 0.0
    sigma = sigma0
    for _ in range(steps):
        denom = 2 * e - sigma
        if abs(denom) < 1e-9 or abs(sigma) < 1e-9:
            return math.inf
        log_sum += math.log(abs(mu / (denom * denom)))
        low = min(low, log_sum)
        worst = max(worst, log_sum - low)
        sigma = mu / denom
    return math.exp(worst)


def sample_mirror_configs(seed, count=50, amp_budget=4e3):
    """Random mirror configurations spanning all discriminant signs,
    screened for float conditioning (orbits grazing the map pole amplify
    rounding noise without bound and are measure-zero hazards)."""
    rng = random.Random(seed)
    configs = []
    regimes = ("elliptic", "parabolic", "hyperbolic")
    while len(configs) < count:
        regime = regimes[len(configs) % 3]
        e = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.8)
        if regime == "elliptic":
            mu = e * e * rng.uniform(1.1, 3.5)
        elif regime == "parabolic":
            mu = e * e
        else:
            mu = e * e * rng.uniform(0.35, 0.9)
        params = rb.MirrorParams(mu, e)
        chosen = None
        for _ in range(100):
            sigma = e * rng.choice([-1, 1]) * rng.uniform(0.25, 1.75)
            if abs(sigma - 2 * e) < 0.25 * abs(e):
                continue
            if params.delta >= 0:
                rt = math.sqrt(params.delta)
                if any(abs(sigma - f) < 0.15 * abs(e) for f in (e - rt, e + rt)):
                    continue
                s_at = e - rt if e > 0 else e + rt
                s_re = e + rt if e > 0 else e - rt
                if abs(s_at / s_re) < 0.1:
                    continue
            if _orbit_amplification(params, sigma) > amp_budget:
                continue
            chosen = sigma
            break
        if chosen is None:
            continue
        try:
            configs.append(rb.mirror_initial(mu, e, chosen, -rng.uniform(0.5, 4.0)))
        except rb.ConfigError:
            continue
    return configs


def test_03_oracle_equivalence_50_configs():
    configs = sample_mirror_configs(777)
    deltas = [float(p.delta) for p, _ in configs]
    assert sum(d < 0 for d in deltas) >= 15
    assert sum(d == 0 for d in deltas) >= 15
    assert sum(d > 0 for d in deltas) >= 15
    worst = 0.0
    for params, state0 in configs:
        report = cross_check(params, state0, 100, tol=1e-9)
        assert report.passed, (params, report.max_dev)
        worst = max(worst, max(report.max_dev.values()))
    _report(3, f"50 configs x 100 collisions, worst deviation {worst:.2e}")


# --------------------------------------------------------------------------
# 4. periodic orbits: three-cycle and quarter-turn family
# --------------------------------------------------------------------------


def test_04_periodic_orbit_reproduction():
    t0 = time.perf_counter()

    params, s0 = rb.mirror_initial(4.0, 1.0, 1.0, -1.0)
    assert params.k == 1.5
    found = rb.period(params)
    assert (found.a, found.b) == (1, 3)
    assert abs(found.T - 12.0) <= 1e-12
    assert found.T == pytest.approx(2 * 1.5 * 3 * 4.0 / (4.0 - 1.0))
    traj = rb.reduced_trajectory(params, s0, 3)
    assert abs((traj[3].t - traj[0].t) - found.T) <= 1e-9 * found.T
    for attr in ("sigma1", "E2", "x1"):
        a, b = getattr(traj[3], attr), getattr(traj[0], attr)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    # the full four-particle simulation closes the cycle at the same time
    billiard = rb.billiard_from_mirror(params, s0)
    _, events = rb.simulate(billiard, max_events=9)
    outer = [e for e in events if e.pair == (0, 1)]
    assert abs(outer[2].t - 12.0) <= 1e-9 * 12.0

    # quarter-turn family mu = 2 E**2: b = 4, T = 16 k
    params2, s2 = rb.mirror_initial(2.0, 1.0, -1.0, -1.0)
    found2 = rb.period(params2)
    assert (found2.a, found2.b) == (1, 4)
    assert found2.T == pytest.approx(16 * float(params2.k))
    traj2 = rb.reduced_trajectory(params2, s2, 4)
    assert abs((traj2[4].t - traj2[0].t) - found2.T) <= 1e-9 * abs(found2.T)
    assert abs(traj2[4].sigma1 - s2.sigma1) <= 1e-9
    assert abs(traj2[4].x1 - s2.x1) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, f"three-cycle T=12 and quarter-turn T={found2.T:g} in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 5. tachyonic-collision classification over a 1000-point grid
# --------------------------------------------------------------------------


def classification_grid():
    """1000 parameter points covering negative, zero and positive
    discriminants, the latter on both sides of the tachyonic criterion.
    Offsets are non-round to avoid landing exactly on pole preimages."""
    points = []
    energies = (1.0, 1.5, -1.0, 0.7, -1.3)
    ell_ratios = (1.0931, 1.3127, 1.6183, 1.9217, 2.3141,
                  2.7183, 3.1089, 3.6241, 4.0313)
    ell_factors = (-1.6181, -1.0774, -0.7239, -0.3542, 0.2618, 0.4473,
                   0.8093, 1.1181, 1.4473, 1.7011, 2.6181, 3.2361)
    for e in energies:
        for ratio in ell_ratios:
            for factor in ell_factors:
                points.append((ratio * e * e, e, factor * e))
    para_factors = (-2.0137, -1.2271, -0.6183, -0.3079, 0.2237, 0.5071,
                    0.7593, 1.3117, 1.5271, 2.4142, 3.0313, 4.0441)
    for e in energies:
        for factor in para_factors:
            points.append((e * e, e, factor * e))
    hyp_ratios = (0.2091, 0.3527, 0.5077, 0.6133, 0.7231, 0.8117,
                  0.9053, 0.9602)
    outside = (1.2541, 1.6183, 2.2361, 3.0077, -1.5271, -2.5133)
    inside = (0.2137, -0.3079, 0.5527, -0.7013)
    for e in energies:
        for ratio in hyp_ratios:
            mu = ratio * e * e
            root = math.sqrt(e * e - mu)
            for c in outside + inside:
                points.append((mu, e, e + c * root))
    return points


def test_05_classification_grid():
    points = classification_grid()
    assert len(points) >= 1000
    by_class = {label: 0 for label in rb.TachyonicCount}
    for mu, e, sigma0 in points:
        params = rb.MirrorParams(mu, e)
        label = rb.classify_tachyonic(params, sigma0)
        count, consecutive = tachyonic_census(params, sigma0, 500)
        if label is rb.TachyonicCount.INFINITELY_MANY:
            assert count > 2, (mu, e, sigma0, count)
        elif label is rb.TachyonicCount.EXACTLY_TWO_CONSECUTIVE:
            assert count == 2, (mu, e, sigma0, count)
            assert consecutive, (mu, e, sigma0)
        else:
            assert count == 0, (mu, e, sigma0, count)
        by_class[label] += 1
    assert all(n > 0 for n in by_class.values())
    _report(
        5,
        "grid of {} points matches empirical counts ({} inf / {} two / {} none)".format(
            len(points),
            by_class[rb.TachyonicCount.INFINITELY_MANY],
            by_class[rb.TachyonicCount.EXACTLY_TWO_CONSECUTIVE],
            by_class[rb.TachyonicCount.NONE],
        ),
    )


# --------------------------------------------------------------------------
# 6. escape asymptotics: limit velocities and vanishing inner energy
# --------------------------------------------------------------------------


def test_06_escape_asymptotics():
    t0 = time.perf_counter()
    for mu, e, sigma0 in (
        (0.75, 1.0, 1.0),
        (0.5, 1.0, 0.7),
        (0.9, 1.5, 1.1 * 1.5),
        (0.3523, 1.0, 1.3),
    ):
        mu = mu * e * e / (e * e)  # keep literal shape; mu given absolute
        params, s0 = rb.mirror_initial(mu, e, sigma0, -1.0)
        assert params.delta > 0
        lv = rb.limit_velocities(params)
        expected_future = -math.sqrt(params.delta) / e
        expected_past = math.sqrt(params.delta) / e
        assert lv.future == pytest.approx(expected_future)
        assert lv.past == pytest.approx(expected_past)
        traj = rb.reduced_trajectory(params, s0, 200, 200)
        v_future = rb.velocity_from_sigma(traj[-1].sigma1, params.mu)
        v_past = rb.velocity_from_sigma(traj[0].sigma1, params.mu)
        assert abs(v_future - expected_future) <= 1e-6
        assert abs(v_past - expected_past) <= 1e-6

    # the flagship case also through the full event simulation
    params, s0 = rb.mirror_initial(0.75, 1.0, 1.0, -1.0)
    billiard = rb.billiard_from_mirror(params, s0)
    _, events = rb.simulate(billiard, max_events=3 * 200)
    last_outer = [e for e in events if e.pair == (0, 1)][-1]
    assert abs(float(last_outer.post[0].velocity) - (-0.5)) <= 1e-6
    traj = rb.reduced_trajectory(params, s0, 200)
    assert abs(traj[200].E2) < 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"escape velocities within 1e-6 at n=200; E2 -> 0 ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 7. motion constant and inner-energy/distance product limits
# --------------------------------------------------------------------------


def test_07_motion_constant_and_product_limits():
    t0 = time.perf_counter()

    # invariance over 1000 collisions, forward and backward
    for mu, e, sigma0 in ((4.0, 1.0, 1.0), (2.3141, 1.0, 0.4473), (0.96, 1.0, 0.6)):
        params, s0 = rb.mirror_initial(mu, e, sigma0, -1.0)
        traj = rb.reduced_trajectory(params, s0, 500, 500)
        assert len(traj) == 1001
        k0 = float(params.k)
        for state in traj:
            k = float(rb.motion_constant(state.x1, state.E2, state.sigma1))
            assert abs(k - k0) <= 1e-10 * max(1.0, abs(k0))

    # product limits for positive discriminant
    params, s0 = rb.mirror_initial(0.75, 1.0, 1.0, -1.0)
    past, future = rb.limit_products(params, s0)
    assert future == pytest.approx(-0.0625)
    assert past == pytest.approx(-0.1875)
    traj = rb.reduced_trajectory(params, s0, 200, 200)
    assert abs(traj[-1].x1 * traj[-1].E2 - future) <= 1e-8
    assert abs(traj[0].x1 * traj[0].E2 - past) <= 1e-8

    # at zero discriminant both limits coincide
    params0, s00 = rb.mirror_initial(1.0, 1.0, 3.0, -1.0)
    past0, future0 = rb.limit_products(params0, s00)
    assert past0 == future0 == pytest.approx(float(params0.k))

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, f"k invariant over 1e3 steps; products converge ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 8. collision-scale bound at every tachyonic collision
# --------------------------------------------------------------------------


def test_08_tachyonic_scale_bound():
    checked = 0
    energies = (1.0, 1.5, -1.0)
    runs = []
    for e in energies:
        for ratio in (1.0931, 1.3127, 1.6183, 1.9217, 2.0):
            for factor in (-1.6181, -0.7239, 0.4473, 1.1181, 2.6181):
                runs.append((ratio * e * e, e, factor * e, 500))
    for e in energies:
        for ratio in (0.3527, 0.6133, 0.8117, 0.9602, 1.0):
            root = math.sqrt(max(e * e - ratio * e * e, 0.0))
            for c in (1.2541, 1.6183, 2.2361, -1.5271):
                sigma0 = e + c * root if root else e * (1 + 0.4142 * c)
                runs.append((ratio * e * e, e, sigma0, 60))

    for mu, e, sigma0, window in runs:
        params, s0 = rb.mirror_initial(mu, e, sigma0, -1.0)
        kappa = rb.kappa_from_initial(s0)
        if kappa <= 0:
            continue
        bound = rb.tachyon_scale_bound(params, kappa)
        for state in rb.reduced_trajectory(params, s0, window, window):
            if rb.tachyonic_predicate(state.sigma1, params):
                checked += 1
                assert state.x1 / s0.x1 <= bound * (1 + 1e-12), (
                    mu, e, sigma0, state.n
                )
    assert checked > 10_000
    _report(8, f"bound holds at all {checked} tachyonic collisions in sweep")


# --------------------------------------------------------------------------
# 9. physical scale estimate for a neutron
# --------------------------------------------------------------------------


def test_09_neutron_scale_estimate(capsys):
    value = rb.estimate_tachyonic_scale(rb.NEUTRON_MASS_KG)
    assert f"{value:.1e}" == "2.5e-54"

    rc = main(["estimate", "--mass", "1.7e-27"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2.5e-54" in out

    elapsed = _best_of(lambda: rb.estimate_tachyonic_scale(1.7e-27))
    assert elapsed < 1e-3
    _report(9, f"2*G*m = {value:.3e} m, printed as 2.5e-54")


# --------------------------------------------------------------------------
# 10. reversibility over 1000 events
# --------------------------------------------------------------------------


def test_10_reversibility():
    # float mode: genuinely rounding-limited orbit near the three-cycle
    params, m0 = rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
    b0 = rb.billiard_from_mirror(params, m0)
    # start the round trip between collisions so the recovery boundary is
    # not itself an event
    t_half = float(rb.next_collisions(b0)[0][1]) / 2
    s0, _ = rb.simulate(b0, "forward", t_limit=t_half)
    s1, forward_log = rb.simulate(s0, "forward", max_events=1000)
    assert len(forward_log) == 1000
    back, backward_log = rb.simulate(s1, "backward", t_limit=s0.t)
    assert len(backward_log) == 1000
    worst = 0.0
    for p, q in zip(s0.particles, back.particles):
        for a, b in ((p.x, q.x), (p.P, q.P), (p.E, q.E)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    assert worst <= 1e-9

    # rational mode: exact recovery
    paramsx, m0x = rb.mirror_initial(
        Fraction(4), Fraction(1), Fraction(1), Fraction(-1), t0=Fraction(0)
    )
    bx = rb.billiard_from_mirror(paramsx, m0x)
    fx, evx = rb.simulate(bx, "forward", max_events=1000)
    assert len(evx) == 1000
    backx, evbx = rb.simulate(fx, "backward", t_limit=Fraction(0))
    assert backx == bx
    assert len(evbx) == 1000

    _report(10, f"float recovery {worst:.2e} over 1000 events; rational exact")
