"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

import relbilliards as rb


def finite_floats(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def nonzero_floats(draw, lo: float = 0.1, hi: float = 4.0):
    mag = draw(finite_floats(lo, hi))
    sign = draw(st.sampled_from((1.0, -1.0)))
    return sign * mag


@st.composite
def bradyon_states(draw, label: int = 0):
    """Massive particle with |v| < 1 and consistent stored mu."""
    E = draw(nonzero_floats(0.2, 3.0))
    v = draw(finite_floats(-0.95, 0.95))
    P = E * v
    return rb.ParticleState(E=E, P=P, mu=E * E - P * P, x=0.0, label=label)


@st.composite
def tachyon_states(draw, label: int = 0):
    """Particle with |v| > 1 (negative squared mass)."""
    E = draw(nonzero_floats(0.2, 2.0))
    v = draw(nonzero_floats(1.05, 4.0))
    P = E * v
    return rb.ParticleState(E=E, P=P, mu=E * E - P * P, x=0.0, label=label)


@st.composite
def any_particle(draw, label: int = 0):
    kind = draw(st.sampled_from(("bradyon", "tachyon", "massless")))
    if kind == "bradyon":
        return draw(bradyon_states(label))
    if kind == "tachyon":
        return draw(tachyon_states(label))
    E = draw(nonzero_floats(0.2, 3.0))
    direction = draw(st.sampled_from((1, -1)))
    return rb.massless(E, direction, x=0.0, label=label)


@st.composite
def sigma_rho_pairs(draw):
    """Two light-cone states forming a resolvable, nondegenerate collision."""
    from hypothesis import assume

    coords = [draw(nonzero_floats(0.1, 4.0)) for _ in range(4)]
    i = rb.SigmaRho(coords[0], coords[1])
    j = rb.SigmaRho(coords[2], coords[3])
    det = i.sigma * j.rho - j.sigma * i.rho
    scale = abs(i.sigma * j.rho) + abs(j.sigma * i.rho)
    assume(abs(det) > 1e-6 * scale)
    s = i.sigma + j.sigma
    r = i.rho + j.rho
    assume(abs(s) > 1e-6 * (abs(i.sigma) + abs(j.sigma)))
    assume(abs(r) > 1e-6 * (abs(i.rho) + abs(j.rho)))
    assume(abs(i.energy) > 1e-6 and abs(j.energy) > 1e-6)
    return i, j


@st.composite
def rational_sigma_rho_pairs(draw):
    from hypothesis import assume

    def coord():
        return draw(
            st.fractions(
                min_value=Fraction(-4),
                max_value=Fraction(4),
                max_denominator=16,
            )
        )

    vals = []
    for _ in range(4):
        c = coord()
        assume(c != 0)
        vals.append(c)
    i = rb.SigmaRho(vals[0], vals[1])
    j = rb.SigmaRho(vals[2], vals[3])
    assume(i.sigma * j.rho - j.sigma * i.rho != 0)
    assume(i.sigma + j.sigma != 0)
    assume(i.rho + j.rho != 0)
    assume(i.energy != 0 and j.energy != 0)
    return i, j


def relative_error(a, b) -> float:
    return abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)), 1e-300)


def make_mirror_case(mu, e_total, sigma1_0, x1_0=-1.0):
    return rb.mirror_initial(mu, e_total, sigma1_0, x1_0)


def bradyon_gas(seed: int, n: int) -> rb.BilliardState:
    """Bradyon gas: sorted uniform positions in [0, n], E in [0.5, 2],
    v in [-0.9, 0.9] (the recipe of the benchmark's gas_float workload)."""
    rng = random.Random(seed)
    xs = sorted(rng.uniform(0.0, n) for _ in range(n))
    particles = []
    for label, x in enumerate(xs):
        E = rng.uniform(0.5, 2.0)
        P = E * rng.uniform(-0.9, 0.9)
        particles.append(rb.ParticleState(E, P, E * E - P * P, x, label))
    return rb.BilliardState(tuple(particles), 0.0)
