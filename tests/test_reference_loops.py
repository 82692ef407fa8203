"""The reduced map's loops against their reference form.

The reference below is the census and the state chain written with one
helper call per operation: the pole test through ``near_zero``, the
inverse through its own zero test, the tachyonic predicate as a function,
and a float-range test of every sigma of the census and every x1, E2 and
t of the chain, with x1 = 0 as an underflow, and E2 = 0 going back.
``tachyonic_census`` and ``reduced_trajectory`` write the same arithmetic
out in their loops, so on every input they must give the same values, bit
for bit, and raise the same kind of error.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import relbilliards as rb
from relbilliards import mirror
from relbilliards.errors import ConfigError, PoleError, SimulationError
from relbilliards.numeric import REL_TOL, near_zero, repr_number


def _check_pole(sigma, two_e):
    denom = two_e - sigma
    if near_zero(denom, two_e, sigma):
        raise PoleError(f"pole of reduced map: sigma = {sigma!r} at 2*E_total")
    return denom


def _inverse(sigma, two_e, mu):
    if sigma == 0:
        raise PoleError("inverse map undefined at sigma = 0")
    return two_e - mu / sigma


def _tachyonic(sigma1, two_e):
    return sigma1 * (sigma1 - two_e) > 0


def _finite(value):
    return not isinstance(value, float) or math.isfinite(value)


def _finite_sigma(sigma, n):
    if not _finite(sigma):
        raise SimulationError(
            f"float overflow: sigma = {sigma!r} (at collision index {n})"
        )


def _finite_state(x1, E2, t, n, backward=False):
    if not (_finite(x1) and _finite(t)):
        raise SimulationError(
            f"float overflow: x1 = {x1!r}, t = {t!r} (at collision index {n})"
        )
    if not _finite(E2):
        raise SimulationError(
            f"float overflow: E2 = {E2!r}, x1 = {x1!r} "
            f"(at collision index {n})"
        )
    if backward and E2 == 0:
        raise SimulationError(
            f"float underflow: E2 = {E2!r}, x1 = {x1!r} "
            f"(at collision index {n})"
        )
    if not x1 < 0:
        raise SimulationError(
            f"float underflow: x1 = {x1!r} (at collision index {n})"
        )


def reference_census(params, sigma1_0, steps):
    if sigma1_0 == 0:
        raise ConfigError("sigma1 must be nonzero")
    two_e, mu = 2 * params.E_total, params.mu
    hits = [0] if _tachyonic(sigma1_0, two_e) else []
    ahead = behind = sigma1_0
    for n in range(1, steps + 1):
        ahead = mu / _check_pole(ahead, two_e)
        behind = _inverse(behind, two_e, mu)
        _finite_sigma(ahead, n)
        _finite_sigma(behind, -n)
        if _tachyonic(ahead, two_e):
            hits.append(n)
        if _tachyonic(behind, two_e):
            hits.append(-n)
    hits.sort()
    consecutive = all(b - a == 1 for a, b in zip(hits, hits[1:]))
    return len(hits), consecutive


def _next_state(state, two_e, mu):
    sigma1, x1 = state.sigma1, state.x1
    try:
        denom = _check_pole(sigma1, two_e)
        if sigma1 == 0:
            raise PoleError("x1 update undefined at sigma1 = 0")
    except PoleError as exc:
        raise PoleError(f"{exc} (at collision index {state.n})") from exc
    if sigma1 * sigma1 == 0:
        raise SimulationError(
            f"float underflow: sigma1**2 is zero at sigma1 = {sigma1!r} "
            f"(at collision index {state.n})"
        )
    x1_next = x1 * mu / (sigma1 * sigma1)
    tau = -x1 - x1_next
    e2_next = state.E2 * sigma1 / denom
    _finite_state(x1_next, e2_next, state.t + tau, state.n + 1)
    return rb.MirrorState(
        state.n + 1, mu / denom, e2_next, x1_next, state.t + tau
    )


def _previous_state(state, two_e, mu):
    sigma_prev = _inverse(state.sigma1, two_e, mu)
    if sigma_prev == 0:
        raise PoleError(
            f"backward orbit reached sigma = 0 at collision index "
            f"{state.n - 1}"
        )
    x1_prev = state.x1 * sigma_prev * sigma_prev / mu
    # two_e - sigma_prev is mu / sigma1, taken without the cancellation
    e2_prev = state.E2 * (mu / state.sigma1) / sigma_prev
    tau = -x1_prev - state.x1
    _finite_state(x1_prev, e2_prev, state.t - tau, state.n - 1, True)
    return rb.MirrorState(
        state.n - 1, sigma_prev, e2_prev, x1_prev, state.t - tau
    )


def reference_trajectory(params, initial, n_forward, n_backward):
    res = initial.E2 - mirror.e2_from_sigma(initial.sigma1, params)
    if not near_zero(res, initial.E2, initial.sigma1 / 2, params.E_total):
        raise ConfigError(
            f"initial state violates the energy split (residual {res!r})"
        )
    two_e, mu = 2 * params.E_total, params.mu
    forward = [initial]
    for _ in range(n_forward):
        forward.append(_next_state(forward[-1], two_e, mu))
    backward = [initial]
    for _ in range(n_backward):
        backward.append(_previous_state(backward[-1], two_e, mu))
    return backward[:0:-1] + forward


def _outcome(fn, *args):
    """What a call gave: its value, or its error's type and message.
    Numbers are compared by ``repr``, which tells their type, -0.0 from
    0.0 and every bit of a float."""
    try:
        value = fn(*args)
    except (rb.BilliardError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, list):
        return [
            [s.n, *map(repr_number, (s.sigma1, s.E2, s.x1, s.t))]
            for s in value
        ]
    return value


def _same_census(mu, e_total, sigma1_0, steps=40):
    try:
        params = rb.MirrorParams(mu, e_total)
    except ConfigError:
        return
    got = _outcome(mirror.tachyonic_census, params, sigma1_0, steps)
    want = _outcome(reference_census, params, sigma1_0, steps)
    if isinstance(want, tuple) and isinstance(want[0], type):
        # the same error; the census adds the collision index to a pole
        assert isinstance(got, tuple) and got[0] is want[0], (got, want)
        assert got[1].startswith(want[1]), (got, want)
    else:
        assert got == want


def _same_trajectory(mu, e_total, sigma1_0, steps=40):
    try:
        params, s0 = rb.mirror_initial(mu, e_total, sigma1_0, -1)
    except (rb.BilliardError, ArithmeticError):
        return
    got = _outcome(rb.reduced_trajectory, params, s0, steps, steps)
    assert got == _outcome(reference_trajectory, params, s0, steps, steps)


def _pole_edge():
    """Floats just inside and just outside REL_TOL of the pole at
    2*E_total = 2, from below and from above: the last float that the
    rule takes for the pole and the first one past it, each way."""
    edge = []
    for side in (-1, 1):
        lo, hi = 0, 2**40  # steps of 2**-52 from 2; 0 is at the pole
        while hi - lo > 1:
            mid = (lo + hi) // 2
            sigma = 2 + side * mid * 2.0**-52
            if abs(2 - sigma) <= REL_TOL * (2 + abs(sigma)):
                lo = mid
            else:
                hi = mid
        edge += [2 + side * lo * 2.0**-52, 2 + side * hi * 2.0**-52]
    return edge


PARAMS = [(1, 1), (4, 1), (0.75, 1), (5 / 4, 1), (1, -1), (0.25, 2)]

#: sigma1_0 at 2*E_total = 2, the four floats at the edge of REL_TOL of
#: it, and extreme values
SIGMAS = [2, *_pole_edge(), 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]

#: backward orbits that reach sigma = 0 at collision -1:
#: 2*E_total - mu/sigma1_0 = 0
BACKWARD_ZERO = [(1, 1, 0.5), (5 / 4, 1, 5 / 8), (4, -1, -2)]

#: Niven cycles through the pole. Both ways of (2, 1, 1) and (4/3, 1, 1)
#: fail at the same step, where the forward pole comes first; the backward
#: way of (4/3, 1, 2/3) fails at collision -1, before the forward one.
NIVEN_POLE = [
    (2, 1, 1), (Fraction(4, 3), 1, 1), (Fraction(4, 3), 1, Fraction(2, 3)),
]

#: parameters at the ends of the float range
EXTREME = [
    (5e-324, 1, 1), (1e300, 1, 1), (1, 1e300, 1), (1, 5e-324, 1),
    (5e-324, 1e300, 1), (1e300, 5e-324, 3), (4, 1, 1e300),
]


def _inputs():
    grid = [(mu, e, s) for (mu, e), s in product(PARAMS, SIGMAS)]
    return grid + BACKWARD_ZERO + NIVEN_POLE + EXTREME


@pytest.mark.parametrize("mu, e_total, sigma1_0", _inputs())
@pytest.mark.parametrize("num", [float, Fraction], ids=["float", "Fraction"])
def test_same_as_reference(num, mu, e_total, sigma1_0):
    args = num(mu), num(e_total), num(sigma1_0)
    # exact values from the ends of the float range grow by hundreds of
    # bits a step
    steps = 40 if num is float else 12
    _same_census(*args, steps=steps)
    _same_trajectory(*args, steps=steps)


@pytest.mark.parametrize(
    "types", list(product((float, Fraction), repeat=3)),
    ids=lambda types: "-".join(t.__name__ for t in types),
)
@pytest.mark.parametrize(
    "mu, e_total, sigma1_0",
    [
        (1, 1, 2), (1, 1, 0.5), (4, 1, 1), (0.75, 1, 3), (5 / 4, 1, 5 / 8),
        (0.75, 1, 1.5),
    ],
)
def test_mixed_types_same_as_reference(types, mu, e_total, sigma1_0):
    """Each of mu, E_total and sigma1_0 as a float or a Fraction: the map
    mixes the two, and a step's arithmetic may change type, as from the
    fixed point 3/2 of mu = 3/4, where a float step equals a Fraction
    start in value alone."""
    args = [num(x) for num, x in zip(types, (mu, e_total, sigma1_0))]
    _same_census(*args)
    _same_trajectory(*args)


def test_pole_edge_is_the_rule():
    """Of the edge floats, the inner ones are the pole and the outer ones
    are not, for the census (forward, at collision 0) as for the map."""
    inside_lo, outside_lo, inside_hi, outside_hi = _pole_edge()
    params = rb.MirrorParams(1.0, 1.0)
    for sigma in (inside_lo, inside_hi):
        with pytest.raises(PoleError, match=r"\(at collision index 0\)$"):
            mirror.tachyonic_census(params, sigma, 1)
    for sigma in (outside_lo, outside_hi):
        mirror.tachyonic_census(params, sigma, 1)
        mirror.reduced_map(sigma, params)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e3, max_value=1e3).filter(bool),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_drawn_floats_same_as_reference(mu, e_total, sigma1_0):
    _same_census(mu, e_total, sigma1_0, steps=60)
    _same_trajectory(mu, e_total, sigma1_0, steps=60)


@pytest.mark.parametrize(
    "mu, e_total, sigma1_0",
    [
        (1.0, 1.0, 1e-200),  # sigma1**2 underflows to zero
        (1.0, 1.0, 1e-160),  # x1 overflows at collision 1
        (1e-300, 1.0, 1.0),  # x1 overflows backward
        (1.0, 1.0, 5e-324),  # the census's sigma overflows backward
        (1e300, 1.0, 2 - 1e-9),  # ... and forward
        (1.0, 1.0, 1e200),  # E2 overflows, x1 underflows at collision 1
        (5e-324, 1.0, 10.0),  # x1 underflows at collision 1
        (1e300, 1.0, 5.000000000000001e299),  # E2 overflows backward
        (3e292, 1.0, 1.5000000000000002e292),  # x1 underflows backward
        (1.0, 1e300, 1e10),  # E2 overflows alone at collision 1
    ],
)
def test_float_range_same_as_reference(mu, e_total, sigma1_0):
    """Orbits that leave the float range stop with the reference's
    error, although the loops test fewer values than the reference."""
    _same_census(mu, e_total, sigma1_0)
    _same_trajectory(mu, e_total, sigma1_0)


def test_backward_e2_underflow_same_as_reference():
    """One step back, E2 underflows to zero while x1 = -4e10 is in range:
    the loop's error is the reference's."""
    params, s0 = rb.mirror_initial(1e-310, 1.0, 2 - 2**-51, -1e-300)
    got = _outcome(rb.reduced_trajectory, params, s0, 0, 3)
    assert got == _outcome(reference_trajectory, params, s0, 0, 3)
    assert got[0] is SimulationError and "E2 = 0.0" in got[1]


#: the tachyon-scan grid of the cli_float benchmark workload
CLI_GRID = list(product(
    (0.25, 0.5, 1.0, 2.0, 4.0), (-1.0, 1.0), (-3.0, -0.7, 0.3, 1.3, 3.0)
))


@pytest.mark.parametrize(
    "mu, e_total, sigma1_0",
    CLI_GRID + [(Fraction(3, 4), Fraction(1), Fraction(3, 2))],
)
def test_stationary_orbits_same_as_reference(mu, e_total, sigma1_0):
    """At 1000 steps, where the float orbits of mu = 0.25 and 0.5 settle
    on a fixed point each way, and from the exact fixed point 3/2 of mu =
    3/4, the census that stops there counts what the reference does."""
    _same_census(mu, e_total, sigma1_0, steps=1000)


def test_census_stops_on_a_fixed_point(monkeypatch):
    """The float orbit of mu = 0.25, E_total = 1 through sigma1_0 = 3
    stands on a fixed point, bit for bit, within 30 steps each way, and
    the exact fixed point 3/2 of mu = 3/4 after one step each way; the
    census of 1000 steps takes no more: the forward steps counted as pole
    tests, the backward ones as the divisions of mu left over."""
    forward = 0
    check_pole = mirror._check_pole

    def counting(*args):
        nonlocal forward
        forward += 1
        return check_pole(*args)

    monkeypatch.setattr(mirror, "_check_pole", counting)
    F = Fraction
    for num, mu, e_total, sigma1_0, most in [
        (float, 0.25, 1.0, 3.0, 30),
        (Fraction, F(3, 4), F(1), F(3, 2), 1),
    ]:
        class Mu(num):
            divisions = 0

            def __truediv__(self, other):
                Mu.divisions += 1
                return num.__truediv__(self, other)

        forward = 0
        params = rb.MirrorParams(Mu(mu), e_total)
        got = mirror.tachyonic_census(params, sigma1_0, 1000)
        assert got == reference_census(
            rb.MirrorParams(mu, e_total), sigma1_0, 1000
        )
        assert 0 < forward <= most
        assert 0 < Mu.divisions - forward <= most


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
def test_no_fixed_point_is_a_hit(e, share, negative):
    """Wherever the census's forward or backward step returns its float
    input bit for bit, at a fixed point of mu = share*E_total**2 > 0 (delta
    >= 0, either sign of E_total) as ``_fixed_pair`` computes it or up to 4
    ulps from it, the tachyonic predicate is false there: the census,
    which stops such a way, leaves no hit uncounted."""
    mu = share * e * e
    e_total = -e if negative else e
    assume(mu > 0)
    params = rb.MirrorParams(mu, e_total)
    assume(params.delta >= 0)
    two_e = 2 * e_total
    for root in mirror._fixed_pair(params):
        around = [root.real]
        for toward in -math.inf, math.inf:
            s = root.real
            for _ in range(4):
                s = math.nextafter(s, toward)
                around.append(s)
        for s in around:
            steps = []
            try:
                steps.append(mu / mirror._check_pole(s, two_e))
            except PoleError:
                pass
            try:
                steps.append(two_e - mu / s)
            except ZeroDivisionError:
                pass
            if any(out.hex() == s.hex() for out in steps):
                assert not s * (s - two_e) > 0, (mu, e_total, s)


def test_census_failing_behind_steps_ahead_no_further(monkeypatch):
    """The exact orbit of mu = 5/4, E_total = 1 through sigma1_0 = 5/8
    reaches sigma = 0 at collision -1: the census of 5000 steps raises
    there, as the reference does, having stepped forward at most twice."""
    forward = 0
    check_pole = mirror._check_pole

    def counting(*args):
        nonlocal forward
        forward += 1
        return check_pole(*args)

    monkeypatch.setattr(mirror, "_check_pole", counting)
    params = rb.MirrorParams(Fraction(5, 4), Fraction(1))
    with pytest.raises(PoleError, match=r"\(at collision index -1\)$"):
        mirror.tachyonic_census(params, Fraction(5, 8), 5000)
    assert 0 < forward <= 2
