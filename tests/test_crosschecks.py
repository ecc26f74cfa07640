"""Dual-route cross-checks: independent re-derivations of certified values.

Each check here recomputes a quantity through a second, structurally
different route (closed-form piecewise arithmetic, a Fraction walk along the
orbit, or high-precision floats of the underlying quadratic irrational) and
compares against the library's exact machinery.
"""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from besicov import (
    IrrationalSpec,
    birkhoff,
    convergent,
    eval_level,
    make_cocycle,
    phi,
    phi_m,
)
from besicov.audit import _certify_shift_window
from besicov.levels import LevelParams


def eval_main_closed(lv: LevelParams, x: Fraction) -> Fraction:
    """The flat-top bump via its defining three-branch formula."""
    p = lv.period
    y = x - floor(x / p) * p
    if y > p / 2:
        y = p - y
    if y <= p / 12:
        return Fraction(0)
    if y <= 5 * p / 12:
        return lv.lam * (y - p / 12)
    return lv.plateau


def eval_tent_closed(lv: LevelParams, x: Fraction) -> Fraction:
    p = lv.period
    y = x - floor(x / p) * p
    if y > p / 2:
        y = p - y
    return lv.lam * y


def test_eval_against_closed_forms(golden):
    cs = make_cocycle(golden, "greedy", "main", 4)
    ct = make_cocycle(golden, "greedy", "tent", 4)
    rng = random.Random(99)
    for _ in range(200):
        x = Fraction(rng.randint(-10**7, 10**7), rng.randint(1, 10**6))
        for lv in cs.levels[:4]:
            assert eval_level(lv, "main", x) == eval_main_closed(lv, x)
        for lv in ct.levels[:4]:
            assert eval_level(lv, "tent", x) == eval_tent_closed(lv, x)


def test_phi_m_against_closed_form_sum(golden):
    cs = make_cocycle(golden, "greedy", "main", 4, n_levels=4)
    rng = random.Random(17)
    for _ in range(10):
        x = Fraction(rng.randint(0, 999), rng.randint(1, 999))
        m = rng.randint(-40, 40)
        shift = m * cs.alpha_hat
        expected = sum(
            eval_main_closed(lv, x + shift) - eval_main_closed(lv, x)
            for lv in cs.levels
        )
        assert phi_m(cs, x, m) == expected


def birkhoff_fraction_orbit(cs, x: Fraction, m: int) -> Fraction:
    """The m-th ergodic sum as a Fraction walk: phi at every orbit point."""
    a = cs.alpha_hat
    total = Fraction(0)
    y = x
    if m >= 0:
        for _ in range(m):
            total += phi(cs, y)
            y = (y + a) % 1
    else:
        for _ in range(-m):
            y = (y - a) % 1
            total -= phi(cs, y)
    return total


ORBIT_XS = (
    Fraction(3, 7),
    Fraction(-22, 7),
    Fraction(-(10**40) // 3, 10**40 + 7),
    Fraction(10**40 // 7, 10**40 + 7),
)


# fixed profiles cut at n levels: q_N is 42 / 69 / 107 bits at n = 2 / 3 / 4
@pytest.mark.parametrize("variant", ["main", "tent"])
@pytest.mark.parametrize(
    "strategy, n, n_levels", [("greedy", 5, None), ("fixed", 2, 2), ("fixed", 3, 3), ("fixed", 4, 4)]
)
def test_birkhoff_against_fraction_orbit(golden, variant, strategy, n, n_levels):
    cs = make_cocycle(golden, strategy, variant, n, n_levels=n_levels)
    for x in ORBIT_XS:
        for m in (0, 1, -1, 2, -2, 113, -113):
            assert birkhoff(cs, x, m) == birkhoff_fraction_orbit(cs, x, m), (x, m)


@given(
    num=st.integers(-(10**40), 10**40),
    den=st.integers(1, 10**40),
    m=st.integers(-200, 200),
    tent=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_birkhoff_property(greedy_cocycle, tent_cocycle, num, den, m, tent):
    cs = tent_cocycle if tent else greedy_cocycle
    x = Fraction(num, den)
    assert birkhoff(cs, x, m) == birkhoff_fraction_orbit(cs, x, m)


# the Fraction walk is too slow this far out; phi_m telescopes instead
@pytest.mark.parametrize(
    "fixture, m",
    [("greedy_cocycle", 10**5), ("tent_cocycle", -(10**5)), ("greedy_cocycle", -(10**6))],
)
def test_birkhoff_large_m_against_phi_m(fixture, m, request):
    cs = request.getfixturevalue(fixture)
    x = Fraction(-5, 13)
    assert birkhoff(cs, x, m) == phi_m(cs, x, m)


def _alpha_mpf(preset: str) -> mpf:
    if preset == "golden":
        return (mp.sqrt(5) - 1) / 2
    return mp.sqrt(2) - 1


def test_bracket_certificates_against_high_precision_alpha():
    # the bracket route decides lo < |m (alpha - p_k/q_k)| < hi exactly;
    # a 400-bit float evaluation of the quadratic irrational must agree
    rng = random.Random(3)
    with mp.workprec(400):
        for preset in ("golden", "sqrt2m1"):
            spec = IrrationalSpec.from_preset(preset)
            alpha = _alpha_mpf(preset)
            for _ in range(40):
                k = rng.randint(3, 25)
                m = rng.randint(1, 10**6)
                c = convergent(spec, k)
                d = abs(m * (alpha - mpf(c.p) / mpf(c.q)))
                # pick bounds that straddle or miss the value, away from ties
                lo = Fraction(rng.randint(1, 50), rng.randint(51, 1000))
                hi = lo + Fraction(rng.randint(1, 20), 7)
                lo_f = mpf(lo.numerator) / mpf(lo.denominator)
                hi_f = mpf(hi.numerator) / mpf(hi.denominator)
                if min(abs(d - lo_f), abs(d - hi_f)) < mpf(10) ** -40:
                    continue  # too close for the float oracle to vouch
                expected = bool(lo_f < d < hi_f)
                got = _certify_shift_window(
                    make_cocycle(spec, "greedy", "main", 1).profile, k, m, lo, hi
                )
                assert got == expected, (preset, k, m, lo, hi)


def test_gap_distances_against_high_precision_alpha(golden):
    from besicov import gap_bounds_check

    with mp.workprec(400):
        alpha = _alpha_mpf("golden")
        for n in range(1, 25):
            cert = gap_bounds_check(golden, n)
            c = convergent(golden, n)
            d = abs(alpha - mpf(c.p) / mpf(c.q))
            lo = mpf(cert.distance_lo.numerator) / mpf(cert.distance_lo.denominator)
            hi = mpf(cert.distance_hi.numerator) / mpf(cert.distance_hi.denominator)
            assert lo <= d <= hi
