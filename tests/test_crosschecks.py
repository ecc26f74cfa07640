"""Dual-route cross-checks: independent re-derivations of certified values.

Each check here recomputes a quantity through a second, structurally
different route (closed-form piecewise arithmetic, the unit-period
``unit_position``/``bump`` pair of ``oracles`` in Fractions, a Fraction
walk along the orbit, or high-precision floats of the underlying quadratic
irrational) and compares against the library's exact machinery, which works
on an integer lattice.
"""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from besicov import (
    IrrationalSpec,
    audit_aligned,
    audit_mixed,
    birkhoff,
    convergent,
    discreteness_scan,
    eval_level,
    make_cocycle,
    member,
    phi,
    phi_m,
    sample_point,
)
from besicov.cf import certify_offset
from besicov.cocycle import _bump_num, term
from besicov.levels import LevelParams
from besicov.targets import FAMILIES, TWELFTHS

import oracles
from oracles import bump


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


CLOSED = {"main": eval_main_closed, "tent": eval_tent_closed}

# both variants on greedy levels and on fixed ones, each cut at 2-4 levels
KERNEL_PROFILES = [
    (strategy, variant, n, n_levels)
    for variant in ("main", "tent")
    for strategy, n, n_levels in (("greedy", 4, 4), ("fixed", 2, 2), ("fixed", 3, 3), ("fixed", 4, 4))
]
ORBIT_XS = (
    Fraction(3, 7),
    Fraction(-22, 7),
    Fraction(-(10**40) // 3, 10**40 + 7),
    Fraction(10**40 // 7, 10**40 + 7),
)


def _kernel_cases(golden, strategy, variant, n, n_levels, seed):
    """The cocycle and a few (x, m): 0, the orbit xs, then random ones, with m
    of either sign."""
    cs = make_cocycle(golden, strategy, variant, n, n_levels=n_levels)
    rng = random.Random(seed)
    xs = [Fraction(0), *ORBIT_XS] + [
        Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(4)
    ]
    return cs, [(x, rng.choice((-1, 1)) * rng.randint(1, 40)) for x in xs]


def _closed_term(lv, variant, x, shift):
    return CLOSED[variant](lv, x + shift) - CLOSED[variant](lv, x)


def test_phi_m_against_closed_form_sum(golden):
    for strategy, variant, n, n_levels in KERNEL_PROFILES:
        cs, cases = _kernel_cases(golden, strategy, variant, n, n_levels, 17)
        for x, m in cases:
            shift = m * cs.alpha_hat
            expected = sum(_closed_term(lv, variant, x, shift) for lv in cs.levels)
            assert phi_m(cs, x, m) == expected, (strategy, variant, n, x, m)


def test_term_phi_and_eval_level_against_closed_forms(golden):
    for strategy, variant, n, n_levels in KERNEL_PROFILES:
        cs, cases = _kernel_cases(golden, strategy, variant, n, n_levels, 23)
        for x, m in cases:
            shift = m * cs.alpha_hat
            for lv in cs.levels:
                assert eval_level(lv, variant, x) == CLOSED[variant](lv, x), (x, lv.n)
                assert term(lv, variant, x, shift) == _closed_term(lv, variant, x, shift), (x, m)
            expected = sum(_closed_term(lv, variant, x, cs.alpha_hat) for lv in cs.levels)
            assert phi(cs, x) == expected, (strategy, variant, n, x)


@given(
    num=st.integers(-(10**40), 10**40),
    den=st.integers(1, 10**40),
    m=st.integers(-(10**6), 10**6),
    tent=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_phi_m_against_bump_oracle(greedy_cocycle, tent_cocycle, num, den, m, tent):
    cs = tent_cocycle if tent else greedy_cocycle
    x = Fraction(num, den)
    assert phi_m(cs, x, m) == oracles.phi_m(cs, x, m)


@pytest.mark.parametrize("variant", ["main", "tent"])
def test_bump_numerators_match_bump_at_the_nodes(variant):
    # the shape changes at 0, 1/12, 5/12, 1/2, 7/12 and 11/12 of a period;
    # check each twelfth and its lattice neighbours, on lattices that do and
    # do not put a point on the node
    peak = Fraction(7, 3)
    for d in [*range(1, 40), 12 * 101, 12 * 10**30 + 12, 12 * 10**30 + 11]:
        for node in range(12):
            r0 = node * d // 12
            for r in range(r0 - 1, r0 + 3):
                if 0 <= r < d:
                    expected = bump(Fraction(r, d), variant, peak)
                    assert Fraction(_bump_num(r, d, variant), 4 * d) * peak == expected, (d, r)


def test_certificate_lane_never_calls_the_fraction_bump(greedy_cocycle, tent_cocycle, monkeypatch):
    import besicov.cocycle as cocycle_mod
    import besicov.dynamics as dynamics_mod

    # the library neither defines nor imports the oracle's evaluator
    for mod in (cocycle_mod, dynamics_mod):
        assert not {"unit_position", "bump"} & set(vars(mod)), mod.__name__
    x, lv, a = Fraction(3, 7), greedy_cocycle.levels[2], greedy_cocycle.alpha_hat
    _, aligned = sample_point(greedy_cocycle.profile, "++", "center", 5)
    _, mixed = sample_point(tent_cocycle.profile, "-+", "center", 6)

    def run():
        return [
            phi(greedy_cocycle, x),
            phi_m(greedy_cocycle, x, -113),
            term(lv, "main", x, 7 * a),
            eval_level(lv, "main", x),
            birkhoff(tent_cocycle, x, 50),
            sample_point(greedy_cocycle.profile, "--", "leftmost", 5),
            audit_aligned(greedy_cocycle, aligned, 1),
            audit_mixed(tent_cocycle, mixed, 83),
            discreteness_scan(tent_cocycle, mixed, 80, 90),
        ]

    expected = run()

    def refuse(*args):
        raise RuntimeError("the certificate lane went through unit_position/bump")

    monkeypatch.setattr(oracles, "unit_position", refuse)
    monkeypatch.setattr(oracles, "bump", refuse)
    assert run() == expected


@pytest.mark.parametrize("strategy, variant", [("greedy", "main"), ("greedy", "tent"), ("fixed", "main")])
def test_member_level_against_fraction_formula(golden, strategy, variant):
    """Membership at one level, decided on integers by ``member`` on a profile
    of that level alone, against the Fraction formula ``oracles.member_level``."""
    profile = make_cocycle(golden, strategy, variant, 3, n_levels=3).profile
    for n in (1, 2, 3):
        c = profile.level(n).cell_count
        alone = oracles.lattice_profile(c)
        tiny = Fraction(1, 12 * c * 10**9)
        for family in FAMILIES:
            lo, hi = TWELFTHS[family]
            for j in sorted({0, 1, c // 2, c - 1}):
                for edge in (Fraction(12 * j + lo, 12 * c), Fraction(12 * j + hi, 12 * c)):
                    # both sides of each band edge, and the same point a turn
                    # away, so the "++" band at j = 0 is crossed at the wrap
                    for x in (edge - tiny, edge, edge + tiny):
                        for y in (x, x + 1, x - 1, x % 1):
                            hit = oracles.member_level(profile, family, n, y)
                            assert member(alone, family, y, 1).ok == (hit is not None), (
                                family, n, j, y)


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
    # certify_offset decides lo < |m (alpha - p_k/q_k)| < hi exactly; a
    # 400-bit float evaluation of the quadratic irrational must agree with the
    # verdict and the sign, and lie inside the distance enclosure
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
                verdict, sign, dist_lo, dist_hi, _ = certify_offset(spec, k, lo, hi, m)
                assert verdict == expected, (preset, k, m, lo, hi)
                assert sign == (1 if alpha > mpf(c.p) / mpf(c.q) else -1)
                assert mpf(dist_lo.numerator) / dist_lo.denominator <= d
                assert d <= mpf(dist_hi.numerator) / dist_hi.denominator


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
