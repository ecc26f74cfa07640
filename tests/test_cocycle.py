"""Bump evaluation, ergodic sums, and the telescoped identity."""

import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from besicov import (
    CocycleSpec,
    IrrationalSpec,
    convergent,
    birkhoff,
    eval_level,
    level_max,
    make_cocycle,
    phi,
    phi_m,
    term,
)
from besicov.cf import _q
from besicov.cocycle import _weights, walk

import oracles

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=10**4)


def test_eval_zero_and_plateau(greedy_cocycle):
    lv = greedy_cocycle.profile.level(1)
    assert eval_level(lv, "main", Fraction(0)) == 0
    assert eval_level(lv, "main", lv.period / 2) == lv.plateau


def test_tent_peak(tent_cocycle):
    lv = tent_cocycle.profile.level(1)
    peak = eval_level(lv, "tent", lv.period / 2)
    assert peak == lv.lam / (2 * lv.q)
    assert level_max(lv, "tent") == peak


def test_evenness_random_rationals(greedy_cocycle):
    lv = greedy_cocycle.profile.level(2)
    rng = random.Random(11)
    for _ in range(20):
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
        assert eval_level(lv, "main", x) == eval_level(lv, "main", lv.period - x)


@pytest.mark.parametrize("variant", ["main", "tent"])
@given(x=fractions_01, y=fractions_01)
@settings(max_examples=40, deadline=None)
def test_lipschitz(golden, variant, x, y):
    lv = make_cocycle(golden, "greedy", variant, 3).profile.level(2)
    fx, fy = eval_level(lv, variant, x), eval_level(lv, variant, y)
    assert abs(fx - fy) <= lv.lam * abs(x - y)


def test_bump_nodes(greedy_cocycle, tent_cocycle):
    nodes = {
        "main": ((0, 0), (Fraction(1, 12), 0), (Fraction(5, 12), 1), (Fraction(1, 2), 1),
                 (Fraction(7, 12), 1), (Fraction(11, 12), 0), (1, 0)),
        "tent": ((0, 0), (Fraction(1, 2), 1), (1, 0)),
    }
    for cs, variant in ((greedy_cocycle, "main"), (tent_cocycle, "tent")):
        for lv in cs.levels:
            peak = level_max(lv, variant)
            assert peak == (lv.plateau if variant == "main" else lv.lam * lv.period / 2)
            for at, height in nodes[variant]:
                assert eval_level(lv, variant, at * lv.period) == height * peak


def test_term_zero_shift(greedy_cocycle):
    lv = greedy_cocycle.profile.level(3)
    assert term(lv, "main", Fraction(5, 17), Fraction(0)) == 0


def test_term_period_invariance(greedy_cocycle):
    lv = greedy_cocycle.profile.level(2)
    x, shift = Fraction(3, 11), greedy_cocycle.alpha_hat
    for k in (1, 5, -3):
        assert term(lv, "main", x + k * lv.period, shift) == term(lv, "main", x, shift)


def test_uniform_bound_per_level(greedy_cocycle):
    rng = random.Random(5)
    gap = Fraction(1, greedy_cocycle.gap)
    for l in range(1, 6):
        lv = greedy_cocycle.profile.level(l)
        budget = lv.lam * gap
        for _ in range(20):
            x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
            t = term(lv, "main", x, greedy_cocycle.alpha_hat)
            assert abs(t) < Fraction(1, l * l) + budget


def test_phi_mod_one(greedy_cocycle):
    x = Fraction(2, 7)
    assert phi(greedy_cocycle, x) == phi(greedy_cocycle, x + 1)


def test_tail_bound(greedy_cocycle):
    assert greedy_cocycle.tail_bound == Fraction(1, greedy_cocycle.n_levels)


def test_phi_m_base_cases(greedy_cocycle):
    x = Fraction(9, 31)
    assert phi_m(greedy_cocycle, x, 0) == 0
    assert phi_m(greedy_cocycle, x, 1) == phi(greedy_cocycle, x)


@pytest.mark.parametrize("fixture", ["greedy_cocycle", "tent_cocycle"])
def test_telescoping_master(fixture, request):
    cs = request.getfixturevalue(fixture)
    rng = random.Random(23)
    for _ in range(4):
        x = Fraction(rng.randint(0, 9999), rng.randint(1, 9999))
        for m in (-30, -7, -1, 2, 13, 30):
            assert phi_m(cs, x, m) == birkhoff(cs, x, m)


@given(
    a=st.integers(-12, 12),
    b=st.integers(-12, 12),
    x=fractions_01,
)
@settings(max_examples=30, deadline=None)
def test_cocycle_identity(greedy_cocycle, a, b, x):
    lhs = phi_m(greedy_cocycle, x, a + b)
    step = (x + a * greedy_cocycle.alpha_hat) % 1
    assert lhs == phi_m(greedy_cocycle, x, a) + phi_m(greedy_cocycle, step, b)


@given(
    num=st.integers(-(10**40), 10**40),
    den=st.integers(1, 10**40),
    steps=st.integers(-300, 300),
    tent=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_walk_steps_the_orbit_on_one_lattice(greedy_cocycle, tent_cocycle, num, den, steps, tent):
    """walks[0] is x + j alpha_hat mod 1 over d, j signed; walks[l] is level l's
    position u_j c_l mod d; every walk yields |steps| + 1 values."""
    cs = tent_cocycle if tent else greedy_cocycle
    x = Fraction(num, den)
    d, walks = walk(cs, x, steps)
    assert d == lcm(x.denominator, cs.alpha_hat.denominator)
    assert len(walks) == cs.n_levels + 1
    us, *levels = [list(w) for w in walks]
    sign = -1 if steps < 0 else 1
    assert [Fraction(u, d) for u in us] == [
        (x + sign * j * cs.alpha_hat) % 1 for j in range(abs(steps) + 1)
    ]
    for lv, rs in zip(cs.levels, levels, strict=True):
        assert rs == [u * lv.cell_count % d for u in us]


@pytest.mark.parametrize("start, steps", [(-1, 1), (1, -1)])
def test_walk_lands_on_zero_as_zero(greedy_cocycle, start, steps):
    """An orbit that reaches x = 0 exactly reads u = 0 there, not u = d."""
    cs = greedy_cocycle
    d, walks = walk(cs, start * cs.alpha_hat, steps)
    assert [Fraction(u, d) for u in walks[0]] == [start * cs.alpha_hat % 1, 0]


def test_half_period_flip(greedy_cocycle):
    # the main bump satisfies f(y) + f(y + P/2) = plateau, which is what makes
    # the "--" audits exact mirrors of the "++" ones
    lv = greedy_cocycle.profile.level(2)
    for y in (Fraction(1, 1000), Fraction(3, 97), Fraction(11, 130), Fraction(0)):
        total = eval_level(lv, "main", y) + eval_level(lv, "main", y + lv.period / 2)
        assert total == lv.plateau


def test_guard_invariant_enforced(golden, greedy_cocycle):
    q_n = greedy_cocycle.alpha_hat.denominator
    assert q_n > greedy_cocycle.guard * max(lv.lam for lv in greedy_cocycle.levels)
    with pytest.raises(ValueError):
        CocycleSpec(
            profile=greedy_cocycle.profile,
            n_levels=greedy_cocycle.n_levels,
            alpha_depth=5,
            alpha_hat=Fraction(5, 8),
            guard=greedy_cocycle.guard,
        )


@pytest.mark.parametrize("variant", ["main", "tent"])
@pytest.mark.parametrize("spec", [IrrationalSpec.from_preset("golden"),
                                  IrrationalSpec.from_preset("sqrt2m1"),
                                  IrrationalSpec(head=(0,), tail=(1, 2))],
                         ids=["golden", "sqrt2m1", "quotients=1,2"])
def test_guard_boundary_matches_fraction_oracle(spec, variant):
    """alpha_depth is the least depth >= 2 with q_N > guard Lambda_max, with
    Lambda_max in Fractions; alpha_hat = 1/floor(guard Lambda_max) is refused
    and 1/(floor(guard Lambda_max) + 1) accepted."""
    for n in (1, 2, 4, 6):
        cs = make_cocycle(spec, "greedy", variant, n)
        bound = cs.guard * max(lv.lam for lv in cs.levels)
        depth = 2
        while convergent(spec, depth).q <= bound:
            depth += 1
        assert cs.alpha_depth == depth, n
        refused = bound.numerator // bound.denominator
        with pytest.raises(ValueError, match="too shallow"):
            replace(cs, alpha_hat=Fraction(1, refused))
        replace(cs, alpha_hat=Fraction(1, refused + 1))  # builds


@pytest.mark.parametrize("count", [0, -2])
def test_make_cocycle_refuses_level_counts_below_one(golden, count):
    # n_levels would otherwise default to n_max + 3 and build levels anyway
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        make_cocycle(golden, "greedy", "main", count)
    with pytest.raises(ValueError, match="n_levels must be >= 1"):
        make_cocycle(golden, "greedy", "main", 4, n_levels=count)
    with pytest.raises(ValueError, match="n_levels must be within the profile's levels"):
        make_cocycle(golden, "greedy", "main", 4).truncated(count)


def test_truncation_is_prefix_sum(greedy_cocycle):
    x, m = Fraction(4, 13), 9
    short = greedy_cocycle.truncated(3)
    full = phi_m(greedy_cocycle, x, m)
    part = phi_m(short, x, m)
    rest = sum(
        term(greedy_cocycle.profile.level(l), "main", x, m * greedy_cocycle.alpha_hat)
        for l in range(4, greedy_cocycle.n_levels + 1)
    )
    assert full == part + rest


def test_substitution_budget_scales(greedy_cocycle):
    assert greedy_cocycle.sub_budget(10) == 10 * greedy_cocycle.sub_budget(1)
    assert greedy_cocycle.sub_budget(3) == sum(
        oracles.sub_budget(greedy_cocycle, 3, [l]) for l in range(1, greedy_cocycle.n_levels + 1)
    )


@given(
    num=st.integers(-(10**40), 10**40),
    den=st.integers(1, 10**40),
    m=st.integers(-400, 400),
    tent=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_phi_m_matches_per_level_fractions(greedy_cocycle, tent_cocycle, num, den, m, tent):
    """The one-Fraction integer sum equals the per-level Fraction sum, on
    both variants, for negative m and for x whose denominator dwarfs q_N."""
    cs = tent_cocycle if tent else greedy_cocycle
    x = Fraction(num, den)
    assert phi_m(cs, x, m) == oracles.phi_m(cs, x, m)
    assert phi(cs, x) == oracles.phi_m(cs, x, 1)
    cut = cs.truncated(1 + abs(m) % cs.n_levels)
    assert phi_m(cut, x, m) == oracles.phi_m(cut, x, m)


@given(m=st.integers(-(10**12), 10**12), tent=st.booleans())
@settings(max_examples=60, deadline=None)
def test_substitution_budgets_match_fraction_products(greedy_cocycle, tent_cocycle, m, tent):
    """Lambda_l |m| / (q_N q_{N+1}) summed on integers equals the product of
    Fractions, for the whole truncation and for each shorter one."""
    cs = tent_cocycle if tent else greedy_cocycle
    assert cs.sub_budget(m) == oracles.sub_budget(cs, m)
    for l in range(1, cs.n_levels + 1):
        assert cs.truncated(l).sub_budget(m) == oracles.sub_budget(cs, m, range(1, l + 1))


CONSTANTS = ("kernel", "lam_sum", "gap")
specs = st.one_of(
    st.sampled_from([IrrationalSpec.from_preset("golden"), IrrationalSpec.from_preset("sqrt2m1")]),
    st.builds(lambda head, tail: IrrationalSpec(head=(0, *head), tail=tuple(tail)),
              st.lists(st.integers(1, 9), max_size=3),
              st.lists(st.integers(1, 9), min_size=1, max_size=3)),
)


def assert_fresh(cs):
    """Each constant cs derives equals a fresh computation over its own levels."""
    n = cs.alpha_depth
    assert cs.kernel == _weights(cs.levels, cs.variant)
    s, total = cs.lam_sum
    assert Fraction(total, s) == sum(lv.lam for lv in cs.levels)
    assert cs.gap == _q(cs.profile.alpha, n) * _q(cs.profile.alpha, n + 1)
    assert cs.sub_budget(7) == oracles.sub_budget(cs, 7)


@given(spec=specs, strategy=st.sampled_from(["fixed", "greedy"]),
       variant=st.sampled_from(["main", "tent"]), n_max=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_cached_constants_are_each_objects_own(spec, strategy, variant, n_max):
    """The kernel, the Lambda sum and the gap equal a fresh computation on
    every truncation, and neither ``truncated`` nor ``replace`` carries the
    parent's values: a new object derives its own when first read."""
    cs = make_cocycle(spec, strategy, variant, n_max)
    assert_fresh(cs)
    for n_levels in range(1, cs.n_levels):
        cut = cs.truncated(n_levels)
        assert not set(CONSTANTS) & cut.__dict__.keys()
        assert_fresh(cut)
    deeper = replace(cs, alpha_depth=cs.alpha_depth + 1,
                     alpha_hat=convergent(spec, cs.alpha_depth + 1).value)
    assert not set(CONSTANTS) & deeper.__dict__.keys()
    assert_fresh(deeper)
    assert deeper.gap != cs.gap


@given(spec=specs)
@settings(max_examples=40, deadline=None)
def test_spec_hash_is_its_quotients(spec):
    """The spec's hash is derived once, equals a fresh spec's, and a replaced
    spec derives its own."""
    assert hash(spec) == hash((spec.head, spec.tail)) == hash(IrrationalSpec(spec.head, spec.tail))
    longer = replace(spec, tail=spec.tail + (1,))
    assert "_hash" not in longer.__dict__
    assert hash(longer) == hash((longer.head, longer.tail))
    assert longer != spec and replace(spec, name="other") != spec
