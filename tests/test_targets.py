"""Interval families: construction, membership, nesting, sampling."""

from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from besicov import IrrationalSpec, interval, member, sample_point, select_levels, targets
from besicov.errors import DepthExceedsProfile, IndexOutOfRange, InvalidDigitPath
from besicov.targets import (
    FAMILIES,
    DigitPath,
    TargetInterval,
    child_span,
    family_kind,
    interval_rows,
)

import oracles


def _contains_point(iv, x):
    """Oracle: membership of x in [0,1) in ``iv`` under the circle identification."""
    return iv.a <= x <= iv.b or iv.a <= x - 1 <= iv.b


def _circle_contained(child, parent):
    """Oracle: closed containment of intervals on the circle (lengths < 1)."""
    return ceil(parent.a - child.a) <= floor(parent.b - child.b)


def test_offsets_level_one(greedy_profile):
    p = greedy_profile.level(1).period
    pp = interval(greedy_profile, "++", 1, 0)
    assert (pp.a, pp.b) == (-p / 12, p / 12)
    mm = interval(greedy_profile, "--", 1, 0)
    assert mm.a == pp.a + p / 2 and mm.b == pp.b + p / 2
    mp_ = interval(greedy_profile, "-+", 1, 0)
    pm = interval(greedy_profile, "+-", 1, 0)
    assert pm.a == mp_.a + p / 2 and pm.b == mp_.b + p / 2


@pytest.mark.parametrize("family", FAMILIES)
def test_length_law(greedy_profile, family):
    lv = greedy_profile.level(2)
    iv = interval(greedy_profile, family, 2, 17)
    assert (iv.b - iv.a) * 6 * lv.cell_count == 1


def test_index_out_of_range(greedy_profile):
    count = greedy_profile.level(1).cell_count
    with pytest.raises(IndexOutOfRange):
        interval(greedy_profile, "++", 1, count)


def test_uniform_spacing_and_gap(greedy_profile):
    lv = greedy_profile.level(1)
    a = interval(greedy_profile, "++", 1, 3)
    b = interval(greedy_profile, "++", 1, 4)
    assert b.a - a.a == lv.period
    gap = b.a - a.b
    assert gap == 5 * lv.period / 6 > lv.period / 2


def test_wrapped_interval_membership(greedy_profile):
    lv = greedy_profile.level(1)
    near_one = 1 - lv.period / 24
    assert member(greedy_profile, "++", near_one, 1).ok
    iv = interval(greedy_profile, "++", 1, 0)
    assert _contains_point(iv, near_one)
    # the last level-2 interval is a child of level-1 interval 0 across the
    # wrap, so its center 1 - P_2 reduces to -P_2 at level 1
    last = greedy_profile.level(2).cell_count - 1
    wrapped = DigitPath(family="++", indices=(0, last), point=Fraction(0), reductions=())
    x, path = sample_point(greedy_profile, "++", wrapped)
    p2 = greedy_profile.level(2).period
    assert x == 1 - p2 and path.reductions == (-p2, 0)


def test_member_against_brute_scan(greedy_profile):
    lv = greedy_profile.level(1)
    tiny = Fraction(1, 10**9)
    for x in (Fraction(1, 2), 1 - lv.period / 24, 1 - lv.period / 12 - tiny, lv.period / 12,
              lv.period / 12 + tiny):
        brute = [
            j
            for j in range(lv.cell_count)
            if _contains_point(interval(greedy_profile, "++", 1, j), x)
        ]
        assert len(brute) <= 1
        assert member(greedy_profile, "++", x, 1).ok == bool(brute), x


def test_member_reports_minimal_failure(greedy_profile):
    # a point inside level 1 but placed in the middle of a level-2 gap
    lv2 = greedy_profile.level(2)
    x = (lv2.period / 2) % 1
    res = member(greedy_profile, "++", x, 4)
    if res.ok:
        pytest.skip("level-2 midpoint happens to be a member")
    first = res.first_fail
    assert member(greedy_profile, "++", x, first - 1).ok


def test_children_counts_level_one(greedy_profile):
    lv1, lv2 = greedy_profile.level(1), greedy_profile.level(2)
    m_formula = Fraction(lv2.cell_count, 12 * lv1.cell_count)
    mbar_formula = Fraction(lv2.cell_count, 6 * lv1.cell_count)
    for j in range(lv1.cell_count):
        jmin, jmax = child_span(greedy_profile, "++", 1, j)
        count = jmax - jmin + 1
        assert count >= 3
        assert m_formula <= count <= mbar_formula + 1


def test_children_match_brute_force(greedy_profile):
    lv2 = greedy_profile.level(2)
    for j in (0, 7, 100):
        parent = interval(greedy_profile, "++", 1, j)
        brute = [
            c
            for c in range(lv2.cell_count)
            if _circle_contained(interval(greedy_profile, "++", 2, c), parent)
        ]
        jmin, jmax = child_span(greedy_profile, "++", 1, j)
        assert sorted(k % lv2.cell_count for k in range(jmin, jmax + 1)) == brute


def test_children_depth_guard(greedy_profile):
    with pytest.raises(DepthExceedsProfile):
        child_span(greedy_profile, "++", greedy_profile.n_max, 0)


def test_sample_point_depth_one_center(greedy_profile):
    x, path = sample_point(greedy_profile, "++", "center", 1)
    assert x == 0 and path.indices == (0,)


@pytest.mark.parametrize("family", FAMILIES)
def test_sample_bands(greedy_profile, tent_profile, family):
    profile = tent_profile if family_kind(family) == "mixed" else greedy_profile
    x, path = sample_point(profile, family, "center", 3)
    assert member(profile, family, x, 3).ok
    for l, red in enumerate(path.reductions, start=1):
        p = profile.level(l).period
        if family == "++":
            assert abs(red) <= p / 12
        elif family == "--":
            assert abs(red - p / 2) <= p / 12
        elif family == "-+":
            assert p / 6 <= red <= p / 3
        else:
            assert 2 * p / 3 <= red <= 5 * p / 6


def test_distinct_paths_distinct_points(greedy_profile):
    x1, p1 = sample_point(greedy_profile, "--", "center", 2)
    x2, p2 = sample_point(greedy_profile, "--", "leftmost", 2)
    assert p1.indices != p2.indices
    assert x1 != x2


def test_path_reconstruction(greedy_profile):
    x, path = sample_point(greedy_profile, "-+", "center", 3)
    x2, path2 = sample_point(greedy_profile, "-+", path, depth=3)
    assert (x2, path2.indices) == (x, path.indices)


@pytest.mark.parametrize("policy", ["center", "leftmost"])
def test_policy_sample_descends_once(monkeypatch, greedy_profile, policy):
    """A depth-D policy sample computes D - 1 child spans through the span
    formula ``child_span`` shares; a caller's path costs D - 1 more, for its
    nesting check."""
    calls = []
    real = targets._children
    monkeypatch.setattr(targets, "_children", lambda *args: calls.append(args) or real(*args))
    _, path = sample_point(greedy_profile, "++", policy, 5)
    assert len(calls) == 4
    calls.clear()
    sample_point(greedy_profile, "++", path)
    assert len(calls) == 4


@pytest.fixture(scope="module")
def unnested_profile(greedy_profile):
    """Level 1 of the greedy profile under a level 2 of one more cell: its
    cells are hardly shorter than level 1's, so most level-1 intervals hold
    no level-2 interval."""
    lv1 = greedy_profile.level(1)
    lv2 = replace(lv1, n=2, a=1, q=lv1.cell_count + 1)
    return replace(greedy_profile, n_max=2, levels=(lv1, lv2))


def test_unnested_profile_has_no_children(unnested_profile):
    """Both routes to the span formula see the empty span: ``child_span``
    returns it, and a sample refuses to descend, by policy or by path.  The
    containment check behind them cannot fire for positive cell counts."""
    c1 = unnested_profile.level(1).cell_count
    assert child_span(unnested_profile, "-+", 1, 0) == (1, 0)
    spans = [child_span(unnested_profile, "-+", 1, j) for j in range(c1)]
    assert sum(jmin <= jmax for jmin, jmax in spans) < c1 // 2
    for policy in ("center", "leftmost"):
        with pytest.raises(InvalidDigitPath, match="no children inside level-1"):
            sample_point(unnested_profile, "-+", policy, 2)
    path = DigitPath(family="-+", indices=(0, 0), point=Fraction(0), reductions=())
    with pytest.raises(InvalidDigitPath, match="not inside level 1"):
        sample_point(unnested_profile, "-+", path)


@cache
def _probe_profile(alpha, strategy, variant):
    return select_levels(IrrationalSpec.from_preset(alpha), strategy, variant, 4)


PROBE_PROFILES = [(alpha, strategy, variant) for alpha in ("golden", "sqrt2m1")
                  for strategy in ("greedy", "fixed") for variant in ("main", "tent")]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_probe_start_matches_oracle(unnested_profile, data):
    """The sensitivity probe's start point, a caller of the one descent, is
    the point its former loop of child picks (``oracles.probe_start``) finds,
    None included: for a delta below every level's period, and on the
    unnested profile, where most intervals hold no child."""
    key = data.draw(st.sampled_from(PROBE_PROFILES) | st.none())
    profile = unnested_profile if key is None else _probe_profile(*key)
    family = data.draw(st.sampled_from(FAMILIES))
    n_levels = data.draw(st.integers(1, profile.n_max))
    x = data.draw(st.fractions(0, 1, max_denominator=10**15))
    delta = Fraction(data.draw(st.integers(1, 999)), 10 ** data.draw(st.integers(0, 40)))
    want = oracles.probe_start(profile, family, n_levels, x, delta)
    assert targets._probe_start(profile, family, n_levels, x, delta) == want


def test_probe_start_finds_none(greedy_profile, unnested_profile):
    """No start point when no level resolves delta, or when the descent from
    the nearest interval meets one with no children."""
    c = greedy_profile.level(greedy_profile.n_max).cell_count
    unresolved = Fraction(1, c)  # below twice every level's period
    assert targets._probe_start(greedy_profile, "++", greedy_profile.n_max, Fraction(1, 3),
                                unresolved) is None
    c1 = unnested_profile.level(1).cell_count
    assert child_span(unnested_profile, "-+", 1, 0) == (1, 0)
    assert targets._probe_start(unnested_profile, "-+", 2, Fraction(0), Fraction(2, c1)) is None
    assert oracles.probe_start(unnested_profile, "-+", 2, Fraction(0), Fraction(2, c1)) is None


def test_invalid_path_rejected(greedy_profile):
    lv2 = greedy_profile.level(2)
    bogus = DigitPath(family="++", indices=(0, lv2.cell_count // 2), point=Fraction(0),
                      reductions=())
    with pytest.raises(InvalidDigitPath):
        sample_point(greedy_profile, "++", bogus)


def test_empty_path_is_an_input_error(greedy_profile):
    empty = DigitPath(family="++", indices=(), point=Fraction(0), reductions=())
    with pytest.raises(InvalidDigitPath, match="at least one index"):
        sample_point(greedy_profile, "++", empty)


def test_depth_guard(greedy_profile):
    n = greedy_profile.n_max
    with pytest.raises(DepthExceedsProfile):
        sample_point(greedy_profile, "++", "center", n + 1)
    # a caller's path past the profile is refused once the levels it has pass
    _, path = sample_point(greedy_profile, "++", "center", n)
    deeper = replace(path, indices=path.indices + (0,))
    with pytest.raises(DepthExceedsProfile, match=f"level {n + 1} outside 1..{n}"):
        sample_point(greedy_profile, "++", deeper)
    with pytest.raises(IndexOutOfRange, match="at level 2"):
        sample_point(greedy_profile, "++", replace(deeper, indices=(0, -1, *path.indices[2:], 0)))


def test_interval_rows_exact(greedy_profile):
    rows = list(interval_rows(greedy_profile, "+-", 1))
    lv = greedy_profile.level(1)
    assert len(rows) == lv.cell_count
    r0 = rows[0]
    iv = interval(greedy_profile, "+-", 1, 0)
    assert Fraction(int(r0["a_num"]), int(r0["a_den"])) == iv.a
    assert Fraction(int(r0["b_num"]), int(r0["b_den"])) == iv.b


def test_circle_containment_wraps():
    parent = TargetInterval(family="++", n=1, j=0, a=Fraction(-1, 24), b=Fraction(1, 24))
    child = TargetInterval(family="++", n=2, j=0, a=Fraction(95, 96), b=Fraction(97, 96))
    assert _circle_contained(child, parent)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_member_matches_reduction_oracle(greedy_profile, tent_profile, data):
    """Membership on integers gives the Fraction formula's verdict and first
    failing level, for sampled points moved by whole twelfths and quarter
    twelfths of a level's period and by whole turns; a sampled path's
    reductions are the formula's."""
    profile = data.draw(st.sampled_from((greedy_profile, tent_profile)))
    family = data.draw(st.sampled_from(FAMILIES))
    depth = data.draw(st.integers(1, profile.n_max))
    _, path = sample_point(profile, family, data.draw(st.sampled_from(("center", "leftmost"))),
                           depth)
    ok, _, entries = oracles.member(profile, family, path.point, depth)
    assert ok and path.reductions == tuple(r for _, r in entries)
    period = profile.level(data.draw(st.integers(1, profile.n_max))).period
    x = (path.point + Fraction(data.draw(st.integers(-48, 48)), 48) * period
         + data.draw(st.integers(-2, 2)))
    up_to = data.draw(st.integers(1, profile.n_max))
    ok, first_fail, _ = oracles.member(profile, family, x, up_to)
    assert member(profile, family, x, up_to) == targets.MemberResult(ok, first_fail)
