"""Interval families: construction, membership, nesting, sampling."""

from fractions import Fraction
from math import ceil, floor

import pytest

from besicov import interval, member, sample_point, targets
from besicov.errors import DepthExceedsProfile, IndexOutOfRange, InvalidDigitPath
from besicov.targets import (
    FAMILIES,
    DigitPath,
    TargetInterval,
    child_span,
    family_kind,
    interval_rows,
    member_level,
)


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
    hit = member_level(greedy_profile, "++", 1, near_one)
    assert hit is not None
    j, red = hit
    assert j == 0 and red == -lv.period / 24
    iv = interval(greedy_profile, "++", 1, 0)
    assert _contains_point(iv, near_one)


def test_member_against_brute_scan(greedy_profile):
    lv = greedy_profile.level(1)
    x = Fraction(1, 2)
    brute = [
        j
        for j in range(lv.cell_count)
        if _contains_point(interval(greedy_profile, "++", 1, j), x)
    ]
    hit = member_level(greedy_profile, "++", 1, x)
    assert brute == ([hit[0]] if hit else [])


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
    """A depth-D policy sample computes D - 1 child spans; a caller's path
    costs D - 1 more, for its nesting check."""
    calls = []
    real = targets.child_span
    monkeypatch.setattr(targets, "child_span", lambda *args: calls.append(args) or real(*args))
    _, path = sample_point(greedy_profile, "++", policy, 5)
    assert len(calls) == 4
    calls.clear()
    sample_point(greedy_profile, "++", path)
    assert len(calls) == 4


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
    with pytest.raises(DepthExceedsProfile):
        sample_point(greedy_profile, "++", "center", greedy_profile.n_max + 1)


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
