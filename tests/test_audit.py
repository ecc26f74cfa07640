"""Divergence audits: windows, aligned/mixed reports, scans."""

from fractions import Fraction
from math import ceil, floor
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from besicov import (
    audit_aligned,
    audit_mixed,
    discreteness_scan,
    phi_m,
    sample_point,
    window,
)
from besicov.errors import BelowFirstWindow, DepthExceedsProfile, WindowBeyondProfile

import oracles


def window_integers(w):
    return range(ceil(w.lo), ceil(w.hi))


def test_aligned_windows_unit_m(greedy_cocycle):
    w = window(greedy_cocycle.profile, "aligned", 1)
    assert w.n == 3
    lv2, lv3 = greedy_cocycle.profile.level(2), greedy_cocycle.profile.level(3)
    assert w.lo == Fraction(lv2.q_next, 2 * lv2.a)
    assert w.hi == Fraction(lv3.q_next, 2 * lv3.a)
    assert window(greedy_cocycle.profile, "aligned", -1).n == 3


def test_aligned_window_two_holds_no_integers(greedy_cocycle):
    lv1, lv2 = greedy_cocycle.profile.level(1), greedy_cocycle.profile.level(2)
    lo = Fraction(lv1.q_next, 2 * lv1.a)
    hi = Fraction(lv2.q_next, 2 * lv2.a)
    assert ceil(lo) == ceil(hi)  # empty integer range


def test_windows_partition(tent_cocycle):
    seen = {}
    for m in range(2, 200):
        w = window(tent_cocycle.profile, "mixed", m)
        assert w.lo <= m < w.hi
        seen.setdefault(w.n, []).append(m)
    ns = sorted(seen)
    assert ns == list(range(ns[0], ns[-1] + 1))


def test_mixed_first_window_bounds(tent_cocycle):
    lv1, lv2 = tent_cocycle.profile.level(1), tent_cocycle.profile.level(2)
    w = window(tent_cocycle.profile, "mixed", 2)
    assert w.n == 1
    assert w.lo == Fraction(lv1.q_next, 12)
    assert w.hi == Fraction(lv2.q_next, 12)
    # the 18x growth guarantees the window holds integers
    assert len(list(window_integers(w))) == ceil(w.hi) - ceil(w.lo) > 0


def test_window_errors(tent_cocycle, greedy_cocycle):
    with pytest.raises(BelowFirstWindow):
        window(tent_cocycle.profile, "mixed", 1)
    with pytest.raises(WindowBeyondProfile):
        window(greedy_cocycle.profile, "aligned", 10**9, n_limit=3)


def test_aligned_audit_passes(greedy_cocycle):
    x, path = sample_point(greedy_cocycle.profile, "++", "center", 5)
    for m in (1, -1):
        rep = audit_aligned(greedy_cocycle, path, m)
        assert rep.status == "pass"
        assert rep.n_of_m == 3
        assert all(r.value >= 0 and r.sign_ok for r in rep.rows)
        pivot = next(r for r in rep.rows if r.l == 3)
        assert pivot.bound_ok and pivot.value > rep.certified_lower > 0
        assert rep.total >= pivot.value
        assert rep.total == phi_m(greedy_cocycle, x, m)


def test_aligned_audit_mirror(greedy_cocycle):
    xm, pm = sample_point(greedy_cocycle.profile, "--", "center", 5)
    rep = audit_aligned(greedy_cocycle, pm, 1)
    assert rep.status == "pass" and rep.expected_sign == -1
    assert all(r.value <= 0 for r in rep.rows)
    assert rep.total < -rep.certified_lower < 0


def test_aligned_certified_bound_formula(greedy_cocycle):
    _, path = sample_point(greedy_cocycle.profile, "++", "center", 5)
    rep = audit_aligned(greedy_cocycle, path, 1)
    lv = greedy_cocycle.profile.level(3)
    bound = Fraction(lv.q_next, 75 * lv.a * 9)
    assert rep.certified_lower == bound - greedy_cocycle.sub_budget_level(3, 1)


def test_aligned_depth_requirement(greedy_cocycle):
    _, shallow = sample_point(greedy_cocycle.profile, "++", "center", 3)
    with pytest.raises(DepthExceedsProfile):
        audit_aligned(greedy_cocycle, shallow, 1)


def test_aligned_rejects_mixed_family(tent_cocycle):
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 4)
    with pytest.raises(ValueError):
        audit_aligned(tent_cocycle, path, 5)


@pytest.mark.parametrize("family", ("++", "--"))
def test_aligned_refused_on_tent_variant(tent_cocycle, family):
    _, path = sample_point(tent_cocycle.profile, family, "center", 6)
    with pytest.raises(ValueError, match="not certified on the tent variant"):
        audit_aligned(tent_cocycle, path, 11)


def top_of_window(w):
    top = ceil(w.hi) - 1
    assert w.lo <= top < w.hi
    return top


def test_mixed_audit_top_of_window(tent_cocycle):
    x, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    for n_target in (2, 3):
        lv = tent_cocycle.profile.level(n_target + 1)
        top = ceil(Fraction(lv.q_next, 12 * lv.a)) - 1
        rep = audit_mixed(tent_cocycle, path, top)
        assert rep.n_of_m == n_target
        assert rep.status == "pass"
        assert rep.net_lower > 0
        tail_rows = [r for r in rep.rows if r.l > n_target]
        assert all(r.sign_ok and r.bound_ok for r in tail_rows)


def test_mixed_audit_bottom_is_indeterminate_not_failed(tent_cocycle):
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    rep = audit_mixed(tent_cocycle, path, 83)
    assert rep.n_of_m == 2
    assert rep.status == "indeterminate"
    assert all(r.sign_ok for r in rep.rows if r.l > 2)
    assert rep.net_lower <= 0 < rep.tail_abs


def test_mixed_sign_law(tent_cocycle):
    x, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    k1 = tent_cocycle.profile.level(1).k
    assert k1 % 2 == 0
    rep_pos = audit_mixed(tent_cocycle, path, 3863)
    rep_neg = audit_mixed(tent_cocycle, path, -3863)
    assert rep_pos.expected_sign == 1 and rep_neg.expected_sign == -1
    assert rep_pos.total > 0 > rep_neg.total


def test_mixed_magnitude_bound_formula(tent_cocycle):
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    rep = audit_mixed(tent_cocycle, path, 3863)
    lv2 = tent_cocycle.profile.level(2)
    for r in rep.rows:
        if r.l > 2:
            raw = Fraction(lv2.q_next, 24 * lv2.a * r.l * r.l)
            assert r.bound == raw - tent_cocycle.sub_budget_level(r.l, 3863)
            assert abs(r.value) > r.bound


def test_mixed_rejects_m_zero(tent_cocycle):
    _, path = sample_point(tent_cocycle.profile, "+-", "center", 6)
    with pytest.raises(BelowFirstWindow):
        audit_mixed(tent_cocycle, path, 0)


def test_report_serialization(tent_cocycle):
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    rep = audit_mixed(tent_cocycle, path, 100)
    d = rep.as_dict()
    assert d["m"] == 100 and d["kind"] == "mixed"
    assert Fraction(d["total"]) == rep.total
    rows = rep.csv_rows()
    assert {"m", "n_of_m", "l", "term", "sign", "bound", "pass"} == set(rows[0])
    assert len(rows) == rep.levels_audited


def test_scan_minima_positive(tent_cocycle):
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    table = discreteness_scan(tent_cocycle, path, -5, 120)
    assert 0 in table.skipped and 1 in table.skipped
    assert set(table.window_minima) == {1, 2}
    assert all(v > 0 for v in table.window_minima.values())
    assert table.bounds_nondecreasing
    # every entry's |phi_m| was computed exactly; spot-check one
    e = next(e for e in table.entries if e.m == 100)
    assert e.abs_total == abs(phi_m(tent_cocycle, path.point, 100))


def test_mixed_audit_on_main_variant(golden):
    from besicov import make_cocycle

    cs = make_cocycle(golden, "greedy", "main", 12, n_levels=12)
    _, path = sample_point(cs.profile, "-+", "center", 11)
    rep = audit_mixed(cs, path, 1)
    assert rep.n_of_m == 8
    assert rep.status in ("pass", "indeterminate")  # sign/magnitude never fail
    tail_rows = [r for r in rep.rows if r.l > rep.n_of_m]
    assert tail_rows and all(r.sign_ok and r.bound_ok for r in tail_rows)


def test_scan_aligned_reports_bound_dip(greedy_cocycle, golden):
    from besicov import make_cocycle

    cs = make_cocycle(golden, "greedy", "main", 10, n_levels=10)
    _, path = sample_point(cs.profile, "++", "center", 10)
    table = discreteness_scan(cs, path, -4, 4)
    assert set(table.window_minima) == {3, 5, 7, 8}
    assert all(v > 0 for v in table.window_minima.values())
    # the aligned certified bound (4/3)^n / n^2 still dips at these small n;
    # the scan reports that honestly instead of asserting monotonicity
    assert table.bounds_nondecreasing is False


def test_audit_rejects_fake_path(greedy_cocycle):
    from besicov.targets import DigitPath

    fake = DigitPath(family="++", indices=(0,) * 5, point=Fraction(1, 2),
                     reductions=(Fraction(0),) * 5)
    with pytest.raises(ValueError):
        audit_aligned(greedy_cocycle, fake, 1)


def assert_window_matches_scan(profile, kind, m, n_limit=None):
    """window() gives the Fraction scan's index, or its exception type and message."""
    try:
        want = oracles.window(profile, kind, m, n_limit)
    except (BelowFirstWindow, WindowBeyondProfile) as exc:
        with pytest.raises(BelowFirstWindow if isinstance(exc, BelowFirstWindow)
                           else WindowBeyondProfile) as got:
            window(profile, kind, m, n_limit)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert window(profile, kind, m, n_limit) == want


@st.composite
def edge_profiles(draw):
    """(kind, profile) whose window edges q_{k_n+1}/(den A_n) are drawn
    strictly rising, integers among them, so |m| can sit exactly on one."""
    kind = draw(st.sampled_from(("aligned", "mixed")))
    den = 2 if kind == "aligned" else 12
    edges = sorted(set(draw(st.lists(
        st.one_of(st.integers(1, 400).map(Fraction),
                  st.fractions(Fraction(1, 3), 400, max_denominator=40)),
        min_size=1, max_size=7,
    ))))
    levels = []
    for e in edges:
        k = draw(st.integers(1, 9))
        levels.append(SimpleNamespace(q_next=e.numerator * den * k, a=e.denominator * k))
    return kind, SimpleNamespace(n_max=len(levels), level=lambda n: levels[n - 1])


@given(
    drawn=edge_profiles(),
    pick=st.integers(0, 6),
    delta=st.integers(-1, 1),
    sign=st.sampled_from((1, -1)),
    n_limit=st.one_of(st.none(), st.integers(1, 8)),
)
@settings(max_examples=300, deadline=None)
def test_window_matches_edge_scan(drawn, pick, delta, sign, n_limit):
    kind, profile = drawn
    edge = oracles._window_edge(profile.level(1 + pick % profile.n_max), kind)
    assert_window_matches_scan(profile, kind, sign * (floor(edge) + delta), n_limit)


@pytest.mark.parametrize("fixture", ["greedy_cocycle", "tent_cocycle"])
@pytest.mark.parametrize("kind", ["aligned", "mixed"])
def test_window_matches_edge_scan_around_every_edge(fixture, kind, request):
    profile = request.getfixturevalue(fixture).profile
    for n in range(1, profile.n_max + 1):
        edge = oracles._window_edge(profile.level(n), kind)
        for m in range(floor(edge) - 2, floor(edge) + 3):
            assert_window_matches_scan(profile, kind, m)
            assert_window_matches_scan(profile, kind, -m, n_limit=n)
