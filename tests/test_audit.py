"""Divergence audits: windows, aligned/mixed reports, scans."""

import importlib
from dataclasses import replace
from fractions import Fraction
from math import ceil, floor
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from besicov import (
    audit,
    audit_aligned,
    audit_mixed,
    convergent,
    discreteness_scan,
    make_cocycle,
    phi_m,
    sample_point,
    window,
)
from besicov.errors import (BelowFirstWindow, BesicovError, DepthExceedsProfile,
                            WindowBeyondProfile)
from besicov.targets import FAMILIES, DigitPath, family_kind

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
    assert rep.certified_lower == bound - oracles.sub_budget(greedy_cocycle, 1, [3])


def test_aligned_indeterminate_when_budget_swallows_pivot(golden, greedy_cocycle):
    # alpha_hat at depth 10 (allowed by guard 0) leaves a substitution budget
    # larger than the pivot bound q_{k_3+1}/(75 A_3 9)
    cs = replace(greedy_cocycle, guard=0, alpha_depth=10, alpha_hat=convergent(golden, 10).value)
    _, path = sample_point(cs.profile, "++", "center", 5)
    rep = audit_aligned(cs, path, 1)
    assert rep.status == "indeterminate" and rep.certified_lower < 0
    assert rep.notes == ["substitution budget swallows the pivot bound"]
    assert rep.as_dict() == oracles.audit(cs, path, 1).as_dict()


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
            assert r.bound == raw - oracles.sub_budget(tent_cocycle, 3863, [r.l])
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


# the integer scan and ledgers against the per-m scan and the Fraction ledgers

#: the package re-exports the function audit() under the submodule's name
audit_mod = importlib.import_module("besicov.audit")


def same_outcome(run, oracle):
    """The library's result as a dict equals the oracle's, or both raise the
    same exception type with the same message."""
    try:
        want = oracle()
    except (BesicovError, ValueError) as exc:
        with pytest.raises((BesicovError, ValueError)) as got:
            run()
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert run().as_dict() == want.as_dict()


@pytest.fixture(scope="module")
def main10(golden):
    return make_cocycle(golden, "greedy", "main", 10, n_levels=10)


def draw_path(data, cocycles):
    """(cocycle, path, lo, hi): a cocycle, possibly truncated; a sampled path,
    an aligned one on the tent variant now and then (refused), usually at full
    depth and sometimes moved half a period of one level off its family; and
    the floors lo, hi of the two window edges around a window it can audit."""
    cs = data.draw(st.sampled_from(cocycles))
    cs = cs.truncated(data.draw(st.integers(max(2, cs.n_levels - 2), cs.n_levels)))
    family = data.draw(st.sampled_from(FAMILIES if cs.variant == "main" else ("+-", "-+", "++")))
    n_max = cs.profile.n_max
    depth = n_max if data.draw(st.integers(0, 3)) else data.draw(st.integers(1, n_max))
    policy = data.draw(st.sampled_from(("center", "leftmost")))
    _, path = sample_point(cs.profile, family, policy, depth)
    if data.draw(st.integers(0, 3)) == 0:
        x = path.point + cs.profile.level(data.draw(st.integers(1, depth))).period / 2
        path = DigitPath(family, path.indices, x, path.reductions)
    aligned = family_kind(family) == "aligned"
    # edge i - 1 opens aligned window i and mixed window i - 1, which need depth n + 2
    i = data.draw(st.integers(2, max(2, min(cs.n_levels, depth - 2 + (not aligned)))))
    edge = lambda lv: floor(Fraction(lv.q_next, (2 if aligned else 12) * lv.a))
    return cs, path, edge(cs.profile.level(i - 1)), edge(cs.profile.level(i))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_audits_match_fraction_ledgers(greedy_cocycle, tent_cocycle, main10, data):
    """Both audits, both variants, truncated cocycles, off-family points and
    m of both signs from edge to edge of a window: the same report, or the
    same exception naming the same first failing level."""
    cs, path, lo, hi = draw_path(data, (greedy_cocycle, tent_cocycle, main10))
    m = data.draw(st.sampled_from((1, -1))) * data.draw(st.integers(max(lo, 1), hi + 1))
    same_outcome(lambda: audit(cs, path, m), lambda: oracles.audit(cs, path, m))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_scan_matches_per_m_oracle(greedy_cocycle, tent_cocycle, main10, data):
    """m ranges around 0 and around a window edge, of either sign."""
    cs, path, lo, hi = draw_path(data, (greedy_cocycle, tent_cocycle, main10))
    mid = data.draw(st.sampled_from((0, lo, -lo, hi, -hi)))
    m_lo, m_hi = mid - data.draw(st.integers(0, 6)), mid + data.draw(st.integers(-1, 6))
    assert (discreteness_scan(cs, path, m_lo, m_hi).as_dict()
            == oracles.discreteness_scan(cs, path, m_lo, m_hi).as_dict())


# a failed audit names each failed sub-check and its level


def change_term(monkeypatch, level, change):
    """Hand the audits ``change(term)`` in place of the term at ``level``; the
    total and the numerators over ``den`` follow, so the identity still holds."""
    real = audit_mod._audited_terms

    def changed(cspec, path, m, kind):
        w, terms, total, nums, den = real(cspec, path, m, kind)
        old, new = terms[level - 1], change(terms[level - 1], den)
        terms, nums = list(terms), list(nums)
        terms[level - 1], nums[level - 1] = new, new.numerator * (den // new.denominator)
        return w, terms, total - old + new, nums, den

    monkeypatch.setattr(audit_mod, "_audited_terms", changed)


negated = lambda t, den: -t
#: the smallest term of t's sign that the numerators over den can hold
tiny = lambda t, den: Fraction(1 if t > 0 else -1, den)
NET_NOTE = "net = |tail| - tail_budget - head_bound; asymptotic_ref holds for large n only"


@pytest.fixture
def mixed_path(tent_cocycle):
    return sample_point(tent_cocycle.profile, "-+", "center", 6)[1]


def decline_gap_law(monkeypatch):
    """Send every comparison against alpha to ``certify_offset``'s brackets."""
    monkeypatch.setattr(audit_mod, "gap_law_offset", lambda *args: None)


def test_mixed_fail_names_failed_premises(monkeypatch, tent_cocycle, mixed_path):
    decline_gap_law(monkeypatch)
    monkeypatch.setattr(audit_mod, "certify_offset", lambda *args: (False, 1, 0, 0, 8))
    rep = audit_mixed(tent_cocycle, mixed_path, 3863)
    assert rep.status == "fail" and rep.n_of_m == 2
    assert rep.notes == [NET_NOTE] + [f"level {l}: displacement premise failed"
                                      for l in (3, 4, 5, 6)]


@pytest.mark.parametrize("change, check", [(negated, "sign check"), (tiny, "bound check")])
def test_mixed_fail_names_the_failed_tail_row(monkeypatch, tent_cocycle, mixed_path, change,
                                              check):
    change_term(monkeypatch, 4, change)
    rep = audit_mixed(tent_cocycle, mixed_path, 3863)
    assert rep.status == "fail"
    assert rep.notes == [NET_NOTE, f"level 4: {check} failed"]
    assert [r.l for r in rep.rows if not (r.sign_ok and r.bound_ok is not False)] == [4]


def test_aligned_fail_names_sign_rows_pivot_and_bullets(monkeypatch, greedy_cocycle):
    _, path = sample_point(greedy_cocycle.profile, "++", "center", 5)
    change_term(monkeypatch, 5, negated)
    rep = audit_aligned(greedy_cocycle, path, 1)
    assert rep.status == "fail" and rep.notes == ["level 5: sign check failed"]
    change_term(monkeypatch, 3, tiny)  # wraps the patched terms: level 5 stays negated
    rep = audit_aligned(greedy_cocycle, path, 1)
    assert rep.notes == ["level 5: sign check failed", "level 3: pivot bound failed"]
    decline_gap_law(monkeypatch)
    monkeypatch.setattr(audit_mod, "certify_offset", lambda *args: (False, 1, 0, 0, 8))
    rep = audit_aligned(greedy_cocycle, path, 1)
    assert rep.notes == ["window displacement bullets failed", "level 5: sign check failed",
                         "level 3: pivot bound failed"]
