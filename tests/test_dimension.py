"""Nesting statistics, certified logs, dimension bounds, box counting."""

from fractions import Fraction

import pytest
from mpmath import mp

from besicov import box_count, dimension, falconer_bounds, nesting_stats, select_levels
from besicov.certlog import Enclosure, log_enclosure
from besicov.errors import EnumerationCapExceeded


def mp_ln(x: Fraction) -> Fraction:
    with mp.workprec(300):
        v = mp.ln(mp.mpf(x.numerator) / mp.mpf(x.denominator))
        return Fraction(str(v))


@pytest.mark.parametrize(
    "value",
    [Fraction(2), Fraction(12), Fraction(6), Fraction(1, 24), Fraction(7, 5),
     Fraction(10**30, 7), Fraction(1, 10**20)],
)
def test_log_enclosure_contains_truth(value):
    enc = log_enclosure(value)
    truth = mp_ln(value)
    assert enc.lo <= truth <= enc.hi
    assert enc.width <= Fraction(1, 2**40) * max(abs(enc.lo), abs(enc.hi), Fraction(1, 2**20))


def test_ln2_enclosure():
    # a power of two is e times the cached ln 2 enclosure and no series term
    enc = log_enclosure(Fraction(2**40))
    assert enc.lo <= 40 * mp_ln(Fraction(2)) <= enc.hi


def test_enclosure_arithmetic():
    a = Enclosure(Fraction(1), Fraction(2))
    b = Enclosure(Fraction(3), Fraction(4))
    assert (a + b).lo == 4 and (a - b).hi == -1
    assert a.scale(-2).lo == -4
    q = a.div_positive(b)
    assert q.lo == Fraction(1, 4) and q.hi == Fraction(2, 3)
    with pytest.raises(ValueError):
        a.div_positive(Enclosure(Fraction(-1), Fraction(1)))


def test_delta_eps_laws(greedy_profile):
    stats = nesting_stats(greedy_profile, "formula")
    for r in stats.rows:
        cells = greedy_profile.level(r.n).cell_count
        assert r.delta * 6 * cells == 1
        assert r.eps == Fraction(5, 6 * cells) > r.eps_weak == Fraction(1, 2 * cells)


def test_measured_counts_sandwich(golden):
    p3 = select_levels(golden, "greedy", "main", 3)
    stats = nesting_stats(p3, "measured")
    for r in stats.rows[1:]:
        assert (r.m_measured, r.mbar_measured) == (5, 6)
        assert r.m_formula <= r.m_measured <= r.mbar_measured <= r.mbar_formula + 1


def test_enumeration_cap(greedy_profile, monkeypatch):
    monkeypatch.setattr(dimension, "DEFAULT_ENUM_CAP", 100)
    with pytest.raises(EnumerationCapExceeded, match="cap 100"):
        nesting_stats(greedy_profile, "measured")


def test_nested_bounds_ordered_for_greedy(greedy_profile):
    stats = nesting_stats(greedy_profile, "formula")
    bounds = falconer_bounds(stats)
    rows = [r for r in bounds.rows if r.lower is not None]
    assert rows
    for r in rows:
        assert Fraction(0) <= r.lower.lo
        assert r.lower.hi <= r.upper.lo
        assert r.upper.hi <= 1


def test_closed_forms_ordered_everywhere(golden, greedy_profile):
    for profile in (select_levels(golden, "fixed", "main", 5), greedy_profile):
        bounds = falconer_bounds(nesting_stats(profile, "formula"))
        for r in bounds.rows:
            assert r.closed_lower.hi <= r.closed_upper.lo


def test_lower_bounds_rise_with_depth(greedy_profile):
    stats = nesting_stats(greedy_profile, "formula")
    bounds = falconer_bounds(stats)
    mids = [r.lower.mid for r in bounds.rows if r.lower is not None]
    assert all(a < b for a, b in zip(mids, mids[1:]))


def test_box_count_level_one(greedy_profile):
    # the level-1 union has measure exactly 1/6 spread over cell_count
    # disjoint closed intervals; each meets at least floor(L g) and at most
    # ceil(L g) + 1 cells, so N(g) lands in [g/6 - I, g/6 + 2 I]
    res = box_count(greedy_profile, "++", 1, 24000)
    intervals = greedy_profile.level(1).cell_count
    for g, c in res.counts:
        assert g / 6 - intervals <= c <= g / 6 + 2 * intervals


def test_box_count_monotone_in_grid(greedy_profile):
    res = box_count(greedy_profile, "++", 2, 4000)
    assert [g for g, _ in res.counts] == [500, 1000, 2000, 4000]
    counts = [c for _, c in res.counts]
    assert counts == sorted(counts)


def test_box_slope_in_expected_band(greedy_profile):
    stats = nesting_stats(greedy_profile, "formula")
    bounds = falconer_bounds(stats)
    lower2 = float(bounds.row(2).lower.mid)
    res = box_count(greedy_profile, "++", 2, 10**6)
    assert lower2 - 0.1 <= res.slope <= 1.0


def test_box_count_cap(greedy_profile):
    # greedy level 5 holds 3.2e8 intervals, far above DEFAULT_ENUM_CAP
    assert greedy_profile.level(5).cell_count > dimension.DEFAULT_ENUM_CAP
    with pytest.raises(EnumerationCapExceeded):
        box_count(greedy_profile, "++", 5, 100)


def test_log_enclosure_domain():
    with pytest.raises(ValueError):
        log_enclosure(Fraction(0))
    with pytest.raises(ValueError):
        log_enclosure(Fraction(-3, 7))
    enc = log_enclosure(Fraction(1))
    assert enc.lo == enc.hi == 0
