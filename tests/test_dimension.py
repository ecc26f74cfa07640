"""Nesting statistics, certified logs, dimension bounds, box counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from besicov import (IrrationalSpec, box_count, certlog, dimension, falconer_bounds, nesting_stats,
                     select_levels)
from besicov.certlog import Enclosure, log_enclosure
from besicov.errors import EnumerationCapExceeded, InvariantBroken
from besicov.levels import LevelParams, Profile
from besicov.targets import FAMILIES

import oracles


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


def test_ln2_matches_oracle():
    lo, hi = certlog._LN2
    grid = 1 << certlog._WORK_BITS
    assert Enclosure(Fraction(lo, grid), Fraction(hi, grid)) == oracles.LN2


@st.composite
def _log_inputs(draw):
    """x > 0: numerator and denominator of up to 3000 bits, or x < 1, or
    x = m 2^e with m = 1 (z = 0), m just above 1 (z tiny) or m just below 2
    (z near 1/3)."""
    kind = draw(st.sampled_from(["wide", "below-one", "power", "above-one", "below-two"]))
    if kind == "wide":
        return Fraction(draw(st.integers(1, 2**3000)), draw(st.integers(1, 2**3000)))
    if kind == "below-one":
        q = draw(st.integers(2, 2**3000))
        return Fraction(draw(st.integers(1, q - 1)), q)
    e = draw(st.integers(-3000, 3000))
    if kind == "power":
        return Fraction(2) ** e
    q, d = draw(st.integers(17, 2**3000)), draw(st.integers(1, 16))
    return Fraction(q + d if kind == "above-one" else 2 * q - d, q) * Fraction(2) ** e


@settings(max_examples=60, deadline=None)
@given(_log_inputs())
def test_log_enclosure_matches_fraction_series(x):
    """The unreduced integer series gives the reduced Fraction series'
    enclosure bit for bit."""
    assert log_enclosure(x) == oracles.log_enclosure(x)


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


def test_measured_counts_sandwich(greedy_profile):
    # greedy golden main n = 6: levels 4 and 5 hold 8.9e6 and 3.2e8 parents
    stats = nesting_stats(greedy_profile, "measured")
    for r in stats.rows[1:]:
        assert (r.m_measured, r.mbar_measured) == (5, 6)
        assert r.m_formula <= r.m_measured <= r.mbar_measured <= r.mbar_formula + 1


def test_measured_counts_ignore_the_cap(golden, sqrt2m1, monkeypatch):
    """Measured counts scan no parents, so a cap of 100 intervals, which box
    counting still enforces, leaves them equal to the per-parent scan."""
    monkeypatch.setattr(dimension, "DEFAULT_ENUM_CAP", 100)
    for profile in (
        select_levels(golden, "greedy", "main", 3), select_levels(sqrt2m1, "fixed", "main", 2)
    ):
        for family in FAMILIES:
            stats = nesting_stats(profile, "measured", family)
            for n in range(2, profile.n_max + 1):
                row = stats.row(n)
                assert (row.m_measured, row.mbar_measured) == oracles.child_count_range(
                    profile, family, n
                )
        with pytest.raises(EnumerationCapExceeded, match="cap 100"):
            box_count(profile, "++", profile.n_max, 1000)


def test_measured_lower_bounds_beat_formula_on_fixed(golden, sqrt2m1):
    """Fixed main profiles hold up to 10^134 (golden) and 10^247 (sqrt2m1)
    parents a level by n = 10; the measured counts lift the certified nested
    lower bound above the formula's at every n."""
    for spec in (golden, sqrt2m1):
        profile = select_levels(spec, "fixed", "main", 10)
        measured = falconer_bounds(nesting_stats(profile, "measured"))
        formula = falconer_bounds(nesting_stats(profile, "formula"))
        pairs = [(m, f) for m, f in zip(measured.rows, formula.rows, strict=True)
                 if m.lower is not None]
        assert [m.n for m, _ in pairs] == list(range(2, 10))
        for m, f in pairs:
            assert m.lower.lo >= f.lower.hi, (spec.name, m.n)


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


def test_ln12_and_ln6_are_the_log_enclosures():
    assert certlog.LN12 == log_enclosure(12) == oracles.log_enclosure(Fraction(12))
    assert certlog.LN6 == log_enclosure(6) == oracles.log_enclosure(Fraction(6))


def test_log_enclosure_refuses_a_wide_ln2(monkeypatch):
    """The width check fires when an ingredient is too wide: ln 2's ends
    widened by 2^30 grid units make 8 = 2^3 three times as wide."""
    lo, hi = certlog._LN2
    monkeypatch.setattr(certlog, "_LN2", (lo - 2**30, hi + 2**30))
    with pytest.raises(InvariantBroken, match="wider than requested"):
        log_enclosure(Fraction(8))


@pytest.mark.parametrize("family", FAMILIES)
def test_measured_counts_refuse_a_profile_that_does_not_nest(family):
    """C_2 = C_1 + 1 puts at most one level-2 interval inside a level-1 one,
    below the closed form's C_2 / (12 C_1): the sandwich check fires."""
    levels = (LevelParams(n=1, k=1, p=1, q=13, q_next=21, a=1),
              LevelParams(n=2, k=3, p=1, q=14, q_next=21, a=1))
    prof = Profile(alpha=IrrationalSpec.from_preset("golden"), strategy="greedy",
                   variant="main", n_max=2, levels=levels)
    with pytest.raises(InvariantBroken, match=r"escape the formula sandwich .* at level 2"):
        nesting_stats(prof, "measured", family)
