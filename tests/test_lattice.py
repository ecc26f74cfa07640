"""Integer-lattice counting and sampling against a brute-force Fraction oracle.

``child_span``, measured ``nesting_stats``, box counting and the nesting check
and center of a sampled digit path work on integer twelfths of a period.  Each
is checked here against a scan over ``interval()`` endpoints with the local
``_circle_contained``, ``(a + b)/2`` or ``floor(a * g)``, which builds every
interval as exact rationals and shares none of that arithmetic.  The closed
form of the measured counts is also held to a ``child_span`` scan of every
parent on random cell counts, and the floor-sum box count to a merge over
every interval on random cell counts and to a cell-by-cell count at depth.
"""

import random
import time
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from besicov import (
    DigitPath,
    interval,
    member,
    nesting_stats,
    sample_point,
    select_levels,
    sensitivity_probe,
    targets,
)
from besicov.cli import parse_alpha
from besicov.dimension import _count_range, _occupied_cells
from besicov.errors import IndexOutOfRange, InvalidDigitPath
from besicov.targets import FAMILIES, TWELFTHS, child_span

import oracles

ALPHAS = ("golden", "sqrt2m1", "quotients=1,2")
VARIANTS = ("main", "tent")


def _profile(alpha, strategy, variant, n):
    return select_levels(parse_alpha(alpha), strategy, variant, n)


def _circle_contained(child, parent):
    """Closed containment of intervals on the circle (lengths < 1): some
    integer shift carries the child into the parent."""
    return ceil(parent.a - child.a) <= floor(parent.b - child.b)


def _center(iv):
    return (iv.a + iv.b) / 2 % 1


def _oracle_children(profile, family, parent, level_below):
    """Every level-(n+1) index whose interval lies inside ``parent``, in
    circle order along the parent."""
    inside = [iv for iv in level_below if _circle_contained(iv, parent)]
    inside.sort(key=lambda iv: (iv.a - parent.a) % 1)
    return [iv.j for iv in inside]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_children_match_full_scan(alpha, variant):
    profile = _profile(alpha, "greedy", variant, 2)
    c1, c2 = (lv.cell_count for lv in profile.levels)
    # every parent on the small tent levels; the wrap, its neighbours and the
    # middle on the main ones
    parents = range(c1) if variant == "tent" else sorted({0, 1, c1 // 2, c1 - 2, c1 - 1})
    for family in FAMILIES:
        level2 = [interval(profile, family, 2, k) for k in range(c2)]
        for j in parents:
            parent = interval(profile, family, 1, j)
            jmin, jmax = child_span(profile, family, 1, j)
            kids = [k % c2 for k in range(jmin, jmax + 1)]
            assert kids == _oracle_children(profile, family, parent, level2)
            for policy, kid in (("leftmost", kids[0]), ("center", kids[len(kids) // 2])):
                assert targets._descend([c1, c2], TWELFTHS[family], 1, j, [policy]) == [j, kid]


def _oracle_counts(profile, family, n):
    """Child counts of every level-(n-1) parent, scanning for each the
    level-n indices whose interval could meet it."""
    c = profile.level(n).cell_count
    for j in range(profile.level(n - 1).cell_count):
        parent = interval(profile, family, n - 1, j)
        window = range(floor(parent.a * c) - 1, floor(parent.b * c) + 2)
        yield sum(
            _circle_contained(interval(profile, family, n, k % c), parent) for k in window
        )


@pytest.mark.parametrize(
    "alpha, variant, n",
    [(a, "tent", 3) for a in ALPHAS] + [(a, "main", 2) for a in ALPHAS],
)
def test_measured_nesting_matches_oracle(alpha, variant, n):
    profile = _profile(alpha, "greedy", variant, n)
    for family in FAMILIES:
        stats = nesting_stats(profile, "measured", family)
        for level in range(2, n + 1):
            counts = list(_oracle_counts(profile, family, level))
            row = stats.row(level)
            assert (row.m_measured, row.mbar_measured) == (min(counts), max(counts))


@st.composite
def _lattice_sizes(draw):
    """(C, C'): any sizes, C' a multiple of C, or both multiples of some g > 1,
    so that r = j C' mod C steps by g over few grid points."""
    kind = draw(st.sampled_from(["any", "multiple", "common-factor"]))
    if kind == "any":
        return draw(st.integers(1, 1000)), draw(st.integers(1, 10**7))
    if kind == "multiple":
        c = draw(st.integers(1, 1000))
        return c, c * draw(st.integers(1, 10**4))
    g = draw(st.integers(2, 60))
    return g * draw(st.integers(1, 16)), g * draw(st.integers(1, 10**5))


@given(sizes=_lattice_sizes(), family=st.sampled_from(FAMILIES))
@settings(max_examples=400, deadline=None)
def test_count_range_matches_scan(sizes, family):
    """The closed-form least and greatest child count equal the scan of every
    parent's ``child_span``, with C' below C, above it or a multiple of it."""
    c, c1 = sizes
    profile = oracles.lattice_profile(c, c1)
    assert _count_range(c, c1, family) == oracles.child_count_range(profile, family, 2)


def _oracle_cells(intervals, grid):
    cells = set()
    for iv in intervals:
        for i in range(floor(iv.a * grid), floor(iv.b * grid) + 1):
            cells.add(i % grid)
    return len(cells)


def _edge_grids(c):
    """Grids at the two thresholds of the count for C intervals, 10g = 12C,
    where a gap starts to hold a whole cell, and 11g = 12C, where the "++"
    fold starts to add cells; a few small grids; 12C and its neighbours; and
    36C + 7, where the "++" interval j = 0 spans cells."""
    top, gaps, fold = 12 * c, -(-12 * c // 10), -(-12 * c // 11)
    return sorted(g for g in {2, 3, 7, gaps - 1, gaps, fold, fold + 1, top - 1, top, top + 1,
                              3 * top + 7} if g >= 2)


def _grids(cells, rng):
    return sorted(set(_edge_grids(cells)) | {rng.randrange(2, 40 * cells) for _ in range(3)})


@pytest.mark.parametrize(
    "alpha, variant, n",
    [(a, v, 1) for a in ALPHAS for v in VARIANTS] + [(a, "tent", 2) for a in ALPHAS],
)
def test_occupied_cells_match_oracle(alpha, variant, n):
    profile = _profile(alpha, "greedy", variant, n)
    cells = profile.level(n).cell_count
    rng = random.Random(f"{alpha}-{variant}-{n}")
    for family in FAMILIES:
        intervals = [interval(profile, family, n, j) for j in range(cells)]
        for grid in _grids(cells, rng):
            assert _occupied_cells(profile, family, n, grid) == _oracle_cells(intervals, grid), grid


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_occupied_cells_match_loop(data):
    """The floor-sum count equals the one-pass merge over every interval, for
    random C and grids on both sides of each threshold."""
    c = data.draw(st.integers(1, 3000), label="C")
    family = data.draw(st.sampled_from(FAMILIES), label="family")
    grid = data.draw(
        st.one_of(st.sampled_from(_edge_grids(c)), st.integers(2, 40 * 12 * c)), label="grid"
    )
    profile = oracles.lattice_profile(c)
    assert _occupied_cells(profile, family, 1, grid) == oracles.occupied_cells(
        profile, family, 1, grid
    )


@pytest.mark.parametrize("n", [2, 5])
def test_occupied_cells_match_cell_oracle(n):
    """Cell by cell on golden greedy main: level 2 (7209 intervals) at the
    thresholds, and level 5 (3.2e8 intervals) on grids small enough to walk."""
    profile = _profile("golden", "greedy", "main", n)
    cells = profile.level(n).cell_count
    grids = _edge_grids(cells) if n == 2 else [2, 3, 7, 1000, 65_537]
    for family in FAMILIES:
        for grid in grids:
            expected = oracles.occupied_cells_by_cell(profile, family, n, grid)
            assert _occupied_cells(profile, family, n, grid) == expected, (family, grid)


@pytest.mark.parametrize("policy", ("center", "leftmost"))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_deep_fixed_sampling(alpha, variant, policy):
    """Fixed profiles hold 1e4 to 1e29 children per parent by depth 4; the
    descent reads one index range per level instead of listing them."""
    profile = _profile(alpha, "fixed", variant, 4)
    families = ("++", "--") if variant == "main" else ("-+", "+-")
    for family in families:
        start = time.perf_counter()
        x, path = sample_point(profile, family, policy, 4)
        assert time.perf_counter() - start < 1.0
        assert path.depth == 4
        assert member(profile, family, x, 4).ok
        assert x == _center(interval(profile, family, 4, path.indices[-1]))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_digit_path_nesting_and_center_match_oracle(data):
    """The integer nesting check of a level-1/level-2 digit path agrees with
    the oracle, out-of-range indices included, and the sampled point is the
    center of the deepest interval."""
    alpha, variant, family = (data.draw(st.sampled_from(s)) for s in (ALPHAS, VARIANTS, FAMILIES))
    profile = _profile(alpha, "greedy", variant, 2)
    c1, c2 = (lv.cell_count for lv in profile.levels)
    j = data.draw(st.sampled_from((0, c1 - 1)) | st.integers(0, c1 - 1))  # "++" j = 0 wraps
    jmin, jmax = child_span(profile, family, 1, j)
    near = st.integers(jmin - 2, jmax + 2).map(lambda k: k % c2)
    k = data.draw(near | st.integers(0, c2 - 1) | st.sampled_from((-2, -1, c2, c2 + 1)))
    parent = interval(profile, family, 1, j)
    x, _ = sample_point(profile, family, DigitPath(family, (j,), Fraction(0), ()))
    assert x == _center(parent)
    path = DigitPath(family, (j, k), Fraction(0), ())
    if not 0 <= k < c2:
        with pytest.raises(IndexOutOfRange):
            sample_point(profile, family, path)
    elif _circle_contained(child := interval(profile, family, 2, k), parent):
        x, got = sample_point(profile, family, path)
        assert x == _center(child) and got.indices == (j, k)
    else:
        with pytest.raises(InvalidDigitPath):
            sample_point(profile, family, path)


def test_sampling_builds_no_interval(monkeypatch, tent_cocycle):
    """Sampling and the sensitivity probe's target candidate descend and
    center on the integer lattice; ``interval()`` serves only the tables."""

    def refuse(*args):
        raise AssertionError("interval() called")

    monkeypatch.setattr(targets, "interval", refuse)
    for variant, families in (("main", ("++", "--")), ("tent", ("-+", "+-"))):
        for family in families:
            for policy in ("center", "leftmost"):
                sample_point(_profile("golden", "greedy", variant, 4), family, policy, 4)
    x, delta = Fraction(1, 4), Fraction(1, 1000)
    start = targets._probe_start(tent_cocycle.profile, "-+", tent_cocycle.n_levels, x, delta)
    assert start is not None
    res = sensitivity_probe(tent_cocycle, x, delta, Fraction(1), 50, samples=1, seed=7)
    assert res.outcome in ("witness-found", "not-found")
