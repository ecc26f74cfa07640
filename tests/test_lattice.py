"""Integer-lattice counting against a brute-force Fraction oracle.

``child_span``, measured ``nesting_stats`` and box counting work
on integer twelfths of a period.  Each is checked here against a scan over
``interval()`` endpoints with ``_circle_contained`` or ``floor(a * g)``, which
builds every interval as exact rationals and shares none of that arithmetic.
"""

import random
import time
from fractions import Fraction
from math import floor

import pytest

from besicov import interval, member, nesting_stats, sample_point, select_levels
from besicov.cli import parse_alpha
from besicov.dimension import _occupied_cells
from besicov.targets import FAMILIES, _circle_contained, child_span, pick_child

ALPHAS = ("golden", "sqrt2m1", "quotients=1,2")
VARIANTS = ("main", "tent")


def _profile(alpha, strategy, variant, n):
    return select_levels(parse_alpha(alpha), strategy, variant, n)


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
            assert pick_child(profile, family, 1, j, "leftmost") == kids[0]
            assert pick_child(profile, family, 1, j, "center") == kids[len(kids) // 2]


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


def _oracle_cells(intervals, grid):
    cells = set()
    for iv in intervals:
        for i in range(floor(iv.a * grid), floor(iv.b * grid) + 1):
            cells.add(i % grid)
    return len(cells)


def _grids(cells, rng):
    top = 12 * cells
    fixed = {2, 3, 7, top - 1, top, top + 1, 3 * top + 7}  # the last: "++" j = 0 spans cells
    return sorted(fixed | {rng.randrange(2, 40 * cells) for _ in range(3)})


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
        assert x == interval(profile, family, 4, path.indices[-1]).center % 1
