"""Nested-interval dimension bounds for the target families.

The level-n union consists of A_n q_{k_n} closed intervals of length
delta_n = 1/(6 A_n q_{k_n}) separated by gaps of exactly 5/(6 A_n q_{k_n})
(the weaker classical bound 1/(2 A_n q_{k_n}) is kept alongside for
reproducing the original arithmetic).  Each level-(n-1) interval contains
between m_n and mbar_n level-n intervals, where in closed form

    m_n    >= A_n q_{k_n} / (12 A_{n-1} q_{k_{n-1}}),
    mbar_n <= A_n q_{k_n} / ( 6 A_{n-1} q_{k_{n-1}}),

and measured counts are the least and greatest ``targets.child_span`` count
over all parents, found in closed form (``_count_range``) with O(1) integer
work per level, never a scan of the parents.  Box counting is integer
arithmetic as well: with interval j = [(12j + L)/(12C),
(12j + H)/(12C)], its grid cells are s_j = floor((12j + L) g / 12C) ..
t_j = floor((12j + H) g / 12C), and the occupied cells are the span from the
first cell to the last less the cells the gaps skip, whose sums over j are
floor sums in O(log) steps each, never a loop over the C intervals.  The
nested-family criterion then sandwiches the Hausdorff dimension between

    log(m_2 ... m_n) / -log(m_{n+1} eps_{n+1})   and
    log(mbar_2 ... mbar_n) / -log(delta_{n+1}),

with the closed-form summary pair 1 - n log 12 / log(A_n q_{k_n}) and
1 - n log 6 / log(A_n q_{k_n}).  All logs are certified enclosures, so every
reported comparison is decidable; the limits themselves are asymptotic and
the artifact only ever reports finite-n sequences and their trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import Optional

from .certlog import DEFAULT_REL_BITS, LN6, LN12, log_enclosure
from .cf import Enclosure
from .errors import InvariantBroken
from .levels import Profile
from .targets import TWELFTHS, _span, canonical_family

#: The divisors of the requested grid that box counting uses.
BOX_LADDER = (8, 4, 2, 1)


@dataclass(frozen=True)
class NestingRow:
    """Exact nesting data for level n (child counts refer to n-1 -> n)."""

    n: int
    delta: Fraction
    eps: Fraction        # true gap 5/(6 A_n q_{k_n})
    eps_weak: Fraction   # classical bound 1/(2 A_n q_{k_n})
    m_formula: Optional[Fraction] = None
    mbar_formula: Optional[Fraction] = None
    m_measured: Optional[int] = None
    mbar_measured: Optional[int] = None


@dataclass(frozen=True)
class NestingStats:
    """Per-level nesting rows of one profile and family, in formula or measured mode."""
    profile_alpha: str
    family: str
    mode: str
    rows: tuple[NestingRow, ...]

    def row(self, n: int) -> NestingRow:
        return self.rows[n - 1]

    def m(self, n: int) -> Fraction:
        r = self.row(n)
        if self.mode == "measured":
            return Fraction(r.m_measured)
        return r.m_formula

    def mbar(self, n: int) -> Fraction:
        r = self.row(n)
        if self.mode == "measured":
            return Fraction(r.mbar_measured)
        return r.mbar_formula


def _count_range(c: int, c1: int, family: str) -> tuple[int, int]:
    """Least and greatest child count over the C = c parents, in O(1): r runs
    over the multiples of g = gcd(C, C') in [0, C - g], where each end of
    ``_span`` steps up at most once (12r < 12C), so the count is constant on
    at most three runs of r, each ending at C - g or one multiple of g before
    a step."""
    lo, hi = TWELFTHS[family]
    g, den = gcd(c, c1), 12 * c
    ends = {c - g}
    # floor((12r + k)/12C) steps up at the least r = 0 mod g with 12r >= 12C - k mod 12C
    for k in (hi * (c1 - c), lo * (c1 - c) + den - 1):  # ceil(x/12C) = floor((x + 12C - 1)/12C)
        step = -((k % den - den) // (12 * g)) * g
        if step <= c - g:
            ends.add(step - g)
    counts = [jmax - jmin + 1 for jmin, jmax in (_span(r, c, c1, (lo, hi)) for r in ends)]
    return min(counts), max(counts)


def nesting_stats(
    profile: Profile,
    mode: str = "formula",
    family: str = "++",
) -> NestingStats:
    """delta/eps per level plus child-count data per transition.

    formula mode uses the exact closed forms above; measured mode takes the
    least and greatest child count over every parent from ``_count_range`` at
    any depth.  Measured counts must land in [m_formula, mbar_formula + 1];
    the +1 slack comes from counting boundary-touching children as contained.
    """
    if mode not in ("formula", "measured"):
        raise ValueError("mode must be 'formula' or 'measured'")
    fam = canonical_family(family)
    rows: list[NestingRow] = []
    for n in range(1, profile.n_max + 1):
        lv = profile.level(n)
        cells = lv.cell_count
        delta = Fraction(1, 6 * cells)
        eps = Fraction(5, 6 * cells)
        eps_weak = Fraction(1, 2 * cells)
        if n == 1:
            rows.append(NestingRow(n=n, delta=delta, eps=eps, eps_weak=eps_weak))
            continue
        prev = profile.level(n - 1)
        m_f = Fraction(cells, 12 * prev.cell_count)
        mbar_f = Fraction(cells, 6 * prev.cell_count)
        m_meas = mbar_meas = None
        if mode == "measured":
            m_meas, mbar_meas = _count_range(prev.cell_count, cells, fam)
            if not (m_f <= m_meas and m_meas <= mbar_meas <= mbar_f + 1):
                raise InvariantBroken(
                    f"measured counts [{m_meas}, {mbar_meas}] escape the "
                    f"formula sandwich [{m_f}, {mbar_f} + 1] at level {n}"
                )
        rows.append(
            NestingRow(
                n=n,
                delta=delta,
                eps=eps,
                eps_weak=eps_weak,
                m_formula=m_f,
                mbar_formula=mbar_f,
                m_measured=m_meas,
                mbar_measured=mbar_meas,
            )
        )
    return NestingStats(
        profile_alpha=profile.alpha.name or "custom",
        family=fam,
        mode=mode,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class DimensionRow:
    """Certified nested and closed-form dimension bounds at level n."""
    n: int
    lower: Optional[Enclosure]
    upper: Optional[Enclosure]
    closed_lower: Optional[Enclosure]
    closed_upper: Optional[Enclosure]


@dataclass(frozen=True)
class DimensionBounds:
    """The dimension rows for n = 2 .. n_max of one ``NestingStats``."""
    mode: str
    rel_bits: int
    rows: tuple[DimensionRow, ...]

    def row(self, n: int) -> DimensionRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)


def falconer_bounds(stats: NestingStats) -> DimensionBounds:
    """Dimension sandwich rows for n = 2 .. n_max (nested bounds need the
    n+1 row, so they stop one short; closed forms run the full range, on the
    enclosures ``certlog.LN12`` and ``certlog.LN6``)."""
    rows: list[DimensionRow] = []
    one = Enclosure(Fraction(1), Fraction(1))
    n_max = len(stats.rows)
    m_prod = Fraction(1)
    mbar_prod = Fraction(1)
    for n in range(2, n_max + 1):
        m_prod *= stats.m(n)
        mbar_prod *= stats.mbar(n)
        lower = upper = None
        if n + 1 <= n_max and m_prod > 0:
            nxt = stats.row(n + 1)
            gap_scale = stats.m(n + 1) * nxt.eps
            lower = log_enclosure(m_prod).div_positive(-log_enclosure(gap_scale))
            upper = log_enclosure(mbar_prod).div_positive(-log_enclosure(nxt.delta))
        cells = 1 / (6 * stats.row(n).delta)  # A_n q_{k_n}, exact
        log_cells = log_enclosure(cells)
        closed_lower = one - LN12.scale(n).div_positive(log_cells)
        closed_upper = one - LN6.scale(n).div_positive(log_cells)
        rows.append(
            DimensionRow(
                n=n,
                lower=lower,
                upper=upper,
                closed_lower=closed_lower,
                closed_upper=closed_upper,
            )
        )
    return DimensionBounds(mode=stats.mode, rel_bits=DEFAULT_REL_BITS, rows=tuple(rows))


@dataclass(frozen=True)
class BoxCountResult:
    """Occupied-cell counts per grid for one level-n union, and their log-log slope."""
    family: str
    n: int
    counts: tuple[tuple[int, int], ...]  # (grid, occupied cells)
    slope: float


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over 0 <= i < n, for a, b >= 0 and m > 0.

    Euclid's reduction (Graham, Knuth and Patashnik, *Concrete Mathematics*,
    ch. 3): the whole quotients of a/m and b/m carry out in closed form, and
    with a, b < m the sum counts the lattice points under the line, which
    recounted along the other axis is a floor sum with (m, a) swapped, so the
    moduli fall as in Euclid's algorithm.
    """
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += n * (n - 1) // 2 * qa + n * qb
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _occupied_cells(profile: Profile, family: str, n: int, grid: int) -> int:
    """Exact number of width-1/grid cells meeting the level-n union.

    Cell i is the half-open [i/g, (i+1)/g); it meets the closed interval
    [(12j + L)/(12C), (12j + H)/(12C)] exactly when
    s_j = floor((12j + L) g / 12C) <= i <= t_j = floor((12j + H) g / 12C).
    Both ends are nondecreasing in j and t_{C-1} < g, so the union of the
    runs is every cell from max(s_0, 0) to t_{C-1} but those strictly inside
    a gap, max(0, s_j - t_{j-1} - 1) for j = 1 .. C - 1.  The starts run
    10g/12C past the previous stops: below one cell (10g < 12C) no gap holds
    a whole cell, and from one cell up every term is at least 0, so the
    skipped cells are sum s_j - sum t_{j-1} - (C - 1), two floor sums.

    Only the "++" interval j = 0 reaches below cell 0; its -s_0 cells there
    fold onto the top of the circle, g + s_0 .. g - 1.  They are new unless
    t_{C-1} = g - 1: with s_0 = -ceil(g/12C) and t_{C-1} = g - ceil(11g/12C),
    for 11g > 12C the fold starts above t_{C-1}, and for 11g <= 12C
    t_{C-1} = g - 1 already reaches the top.
    """
    lo, hi = TWELFTHS[family]
    cells = profile.level(n).cell_count
    den = 12 * cells
    below = lo * grid // den  # s_0, < 0 only when the j = 0 interval straddles 0
    top = (den - 12 + hi) * grid // den  # t_{C-1}
    total = top - max(below, 0) + 1
    if 10 * grid >= den:
        total -= (
            _floor_sum(cells - 1, den, 12 * grid, (12 + lo) * grid)
            - _floor_sum(cells - 1, den, 12 * grid, hi * grid)
            - (cells - 1)
        )
    if below < 0 and top < grid - 1:
        total -= below
    return total


def box_count(
    profile: Profile,
    family: str,
    n: int,
    grid: int,
) -> BoxCountResult:
    """Occupied-cell counts on the grids grid // f, f in BOX_LADDER, and the
    log-log slope.

    The slope of log N(g) against log g across those grids estimates the box
    dimension of the level-n union at those scales; it is a float cross-check,
    never a certificate.
    """
    fam = canonical_family(family)
    grids = sorted({max(2, grid // f) for f in BOX_LADDER})
    if len(grids) < 2:
        raise ValueError(f"grid must be >= 3 (two distinct grids), got {grid}")
    counts = tuple((g, _occupied_cells(profile, fam, n, g)) for g in grids)
    xs = [log(g) for g, _ in counts]
    ys = [log(c) for _, c in counts]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys)) / sum(
        (a - mean_x) ** 2 for a in xs
    )
    return BoxCountResult(family=fam, n=n, counts=counts, slope=slope)


def nesting_rows_csv(stats: NestingStats, bounds: DimensionBounds) -> list[dict]:
    """Plot-ready rows: exact rationals as num/den strings, enclosures as
    decimal midpoints (blank at n = 1, where ``bounds`` has no row)."""
    fmt = lambda e: "" if e is None else f"{float(e.mid):.12g}"
    blank = DimensionRow(1, None, None, None, None)
    return [
        {
            "n": r.n,
            "delta": str(r.delta),
            "epsilon": str(r.eps),
            "m": "" if r.m_formula is None else str(stats.m(r.n)),
            "mbar": "" if r.mbar_formula is None else str(stats.mbar(r.n)),
            "lower": fmt(b.lower),
            "upper": fmt(b.upper),
            "closed_lower": fmt(b.closed_lower),
            "closed_upper": fmt(b.closed_upper),
        }
        for r, b in zip(stats.rows, (blank,) + bounds.rows, strict=True)
    ]
