"""Nested-interval dimension bounds for the target families.

The level-n union consists of A_n q_{k_n} closed intervals of length
delta_n = 1/(6 A_n q_{k_n}) separated by gaps of exactly 5/(6 A_n q_{k_n})
(the weaker classical bound 1/(2 A_n q_{k_n}) is kept alongside for
reproducing the original arithmetic).  Each level-(n-1) interval contains
between m_n and mbar_n level-n intervals, where in closed form

    m_n    >= A_n q_{k_n} / (12 A_{n-1} q_{k_{n-1}}),
    mbar_n <= A_n q_{k_n} / ( 6 A_{n-1} q_{k_{n-1}}),

and measured counts come from the exact containment scan: the children of
each parent form one lifted index range (``targets.child_span``), so a count
is an integer ceil and floor per parent, never a list of children.  Box
counting is integer arithmetic as well: with interval j = [(12j + L)/(12C),
(12j + H)/(12C)], its grid cells are floor((12j + L) g / 12C) ..
floor((12j + H) g / 12C), merged in one pass in j.  The nested-family
criterion then sandwiches the Hausdorff dimension between

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
from math import log
from typing import Optional

from .certlog import DEFAULT_REL_BITS, log_enclosure
from .cf import Enclosure
from .errors import EnumerationCapExceeded, InvariantBroken
from .levels import Profile
from .targets import TWELFTHS, canonical_family, child_span

#: Most intervals one level may hold for a measured count or a box count, and
#: the divisors of the requested grid that box counting uses.
DEFAULT_ENUM_CAP = 500_000
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


def nesting_stats(
    profile: Profile,
    mode: str = "formula",
    family: str = "++",
) -> NestingStats:
    """delta/eps per level plus child-count data per transition.

    formula mode uses the exact closed forms above; measured mode runs the
    containment scan over every parent, refusing (EnumerationCapExceeded)
    rather than truncating when a level holds more than DEFAULT_ENUM_CAP.
    Measured counts must land in [m_formula, mbar_formula + 1]; the +1 slack
    comes from counting boundary-touching children as contained.
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
            if prev.cell_count > DEFAULT_ENUM_CAP:
                raise EnumerationCapExceeded(
                    f"level {n - 1} has {prev.cell_count} intervals > cap {DEFAULT_ENUM_CAP}"
                )
            m_meas, mbar_meas = cells, 0
            for j in range(prev.cell_count):
                jmin, jmax = child_span(profile, fam, n - 1, j)
                count = jmax - jmin + 1
                if count < m_meas:
                    m_meas = count
                if count > mbar_meas:
                    mbar_meas = count
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
    n: int
    lower: Optional[Enclosure]
    upper: Optional[Enclosure]
    closed_lower: Optional[Enclosure]
    closed_upper: Optional[Enclosure]


@dataclass(frozen=True)
class DimensionBounds:
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
    n+1 row, so they stop one short; closed forms run the full range)."""
    rows: list[DimensionRow] = []
    one = Enclosure(Fraction(1), Fraction(1))
    log12 = log_enclosure(12)
    log6 = log_enclosure(6)
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
        closed_lower = one - log12.scale(n).div_positive(log_cells)
        closed_upper = one - log6.scale(n).div_positive(log_cells)
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
    family: str
    n: int
    counts: tuple[tuple[int, int], ...]  # (grid, occupied cells)
    slope: float


def _occupied_cells(profile: Profile, family: str, n: int, grid: int) -> int:
    """Exact number of width-1/grid cells meeting the level-n union.

    Cell i is the half-open [i/g, (i+1)/g); it meets the closed interval
    [(12j + L)/(12C), (12j + H)/(12C)] exactly when
    floor((12j + L) g / 12C) <= i <= floor((12j + H) g / 12C).  Both ends are
    nondecreasing in j, so one pass in j merges the runs, counting only the
    cells above the highest one counted so far.  Only the "++" interval
    j = 0 reaches below cell 0; those cells fold onto the top of the circle,
    where they start no lower than any other run, so they merge last.
    """
    lo, hi = TWELFTHS[family]
    cells = profile.level(n).cell_count
    den = 12 * cells
    total, top = 0, -1
    for j in range(cells):
        start = (12 * j + lo) * grid // den
        stop = (12 * j + hi) * grid // den
        if stop > top:
            total += stop - max(start, top + 1) + 1
            top = stop
    below = lo * grid // den  # < 0 only when the j = 0 interval straddles 0
    if below < 0 and grid - 1 > top:
        total += grid - max(grid + below, top + 1)
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
    lv = profile.level(n)
    if lv.cell_count > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded(f"{lv.cell_count} intervals > cap {DEFAULT_ENUM_CAP}")
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


def nesting_rows_csv(stats: NestingStats, bounds: Optional[DimensionBounds] = None) -> list[dict]:
    """Plot-ready rows: exact rationals as num/den strings, enclosures as
    decimal midpoints."""
    out = []
    for r in stats.rows:
        row = {
            "n": r.n,
            "delta": str(r.delta),
            "epsilon": str(r.eps),
            "m": "" if r.m_formula is None else str(stats.m(r.n)),
            "mbar": "" if r.mbar_formula is None else str(stats.mbar(r.n)),
            "lower": "",
            "upper": "",
            "closed_lower": "",
            "closed_upper": "",
        }
        if bounds is not None:
            try:
                b = bounds.row(r.n)
            except KeyError:
                b = None
            if b is not None:
                fmt = lambda e: "" if e is None else f"{float(e.mid):.12g}"
                row["lower"] = fmt(b.lower)
                row["upper"] = fmt(b.upper)
                row["closed_lower"] = fmt(b.closed_lower)
                row["closed_upper"] = fmt(b.closed_upper)
        out.append(row)
    return out
