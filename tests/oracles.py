"""Test-side oracles: second routes to values the library computes on its lattice.

:func:`unit_position` folds x onto the unit period of a level with one exact
integer ``%``, and :func:`bump` writes the level shapes on that period in the
arithmetic of its argument.  In Fractions the pair checks the cocycle's
integer-lattice kernel; fed an mpf, it is the orbit lane's former evaluator,
and :func:`t_values` replays that lane so that :mod:`besicov.dynamics` can be
held to the same bits.  The library defines and imports neither name.

:func:`atanh_ends` is :mod:`besicov.certlog`'s series as it was before the
stop index was settled first: the unreduced integer partial sums carried
forward, the cut-off tested after every term.  :func:`log_enclosure` is the
`Fraction` form of the same series: each partial sum reduced, the tail bound
compared as a `Fraction`, and the ends rounded outward to the same grid
afterwards.

:func:`child_count_range` scans every parent's
:func:`besicov.targets.child_span`: the reference for the closed-form
measured counts of :func:`besicov.nesting_stats`.

:func:`occupied_cells` merges every interval's run of grid cells in one pass
and :func:`occupied_cells_by_cell` asks of each cell which interval could
reach it: two references for the floor-sum count of
:func:`besicov.dimension._occupied_cells`, in O(C) and in O(grid).

The library sums and compares on integer numerators, building one Fraction
per result; these are the Fraction routes it replaced.  The library's exact
sums all read one kernel, the potential g = sum_l f_l, weighted over the lcm
of the levels' peak denominators.  :func:`phi_m` reads none of it: it adds
one Fraction per level, :func:`bump` at each :func:`unit_position` scaled to
``level_max``.  :func:`sub_budget` multiplies the Fraction Lipschitz
constants by the bracket width.  :func:`window` scans the Fraction
window edges, and :func:`certify_offset` does the bracket's interval
arithmetic on :class:`Enclosure`; it takes its brackets through
``cf.alpha_bracket`` and its cap from ``cf.MAX_BRACKET_DEPTH`` at call time,
so a test that patches either patches the oracle too.

:func:`member_level` and :func:`member` decide membership by the defining
formula in Fractions and keep each level's reduction, as ``targets.member``
did before it decided on integers alone.  :func:`probe_start` is the
sensitivity probe's start point as its own loop of child picks, before it
became a caller of the descent in ``targets``.  :func:`discreteness_scan` finds each
m's window and its |phi_m| one m at a time, and :func:`audit` keeps the
divergence ledgers in Fractions, per-level budgets and all: the references for
the library's scan and audits on one lattice and one ledger denominator.

:func:`validate_levels` decides the main variant's ratio window, its two
chains and the exponential rise on ``Fraction`` ratios and powers of 11/10,
as ``levels.validate_levels`` did before it cross-multiplied integers.
"""

import math
from fractions import Fraction
from math import ceil, floor
from types import SimpleNamespace

from mpmath import mpf

from besicov import cf
from besicov.audit import (KINDS, DivergenceReport, ReportRow, ScanEntry, ScanTable,
                           WindowIndex, _aligned_floor, _mixed_ref, _window_edge)
from besicov.certlog import _TAIL_BITS, _WORK_BITS, Enclosure
from besicov.cf import convergent
from besicov.cocycle import level_max, term
from besicov.errors import (BelowFirstWindow, DepthExceedsProfile, IndecisiveBracket,
                            InvariantBroken, WindowBeyondProfile)
from besicov.levels import Certificate, LevelParams, ValidationReport, _amp
from besicov.targets import TWELFTHS, child_span, family_kind


def unit_position(level: LevelParams, x: Fraction) -> Fraction:
    """x / P mod 1 = x A_n q_{k_n} mod 1, exact: where x sits in its period."""
    den = x.denominator
    return Fraction(x.numerator * level.cell_count % den, den)


def bump(u, variant: str, peak):
    """The level bump at unit position u in [0, 1), scaled to ``peak``.

    Computed in the arithmetic of ``u`` and ``peak``.  The tent rises as
    2 peak u; the main bump is 3 peak (u - 1/12) clamped to [0, peak].  Both
    are folded onto [0, 1/2] first, since each is even about 0 and about 1/2.
    In mpf each operation rounds, in this order: 1 - u, 1/12, 5/12, then
    peak * ((u - 1/12) * 3).
    """
    if u * 2 > 1:
        u = 1 - u
    if variant == "tent":
        return peak * (u * 2)
    twelfth = type(u)(1) / 12
    if u <= twelfth:
        return type(u)(0)
    if u >= type(u)(5) / 12:
        return peak
    return peak * ((u - twelfth) * 3)


def to_mpf(x: Fraction) -> mpf:
    """mpf(numerator) / mpf(denominator) at the working precision."""
    return mpf(x.numerator) / mpf(x.denominator)


def t_values(cspec, x0: Fraction, steps: int):
    """Yield (x_i, t_i - t_0) for i = 0..steps the way the orbit lane did
    before it walked the lattice: x advanced in Fractions, each level's
    :func:`bump` fed the exact unit position as an mpf, summed per level,
    minus the sum at x_0.  Reads the precision when first advanced."""
    variant = cspec.variant
    peaks = [(lv, to_mpf(level_max(lv, variant))) for lv in cspec.levels]

    def fiber(x: Fraction) -> mpf:
        total = mpf(0)
        for lv, peak in peaks:
            total += bump(to_mpf(unit_position(lv, x)), variant, peak)
        return total

    x = x0 % 1
    base = fiber(x)
    yield x, mpf(0)
    for _ in range(steps):
        x = (x + cspec.alpha_hat) % 1
        yield x, fiber(x) - base


def outward(enc: Enclosure) -> Enclosure:
    """Round both ends of ``enc`` outward to the 2^-_WORK_BITS grid."""
    s = 1 << _WORK_BITS
    return Enclosure(Fraction(floor(enc.lo * s), s), Fraction(ceil(enc.hi * s), s))


def atanh_ends(a: int, b: int) -> tuple[int, int]:
    """floor and ceil of 2 atanh(a/b) * 2^_WORK_BITS, 0 <= a/b < 1, summed
    forward as one unreduced fraction num/den, den = b^(2k-1) prod_{i<k}
    (2i+1), until the tail bound term/cut falls below 2^-_TAIL_BITS."""
    a2, b2, gap = a * a, b * b, b * b - a * a
    num, den, power, prod, odd = a, b, a, 1, 1
    while True:
        power *= a2
        prod *= odd
        odd += 2
        term, cut = power * prod, den * odd * gap  # the next term is term / (den b^2 odd)
        if (term << _TAIL_BITS) < cut:  # the tail bound is term / cut
            break
        num, den = num * b2 * odd + term, den * b2 * odd
    scale = _WORK_BITS + 1
    return (num << scale) // den, -((-(num * odd * gap + term) << scale) // cut)


def atanh_enclosure(z: Fraction) -> Enclosure:
    """[S, S + tail] for atanh(z), 0 <= z < 1: S the first sum of the odd
    series whose geometric tail bound z^(2k+1) / ((2k+1)(1 - z^2)) is below
    2^-_TAIL_BITS."""
    if z == 0:
        return Enclosure(Fraction(0), Fraction(0))
    target = Fraction(1, 1 << _TAIL_BITS)
    total = Fraction(0)
    power = z
    z2 = z * z
    k = 0
    while True:
        total += power / (2 * k + 1)
        power *= z2
        k += 1
        tail = power / ((2 * k + 1) * (1 - z2))
        if tail < target:
            return Enclosure(total, total + tail)


LN2 = outward(atanh_enclosure(Fraction(1, 3)).scale(2))


def log_enclosure(x: Fraction) -> Enclosure:
    """ln x for x > 0: x = m 2^e with m in [1, 2), 2 atanh((m - 1)/(m + 1))
    plus e times :data:`LN2`, rounded outward."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m >= 2:
        e += 1
        m /= 2
    elif m < 1:
        e -= 1
        m *= 2
    return outward(atanh_enclosure((m - 1) / (m + 1)).scale(2) + LN2.scale(e))


def lattice_profile(*cell_counts: int) -> SimpleNamespace:
    """A stand-in profile whose level n holds ``cell_counts[n - 1]`` intervals:
    all that :func:`child_span` reads of a profile."""
    levels = [SimpleNamespace(cell_count=c) for c in cell_counts]
    return SimpleNamespace(n_max=len(levels), level=lambda n: levels[n - 1])


def child_count_range(profile, family: str, n: int) -> tuple[int, int]:
    """Least and greatest child count of a level-(n - 1) interval, scanning
    every parent's :func:`child_span`."""
    counts = [
        jmax - jmin + 1
        for jmin, jmax in (
            child_span(profile, family, n - 1, j) for j in range(profile.level(n - 1).cell_count)
        )
    ]
    return min(counts), max(counts)


def occupied_cells(profile, family: str, n: int, grid: int) -> int:
    """Cells of width 1/grid meeting the level-n union, one pass over the
    intervals: interval j covers cells floor((12j + L) g / 12C) ..
    floor((12j + H) g / 12C), and each run counts only the cells above the
    highest one counted so far.  Only the "++" interval j = 0 reaches below
    cell 0; those cells fold onto the top of the circle, where they start no
    lower than any other run, so they merge last."""
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
    below = lo * grid // den
    if below < 0 and grid - 1 > top:
        total += grid - max(grid + below, top + 1)
    return total


def occupied_cells_by_cell(profile, family: str, n: int, grid: int) -> int:
    """The same count cell by cell, at any depth: the intervals reaching up to
    cell i are j >= j* = ceil((12C i - H g) / 12g), and since their starts rise
    with j, cell i is hit iff j* < C and interval j* starts at or below i.  The
    "++" interval j = 0 also hits the cells it reaches below 0, from
    floor(L g / 12C) up, folded onto the top of the circle."""
    lo, hi = TWELFTHS[family]
    cells = profile.level(n).cell_count
    den = 12 * cells
    wrap = max(0, -(lo * grid // den))
    hit = 0
    for i in range(grid):
        j = max(0, -((hi * grid - den * i) // (12 * grid)))
        if j < cells and (12 * j + lo) * grid // den <= i or i >= grid - wrap:
            hit += 1
    return hit


def phi_m(cspec, x: Fraction, m: int) -> Fraction:
    """sum_l f_l(x + m alpha_hat) - f_l(x), one Fraction per level added up:
    :func:`bump` at each :func:`unit_position`, scaled to ``level_max``."""
    y = x + m * cspec.alpha_hat
    total = Fraction(0)
    for lv in cspec.levels:
        peak = level_max(lv, cspec.variant)
        total += bump(unit_position(lv, y), cspec.variant, peak)
        total -= bump(unit_position(lv, x), cspec.variant, peak)
    return total


def sub_budget(cspec, m: int, levels=None) -> Fraction:
    """sum of Lambda_l over ``levels`` (default: all truncated ones), times
    |m| times the bracket width 1/(q_N q_{N+1})."""
    n = cspec.alpha_depth
    width = Fraction(1, convergent(cspec.profile.alpha, n).q
                     * convergent(cspec.profile.alpha, n + 1).q)
    chosen = cspec.levels if levels is None else [cspec.profile.level(l) for l in levels]
    return sum((lv.lam for lv in chosen), start=Fraction(0)) * abs(m) * width


def window(profile, kind: str, m: int, n_limit=None) -> WindowIndex:
    """Window index n(m) by a scan for the Fraction edges lo <= |m| < hi."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    limit = profile.n_max if n_limit is None else min(n_limit, profile.n_max)
    edges = [_window_edge(profile.level(n), kind) for n in range(1, limit + 1)]
    am = Fraction(abs(m))
    if am < edges[0]:
        raise BelowFirstWindow(f"|m|={abs(m)} below first {kind} window {edges[0]}")
    first = 2 if kind == "aligned" else 1
    for n, (lo, hi) in enumerate(zip(edges, edges[1:]), start=first):
        if lo <= am < hi:
            return WindowIndex(m=m, n=n, kind=kind, lo=lo, hi=hi)
    raise WindowBeyondProfile(f"|m|={abs(m)} at or past last edge {edges[-1]}")


def certify_offset(spec, k: int, lo: Fraction, hi: Fraction, scale: int = 1):
    """lo < scale |alpha - p_k/q_k| < hi on :class:`Enclosure` arithmetic:
    the bracket minus p_k/q_k, scaled by sign * scale, doubling the depth from
    max(8, k + 3) until neither bound lies inside it."""
    v = convergent(spec, k).value
    at_v = Enclosure(v, v)
    depth = max(8, k + 3)
    while depth <= cf.MAX_BRACKET_DEPTH:
        d = cf.alpha_bracket(spec, depth) - at_v
        if not d.lo <= 0 <= d.hi:
            sign = 1 if d.lo > 0 else -1
            dist = d.scale(sign * scale)
            if not (dist.lo <= lo < dist.hi or dist.lo < hi <= dist.hi):
                return lo < dist.lo and dist.hi < hi, sign, dist.lo, dist.hi, depth
        depth *= 2
    raise IndecisiveBracket(
        f"comparison against alpha undecided at bracket depth {cf.MAX_BRACKET_DEPTH}"
    )


def member_level(profile, family: str, n: int, x: Fraction):
    """Membership by the defining formula, in Fractions: j_lift is the period
    whose family band starts at or below x, and x is in the union when it
    lies no further than the band's upper offset into that period.  Returns
    (j mod C_n, x - j_lift P_n), or None in a gap."""
    lo, hi = TWELFTHS[family]
    lv = profile.level(n)
    t = 12 * lv.cell_count * x
    j_lift = (floor(t) - lo) // 12
    if t - 12 * j_lift > hi:
        return None
    return j_lift % lv.cell_count, x - j_lift * lv.period


def member(profile, family: str, x: Fraction, up_to: int):
    """(ok, first_fail, entries): x mod 1 checked level by level up to the
    first gap, entries the (j, reduction) of every level passed."""
    x = x % 1
    entries = []
    for n in range(1, up_to + 1):
        hit = member_level(profile, family, n, x)
        if hit is None:
            return False, n, tuple(entries)
        entries.append(hit)
    return True, None, tuple(entries)


def probe_start(profile, family: str, n_levels: int, x: Fraction, delta: Fraction):
    """The sensitivity probe's first candidate as ``dynamics`` found it
    before the descent moved to ``targets``: the first level whose period is
    at most delta/2, its interval nearest x, the middle child of each
    :func:`child_span` down to min(n + 2, n_levels), and that interval's
    center if within delta of x; None otherwise."""
    lo, hi = TWELFTHS[family]
    for n in range(1, n_levels + 1):
        lv = profile.level(n)
        if lv.period > delta / 2:
            continue
        depth = min(n + 2, n_levels)
        j = round(x / lv.period) % lv.cell_count
        for level in range(n, depth):
            jmin, jmax = child_span(profile, family, level, j)
            if jmin > jmax:
                return None
            j = (jmin + (jmax - jmin + 1) // 2) % profile.level(level + 1).cell_count
        den = 24 * profile.level(depth).cell_count
        y = Fraction((24 * j + lo + hi) % den, den)
        d = (y - x) % 1
        return y if min(d, 1 - d) <= delta else None
    return None


def discreteness_scan(cspec, path, m_lo: int, m_hi: int) -> ScanTable:
    """The scan one m at a time: :func:`window` for m's window and
    :func:`phi_m` of the depth-L truncation for |phi_m|."""
    kind = family_kind(path.family)
    L = min(cspec.n_levels, path.depth)
    cs = cspec.truncated(L)
    bound = _aligned_floor if kind == "aligned" else _mixed_ref
    entries, skipped, minima, bounds = [], [], {}, {}
    for m in range(m_lo, m_hi + 1):
        try:
            w = window(cspec.profile, kind, m, n_limit=L) if m else None
        except (BelowFirstWindow, WindowBeyondProfile):
            w = None
        if w is None:
            skipped.append(m)
            continue
        val = abs(phi_m(cs, path.point, m))
        entries.append(ScanEntry(m=m, n_of_m=w.n, abs_total=val))
        minima[w.n] = min(val, minima.get(w.n, val))
        bounds.setdefault(w.n, bound(cspec.profile.level(w.n)))
    ns = sorted(bounds)
    return ScanTable(
        family=path.family, kind=kind, entries=entries, window_minima=minima,
        window_bounds=bounds, skipped=skipped,
        bounds_nondecreasing=all(bounds[a] <= bounds[b] for a, b in zip(ns, ns[1:])),
    )


def audit(cspec, path, m: int) -> DivergenceReport:
    """The aligned or mixed divergence report with every sum and bound a
    Fraction: per-level terms from ``term``, per-level budgets from
    :func:`sub_budget`, :func:`member`, :func:`window` and
    :func:`certify_offset` from this module."""
    kind = family_kind(path.family)
    if kind == "aligned" and cspec.variant != "main":
        raise ValueError(
            f"aligned family {path.family} is not certified on the {cspec.variant} variant"
        )
    if m == 0:
        raise BelowFirstWindow("m = 0 is excluded")
    w = window(cspec.profile, kind, m, n_limit=cspec.n_levels)
    if path.depth < w.n + 2:
        raise DepthExceedsProfile(f"sample depth {path.depth} < required {w.n + 2} for this window")
    L = min(cspec.n_levels, path.depth)
    ok, first_fail, _ = member(cspec.profile, path.family, path.point, L)
    if not ok:
        raise ValueError(
            f"point {path.point} leaves the {path.family} family at level {first_fail}"
        )
    v, shift = cspec.variant, m * cspec.alpha_hat
    terms = [term(lv, v, path.point, shift) for lv in cspec.levels[:L]]
    total = phi_m(cspec.truncated(L), path.point, m)
    if sum(terms) != total:
        raise InvariantBroken(f"audited terms do not sum to phi_m at m={m}")
    lv_n = cspec.profile.level(w.n)
    alpha = cspec.profile.alpha
    if kind == "aligned":
        sign = 1 if path.family == "++" else -1
        certified = _aligned_floor(lv_n) - sub_budget(cspec, m, [w.n])
        rows = [ReportRow(l=l, value=t, sign_ok=t * sign >= 0) for l, t in enumerate(terms, 1)]
        pivot_ok = abs(terms[w.n - 1]) > certified
        rows[w.n - 1] = ReportRow(l=w.n, value=terms[w.n - 1], sign_ok=rows[w.n - 1].sign_ok,
                                  bound=certified, bound_ok=pivot_ok)
        cells = lv_n.cell_count
        bullets = certify_offset(alpha, lv_n.k, Fraction(9, 50 * cells), Fraction(1, 2 * cells),
                                 abs(m))[0]
        notes = [] if bullets else ["window displacement bullets failed"]
        failed = [f"level {r.l}: sign check failed" for r in rows if not r.sign_ok]
        if not pivot_ok:
            failed.append(f"level {w.n}: pivot bound failed")
        if certified <= 0:
            status = "indeterminate"
            notes.append("substitution budget swallows the pivot bound")
        else:
            status = "fail" if failed or not bullets else "pass"
            notes += failed
        own = dict(certified_lower=certified, expected_sign=sign, status=status, notes=notes)
    else:
        k1 = cspec.profile.level(1).k
        expected = (-1) ** k1 * (1 if path.family[1] == "+" else -1) * (1 if m > 0 else -1)
        head = sum(terms[: w.n])
        tail = total - head
        head_bound = sum(2 * level_max(lv, v) for lv in cspec.levels[: w.n])
        rows = [ReportRow(l=l, value=t, sign_ok=True) for l, t in enumerate(terms[: w.n], 1)]
        tail_bound_sum = tail_budget = Fraction(0)
        failed = []
        for l, t in enumerate(terms[w.n :], w.n + 1):
            lv = cspec.profile.level(l)
            budget = sub_budget(cspec, m, [l])
            bound = Fraction(lv_n.q_next, 24 * lv_n.a * l * l) - budget
            sign_ok, bound_ok = t * expected > 0, abs(t) > bound
            premise = certify_offset(alpha, lv.k, Fraction(0), Fraction(1, 12 * lv.cell_count),
                                     abs(m))[0]
            for check, passed in (("displacement premise", premise), ("sign check", sign_ok),
                                  ("bound check", bound_ok)):
                if not passed:
                    failed.append(f"level {l}: {check} failed")
            tail_bound_sum += bound
            tail_budget += budget
            rows.append(ReportRow(l=l, value=t, sign_ok=sign_ok, bound=bound, bound_ok=bound_ok))
        net = abs(tail) - tail_budget - head_bound
        own = dict(
            certified_lower=max(net, Fraction(0)), expected_sign=expected,
            status="fail" if failed else "pass" if net > 0 else "indeterminate",
            head_abs=abs(head), head_bound=head_bound, tail_abs=abs(tail),
            tail_bound_sum=tail_bound_sum, net_lower=net, asymptotic_ref=_mixed_ref(lv_n),
            notes=["net = |tail| - tail_budget - head_bound; asymptotic_ref holds for large n only",
                   *failed],
        )
    return DivergenceReport(
        family=path.family, kind=kind, m=m, n_of_m=w.n, window_lo=w.lo, window_hi=w.hi,
        x=path.point, indices=path.indices, levels_audited=L, rows=rows, total=total,
        sub_budget=sub_budget(cspec, m), extension_tail_bound=abs(m) * Fraction(1, L), **own,
    )


RATIO_LO, RATIO_HI = Fraction(11, 10), Fraction(25, 18)


def validate_levels(profile) -> ValidationReport:
    """Every growth certificate of ``levels.validate_levels``, the main
    variant's ratio window, chains and exponential rise decided on the
    Fraction ratio (q_{k_n+1}/A_n)/(q_{k_{n-1}+1}/A_{n-1}), its inverse and
    the Fraction peaks against (11/10)^(n-1) times the first."""
    L = profile.levels
    rows = [("parity", None, ",".join(str(lv.k) for lv in L), "all k_n even or all odd",
             len({lv.k % 2 for lv in L}) == 1)]
    if profile.variant == "tent":
        rows += [("amp-one", lv.n, str(lv.a), "A_n = 1", lv.a == 1) for lv in L]
        for prev, cur in zip(L, L[1:]):
            rows += [
                ("growth-18x", cur.n, f"{cur.q}/{prev.q}", ">= 18", cur.q >= 18 * prev.q),
                ("peak-ratio-increasing", cur.n, f"{cur.q_next} > {prev.q_next}",
                 "q_{k_n+1} strictly increasing", cur.q_next > prev.q_next),
            ]
    else:
        base = L[0]
        rows += [
            ("base-q-next", 1, str(base.q_next), ">= 9", base.q_next >= 9),
            ("base-q", 1, str(base.q), ">= 9", base.q >= 9,
             False, "alternative base reading, recorded only"),
        ]
        rows += [("amplitude", lv.n, str(lv.a), "floor((3/4)^n q_{k_n+1}), >= 1",
                  lv.a >= 1 and lv.a == _amp(lv.n, lv.q_next, "main")) for lv in L]
        for prev, cur in zip(L, L[1:]):
            ratio = Fraction(cur.q_next * prev.a, cur.a * prev.q_next)
            rows += [
                ("growth-5x-q", cur.n, f"{cur.q}/{prev.q}", ">= 5", cur.q >= 5 * prev.q),
                ("growth-5x-q-next", cur.n, f"{cur.q_next}/{prev.q_next}", ">= 5",
                 cur.q_next >= 5 * prev.q_next),
                ("ratio-window", cur.n, str(ratio), f"({RATIO_LO}, {RATIO_HI})",
                 RATIO_LO < ratio < RATIO_HI),
                ("chain-upper", cur.n, str(1 / ratio), "> 18/25", 1 / ratio > Fraction(18, 25)),
                ("chain-lower", cur.n, str(ratio), "> 11/10", ratio > RATIO_LO),
            ]
        peaks = [Fraction(lv.q_next, lv.a) for lv in L]
        rises = all(b > a for a, b in zip(peaks, peaks[1:])) and all(
            p >= RATIO_LO**i * peaks[0] for i, p in enumerate(peaks))
        rows.append(("exponential-rise", None, ",".join(map(str, peaks)),
                     "strictly increasing, >= (11/10)^(n-1) * first", rises))
    rows.append(("log-growth", None, ",".join(f"{math.log(lv.q) / lv.n:.6f}" for lv in L),
                 "-> infinity (asymptotic, reported only)", True,
                 False, "(1/n) log q_{k_n}; informational"))
    return ValidationReport(certificates=[Certificate(*row) for row in rows])
