"""Acceptance suite: one test per headline criterion, exact tolerances pinned.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The headline statements are asymptotic; every check here is the
exact finite surrogate at the stated parameters, with substitution budgets
carried explicitly and no floating point inside any certificate.
"""

import random
import time
from fractions import Fraction
from math import ceil

from mpmath import mp, mpf

from besicov import (
    IrrationalSpec,
    audit_aligned,
    audit_mixed,
    birkhoff,
    convergent,
    falconer_bounds,
    gap_bounds_check,
    make_cocycle,
    nesting_stats,
    orbit,
    phi_m,
    sample_point,
    select_levels,
    term,
    validate_levels,
)
from besicov.audit import _window_edge


def report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


def test_c01_convergent_gap_law():
    t0 = time.perf_counter()
    for preset in ("golden", "sqrt2m1"):
        spec = IrrationalSpec.from_preset(preset)
        for n in range(1, 41):
            cert = gap_bounds_check(spec, n)
            assert cert.passed and cert.sign == (-1 if n % 2 else 1), (preset, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    report(1, f"gap law exact for n=1..40 on both presets in {elapsed:.3f}s")


def test_c02_telescoping_identity():
    t0 = time.perf_counter()
    golden = IrrationalSpec.from_preset("golden")
    rng = random.Random(2024)
    xs = [Fraction(rng.randint(0, 10**4 - 1), rng.randint(1, 10**4)) % 1 for _ in range(5)]
    checked = 0
    for variant in ("main", "tent"):
        cs = make_cocycle(golden, "greedy", variant, 5)
        for x in xs:
            for m in range(-50, 51):
                assert phi_m(cs, x, m) == birkhoff(cs, x, m), (variant, x, m)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    report(2, f"phi_m == birkhoff bit-exact on {checked} cases in {elapsed:.1f}s")


def test_c03_ratio_window():
    t0 = time.perf_counter()
    golden = IrrationalSpec.from_preset("golden")
    lo, hi = Fraction(11, 10), Fraction(25, 18)
    for strategy, n_max in (("fixed", 4), ("greedy", 6)):
        profile = select_levels(golden, strategy, "main", n_max)
        for n in range(2, n_max + 1):
            cur, prev = profile.level(n), profile.level(n - 1)
            ratio = Fraction(cur.q_next * prev.a, cur.a * prev.q_next)
            assert lo < ratio < hi, (strategy, n)
        assert validate_levels(profile).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    report(3, f"peak ratios inside (1.1, 25/18) exactly, fixed n<=4 / greedy n<=6, {elapsed:.2f}s")


def test_c04_cantor_nesting():
    golden = IrrationalSpec.from_preset("golden")
    profile = select_levels(golden, "greedy", "main", 2)
    stats = nesting_stats(profile, "measured")
    row = stats.row(2)
    assert row.m_measured >= 3
    assert row.m_formula <= row.m_measured <= row.mbar_measured <= row.mbar_formula + 1
    report(
        4,
        f"level 1->2 child counts in [{row.m_measured}, {row.mbar_measured}], "
        f"formula sandwich [{float(row.m_formula):.2f}, {float(row.mbar_formula):.2f}+1]",
    )


def test_c05_aligned_divergence():
    t0 = time.perf_counter()
    golden = IrrationalSpec.from_preset("golden")

    def expect_pass(rep, fam):
        assert rep.status == "pass", (fam, rep.m, rep.status)
        sign = 1 if fam == "++" else -1
        assert all(r.value * sign >= 0 for r in rep.rows)
        lv = rep.rows[rep.n_of_m - 1]
        assert abs(lv.value) > rep.certified_lower > 0
        assert rep.total * sign > rep.certified_lower

    # literal reading: depth-5 center samples, windows n = 2 and 3
    cs5 = make_cocycle(golden, "greedy", "main", 5, n_levels=5)
    edges = [_window_edge(cs5.profile.level(n), "aligned") for n in range(1, 6)]
    win2 = list(range(ceil(edges[0]), ceil(edges[1])))
    win3 = list(range(ceil(edges[1]), ceil(edges[2])))
    assert win2 == []  # the n=2 window holds no integers for this profile
    assert win3 == [1]
    audited = 0
    for fam in ("++", "--"):
        _, path = sample_point(cs5.profile, fam, "center", 5)
        for m in (1, -1):
            expect_pass(audit_aligned(cs5, path, m), fam)
            audited += 1

    # the same machinery across every integer-bearing window up to n = 8
    cs10 = make_cocycle(golden, "greedy", "main", 10, n_levels=10)
    for fam in ("++", "--"):
        for policy in ("center", "leftmost"):
            _, path = sample_point(cs10.profile, fam, policy, 10)
            for m in (1, -1, 2, -2, 3, -3, 4, -4):
                rep = audit_aligned(cs10, path, m)
                assert rep.n_of_m in (3, 5, 7, 8)
                expect_pass(rep, fam)
                audited += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, elapsed
    report(
        5,
        f"{audited} aligned audits pass (windows n=3,5,7,8; n=2 empty of integers); "
        f"terms one-signed, totals exceed q_next/(75 A n^2) - budget; {elapsed:.1f}s",
    )


def test_c06_mixed_divergence():
    t0 = time.perf_counter()
    golden = IrrationalSpec.from_preset("golden")
    ct = make_cocycle(golden, "greedy", "tent", 6, n_levels=6)
    audited = 0
    for fam in ("-+", "+-"):
        _, path = sample_point(ct.profile, fam, "center", 6)
        for n in (2, 3):
            lo = ceil(_window_edge(ct.profile.level(n), "mixed"))
            top = ceil(_window_edge(ct.profile.level(n + 1), "mixed")) - 1
            spread = sorted({lo, lo + 1, (lo + top) // 2, top - 1, top})
            for m in spread:
                rep = audit_mixed(ct, path, m)
                assert rep.n_of_m == n
                assert rep.status != "fail", (fam, m)
                tail_rows = [r for r in rep.rows if r.l > n]
                assert len(tail_rows) >= 3
                assert all(r.sign_ok and r.bound_ok for r in tail_rows), (fam, m)
                audited += 1
            # the exact surrogate margin closes at the top of each window
            rep_top = audit_mixed(ct, path, top)
            assert rep_top.status == "pass" and rep_top.net_lower > 0, (fam, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    report(
        6,
        f"{audited} mixed audits: tail sign constancy and per-term bounds hold "
        f"window-wide, |tail| - head_bound > 0 at window tops; {elapsed:.1f}s",
    )


def test_c07_uniform_convergence_bound():
    golden = IrrationalSpec.from_preset("golden")
    cs = make_cocycle(golden, "greedy", "main", 5)
    rng = random.Random(7)
    for l in range(1, 6):
        lv = cs.profile.level(l)
        budget = lv.lam * Fraction(1, cs.gap)
        for _ in range(100):
            x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
            t = term(lv, "main", x, cs.alpha_hat)
            assert abs(t) < Fraction(1, l * l) + budget, (l, x)
    report(7, "per-level shift bound |f_l(x+a) - f_l(x)| < 1/l^2 + budget, l<=5, 100 x each")


def test_c08_dimension_bounds():
    golden = IrrationalSpec.from_preset("golden")
    fixed8 = select_levels(golden, "fixed", "main", 8)
    lv8 = fixed8.level(8)
    assert lv8.k == 257
    assert lv8.q == convergent(golden, 257).q and lv8.q_next == convergent(golden, 258).q
    fb = falconer_bounds(nesting_stats(fixed8, "formula"))
    closed8 = fb.row(8).closed_lower
    assert closed8.lo > Fraction(9, 10)
    assert closed8.width <= Fraction(1, 2**40) * max(abs(closed8.lo), abs(closed8.hi))

    greedy = select_levels(golden, "greedy", "main", 6)
    gb = falconer_bounds(nesting_stats(greedy, "formula"))
    for r in gb.rows:
        if r.lower is not None:
            assert r.lower.hi <= r.upper.lo, r.n
        assert r.closed_lower.hi <= r.closed_upper.lo
    # measured counts can only improve the lower bound (both the numerator
    # and the gap scale grow with the counts); the lower/upper pointwise
    # ordering is a formula-mode property at these depths
    greedy3 = select_levels(golden, "greedy", "main", 3)
    fb3 = falconer_bounds(nesting_stats(greedy3, "formula"))
    mb = falconer_bounds(nesting_stats(greedy3, "measured"))
    assert mb.row(2).lower.lo >= fb3.row(2).lower.lo
    assert Fraction(0) <= mb.row(2).lower.lo and mb.row(2).upper.hi <= 1

    trend = [float(r.closed_lower.mid) for r in gb.rows]
    assert all(a > b for a, b in zip(trend, trend[1:]))  # greedy plateaus below 1
    assert trend[-1] < float(closed8.lo)
    report(
        8,
        f"fixed-golden closed lower bound at n=8 = {float(closed8.mid):.4f} > 0.9 "
        f"(tol 2^-40); nested lower<=upper on greedy; greedy trend {trend[0]:.3f}"
        f"->{trend[-1]:.3f} stays below the fixed-strategy bound",
    )


def test_c09_tail_side_condition():
    M = 10**6
    S = 1 << 64
    tails = {}
    acc = 0
    for l in range(M, 1, -1):
        acc += S // (l * l)
        if l - 1 <= 100:
            tails[l - 1] = acc
    for n in range(1, 101):
        lo = Fraction(tails[n], S) + Fraction(1, M + 1)
        hi = Fraction(tails[n] + (M - n), S) + Fraction(1, M)
        bound = Fraction(24, 25 * n)
        if n >= 13:
            assert lo > bound, n
        else:
            assert hi < bound, n
    report(9, "sum_{l>n} 1/l^2 > 24/(25n) certified true for n=13..100, false for n=1..12")


def test_c10_orbit_matches_exact_sums():
    golden = IrrationalSpec.from_preset("golden")
    ct = make_cocycle(golden, "greedy", "tent", 4)
    x0 = Fraction(1, 7)
    rec = orbit(ct, x0, Fraction(0), steps=1000, precision_bits=128,
                checkpoints=(10, 100, 1000))
    worst = 0.0
    with mp.workprec(300):
        for m in (10, 100, 1000):
            exact = phi_m(ct, x0, m)
            diff = abs(mpf(rec.checkpoints[m]) - mpf(exact.numerator) / mpf(exact.denominator))
            assert diff <= mpf(rec.error_bound.numerator) / mpf(rec.error_bound.denominator)
            worst = max(worst, float(diff))
    report(
        10,
        f"128-bit orbit matches exact sums at m=10,100,1000; worst |diff| = {worst:.2e} "
        f"within declared bound {float(rec.error_bound):.2e}",
    )
