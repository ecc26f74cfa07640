"""Orbit simulation, error accounting, chaos probes."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_add, mpf_div, mpf_ge, mpf_lt, mpf_sub,
                          to_float, to_str)

from besicov import (
    IrrationalSpec,
    classify_orbit,
    coverage,
    dynamics,
    make_cocycle,
    nonrecurrence_test,
    orbit,
    phi,
    phi_m,
    sample_point,
    sensitivity_probe,
    targets,
)
from besicov.cocycle import walk
from besicov.errors import ErrorBudgetBlown

import oracles
from oracles import to_mpf

#: A start whose lattice denominator (3^170 > 2^269) is wider than every
#: tested precision, with a factor 3 shared by about a third of the positions,
#: so rounding the unreduced pair would differ from mpf(a)/mpf(b).
WIDE_X0 = Fraction(random.Random(5).getrandbits(300) | 1, 3**170)


def _lane_and_oracle(cspec, x0, steps, bits):
    """[(x_i, t_i - t_0 as an _mpf_ tuple)] from the lattice walk and from the
    oracle's Fraction-and-bump replay, both at ``bits``."""
    d, values = dynamics._t_values(cspec, x0, steps, bits)
    lane = [(Fraction(u, d), from_man_exp(*t)) for _, u, t in values]
    with mp.workprec(bits):
        oracle = [(x, t._mpf_) for x, t in oracles.t_values(cspec, x0, steps)]
    return lane, oracle


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("variant", ["main", "tent"])
@pytest.mark.parametrize("alpha", ["golden", "sqrt2m1"])
def test_lattice_walk_has_the_bits_of_the_bump_oracle(alpha, variant, bits):
    cspec = make_cocycle(IrrationalSpec.from_preset(alpha), "greedy", variant, 3)
    rng = random.Random(bits)
    starts = [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(2)]
    starts.append(sample_point(cspec.profile, "-+" if variant == "tent" else "++", "center", 3)[0])
    # the first or the last level exactly at u = 1/12, 5/12 and 1/2, where the
    # branches meet (the last level's peak is the largest term of the sum)
    for lv in (cspec.levels[0], cspec.levels[-1]):
        starts += [Fraction(k, 12 * lv.cell_count) for k in (1, 5, 6)]
    starts.append(WIDE_X0)
    assert walk(cspec, WIDE_X0, 0)[0].bit_length() > bits
    for x0 in starts:
        lane, oracle = _lane_and_oracle(cspec, x0, 80, bits)
        for i, (got, want) in enumerate(zip(lane, oracle, strict=True)):
            assert got == want, (x0, i)


@pytest.mark.parametrize("t0", [Fraction(-5, 3), Fraction(7, 3**170)])
def test_orbit_and_nonrecurrence_have_the_bits_of_the_bump_oracle(tent_cocycle, t0):
    """t_base + dt and the circle distance round as mpf objects would."""
    x0, bits = WIDE_X0, 64
    rec = orbit(tent_cocycle, x0, t0, steps=40, precision_bits=bits, checkpoints=(7, 40))
    res = nonrecurrence_test(tent_cocycle, x0, t0, Fraction(1, 10), 40, precision_bits=bits)
    with mp.workprec(bits):
        replay = list(oracles.t_values(tent_cocycle, x0, 40))
        ts = [to_mpf(t0) + t for _, t in replay]
        dist = [to_mpf(dynamics._circle_dist(x, x0 % 1)) + abs(t) for x, t in replay[1:]]
        dps = int(bits * 0.302) + 2
        assert rec.checkpoints == {k: mp.nstr(ts[k], dps) for k in (7, 40)}
        assert rec.t_final == mp.nstr(ts[-1], dps)
    assert rec.ts == [float(t) for t in ts]
    assert rec.xs == [float(x) for x, _ in replay]
    assert rec.x_final == replay[-1][0]
    assert res.witness["min_distance"] == float(min(dist))


PRECS = st.sampled_from([53, 64, 128, 256])
#: narrow (at most 53 bits, so within every tested precision) or wide
WIDTHS = st.one_of(st.integers(1, 2**53), st.integers(1, 2**600))


@settings(max_examples=400, deadline=None)
@given(PRECS, st.one_of(st.just(0), WIDTHS), WIDTHS)
def test_div_rounds_as_mpf_div(prec, a, b):
    """The exact operands divided and rounded once, as mpf_div rounds them."""
    want = mpf_div(from_int(a), from_int(b), prec, "n")
    assert from_man_exp(*dynamics._div(a, b, prec)) == want


@settings(max_examples=400, deadline=None)
@given(PRECS, st.one_of(st.just(0), WIDTHS, WIDTHS.map(lambda v: -v)), WIDTHS)
def test_ratio_rounds_as_mpf_of_the_reduced_pair(prec, n, d):
    """Narrow pairs divide exactly; wide ones are reduced and each operand
    rounded first, as mpf(a) / mpf(b) rounds them."""
    g = Fraction(n, d)
    a, b = from_int(g.numerator, prec, "n"), from_int(g.denominator, prec, "n")
    assert from_man_exp(*dynamics._ratio(n, d, prec)) == mpf_div(a, b, prec, "n")


@st.composite
def _ties(draw):
    """(m, prec): m = q 10...0 in binary, q of prec bits, odd or even."""
    prec = draw(PRECS)
    q = draw(st.integers(2 ** (prec - 1), 2**prec - 1)) | 1
    q -= draw(st.booleans())
    n = draw(st.integers(1, 300))
    return q << n | 1 << (n - 1), prec


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ties(), st.tuples(st.integers(0, 2**600), PRECS)), st.integers(-400, 400))
def test_round_matches_from_man_exp_with_ties_to_even(case, e):
    m, prec = case
    assert from_man_exp(*dynamics._round(m, e, prec)) == from_man_exp(m, e, prec, "n")


#: precisions of the stand-ins for libmp's add, compare and conversions
WIDE_PRECS = st.sampled_from([53, 64, 128, 256, 1000])
#: exponents up to 20000 either way, or near 0
EXPS = st.one_of(st.integers(-20000, 20000), st.integers(-300, 300))


@st.composite
def _pairs(draw, prec):
    """A signed pair of at most ``prec`` bits, zero now and then, as the lane
    makes them."""
    m = draw(st.one_of(st.just(0), st.integers(1, 2**prec - 1)))
    return (-m if draw(st.booleans()) else m), draw(EXPS)


@st.composite
def _operands(draw):
    """(prec, a, b): b's exponent near a's (the aligned sum), anywhere (far
    apart, where mpf_add perturbs the far operand) or equal with b = a or -a
    (an exact cancellation)."""
    prec = draw(WIDE_PRECS)
    a, b = draw(_pairs(prec)), draw(_pairs(prec))
    how = draw(st.sampled_from(["near", "far", "same"]))
    if how == "near":
        b = (b[0], a[1] + draw(st.integers(-3, 3)))
    elif how == "same":
        b = (a[0] * draw(st.sampled_from([1, -1])), a[1])
    return prec, a, b


@settings(max_examples=400, deadline=None)
@given(_operands())
def test_difference_rounds_as_mpf_sub(case):
    """Signed a - b and a + b, each rounded once as mpf_sub and mpf_add round it."""
    prec, a, b = case
    fa, fb = from_man_exp(*a), from_man_exp(*b)
    assert from_man_exp(*dynamics._sub(a, b, prec)) == mpf_sub(fa, fb, prec, "n")
    assert from_man_exp(*dynamics._add(a, b, prec)) == mpf_add(fa, fb, prec, "n")


@settings(max_examples=400, deadline=None)
@given(_operands())
def test_less_compares_as_mpf_lt(case):
    _, a, b = case
    fa, fb = from_man_exp(*a), from_man_exp(*b)
    assert dynamics._less(a, b) == mpf_lt(fa, fb)
    assert (not dynamics._less(a, b)) == mpf_ge(fa, fb)


@st.composite
def _near_float_ties(draw):
    """m = q 10...0 in binary with q of 53 bits, one less or one more: the
    values that a rounding to 54 bits first would round twice."""
    q = draw(st.integers(2**52, 2**53 - 1))
    n = draw(st.integers(2, 200))
    return (q << n | 1 << (n - 1)) + draw(st.sampled_from([-1, 0, 1]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_near_float_ties(), st.integers(0, 2**600)), st.booleans(),
       st.one_of(st.integers(-1300, 1100), EXPS))
def test_float_converts_as_to_float(m, negative, e):
    """Nearest, ties to even, at 53 bits; subnormal, zero or infinite beyond
    the float range."""
    m = -m if negative else m
    assert dynamics._float((m, e)) == to_float(from_man_exp(m, e), rnd="n")


@st.composite
def _decimals(draw):
    """(m, e, bits), bits for up to 7000 printed digits: m of up to twice
    that many bits with e up to 20000 either way, or an integer whose first
    digit after the printed ones is 5, after printed ones that are all 9 now
    and then, or 4 after all 9s."""
    bits = draw(st.one_of(st.integers(64, 400), st.integers(64, 23170)))
    dps = int(bits * 0.302) + 2
    kind = draw(st.sampled_from(["binary", "half", "nines"]))
    if kind == "binary":
        size = draw(st.integers(1, 2 * bits))
        m, e = draw(st.integers(0, 2**size)), draw(st.one_of(st.integers(-2 * size, size), EXPS))
    else:
        head = 10**dps - 1 if kind == "nines" else draw(st.integers(10 ** (dps - 1), 10**dps - 1))
        last = draw(st.sampled_from([4, 5])) if kind == "nines" else 5
        m, e = (10 * head + last) * 10 ** draw(st.integers(0, 3)), 0
    return (-m if draw(st.booleans()) else m), e, bits


@settings(max_examples=300, deadline=None)
@given(_decimals())
def test_decimal_prints_as_to_str(case):
    """As ``mp.nstr`` at ``bits``: to_str's digits, rounding and layout,
    above 4300 digits too.  Beyond 2^±3500 both sides print through
    ``to_str``, whose rescaled integer may exceed the int-to-str digit
    limit, so the limit is lifted for the comparison and then restored."""
    m, e, bits = case
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert dynamics._decimal((m, e), bits) == to_str(from_man_exp(m, e), int(bits * 0.302) + 2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_single_step(tent_cocycle):
    x0 = Fraction(1, 7)
    rec = orbit(tent_cocycle, x0, Fraction(0), steps=1, checkpoints=(1,))
    assert rec.x_final == (x0 + tent_cocycle.alpha_hat) % 1
    with mp.workprec(200):
        expect = to_mpf(phi(tent_cocycle, x0))
        assert abs(mpf(rec.checkpoints[1]) - expect) <= to_mpf(rec.error_bound)


@pytest.mark.parametrize("m", [10, 100])
def test_orbit_matches_exact_sums(tent_cocycle, m):
    x0 = Fraction(1, 7)
    rec = orbit(tent_cocycle, x0, Fraction(0), steps=m, checkpoints=(m,))
    with mp.workprec(250):
        diff = abs(mpf(rec.checkpoints[m]) - to_mpf(phi_m(tent_cocycle, x0, m)))
        assert diff <= to_mpf(rec.error_bound)


def test_error_bound_independent_of_steps(tent_cocycle):
    short = orbit(tent_cocycle, Fraction(1, 7), steps=10)
    long = orbit(tent_cocycle, Fraction(1, 7), steps=3000)
    assert short.error_bound == long.error_bound > 0


def test_vertical_translation_commutes(tent_cocycle):
    x0 = Fraction(3, 11)
    a = orbit(tent_cocycle, x0, Fraction(0), steps=40, checkpoints=(40,))
    b = orbit(tent_cocycle, x0, Fraction(5, 2), steps=40, checkpoints=(40,))
    with mp.workprec(200):
        shift = mpf(b.checkpoints[40]) - mpf(a.checkpoints[40])
        assert abs(shift - mpf(5) / 2) <= 2 * to_mpf(a.error_bound)


def test_orbits_at_different_precisions_run_in_threads(tent_cocycle):
    """Four threads alternating 64 and 256 bits get their single-thread
    records, and the caller's mpmath precision is left as it was."""
    starts = [Fraction(1, 7 + j) for j in range(4)]

    def run(x0, bits):
        return orbit(tent_cocycle, x0, steps=3, precision_bits=bits, checkpoints=(3,))

    want = {(x0, bits): run(x0, bits) for x0 in starts for bits in (64, 256)}
    got: dict[Fraction, list] = {x0: [] for x0 in starts}

    def worker(x0):
        for i in range(200):
            bits = (64, 256)[i % 2]
            got[x0].append((bits, run(x0, bits)))

    prec, interval = mp.prec, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(x0,)) for x0 in starts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mp.prec == prec
    for x0 in starts:
        assert len(got[x0]) == 200
        assert all(rec == want[x0, bits] for bits, rec in got[x0])


def test_orbit_error_cap(golden):
    # fixed tent levels 1..4 at 64 bits declare 6.09e-6, above the 1e-6 cap
    cs = make_cocycle(golden, "fixed", "tent", 4, n_levels=4)
    with pytest.raises(ErrorBudgetBlown, match="exceeds cap 1e-06"):
        orbit(cs, Fraction(1, 3), steps=10, precision_bits=64)
    assert orbit(cs, Fraction(1, 3), steps=10, precision_bits=72).error_bound < dynamics.ERROR_CAP


@pytest.mark.parametrize("bits", [63, 0, -5])
def test_every_probe_refuses_low_precision(tent_cocycle, bits):
    x, eps = Fraction(1, 7), Fraction(1, 10)
    probes = [
        lambda: orbit(tent_cocycle, x, steps=10, precision_bits=bits),
        lambda: nonrecurrence_test(tent_cocycle, x, Fraction(0), eps, 10, precision_bits=bits),
        lambda: sensitivity_probe(tent_cocycle, x, Fraction(1, 1000), eps, 10, samples=1,
                                  precision_bits=bits),
        lambda: classify_orbit(tent_cocycle, x, 10, precision_bits=bits),
    ]
    for probe in probes:
        with pytest.raises(ValueError, match="precision_bits must be >= 64"):
            probe()


def test_coverage_deterministic_and_monotone(golden, tent_cocycle):
    rec_short = orbit(tent_cocycle, Fraction(1, 7), steps=2000, precision_bits=96)
    rec_long = orbit(tent_cocycle, Fraction(1, 7), steps=6000, precision_bits=96)
    f_short = coverage(rec_short, 30.0, 40)
    f_long = coverage(rec_long, 30.0, 40)
    assert 0 < f_short <= f_long
    assert coverage(rec_short, 30.0, 40) == f_short  # pure function of the record
    # frozen regression baselines (box [0,1) x [-30,30], 40x40 grid)
    assert f_short == 0.461875
    assert f_long == 0.47


def test_coverage_start_cell_only():
    class Rec:
        xs = [0.5]
        ts = [0.0]

    assert coverage(Rec(), 1.0, 10) == pytest.approx(1 / 100)


def test_nonrecurrence_on_target_sample(tent_cocycle):
    x, _ = sample_point(tent_cocycle.profile, "-+", "center", 4)
    res = nonrecurrence_test(tent_cocycle, x, Fraction(0), Fraction(1, 10), 1000)
    assert res.outcome == "pass"
    res_t = nonrecurrence_test(tent_cocycle, x, Fraction(7, 2), Fraction(1, 10), 1000)
    assert res_t.outcome == res.outcome  # verdict cannot depend on t


def test_nonrecurrence_rejects_vacuous_horizon(tent_cocycle):
    """Both probes refuse a horizon below 1: none would test nothing, and a
    negative one would walk backward and report the steps as forward ones."""
    x, eps = Fraction(1, 3), Fraction(1, 10)
    probes = [
        lambda h: nonrecurrence_test(tent_cocycle, x, Fraction(0), eps, h),
        lambda h: sensitivity_probe(tent_cocycle, x, Fraction(1, 1000), eps, h, samples=1),
    ]
    for probe in probes:
        for horizon in (0, -5):
            with pytest.raises(ValueError, match="horizon must be >= 1"):
                probe(horizon)


@pytest.mark.parametrize("store_every", [0, -2])
def test_orbit_rejects_store_every_below_one(tent_cocycle, store_every):
    with pytest.raises(ValueError, match="store_every must be >= 1"):
        orbit(tent_cocycle, Fraction(1, 3), steps=10, store_every=store_every)


@pytest.mark.parametrize("box_height", [0.0, -1.0, float("nan")])
def test_coverage_rejects_empty_box(tent_cocycle, box_height):
    rec = orbit(tent_cocycle, Fraction(1, 7), steps=10)
    with pytest.raises(ValueError, match="box_height must be positive"):
        coverage(rec, box_height, 10)


def test_nonrecurrence_refuses_tiny_eps(tent_cocycle):
    with pytest.raises(ErrorBudgetBlown):
        nonrecurrence_test(
            tent_cocycle, Fraction(1, 3), Fraction(0), Fraction(1, 10**40), 10
        )


def test_sensitivity_finds_witness(tent_cocycle):
    res = sensitivity_probe(
        tent_cocycle,
        Fraction(1, 4),
        delta=Fraction(1, 1000),
        eps=Fraction(1),
        horizon=3000,
        samples=4,
        seed=7,
    )
    assert res.outcome == "witness-found"
    assert res.witness["separation"] > 1
    assert res.witness["reverified_bits"] == 256


@pytest.mark.parametrize("variant", ["tent", "main"])
@pytest.mark.parametrize(
    "x, delta",
    [(Fraction(1, 4), Fraction(1, 1000)), (Fraction(2, 7), Fraction(1, 100)),
     (Fraction(5, 9), Fraction(1, 50))],
)
def test_sensitivity_candidate_lies_in_the_levels_it_descends(golden, variant, x, delta):
    """The candidate is in the union of every level from its start level (the
    first with period <= delta/2) to its depth; coarser levels are unchecked."""
    cspec = make_cocycle(golden, "greedy", variant, 4)
    family = "-+" if variant == "tent" else "++"
    y = targets._probe_start(cspec.profile, family, cspec.n_levels, x, delta)
    assert y is not None and abs(y - x) <= delta
    start = next(l for l in range(1, cspec.n_levels + 1)
                 if cspec.profile.level(l).period <= delta / 2)
    for l in range(start, min(start + 2, cspec.n_levels) + 1):
        assert oracles.member_level(cspec.profile, family, l, y) is not None


def test_sensitivity_unreachable_eps(tent_cocycle):
    res = sensitivity_probe(
        tent_cocycle,
        Fraction(1, 4),
        delta=Fraction(1, 1000),
        eps=Fraction(10**9),
        horizon=1,
        samples=2,
        seed=3,
    )
    assert res.outcome == "not-found"


def _spy_walks(monkeypatch):
    """Record [x0, prec, last step yielded] for each walk of _t_values."""
    t_values, calls = dynamics._t_values, []

    def spy(cspec, x0, steps, prec):
        call = [x0, prec, None]
        calls.append(call)
        d, values = t_values(cspec, x0, steps, prec)

        def recorded():
            for item in values:
                call[2] = item[0]
                yield item

        return d, recorded()

    monkeypatch.setattr(dynamics, "_t_values", spy)
    return calls


def test_sensitivity_walks_x_once_per_precision(tent_cocycle, monkeypatch):
    """A not-found probe of 8 candidates walks x once and each candidate once."""
    calls = _spy_walks(monkeypatch)
    res = sensitivity_probe(tent_cocycle, Fraction(1, 4), delta=Fraction(1, 1000),
                            eps=Fraction(10**9), horizon=1, samples=8, seed=3)
    starts = [x0 for x0, _, _ in calls]
    assert len(starts) == 9 and starts.count(Fraction(1, 4)) == 1
    # as recorded when every candidate walked x again
    assert res.as_dict() == {
        "kind": "sensitivity",
        "params": {"delta": "1/1000", "eps": "1000000000", "horizon": 1, "samples": 8,
                   "seed": 3, "precision_bits": 128, "x": "1/4"},
        "outcome": "not-found",
        "witness": None,
        "error_bound": 3.563042828462809e-29,
        "details": {"note": "absence of a witness is not a disproof"},
    }


def test_sensitivity_base_pass_stops_at_the_first_decisive_step(tent_cocycle, monkeypatch):
    calls = _spy_walks(monkeypatch)
    horizon = 100
    res = sensitivity_probe(tent_cocycle, Fraction(1, 4), delta=Fraction(1, 1000),
                            eps=Fraction(1), horizon=horizon, samples=4, seed=7)
    assert res.outcome == "witness-found"
    y = Fraction(res.witness["y"])
    base = [last for x0, prec, last in calls if x0 == y and prec == 128]
    assert len(base) == 1 and base[0] < horizon
    # the witness itself comes from a walk of the whole horizon
    assert [last for x0, prec, last in calls if prec == 256] == [horizon, horizon]


def test_sensitivity_walks_x_only_as_far_as_a_candidate_reads(golden, monkeypatch):
    """README's probe: the base pass decides at step 18 of 3000, and x's
    128-bit walk stops there with the witness's; only the re-run at doubled
    precision walks the whole horizon (6036 steps, not 9018)."""
    calls = _spy_walks(monkeypatch)
    res = sensitivity_probe(make_cocycle(golden, "greedy", "tent", 4), Fraction(1, 4),
                            delta=Fraction(1, 1000), eps=Fraction(1), horizon=3000, seed=7)
    y = Fraction(63245989, 252983944)
    assert res.witness["y"] == str(y) and res.witness["k"] == 3000
    assert calls == [[Fraction(1, 4), 128, 18], [y, 128, 18],
                     [Fraction(1, 4), 256, 3000], [y, 256, 3000]]


def test_sensitivity_reverifies_at_doubled_precision(tent_cocycle, monkeypatch):
    calls = _spy_walks(monkeypatch)
    res = sensitivity_probe(tent_cocycle, Fraction(1, 4), delta=Fraction(1, 1000),
                            eps=Fraction(1), horizon=100, samples=4, seed=7,
                            precision_bits=96)
    assert res.outcome == "witness-found" and res.witness["reverified_bits"] == 192
    y = Fraction(res.witness["y"])
    assert [x0 for x0, prec, _ in calls if prec == 192] == [Fraction(1, 4), y]


def test_sensitivity_deterministic(tent_cocycle):
    kw = dict(delta=Fraction(1, 100), eps=Fraction(1, 2), horizon=500, samples=3, seed=42)
    a = sensitivity_probe(tent_cocycle, Fraction(2, 7), **kw)
    b = sensitivity_probe(tent_cocycle, Fraction(2, 7), **kw)
    assert a.as_dict() == b.as_dict()


def test_classification_of_escaping_sample(tent_cocycle):
    x, _ = sample_point(tent_cocycle.profile, "-+", "center", 5)
    assert classify_orbit(tent_cocycle, x, 10000) == "escaping+"


def test_classification_never_overclaims(tent_cocycle, monkeypatch):
    x, _ = sample_point(tent_cocycle.profile, "-+", "center", 5)
    monkeypatch.setattr(dynamics, "ESCAPE_LEVEL", 1e12)
    assert classify_orbit(tent_cocycle, x, 2000) in (
        "oscillating",
        "undetermined",
    )


def test_classification_tiny_horizon(tent_cocycle):
    assert classify_orbit(tent_cocycle, Fraction(1, 7), 3) == "undetermined"
