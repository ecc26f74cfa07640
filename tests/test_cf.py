"""Continued-fraction engine: convergents, brackets, the gap law."""

import importlib
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from besicov import (
    IrrationalSpec,
    alpha_bracket,
    audit_aligned,
    audit_mixed,
    convergent,
    gap_bounds_check,
    sample_point,
)
from besicov import cf
from besicov.cf import Enclosure, certify_offset, gap_law_offset
from besicov.errors import IndecisiveBracket

import oracles

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_recurrence_seed(golden):
    c = convergent(golden, 0)
    assert (c.p, c.q) == (0, 1)


def test_golden_denominators_are_fibonacci(golden):
    assert [convergent(golden, n).q for n in range(11)] == FIB


def test_golden_sixth_convergent(golden):
    c = convergent(golden, 6)
    assert (c.p, c.q) == (8, 13)


def test_sqrt2m1_fourth_convergent(sqrt2m1):
    # oracle: run the recurrence by hand with all quotients equal to 2
    p2, p1, q2, q1 = 1, 0, 0, 1
    for _ in range(4):
        p2, p1 = p1, 2 * p1 + p2
        q2, q1 = q1, 2 * q1 + q2
    assert (p1, q1) == (12, 29)
    c = convergent(sqrt2m1, 4)
    assert (c.p, c.q) == (12, 29)


@pytest.mark.parametrize("preset", ["golden", "sqrt2m1"])
def test_coprime_and_unimodular(preset):
    spec = IrrationalSpec.from_preset(preset)
    for n in range(30):
        a, b = convergent(spec, n), convergent(spec, n + 1)
        assert gcd(a.p, a.q) == 1
        assert abs(b.p * a.q - a.p * b.q) == 1


@pytest.mark.parametrize("preset", ["golden", "sqrt2m1"])
def test_denominator_doubling(preset):
    spec = IrrationalSpec.from_preset(preset)
    qs = [convergent(spec, n).q for n in range(30)]
    assert all(qs[n + 2] >= 2 * qs[n] for n in range(28))


def _sqrt_bracket(radicand: int, digits: int) -> tuple[Fraction, Fraction]:
    """Decimal enclosure of sqrt(radicand), independent of any convergent."""
    scale = 10**digits
    r = isqrt(radicand * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def test_golden_bracket_depth2(golden):
    br = alpha_bracket(golden, 2)
    assert (br.lo, br.hi) == (Fraction(1, 2), Fraction(2, 3))
    s_lo, s_hi = _sqrt_bracket(5, 40)
    alpha_lo, alpha_hi = (s_lo - 1) / 2, (s_hi - 1) / 2
    assert br.lo < alpha_lo and alpha_hi < br.hi


def test_sqrt2m1_bracket_contains_alpha(sqrt2m1):
    br = alpha_bracket(sqrt2m1, 3)
    s_lo, s_hi = _sqrt_bracket(2, 40)
    assert br.lo < s_lo - 1 and s_hi - 1 < br.hi


@pytest.mark.parametrize("preset", ["golden", "sqrt2m1"])
def test_bracket_width_law(preset):
    spec = IrrationalSpec.from_preset(preset)
    widths = []
    for depth in range(1, 15):
        br = alpha_bracket(spec, depth)
        q0 = convergent(spec, depth).q
        q1 = convergent(spec, depth + 1).q
        assert br.width == Fraction(1, q0 * q1)
        widths.append(br.width)
    assert all(a > b for a, b in zip(widths, widths[1:]))


@pytest.mark.parametrize("preset", ["golden", "sqrt2m1"])
def test_gap_law_first_forty(preset):
    spec = IrrationalSpec.from_preset(preset)
    for n in range(1, 41):
        cert = gap_bounds_check(spec, n)
        assert cert.passed, n
        assert cert.sign == (-1 if n % 2 else 1)


def test_gap_witnesses_are_ordered(golden):
    cert = gap_bounds_check(golden, 5)
    assert cert.lower_bound < cert.distance_lo <= cert.distance_hi < cert.upper_bound
    assert cert.sign == -1


def rewalked_depth(spec, k, width):
    """The depth certify_offset used, by bracket widths: the first of start,
    2 start, 4 start, ... whose bracket is ``width`` wide (past
    MAX_BRACKET_DEPTH when none is, rather than searching forever)."""
    used = max(8, k + 3)
    while used <= cf.MAX_BRACKET_DEPTH and alpha_bracket(spec, used).width != width:
        used *= 2
    return used


def gap_depth(spec, cert):
    return rewalked_depth(spec, cert.n, cert.distance_hi - cert.distance_lo)


def undecidable_below(monkeypatch, depth):
    """Make every bracket shallower than ``depth`` straddle each convergent."""
    real = cf.alpha_bracket
    undecidable = Enclosure(Fraction(0), Fraction(1))
    monkeypatch.setattr(
        cf, "alpha_bracket", lambda spec, d: real(spec, d) if d >= depth else undecidable
    )


@pytest.mark.parametrize(
    "spec",
    [IrrationalSpec.from_preset("golden"), IrrationalSpec(head=(0,), tail=(1, 2))],
    ids=["golden", "quotients=1,2"],
)
def test_depth_used_matches_bracket_widths(spec):
    for n in range(1, 61):
        cert = gap_bounds_check(spec, n)
        assert cert.depth_used == gap_depth(spec, cert), n


def test_depth_used_counts_escalations(golden, monkeypatch):
    undecidable_below(monkeypatch, 32)
    cert = gap_bounds_check(golden, 5)  # depths 8 and 16 undecided, 32 decides
    assert cert.passed
    assert cert.depth_used == 32 == gap_depth(golden, cert)


# ``besicov.audit`` as an attribute is the audit function, not the module
AUDIT_MODULE = importlib.import_module("besicov.audit")


def record(monkeypatch, name, fn):
    """Route the audit module's ``name`` through ``fn``, recording each call's
    arguments and result in the returned list."""
    calls = []

    def recording(*args):
        out = fn(*args)
        calls.append((*args, out))
        return out

    monkeypatch.setattr(AUDIT_MODULE, name, recording)
    return calls


def audit_fixtures(greedy_cocycle, tent_cocycle):
    """One aligned and one mixed audit of the shared fixtures, both passing:
    five comparisons against alpha (one window bullet pair, four premises)."""
    _, path = sample_point(greedy_cocycle.profile, "++", "center", 5)
    assert audit_aligned(greedy_cocycle, path, 1).status == "pass"
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    assert audit_mixed(tent_cocycle, path, -3863).status == "pass"


@pytest.mark.parametrize("escalate", [False, True], ids=["direct", "escalated"])
def test_shift_window_depth_matches_bracket_widths(
    golden, greedy_cocycle, tent_cocycle, monkeypatch, escalate
):
    """The audits' displacement premises, once the gap law declines them,
    report the bracket depth that decided them."""
    if escalate:
        undecidable_below(monkeypatch, 64)
    monkeypatch.setattr(AUDIT_MODULE, "gap_law_offset", lambda *args: None)
    calls = record(monkeypatch, "certify_offset", certify_offset)
    audit_fixtures(greedy_cocycle, tent_cocycle)
    assert len(calls) == 5
    for _, k, _, _, scale, (verdict, _, dist_lo, dist_hi, depth) in calls:
        assert verdict
        assert depth == rewalked_depth(golden, k, (dist_hi - dist_lo) / scale), k
        assert (depth > 64) == escalate


def test_gap_law_decides_every_audit_premise(greedy_cocycle, tent_cocycle, monkeypatch):
    """On the same fixtures the gap law decides all five comparisons, each as
    the brackets do, and no bracket is built."""
    escalations = record(monkeypatch, "certify_offset", certify_offset)
    decisions = record(monkeypatch, "gap_law_offset", gap_law_offset)
    audit_fixtures(greedy_cocycle, tent_cocycle)
    assert escalations == []
    assert len(decisions) == 5
    for *args, verdict in decisions:
        assert verdict is True and certify_offset(*args)[0] is True


def test_certify_offset_gives_up(golden, monkeypatch):
    undecidable_below(monkeypatch, 1 << 20)
    monkeypatch.setattr(cf, "MAX_BRACKET_DEPTH", 16)
    with pytest.raises(IndecisiveBracket, match="depth 16"):
        certify_offset(golden, 2, Fraction(0), Fraction(1))


@given(
    tail=st.sampled_from(((1,), (2,), (1, 2), (3,), (2, 1, 1))),
    k=st.integers(1, 40),
    scale=st.integers(0, 10**6),
    lo_shift=st.tuples(st.integers(-3, 3), st.integers(0, 80)),
    hi_shift=st.tuples(st.integers(-3, 3), st.integers(0, 80)),
    decided_from=st.sampled_from((1, 1, 16, 64, 256)),
    cap=st.sampled_from((16, 128, cf.MAX_BRACKET_DEPTH, cf.MAX_BRACKET_DEPTH)),
)
@settings(max_examples=300, deadline=None)
def test_certify_offset_matches_enclosure_arithmetic(
    tail, k, scale, lo_shift, hi_shift, decided_from, cap
):
    """The integer cross-multiplications return the Enclosure route's whole
    5-tuple, depth included, or raise the same IndecisiveBracket, for bounds
    placed at relative distances 2^-80 .. 3 from scale |alpha - p_k/q_k|,
    with brackets undecidable below ``decided_from`` and a cap of ``cap``."""
    spec = IrrationalSpec(head=(0,), tail=tail)
    near = scale * abs(convergent(spec, k + 60).value - convergent(spec, k).value)
    lo = max(Fraction(0), near * (1 + Fraction(lo_shift[0], 1 << lo_shift[1])))
    hi = near * (1 + Fraction(hi_shift[0], 1 << hi_shift[1]))
    with pytest.MonkeyPatch.context() as mp:
        undecidable_below(mp, decided_from)
        mp.setattr(cf, "MAX_BRACKET_DEPTH", cap)
        try:
            want = oracles.certify_offset(spec, k, lo, hi, scale)
        except IndecisiveBracket as exc:
            with pytest.raises(IndecisiveBracket) as got:
                certify_offset(spec, k, lo, hi, scale)
            assert str(got.value) == str(exc)
        else:
            assert certify_offset(spec, k, lo, hi, scale) == want


#: A bound as (end, shift, bits): end 0 is lo = 0, ends 1 and 2 are the gap
#: law's scale/(2 q q') and scale/(q q'), moved by the relative shift/2^bits.
LAW_BOUNDS = st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(0, 80))


def law_bound(spec, k, scale, placed):
    end, shift, bits = placed
    q_q = convergent(spec, k).q * convergent(spec, k + 1).q
    return Fraction(end * scale, 2 * q_q) * (1 + Fraction(shift, 1 << bits))


def test_gap_law_offset_agrees_with_brackets():
    """Whenever the gap law decides lo < scale |alpha - p_k/q_k| < hi, the
    Enclosure route decides it alike; some draws are declined, so the
    fallback stays in use.  Bounds sit below, at and above both ends."""
    seen = set()

    @given(
        tail=st.sampled_from(((1,), (2,), (1, 2), (3,), (2, 1, 1))),
        k=st.integers(1, 40),
        scale=st.integers(1, 10**6),
        lo=LAW_BOUNDS,
        hi=LAW_BOUNDS,
    )
    @example(tail=(1,), k=5, scale=7, lo=(1, 0, 0), hi=(2, 0, 0))  # both at an end: holds
    @example(tail=(1,), k=5, scale=7, lo=(2, 0, 0), hi=(2, 1, 3))  # lo at the far end: fails
    @example(tail=(1,), k=5, scale=7, lo=(2, -1, 60), hi=(2, 1, 3))  # lo inside: declined
    @settings(max_examples=300, deadline=None)
    def check(tail, k, scale, lo, hi):
        spec = IrrationalSpec(head=(0,), tail=tail)
        lo, hi = law_bound(spec, k, scale, lo), law_bound(spec, k, scale, hi)
        verdict = gap_law_offset(spec, k, lo, hi, scale)
        seen.add(verdict)
        if verdict is not None:
            assert verdict == oracles.certify_offset(spec, k, lo, hi, scale)[0]

    check()
    assert seen == {True, False, None}
    assert gap_law_offset(IrrationalSpec(), 5, Fraction(-1), Fraction(1), 0) is None


def test_spec_validation():
    with pytest.raises(ValueError):
        IrrationalSpec(head=(1,), tail=(2,))
    with pytest.raises(ValueError):
        IrrationalSpec(head=(0, 0), tail=(2,))
    with pytest.raises(ValueError):
        IrrationalSpec(head=(0,), tail=())
    with pytest.raises(ValueError):
        IrrationalSpec.from_preset("nope")


def test_quotient_indexing():
    spec = IrrationalSpec(head=(0, 3), tail=(1, 2))
    assert [spec.quotient(i) for i in range(6)] == [0, 3, 1, 2, 1, 2]


@given(
    head=st.lists(st.integers(1, 6), max_size=3),
    tail=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    n=st.integers(0, 25),
)
def test_recurrence_invariants_random_specs(head, tail, n):
    spec = IrrationalSpec(head=(0, *head), tail=tuple(tail))
    c0, c1 = convergent(spec, n), convergent(spec, n + 1)
    assert c1.q > c0.q or n == 0
    assert abs(c1.p * c0.q - c0.p * c1.q) == 1
    br = alpha_bracket(spec, n + 1)
    assert br.lo < br.hi


def test_invalid_indices(golden):
    with pytest.raises(ValueError, match="quotient index must be >= 0"):
        golden.quotient(-1)
    with pytest.raises(ValueError):
        convergent(golden, -1)
    with pytest.raises(ValueError):
        alpha_bracket(golden, 0)
    with pytest.raises(ValueError):
        gap_bounds_check(golden, 0)
