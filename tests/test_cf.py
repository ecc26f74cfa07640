"""Continued-fraction engine: convergents, brackets, the gap law."""

import importlib
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

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
from besicov.cf import Enclosure, certify_offset
from besicov.errors import IndecisiveBracket

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
    2 start, 4 start, ... whose bracket is ``width`` wide."""
    used = max(8, k + 3)
    while alpha_bracket(spec, used).width != width:
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


@pytest.mark.parametrize("escalate", [False, True], ids=["direct", "escalated"])
def test_shift_window_depth_matches_bracket_widths(
    golden, greedy_cocycle, tent_cocycle, monkeypatch, escalate
):
    """The audits' displacement premises report the depth that decided them."""
    if escalate:
        undecidable_below(monkeypatch, 64)
    calls = []

    def recording(spec, k, lo, hi, scale=1):
        out = certify_offset(spec, k, lo, hi, scale)
        calls.append((k, scale, out))
        return out

    # ``besicov.audit`` as an attribute is the audit function, not the module
    monkeypatch.setattr(importlib.import_module("besicov.audit"), "certify_offset", recording)
    _, path = sample_point(greedy_cocycle.profile, "++", "center", 5)
    assert audit_aligned(greedy_cocycle, path, 1).status == "pass"
    _, path = sample_point(tent_cocycle.profile, "-+", "center", 6)
    assert audit_mixed(tent_cocycle, path, -3863).status == "pass"
    assert len(calls) == 5
    for k, scale, (verdict, _, dist_lo, dist_hi, depth) in calls:
        assert verdict
        assert depth == rewalked_depth(golden, k, (dist_hi - dist_lo) / scale), k
        assert (depth > 64) == escalate


def test_certify_offset_gives_up(golden, monkeypatch):
    undecidable_below(monkeypatch, 1 << 20)
    monkeypatch.setattr(cf, "MAX_BRACKET_DEPTH", 16)
    with pytest.raises(IndecisiveBracket, match="depth 16"):
        certify_offset(golden, 2, Fraction(0), Fraction(1))


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
    with pytest.raises(ValueError):
        convergent(golden, -1)
    with pytest.raises(ValueError):
        alpha_bracket(golden, 0)
    with pytest.raises(ValueError):
        gap_bounds_check(golden, 0)
