"""Level selection, growth-condition certificates, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from besicov import IrrationalSpec, convergent, select_levels, validate_levels
from besicov.errors import ValidationFailure
from besicov.levels import LevelParams, Profile, profile_to_dict

import oracles


def test_fixed_golden_indices(golden):
    p = select_levels(golden, "fixed", "main", 3)
    assert [lv.k for lv in p.levels] == [5, 17, 37]


def test_fixed_golden_amplitudes(golden):
    p = select_levels(golden, "fixed", "main", 2)
    # A_n = floor((3/4)^n q_{k_n + 1}): q_6 = 13, q_18 = 4181
    assert convergent(golden, 18).q == 4181
    assert p.level(1).a == (3 * 13) // 4 == 9
    assert p.level(2).a == (9 * 4181) // 16 == 2351


def test_greedy_golden_indices(golden):
    p = select_levels(golden, "greedy", "main", 4)
    assert [lv.k for lv in p.levels] == [6, 10, 14, 18]
    assert p.level(1).a == 15


def test_tent_golden_step_is_eight(golden):
    # oracle: scan Fibonacci ratios for the least even step with ratio >= 18
    p = select_levels(golden, "greedy", "tent", 3)
    k1 = p.level(1).k
    q = lambda i: convergent(golden, i).q
    step = 2
    while q(k1 + step) < 18 * q(k1):
        step += 2
    assert step == 8
    assert [lv.k for lv in p.levels] == [k1, k1 + 8, k1 + 16]
    assert all(lv.a == 1 for lv in p.levels)


def test_scalar_identities(greedy_profile):
    for lv in greedy_profile.levels:
        assert lv.plateau * 3 * lv.a * lv.n**2 == lv.q_next
        assert lv.lam * lv.n**2 == lv.q * lv.q_next
        assert lv.period.numerator == 1 and lv.period.denominator == lv.a * lv.q


@pytest.mark.parametrize("strategy,n_max", [("fixed", 4), ("greedy", 6)])
def test_validation_passes(golden, strategy, n_max):
    report = validate_levels(select_levels(golden, strategy, "main", n_max))
    assert report.passed
    ratios = [c for c in report.certificates if c.name == "ratio-window"]
    assert len(ratios) == n_max - 1
    for c in ratios:
        value = Fraction(c.value)
        assert Fraction(11, 10) < value < Fraction(25, 18)


def test_validation_chains_exact(golden):
    report = validate_levels(select_levels(golden, "greedy", "main", 5))
    uppers = [c for c in report.certificates if c.name == "chain-upper"]
    assert uppers and all(Fraction(c.value) > Fraction(18, 25) for c in uppers)
    rise = next(c for c in report.certificates if c.name == "exponential-rise")
    assert rise.passed


def test_tent_validation_skips_ratio_window(tent_profile):
    report = validate_levels(tent_profile)
    assert report.passed
    names = {c.name for c in report.certificates}
    assert "ratio-window" not in names
    assert "growth-18x" in names and "parity" in names


def test_sqrt2m1_greedy_valid(sqrt2m1):
    p = select_levels(sqrt2m1, "greedy", "main", 4)
    assert p.level(1).k == 3  # q_3 = 12 is the first denominator >= 9
    assert validate_levels(p).passed


def test_validation_failure_names_first_violation(golden):
    good = select_levels(golden, "greedy", "main", 3)
    bad_levels = list(good.levels)
    lv = bad_levels[1]
    bad_levels[1] = LevelParams(n=lv.n, k=lv.k, p=lv.p, q=lv.q, q_next=lv.q_next, a=lv.a + 7)
    bad = Profile(
        alpha=good.alpha,
        strategy=good.strategy,
        variant=good.variant,
        n_max=good.n_max,
        levels=tuple(bad_levels),
    )
    report = validate_levels(bad)
    assert not report.passed
    assert report.first_failure().name == "amplitude"
    with pytest.raises(ValidationFailure):
        report.require()


def test_parity_violation_detected(golden):
    l1 = select_levels(golden, "greedy", "main", 1).level(1)
    c, c1 = convergent(golden, 9), convergent(golden, 10)
    odd = LevelParams(n=2, k=9, p=c.p, q=c.q, q_next=c1.q, a=(9 * c1.q) // 16)
    bad = Profile(
        alpha=golden, strategy="greedy", variant="main", n_max=2, levels=(l1, odd)
    )
    report = validate_levels(bad)
    assert not next(c for c in report.certificates if c.name == "parity").passed


def test_log_growth_reported(greedy_profile):
    report = validate_levels(greedy_profile)
    cert = next(c for c in report.certificates if c.name == "log-growth")
    assert not cert.binding
    assert len(cert.value.split(",")) == greedy_profile.n_max


def test_json_big_integers_are_strings(greedy_profile):
    d = profile_to_dict(greedy_profile)
    assert all(isinstance(lv["q"], str) for lv in d["levels"])


def greedy_indices(spec, variant, n_max):
    """The greedy rule by a plain scan of Convergents: k_1 the least k >= 1
    with q_k >= 9, then the least k of the same parity past k_{n-1} whose q
    (tent: q >= 18 q') or q and q_next (main: five-fold each) have grown."""
    q = lambda i: convergent(spec, i).q
    ks = [next(k for k in range(1, 100) if q(k) >= 9)]
    for _ in range(1, n_max):
        prev = ks[-1]
        grown = (lambda k: q(k) >= 18 * q(prev)) if variant == "tent" else (
            lambda k: q(k) >= 5 * q(prev) and q(k + 1) >= 5 * q(prev + 1))
        ks.append(next(k for k in range(prev + 2, prev + 200, 2) if grown(k)))
    return ks


@pytest.mark.parametrize("tail", [(1,), (2,), (10, 1, 1), (1, 7), (3, 1, 4, 1, 5)])
@pytest.mark.parametrize("variant", ["main", "tent"])
def test_greedy_levels_match_convergent_scan(tail, variant):
    """Alphas whose large quotients make either growth condition bind."""
    spec = IrrationalSpec(tail=tail)
    p = select_levels(spec, "greedy", variant, 6)
    assert [lv.k for lv in p.levels] == greedy_indices(spec, variant, 6)


specs = st.builds(lambda head, tail: IrrationalSpec(head=(0, *head), tail=tuple(tail)),
                  st.lists(st.integers(1, 12), max_size=3),
                  st.lists(st.integers(1, 12), min_size=1, max_size=3))


@given(spec=specs, strategy=st.sampled_from(["fixed", "greedy"]),
       variant=st.sampled_from(["main", "tent"]), n_max=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_validate_levels_matches_fraction_oracle(spec, strategy, variant, n_max):
    """Selected profiles: the integer verdicts equal the Fraction ones,
    certificate by certificate (fixed tent profiles fail amp-one and growth)."""
    prof = select_levels(spec, strategy, variant, n_max)
    assert validate_levels(prof).certificates == oracles.validate_levels(prof).certificates


def hand_built(variant, rows):
    """A profile of levels (q, q_next, A) with k_n = 2n + 1, p = 1."""
    levels = tuple(LevelParams(n=n, k=2 * n + 1, p=1, q=q, q_next=q1, a=a)
                   for n, (q, q1, a) in enumerate(rows, 1))
    return Profile(alpha=IrrationalSpec.from_preset("golden"), strategy="greedy",
                   variant=variant, n_max=len(levels), levels=levels)


level_rows = st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 8)),
                      min_size=1, max_size=5)


@given(rows=level_rows, variant=st.sampled_from(["main", "tent"]))
@settings(max_examples=200, deadline=None)
def test_hand_built_validation_matches_fraction_oracle(rows, variant):
    prof = hand_built(variant, rows)
    assert validate_levels(prof).certificates == oracles.validate_levels(prof).certificates


# (q, q_next, A) rows on the window's ends and off the rise
@pytest.mark.parametrize("rows, failing", [
    ([(9, 18, 1), (45, 25, 1)], {"ratio-window", "chain-upper"}),        # ratio 25/18
    ([(9, 10, 1), (45, 11, 1)], {"ratio-window", "chain-lower"}),        # ratio 11/10
    ([(9, 100, 1), (45, 121, 1), (225, 133, 1)], {"ratio-window", "chain-lower"}),  # 133 >= 121
    ([(9, 100, 1), (45, 105, 1)], {"ratio-window", "chain-lower", "exponential-rise"}),
    ([(9, 100, 1), (45, 100, 1)], {"ratio-window", "chain-lower", "exponential-rise"}),
    ([(9, 18, 1), (45, 24, 1)], set()),                                  # ratio 4/3
])
def test_ratio_window_and_rise_verdicts_at_their_ends(rows, failing):
    prof = hand_built("main", rows)
    report = validate_levels(prof)
    assert report.certificates == oracles.validate_levels(prof).certificates
    assert {c.name for c in report.certificates if c.binding and not c.passed} - {
        "amplitude", "growth-5x-q-next"} == failing
