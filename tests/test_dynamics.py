"""Orbit simulation, error accounting, chaos probes."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from besicov import (
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
)
from besicov.errors import ErrorBudgetBlown
from besicov.targets import member_level


def to_mpf(fr: Fraction) -> mpf:
    return mpf(fr.numerator) / mpf(fr.denominator)


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
    with pytest.raises(ValueError):
        nonrecurrence_test(tent_cocycle, Fraction(1, 3), Fraction(0), Fraction(1, 10), 0)


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
    y = dynamics._target_candidate(cspec, x, delta)
    assert y is not None and abs(y - x) <= delta
    family = "-+" if variant == "tent" else "++"
    start = next(l for l in range(1, cspec.n_levels + 1)
                 if cspec.profile.level(l).period <= delta / 2)
    for l in range(start, min(start + 2, cspec.n_levels) + 1):
        assert member_level(cspec.profile, family, l, y) is not None


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
