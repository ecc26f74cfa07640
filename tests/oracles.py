"""Test-side oracles: second routes to values the library computes on its lattice.

:func:`unit_position` folds x onto the unit period of a level with one exact
integer ``%``, and :func:`bump` writes the level shapes on that period in the
arithmetic of its argument.  In Fractions the pair checks the cocycle's
integer-lattice kernel; fed an mpf, it is the orbit lane's former evaluator,
and :func:`t_values` replays that lane so that :mod:`besicov.dynamics` can be
held to the same bits.  The library defines and imports neither name.
"""

from fractions import Fraction

from mpmath import mpf

from besicov.cocycle import level_max
from besicov.levels import LevelParams


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
