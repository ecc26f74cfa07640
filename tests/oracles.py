"""Test-side oracles: second routes to values the library computes on its lattice.

:func:`unit_position` folds x onto the unit period of a level with one exact
integer ``%``, and :func:`bump` writes the level shapes on that period in the
arithmetic of its argument.  In Fractions the pair checks the cocycle's
integer-lattice kernel; fed an mpf, it is the orbit lane's former evaluator,
and :func:`t_values` replays that lane so that :mod:`besicov.dynamics` can be
held to the same bits.  The library defines and imports neither name.

:func:`log_enclosure` is the `Fraction` form of :mod:`besicov.certlog`'s
series: each partial sum reduced, the tail bound compared as a `Fraction`,
and the ends rounded outward to the same grid afterwards.

:func:`child_count_range` scans every parent's
:func:`besicov.targets.child_span`: the reference for the closed-form
measured counts of :func:`besicov.nesting_stats`.
"""

from fractions import Fraction
from math import ceil, floor
from types import SimpleNamespace

from mpmath import mpf

from besicov.certlog import _TAIL_BITS, _WORK_BITS, Enclosure
from besicov.cocycle import level_max
from besicov.levels import LevelParams
from besicov.targets import child_span


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
