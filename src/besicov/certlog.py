"""Certified rational enclosures of natural logarithms.

Dimension bounds are ratios of logarithms of exact rationals.  To keep those
comparisons decidable, ln is evaluated deterministically with an explicit
enclosure: write x = m * 2^e with m in [1, 2), expand
ln m = 2 atanh((m-1)/(m+1)) as its alternating-free odd series (argument in
[0, 1/3], so the tail is geometrically dominated), and add e times a cached
enclosure of ln 2.  Everything is Fraction arithmetic on :class:`cf.Enclosure`
intervals; endpoints are rounded outward on a dyadic grid so the enclosures
stay small.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Union

from .cf import Enclosure
from .errors import InvariantBroken

#: log_enclosure's relative width, rounding grid and series cut, in bits.
DEFAULT_REL_BITS = 40
_WORK_BITS = DEFAULT_REL_BITS + 24
_TAIL_BITS = _WORK_BITS + 16


def outward(enc: Enclosure) -> Enclosure:
    """Round both ends of ``enc`` outward to the 2^-_WORK_BITS grid."""
    s = 1 << _WORK_BITS
    return Enclosure(Fraction(floor(enc.lo * s), s), Fraction(ceil(enc.hi * s), s))


def _atanh_enclosure(z: Fraction) -> Enclosure:
    """Enclosure of atanh(z) for 0 <= z < 1 via the odd power series.

    All omitted terms are positive; the tail after K terms is bounded by the
    geometric series with ratio z^2, and is cut once below 2^-_TAIL_BITS.
    """
    if not 0 <= z < 1:
        raise ValueError("atanh argument must be in [0, 1)")
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


_LN2: Enclosure = outward(_atanh_enclosure(Fraction(1, 3)).scale(2))


def log_enclosure(x: Union[int, Fraction]) -> Enclosure:
    """Enclosure of ln x with relative width below 2^-DEFAULT_REL_BITS.

    Deterministic: same input, same enclosure.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    if x == 1:
        return Enclosure(Fraction(0), Fraction(0))
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m >= 2:
        e += 1
        m /= 2
    elif m < 1:
        e -= 1
        m *= 2
    z = (m - 1) / (m + 1)
    enc = outward(_atanh_enclosure(z).scale(2) + _LN2.scale(e))
    limit = Fraction(1, 1 << DEFAULT_REL_BITS) * max(abs(enc.lo), abs(enc.hi), Fraction(1, 1 << 20))
    if enc.width > limit:
        raise InvariantBroken("log enclosure wider than requested tolerance")
    return enc
