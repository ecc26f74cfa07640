"""Certified rational enclosures of natural logarithms.

Dimension bounds are ratios of logarithms of exact rationals.  To keep those
comparisons decidable, ln is evaluated deterministically with an explicit
enclosure: write x = m * 2^e with m in [1, 2), expand
ln m = 2 atanh((m-1)/(m+1)) as its alternating-free odd series (argument in
[0, 1/3], so the tail is geometrically dominated), and add e times a cached
enclosure of ln 2.  Everything is Fraction arithmetic; endpoints are rounded
outward on a dyadic grid so the enclosures stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Union

#: log_enclosure's relative width, rounding grid and series cut, in bits.
DEFAULT_REL_BITS = 40
_WORK_BITS = DEFAULT_REL_BITS + 24
_TAIL_BITS = _WORK_BITS + 16


@dataclass(frozen=True)
class Enclosure:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("enclosure endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def scale(self, c: Union[int, Fraction]) -> "Enclosure":
        if c >= 0:
            return Enclosure(self.lo * c, self.hi * c)
        return Enclosure(self.hi * c, self.lo * c)

    def div_positive(self, other: "Enclosure") -> "Enclosure":
        """Interval quotient; ``other`` must be strictly positive."""
        if other.lo <= 0:
            raise ValueError("divisor enclosure must be strictly positive")
        if self.lo >= 0:
            return Enclosure(self.lo / other.hi, self.hi / other.lo)
        if self.hi <= 0:
            return Enclosure(self.lo / other.lo, self.hi / other.hi)
        return Enclosure(self.lo / other.lo, self.hi / other.lo)

    def outward(self) -> "Enclosure":
        """Round both ends outward to the 2^-_WORK_BITS grid."""
        s = 1 << _WORK_BITS
        return Enclosure(Fraction(floor(self.lo * s), s), Fraction(ceil(self.hi * s), s))


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


_LN2: Enclosure = _atanh_enclosure(Fraction(1, 3)).scale(2).outward()


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
    enc = (_atanh_enclosure(z).scale(2) + _LN2.scale(e)).outward()
    limit = Fraction(1, 1 << DEFAULT_REL_BITS) * max(abs(enc.lo), abs(enc.hi), Fraction(1, 1 << 20))
    if enc.width > limit:
        raise AssertionError("log enclosure wider than requested tolerance")
    return enc
