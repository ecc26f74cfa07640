"""Certified rational enclosures of natural logarithms.

Dimension bounds are ratios of logarithms of exact rationals.  To keep those
comparisons decidable, ln is evaluated deterministically with an explicit
enclosure: write x = m * 2^e with m = p/q in [1, 2), expand
ln m = 2 atanh(a/b), a = p - q, b = p + q, as the odd series
sum a^(2i+1) / ((2i+1) b^(2i+1)) (argument in [0, 1/3], so the tail after k
terms is below the geometric bound a^(2k+1) / ((2k+1) b^(2k-1) (b^2 - a^2))),
and add e times an enclosure of ln 2.  The partial sums are kept as one
unreduced integer fraction N/D, D = b^(2k-1) prod_{i<k} (2i+1), so no gcd is
ever taken (Brent and Zimmermann, *Modern Computer Arithmetic*, 2010, ch. 4);
the cut-off ``tail < 2^-_TAIL_BITS`` is an integer cross-multiplication, and
the ends are the series' exact floor and ceil on the 2^-_WORK_BITS grid, to
which the ends of ln 2 belong.  The `Fraction` form of the same series,
rounded the same way, is the test oracle ``log_enclosure`` in
``tests/oracles.py``; both give the same enclosure bit for bit.  ln 12 and
ln 6, which every closed-form dimension row reads, are enclosed once, on
import (:data:`LN12`, :data:`LN6`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .cf import Enclosure
from .errors import InvariantBroken

#: log_enclosure's relative width, rounding grid and series cut, in bits.
DEFAULT_REL_BITS = 40
_WORK_BITS = DEFAULT_REL_BITS + 24
_TAIL_BITS = _WORK_BITS + 16


def _atanh_ends(a: int, b: int) -> tuple[int, int]:
    """floor and ceil of 2 atanh(a/b) * 2^_WORK_BITS, 0 <= a/b < 1, as the
    ends of [2 S, 2 (S + tail)] for the first series sum S whose tail bound
    is below 2^-_TAIL_BITS."""
    a2, b2, gap = a * a, b * b, b * b - a * a
    num, den, power, prod, odd = a, b, a, 1, 1
    while True:
        power *= a2
        prod *= odd
        odd += 2
        term, cut = power * prod, den * odd * gap  # the next term is term / (den b^2 odd)
        if (term << _TAIL_BITS) < cut:  # the tail bound is term / cut
            break
        num, den = num * b2 * odd + term, den * b2 * odd
    scale = _WORK_BITS + 1
    return (num << scale) // den, -((-(num * odd * gap + term) << scale) // cut)


#: ln 2 = 2 atanh(1/3), both ends in units of 2^-_WORK_BITS.
_LN2: tuple[int, int] = _atanh_ends(1, 3)


def log_enclosure(x: Union[int, Fraction]) -> Enclosure:
    """Enclosure of ln x with relative width below 2^-DEFAULT_REL_BITS.

    Deterministic: same input, same enclosure.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    p, q = x.numerator, x.denominator
    e = p.bit_length() - q.bit_length()
    p, q = p << max(-e, 0), q << max(e, 0)
    if p < q:
        e -= 1
        p <<= 1
    lo, hi = _atanh_ends(p - q, p + q)
    ln2_lo, ln2_hi = _LN2 if e >= 0 else _LN2[::-1]
    grid = 1 << _WORK_BITS
    enc = Enclosure(Fraction(lo + e * ln2_lo, grid), Fraction(hi + e * ln2_hi, grid))
    limit = Fraction(1, 1 << DEFAULT_REL_BITS) * max(abs(enc.lo), abs(enc.hi), Fraction(1, 1 << 20))
    if enc.width > limit:
        raise InvariantBroken("log enclosure wider than requested tolerance")
    return enc


#: ln 12 and ln 6, the closed-form dimension bounds' logarithms, enclosed once.
LN12 = log_enclosure(12)
LN6 = log_enclosure(6)
