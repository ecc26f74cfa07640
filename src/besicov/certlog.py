"""Certified rational enclosures of natural logarithms.

Dimension bounds are ratios of logarithms of exact rationals.  To keep those
comparisons decidable, ln is evaluated deterministically with an explicit
enclosure: write x = m * 2^e with m = p/q in [1, 2), expand
ln m = 2 atanh(a/b), a = p - q, b = p + q, as the odd series
sum a^(2i+1) / ((2i+1) b^(2i+1)) (argument in [0, 1/3], so the tail after k
terms is below the geometric bound a^(2k+1) / ((2k+1) b^(2k-1) (b^2 - a^2))),
and add e times an enclosure of ln 2.  The sum takes the least k whose bound
is below 2^-_TAIL_BITS: a float estimate picks the first k, the k terms are
summed by Horner's rule in b^2 as one unreduced integer fraction N/D,
D = b^(2k-1) prod_{i<k} (2i+1), two wide products a term and no gcd (Brent
and Zimmermann, *Modern Computer Arithmetic*, 2010, ch. 4), and the sum's own
integers decide whether k terms suffice and k - 1 did not; where either test
fails, k moves by one and the sum runs again.  The ends are the series'
exact floor and ceil on the 2^-_WORK_BITS grid, to which the ends of ln 2
belong.  The forward series, cut-off test and all, is ``atanh_ends`` in
``tests/oracles.py``, and its `Fraction` form, rounded the same way, is the
oracle ``log_enclosure``; all three give the same enclosure bit for bit.
ln 12 and ln 6, which every closed-form dimension row reads, are enclosed
once, on import (:data:`LN12`, :data:`LN6`).
"""

from __future__ import annotations

from fractions import Fraction
from math import log2, perm
from typing import Union

from .cf import Enclosure
from .errors import InvariantBroken

#: log_enclosure's relative width, rounding grid and series cut, in bits.
DEFAULT_REL_BITS = 40
_WORK_BITS = DEFAULT_REL_BITS + 24
_TAIL_BITS = _WORK_BITS + 16


def _estimate(a: int, b: int, gap: int) -> int:
    """A float guess at the least k >= 1 whose tail bound is below
    2^-_TAIL_BITS, gap = b^2 - a^2.  It only says where :func:`_series`
    starts; the sum's integers decide k."""
    if not a:
        return 1
    la, lb = log2(a), log2(b)
    d = 2 * (lb - la)
    c = la + lb - log2(gap) + _TAIL_BITS  # k terms suffice when k d > c - log2(2k + 1)
    k = max(c / d, 0)
    for _ in range(2):  # two fixed-point steps from k = c / d
        k = int(max(c - log2(2 * k + 1), 0) // d) + 1
    return k


def _series(a: int, b: int) -> tuple[int, int, int, int, int, int]:
    """(k, num, den, tail, cut, den cut) for 0 <= a/b < 1: S = num / den is
    the sum of the least k terms whose tail bound, tail / (den cut), is below
    2^-_TAIL_BITS.

    The bound falls as k grows, so k is least when tail 2^_TAIL_BITS < den cut
    and k - 1 terms did not suffice.  The last term, last / (den 2^_TAIL_BITS),
    is the k - 1 terms' bound times (b^2 - a^2) / b^2, so k - 1 sufficed
    exactly when last b^2 < den (b^2 - a^2), which needs last < den.  Where
    either test fails, k moves by one and the sum runs again."""
    a2, b2 = a * a, b * b
    gap = b2 - a2
    k = _estimate(a, b, gap)
    while True:
        coeff = perm(2 * k, k) >> k  # prod_{i<k} (2i+1) = (2k)! / (k! 2^k)
        # Horner in b^2: num = sum_{i<k} (coeff/(2i+1)) a^(2i+1) b^(2(k-1-i)), power = a^(2i+1)
        num, power = a * coeff, a
        for odd in range(3, 2 * k, 2):
            power *= a2
            num = num * b2 + coeff // odd * power
        den, cut = b2 ** (k - 1) * b * coeff, (2 * k + 1) * gap
        tail, den_cut = power * a2 * coeff, den * cut
        if tail << _TAIL_BITS >= den_cut:  # k terms leave too wide a tail
            k += 1
            continue
        last = coeff // (2 * k - 1) * power << _TAIL_BITS  # the last term, times den 2^_TAIL_BITS
        if k == 1 or last >= den or last * b2 >= den * gap:
            return k, num, den, tail, cut, den_cut
        k -= 1  # k - 1 terms sufficed


def _atanh_ends(a: int, b: int) -> tuple[int, int]:
    """floor and ceil of 2 atanh(a/b) * 2^_WORK_BITS, 0 <= a/b < 1, as the
    ends of [2 S, 2 (S + tail)] for the first series sum S whose tail bound
    is below 2^-_TAIL_BITS."""
    _, num, den, tail, cut, den_cut = _series(a, b)
    scale = _WORK_BITS + 1
    lo, rest = divmod(num << scale, den)
    # 2 (S + tail) 2^_WORK_BITS = lo + x / den_cut with x / den_cut < 1 + tail 2^scale < 2
    x = rest * cut + (tail << scale)
    return lo, lo + (x > 0) + (x > den_cut)


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
