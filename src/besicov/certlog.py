"""Certified rational enclosures of natural logarithms.

Dimension bounds are ratios of logarithms of exact rationals.  To keep those
comparisons decidable, ln is evaluated deterministically with an explicit
enclosure: write x = m * 2^e with m = p/q in [1, 2), expand
ln m = 2 atanh(a/b), a = p - q, b = p + q, as the odd series
sum a^(2i+1) / ((2i+1) b^(2i+1)) (argument in [0, 1/3], so the tail after k
terms is below the geometric bound a^(2k+1) / ((2k+1) b^(2k-1) (b^2 - a^2))),
and add e times an enclosure of ln 2.  The bound falls as k grows, so the
number of terms is settled first: the least k whose bound is below
2^-_TAIL_BITS, found from a float estimate and decided in integers on the
64-bit heads of a, b and b^2 - a^2, with full powers taken only where the
heads' brackets overlap.  The k terms are then summed by Horner's rule in b^2
as one unreduced integer fraction N/D, D = b^(2k-1) prod_{i<k} (2i+1), two
wide products a term and no gcd (Brent and Zimmermann, *Modern Computer
Arithmetic*, 2010, ch. 4); the ends are the series' exact floor and ceil on
the 2^-_WORK_BITS grid, to which the ends of ln 2 belong.  The forward
series, cut-off test and all, is ``atanh_ends`` in ``tests/oracles.py``, and
its `Fraction` form, rounded the same way, is the oracle ``log_enclosure``;
all three give the same enclosure bit for bit.  ln 12 and ln 6, which every
closed-form dimension row reads, are enclosed once, on import (:data:`LN12`,
:data:`LN6`).
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
#: Width of the heads of a, b and b^2 - a^2 on which the series' stop index is decided.
_HEAD_BITS = 64


def _stop_index(a: int, b: int, gap: int) -> int:
    """The least k >= 1 with a^(2k+1) 2^_TAIL_BITS < (2k+1) b^(2k-1) gap,
    gap = b^2 - a^2: the number of series terms after which the tail bound is
    below 2^-_TAIL_BITS.

    The bound falls by (a/b)^2 (2k+1)/(2k+3) from k to k + 1, so the least k
    is where the test first holds.  A float estimate of k - 1 is the first
    index tested, and the walk steps up or down from there until the test
    changes.  Each test is decided on integers: x = h 2^s with h the top
    _HEAD_BITS bits of x (s = 0 when x is that short), so x / (h 2^s) lies in
    [1, 1 + 2^(1-_HEAD_BITS)) and a side with n such factors lies within
    (1 + 2^(1-_HEAD_BITS))^n <= 1 + n 2^(2-_HEAD_BITS) of its heads' value.
    Where the two sides' brackets overlap, the full powers decide."""
    if not a:
        return 1
    la, lb = log2(a), log2(b)
    d = 2 * (lb - la)
    c = la + lb - log2(gap) + _TAIL_BITS  # the test at k reads k d > c - log2(2k + 1)
    j = int((c - log2(2 * c / d + 1)) // d)
    if j < 1:
        j = 1
    sa, sb, sg = (a.bit_length() - _HEAD_BITS, b.bit_length() - _HEAD_BITS,
                  gap.bit_length() - _HEAD_BITS)
    sa, sb, sg = sa * (sa > 0), sb * (sb > 0), sg * (sg > 0)  # max(s, 0), without the calls
    ha, hb = a >> sa, b >> sb
    n = 2 * j + 1
    # the test at j = n // 2 reads lhs 2^e < n rhs on the heads
    lhs, rhs, e = ha ** n, hb ** (n - 2) * (gap >> sg), n * sa + _TAIL_BITS - (n - 2) * sb - sg
    up = None
    while True:
        x, y = (lhs << e, rhs * n) if e >= 0 else (lhs, rhs * n << -e)
        slack = y * n >> _HEAD_BITS - 2
        if x + slack < y:
            below = True
        elif x > y + slack:
            below = False
        else:
            below = a ** n << _TAIL_BITS < n * b ** (n - 2) * gap
        if up is None:
            up = not below
        if up:
            if below:
                return n // 2
            n, lhs, rhs, e = n + 2, lhs * ha * ha, rhs * hb * hb, e + 2 * (sa - sb)
        else:
            if not below:
                return n // 2 + 1
            if n == 3:
                return 1
            n, lhs, rhs, e = n - 2, lhs // (ha * ha), rhs // (hb * hb), e - 2 * (sa - sb)


def _atanh_ends(a: int, b: int) -> tuple[int, int]:
    """floor and ceil of 2 atanh(a/b) * 2^_WORK_BITS, 0 <= a/b < 1, as the
    ends of [2 S, 2 (S + tail)] for the first series sum S whose tail bound
    is below 2^-_TAIL_BITS."""
    a2, b2 = a * a, b * b
    gap = b2 - a2
    k = _stop_index(a, b, gap)
    coeff = perm(2 * k, k) >> k  # prod_{i<k} (2i+1) = (2k)! / (k! 2^k)
    # Horner in b^2: num = sum_{i<k} (coeff/(2i+1)) a^(2i+1) b^(2(k-1-i)), power = a^(2i+1)
    num, power = a * coeff, a
    for odd in range(3, 2 * k, 2):
        power *= a2
        num = num * b2 + coeff // odd * power
    # S = num / den and tail = power a^2 coeff / (den cut)
    den, cut = b2 ** (k - 1) * b * coeff, (2 * k + 1) * gap
    scale = _WORK_BITS + 1
    lo, rest = divmod(num << scale, den)
    # 2 (S + tail) 2^_WORK_BITS = lo + x / y with x / y < 1 + tail 2^scale < 2
    x, y = rest * cut + (power * a2 * coeff << scale), den * cut
    return lo, lo + (x > 0) + (x > y)


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
