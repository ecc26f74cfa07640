"""Continued fractions: exact convergents and rational enclosures of alpha.

Every irrational handled by the library enters as a continued-fraction
expansion (finite head plus periodic tail), so alpha itself is never stored
as a decimal.  A comparison against alpha is first put to the convergent gap
law, 1/(2 q_k q_{k+1}) < |alpha - p_k/q_k| < 1/(q_k q_{k+1}) (Khinchin,
*Continued Fractions*, ch. 1), by :func:`gap_law_offset`, which decides it on
integers or declines.  Otherwise, and for the law's own certificate
:func:`gap_bounds_check`, it is one :func:`certify_offset` call: that brackets
alpha between consecutive convergents, escalating the depth until the
comparison is decided exactly, and compares on integer numerators, building
one Fraction per result (``tests/oracles.py`` keeps the Enclosure route as its
oracle).  :class:`Enclosure` is the library's one closed rational
interval type; :func:`alpha_bracket` and the logarithms of ``certlog`` use it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import IndecisiveBracket, Result

#: Hard cap on bracket escalation; hitting it raises IndecisiveBracket.
MAX_BRACKET_DEPTH = 1 << 14

PRESETS = {
    "golden": (1,),    # (sqrt(5)-1)/2 = [0; 1, 1, 1, ...]
    "sqrt2m1": (2,),   # sqrt(2)-1    = [0; 2, 2, 2, ...]
}


@dataclass(frozen=True)
class IrrationalSpec:
    """An irrational alpha in (0,1) given by its partial quotients.

    The expansion is ``[a_0; a_1, a_2, ...]`` where ``head`` supplies the
    leading quotients (``head[0]`` must be 0, forcing alpha < 1) and ``tail``
    repeats forever after the head.  An eventually periodic expansion is a
    quadratic irrational, so every valid spec denotes a genuine irrational and
    all convergent inequalities below are strict.

    Every convergent lookup keys the pair cache on the spec, so it hashes
    itself once: the quotients' hash, kept outside the fields.  Integer tuples
    hash alike in every process, so a copied or unpickled spec keeps a valid
    hash; specs that differ only in ``name`` share it and stay unequal.
    """

    head: tuple[int, ...] = (0,)
    tail: tuple[int, ...] = (1,)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.head or self.head[0] != 0:
            raise ValueError("head must start with a_0 = 0 (alpha in (0,1))")
        if any(a < 1 for a in self.head[1:]):
            raise ValueError("partial quotients a_i for i >= 1 must be >= 1")
        if not self.tail or any(a < 1 for a in self.tail):
            raise ValueError("tail must be a nonempty sequence of positive integers")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.head, self.tail))

    @staticmethod
    def from_preset(name: str) -> "IrrationalSpec":
        try:
            return IrrationalSpec(head=(0,), tail=PRESETS[name], name=name)
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None

    def quotient(self, i: int) -> int:
        """Partial quotient a_i."""
        if i < 0:
            raise ValueError("quotient index must be >= 0")
        if i < len(self.head):
            return self.head[i]
        return self.tail[(i - len(self.head)) % len(self.tail)]


@dataclass(frozen=True)
class Convergent:
    """Exact convergent p_n/q_n of a continued fraction."""

    n: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def sign(self) -> int:
        """Sign of alpha - p_n/q_n, i.e. (-1)^n: even convergents sit below alpha."""
        return -1 if self.n % 2 else 1


# Cache of (p, q) pairs per spec, extended on demand under a lock so that
# concurrent readers never observe a half-built recurrence.  Seeds correspond
# to indices -1 and 0.
_conv_cache: dict[IrrationalSpec, list[tuple[int, int]]] = {}
_conv_lock = threading.Lock()


def _pairs(spec: IrrationalSpec, n: int) -> list[tuple[int, int]]:
    pairs = _conv_cache.get(spec)
    if pairs is not None and len(pairs) >= n + 2:
        return pairs
    with _conv_lock:
        pairs = _conv_cache.setdefault(spec, [(1, 0), (0, 1)])
        while len(pairs) < n + 2:
            i = len(pairs) - 1  # index of the convergent about to be produced
            a = spec.quotient(i)
            (p2, q2), (p1, q1) = pairs[-2], pairs[-1]
            pairs.append((a * p1 + p2, a * q1 + q2))
    return pairs


def _q(spec: IrrationalSpec, n: int) -> int:
    """q_n, n >= 0, read from the pair cache without building a Convergent."""
    return _pairs(spec, n)[n + 1][1]


def convergent(spec: IrrationalSpec, n: int) -> Convergent:
    """n-th convergent by the recurrence p_n = a_n p_{n-1} + p_{n-2} (q likewise)."""
    if n < 0:
        raise ValueError("convergent index must be >= 0")
    p, q = _pairs(spec, n)[n + 1]
    return Convergent(n, p, q)


@dataclass(frozen=True)
class Enclosure:
    """A closed rational interval [lo, hi]: an enclosure of alpha, of a
    distance to alpha, or of a logarithm, with exact interval arithmetic."""

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


def alpha_bracket(spec: IrrationalSpec, depth: int) -> Enclosure:
    """Bracket alpha between convergents ``depth`` and ``depth + 1``.

    Consecutive convergents straddle alpha (even indices below, odd above),
    so lo < alpha < hi strictly and the width is exactly 1/(q_N q_{N+1}).
    """
    if depth < 1:
        raise ValueError("bracket depth must be >= 1")
    a = convergent(spec, depth).value
    b = convergent(spec, depth + 1).value
    return Enclosure(min(a, b), max(a, b))


def certify_offset(
    spec: IrrationalSpec, k: int, lo: Fraction, hi: Fraction, scale: int = 1
) -> tuple[bool, int, Fraction, Fraction, int]:
    """Decide lo < scale |alpha - p_k/q_k| < hi exactly.

    Starts at bracket depth max(8, k + 3) and doubles it until the sign of
    alpha - p_k/q_k is decided and neither bound lies inside the enclosure
    [dist_lo, dist_hi] of scale |alpha - p_k/q_k|.  The ends of each
    :func:`alpha_bracket` minus p_k/q_k stay integers over q_N q_k, compared
    with lo and hi by cross-multiplication; only the returned dist_lo and
    dist_hi become Fractions (oracle: ``tests/oracles.certify_offset``).  Returns
    ``(verdict, sign, dist_lo, dist_hi, depth)``; raises IndecisiveBracket
    past MAX_BRACKET_DEPTH rather than ever guessing.
    """
    c = convergent(spec, k)
    a, b, e, f = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    depth = max(8, k + 3)
    while depth <= MAX_BRACKET_DEPTH:
        br = alpha_bracket(spec, depth)
        n1, d1 = br.lo.numerator * c.q - c.p * br.lo.denominator, br.lo.denominator * c.q
        n2, d2 = br.hi.numerator * c.q - c.p * br.hi.denominator, br.hi.denominator * c.q
        if n1 > 0 or n2 < 0:
            sign = 1 if n1 > 0 else -1
            n1, n2 = n1 * sign * scale, n2 * sign * scale
            if sign * scale < 0:
                n1, d1, n2, d2 = n2, d2, n1, d1
            # [n1/d1, n2/d2] = [dist_lo, dist_hi] must hold neither lo nor hi
            if not (n1 * b <= a * d1 and a * d2 < n2 * b or n1 * f < e * d1 and e * d2 <= n2 * f):
                verdict = a * d1 < n1 * b and n2 * f < e * d2
                return verdict, sign, Fraction(n1, d1), Fraction(n2, d2), depth
        depth *= 2
    raise IndecisiveBracket(
        f"comparison against alpha undecided at bracket depth {MAX_BRACKET_DEPTH}"
    )


def gap_law_offset(
    spec: IrrationalSpec, k: int, lo: Fraction, hi: Fraction, scale: int = 1
) -> Optional[bool]:
    """Decide lo < scale |alpha - p_k/q_k| < hi from the gap law alone, or None.

    The law puts scale |alpha - p_k/q_k| strictly between scale/(2 q_k q_{k+1})
    and scale/(q_k q_{k+1}), so the comparison is decided when neither lo nor
    hi lies strictly between those two ends: it holds exactly when lo is below
    the far end and hi above the near one.  Decided by cross-multiplying
    integers; None for scale < 1 or a bound strictly inside.  The law itself
    is certified by :func:`gap_bounds_check`, which must not call this.
    """
    if scale < 1:
        return None
    pairs = _pairs(spec, k + 1)
    den = 2 * pairs[k + 1][1] * pairs[k + 2][1]  # 2 q_k q_{k+1}
    # the law's ends are near/den and far/den; lo den = a/b and hi den = e/f
    near, far = scale, 2 * scale
    a, b, e, f = lo.numerator * den, lo.denominator, hi.numerator * den, hi.denominator
    if near * b < a < far * b or near * f < e < far * f:
        return None
    return a < far * b and near * f < e


@dataclass(frozen=True)
class GapCertificate(Result):
    """Exact verdict on the two-sided convergent gap law at index n.

    Checks 1/(2 q_n q_{n+1}) < |alpha - p_n/q_n| < 1/(q_n q_{n+1}) and that
    the sign of alpha - p_n/q_n equals (-1)^n, with rational witnesses.
    """

    n: int
    passed: bool
    sign: int
    lower_bound: Fraction
    upper_bound: Fraction
    distance_lo: Fraction
    distance_hi: Fraction
    depth_used: int


def gap_bounds_check(spec: IrrationalSpec, n: int) -> GapCertificate:
    """Certify the convergent gap law at index n with exact comparisons.

    One :func:`certify_offset` call decides both strict bounds; a verdict is
    only ever emitted once the enclosure decides every inequality, so there
    is no rounding anywhere.
    """
    if n < 1:
        raise ValueError("gap law is checked for n >= 1")
    cn = convergent(spec, n)
    cn1 = convergent(spec, n + 1)
    lower = Fraction(1, 2 * cn.q * cn1.q)
    upper = Fraction(1, cn.q * cn1.q)
    passed, sign, dist_lo, dist_hi, depth = certify_offset(spec, n, lower, upper)
    return GapCertificate(
        n=n,
        passed=passed and sign == cn.sign,
        sign=sign,
        lower_bound=lower,
        upper_bound=upper,
        distance_lo=dist_lo,
        distance_hi=dist_hi,
        depth_used=depth,
    )

