"""Continued fractions: exact convergents and rational enclosures of alpha.

Every irrational handled by the library enters as a continued-fraction
expansion (finite head plus periodic tail), so alpha itself is never stored
as a decimal.  Every comparison against alpha is one :func:`certify_offset`
call: it encloses alpha in an :class:`Enclosure` between consecutive
convergents, escalating the depth until the comparison is decided exactly.
:class:`Enclosure` is the library's one closed rational interval type; the
certified logarithms of ``certlog`` use it too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
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
    [dist_lo, dist_hi] of scale |alpha - p_k/q_k|.  Returns
    ``(verdict, sign, dist_lo, dist_hi, depth)``; raises IndecisiveBracket
    past MAX_BRACKET_DEPTH rather than ever guessing.
    """
    v = convergent(spec, k).value
    at_v = Enclosure(v, v)
    depth = max(8, k + 3)
    while depth <= MAX_BRACKET_DEPTH:
        d = alpha_bracket(spec, depth) - at_v
        if not d.lo <= 0 <= d.hi:
            sign = 1 if d.lo > 0 else -1
            dist = d.scale(sign * scale)
            if not (dist.lo <= lo < dist.hi or dist.lo < hi <= dist.hi):
                return lo < dist.lo and dist.hi < hi, sign, dist.lo, dist.hi, depth
        depth *= 2
    raise IndecisiveBracket(
        f"comparison against alpha undecided at bracket depth {MAX_BRACKET_DEPTH}"
    )


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

