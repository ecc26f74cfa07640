"""Continued fractions: exact convergents and rational enclosures of alpha.

Every irrational handled by the library enters as a continued-fraction
expansion (finite head plus periodic tail), so alpha itself is never stored
as a decimal.  All comparisons against alpha go through :class:`RationalBracket`
enclosures built from consecutive convergents, escalating the depth until the
comparison is decided exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .errors import IndecisiveBracket

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
class RationalBracket:
    """Exact rationals lo < alpha < hi (both strict)."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def strictly_contains(self, r: Fraction) -> bool:
        return self.lo < r < self.hi


def alpha_bracket(spec: IrrationalSpec, depth: int) -> RationalBracket:
    """Bracket alpha between convergents ``depth`` and ``depth + 1``.

    Consecutive convergents straddle alpha (even indices below, odd above),
    so the bracket is strict and has width exactly 1/(q_N q_{N+1}).
    """
    if depth < 1:
        raise ValueError("bracket depth must be >= 1")
    a = convergent(spec, depth).value
    b = convergent(spec, depth + 1).value
    return RationalBracket(lo=min(a, b), hi=max(a, b))


T = TypeVar("T")


def refine_bracket(
    spec: IrrationalSpec,
    decide: Callable[[RationalBracket], Optional[T]],
    start_depth: int = 8,
    max_depth: int = MAX_BRACKET_DEPTH,
) -> T:
    """Escalate bracket depth until ``decide`` returns a non-None verdict.

    ``decide`` must be monotone: once decidable at some depth it stays
    decidable at any greater depth.  Raises IndecisiveBracket past the cap
    rather than ever guessing.
    """
    depth = start_depth
    while depth <= max_depth:
        verdict = decide(alpha_bracket(spec, depth))
        if verdict is not None:
            return verdict
        depth *= 2
    raise IndecisiveBracket(
        f"comparison against alpha undecided at bracket depth {max_depth}"
    )


@dataclass(frozen=True)
class GapCertificate:
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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "sign": self.sign,
            "lower_bound": str(self.lower_bound),
            "upper_bound": str(self.upper_bound),
            "distance_lo": str(self.distance_lo),
            "distance_hi": str(self.distance_hi),
            "depth_used": self.depth_used,
        }


def gap_bounds_check(spec: IrrationalSpec, n: int) -> GapCertificate:
    """Certify the convergent gap law at index n with exact comparisons.

    The bracket starts at depth n + 3 and escalates automatically; a verdict
    is only ever emitted once every strict inequality is decided by the
    enclosure, so there is no rounding anywhere.
    """
    if n < 1:
        raise ValueError("gap law is checked for n >= 1")
    cn = convergent(spec, n)
    cn1 = convergent(spec, n + 1)
    lower = Fraction(1, 2 * cn.q * cn1.q)
    upper = Fraction(1, cn.q * cn1.q)
    expected_sign = cn.sign

    state: dict = {"calls": 0}

    def decide(br: RationalBracket) -> Optional[bool]:
        state["calls"] += 1
        d_lo = br.lo - cn.value
        d_hi = br.hi - cn.value
        if d_lo <= 0 <= d_hi:
            return None  # sign undecided
        sign = 1 if d_lo > 0 else -1
        abs_lo, abs_hi = (d_lo, d_hi) if sign > 0 else (-d_hi, -d_lo)
        if abs_lo <= lower < abs_hi or abs_lo < upper <= abs_hi:
            return None  # a bound falls inside the enclosure
        state.update(sign=sign, abs_lo=abs_lo, abs_hi=abs_hi)
        return sign == expected_sign and lower < abs_lo and abs_hi < upper

    depth = max(8, n + 3)
    passed = refine_bracket(spec, decide, start_depth=depth)
    # refine_bracket doubles the depth after every undecided call
    used = depth * 2 ** (state["calls"] - 1)
    return GapCertificate(
        n=n,
        passed=passed,
        sign=state["sign"],
        lower_bound=lower,
        upper_bound=upper,
        distance_lo=state["abs_lo"],
        distance_hi=state["abs_hi"],
        depth_used=used,
    )

