"""Construction levels: the subsequence k_n and the derived scale factors.

A *level* n picks a convergent index k_n and carries the exact integers
p_{k_n}, q_{k_n}, q_{k_n + 1} together with the period-count factor

    A_n = floor((3/4)^n * q_{k_n + 1})      (main variant; A_n = 1 for tent).

From those everything else is an exact rational: the Lipschitz constant
Lambda_n = q_{k_n} q_{k_n+1} / n^2, the bump period 1/(A_n q_{k_n}) and the
bump plateau q_{k_n+1} / (3 A_n n^2).  The growth certificates decide on
those integers alone.  The constants a stack of levels feeds into every
exact sum (the potential kernel's lcm and weights, the lcm of the n^2 with
the Lambda_n summed over it) are derived once per cocycle, on
``cocycle.CocycleSpec``, not here.

Selection strategies
--------------------
fixed   k_n = 4 n^2 + 1.  Satisfies every growth condition for any alpha,
        and (1/n) log q_{k_n} -> infinity, but the integers explode quickly.
greedy  smallest admissible k_n of a fixed parity subject to the five-fold
        growth q_{k_n} >= 5 q_{k_{n-1}}, q_{k_n+1} >= 5 q_{k_{n-1}+1}.
        Keeps every audited inequality while staying desk-scale; the price is
        that (1/n) log q_{k_n} stays bounded, so dimension bounds approach a
        constant below 1 instead of 1.
tent variant    smallest k_n of fixed parity with q_{k_n} >= 18 q_{k_{n-1}},
        A_n forced to 1 (the tent construction needs no amplitude split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cf import IrrationalSpec, _q, convergent
from .errors import DepthExceedsProfile, InvariantBroken, Result, ValidationFailure

STRATEGIES = ("fixed", "greedy")
VARIANTS = ("main", "tent")


@dataclass(frozen=True)
class LevelParams:
    """All exact scalars attached to construction level n."""

    n: int
    k: int
    p: int        # p_{k_n}
    q: int        # q_{k_n}
    q_next: int   # q_{k_n + 1}
    a: int        # A_n, the period-count factor

    @property
    def lam(self) -> Fraction:
        """Lipschitz constant q_{k_n} q_{k_n+1} / n^2."""
        return Fraction(self.q * self.q_next, self.n * self.n)

    @property
    def period(self) -> Fraction:
        return Fraction(1, self.a * self.q)

    @property
    def plateau(self) -> Fraction:
        """Height of the flat top of the main bump: q_{k_n+1} / (3 A_n n^2)."""
        return Fraction(self.q_next, 3 * self.a * self.n * self.n)

    @property
    def cell_count(self) -> int:
        """Number of periods tiling the circle: A_n q_{k_n}."""
        return self.a * self.q


@dataclass(frozen=True)
class Profile:
    """A validated-or-validatable stack of construction levels."""

    alpha: IrrationalSpec
    strategy: str
    variant: str
    n_max: int
    levels: tuple[LevelParams, ...]

    def level(self, n: int) -> LevelParams:
        if not 1 <= n <= self.n_max:
            raise DepthExceedsProfile(f"level {n} outside 1..{self.n_max}")
        return self.levels[n - 1]


def _amp(n: int, q_next: int, variant: str) -> int:
    if variant == "tent":
        return 1
    return (3**n * q_next) // 4**n


def _level(spec: IrrationalSpec, n: int, k: int, variant: str) -> LevelParams:
    c = convergent(spec, k)
    c1 = convergent(spec, k + 1)
    return LevelParams(n=n, k=k, p=c.p, q=c.q, q_next=c1.q, a=_amp(n, c1.q, variant))


def select_levels(
    spec: IrrationalSpec, strategy: str, variant: str, n_max: int
) -> Profile:
    """Choose k_1 < k_2 < ... < k_{n_max} and build the level stack.

    fixed:  k_n = 4 n^2 + 1 (all odd, so the parity condition is automatic).
    greedy: k_1 is the smallest index with q_{k_1} >= 9 (which also gives
            q_{k_1+1} >= 9, the binding base condition); subsequent k_n keep
            the parity of k_1 and take the first index satisfying the growth
            rule of the variant (five-fold for main, eighteen-fold q for tent).

    Selection always terminates: q_k is strictly increasing and unbounded.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    ks: list[int] = []
    if strategy == "fixed":
        ks = [4 * n * n + 1 for n in range(1, n_max + 1)]
    else:
        k = 1
        while _q(spec, k) < 9:
            k += 1
        ks.append(k)
        parity = k % 2
        for _ in range(2, n_max + 1):
            prev = ks[-1]
            pq, pq1 = _q(spec, prev), _q(spec, prev + 1)
            k = prev + 2  # keep parity
            while True:
                cq, cq1 = _q(spec, k), _q(spec, k + 1)
                if variant == "tent":
                    if cq >= 18 * pq:
                        break
                else:
                    if cq >= 5 * pq and cq1 >= 5 * pq1:
                        break
                k += 2
            # unreachable: k starts at prev + 2 and steps by 2, so it keeps
            # k_1's parity; the check only guards those two steps
            if k % 2 != parity:
                raise InvariantBroken(f"greedy level {len(ks) + 1} broke the parity of k_1")
            ks.append(k)

    levels = tuple(_level(spec, n, k, variant) for n, k in enumerate(ks, start=1))
    return Profile(alpha=spec, strategy=strategy, variant=variant, n_max=n_max, levels=levels)


@dataclass(frozen=True)
class Certificate(Result):
    """One named exact check: value, the bound it was tested against, verdict.

    ``binding`` distinguishes required conditions from recorded-only ones
    (the alternative base reading, informational growth diagnostics).
    """

    name: str
    n: Optional[int]
    value: str
    bound: str
    passed: bool
    binding: bool = True
    note: str = ""


@dataclass
class ValidationReport(Result):
    """Every growth-condition certificate of a profile; only binding ones decide."""

    certificates: list[Certificate] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates if c.binding)

    def first_failure(self) -> Optional[Certificate]:
        for c in self.certificates:
            if c.binding and not c.passed:
                return c
        return None

    def require(self) -> "ValidationReport":
        bad = self.first_failure()
        if bad is not None:
            raise ValidationFailure(bad)
        return self

    def as_dict(self) -> dict:
        return {**super().as_dict(), "passed": self.passed}


def validate_levels(profile: Profile) -> ValidationReport:
    """Check every finite growth condition the construction relies on.

    Main variant, binding:
      * parity: all k_n share one parity;
      * base: q_{k_1 + 1} >= 9;
      * growth (n >= 2): q_{k_n} >= 5 q_{k_{n-1}} and q_{k_n+1} >= 5 q_{k_{n-1}+1};
      * amplitude: A_n >= 1 and A_n = floor((3/4)^n q_{k_n+1});
      * ratio window (n >= 2): 11/10 < (q_{k_n+1}/A_n)/(q_{k_{n-1}+1}/A_{n-1}) < 25/18,
        equivalently the two one-sided chains > 18/25 and > 1.1;
      * exponential rise: q_{k_n+1}/A_n strictly increasing and
        >= (11/10)^{n-1} q_{k_1+1}/A_1.

    Tent variant, binding: parity, A_n = 1, q_{k_n} >= 18 q_{k_{n-1}}, and
    q_{k_n+1} strictly increasing (the window partition only needs that).

    The asymptotic condition (1/n) log q_{k_n} -> infinity cannot be decided
    at finite n; the report carries the sequence for inspection instead.

    Every verdict is an integer cross-multiplication over the levels' own
    integers (q and A_n positive); a Fraction is built only for a value a
    certificate prints (oracle: ``tests/oracles.validate_levels``, the
    Fraction comparisons).
    """
    L = profile.levels
    rows: list[tuple] = [  # Certificate fields, in order
        ("parity", None, ",".join(str(lv.k) for lv in L), "all k_n even or all odd",
         len({lv.k % 2 for lv in L}) == 1),
    ]
    if profile.variant == "tent":
        rows += [("amp-one", lv.n, str(lv.a), "A_n = 1", lv.a == 1) for lv in L]
        for prev, cur in zip(L, L[1:]):
            rows += [
                ("growth-18x", cur.n, f"{cur.q}/{prev.q}", ">= 18", cur.q >= 18 * prev.q),
                ("peak-ratio-increasing", cur.n, f"{cur.q_next} > {prev.q_next}",
                 "q_{k_n+1} strictly increasing", cur.q_next > prev.q_next),
            ]
    else:
        base = L[0]
        rows += [
            ("base-q-next", 1, str(base.q_next), ">= 9", base.q_next >= 9),
            ("base-q", 1, str(base.q), ">= 9", base.q >= 9,
             False, "alternative base reading, recorded only"),
        ]
        rows += [
            ("amplitude", lv.n, str(lv.a), "floor((3/4)^n q_{k_n+1}), >= 1",
             lv.a >= 1 and lv.a == _amp(lv.n, lv.q_next, "main"))
            for lv in L
        ]
        increasing = True  # each peak q_{k_n+1}/A_n above the last
        for prev, cur in zip(L, L[1:]):
            num, den = cur.q_next * prev.a, cur.a * prev.q_next  # the ratio is num/den
            increasing &= num > den
            ratio = Fraction(num, den)
            lower_ok = 10 * num > 11 * den  # ratio > 11/10
            upper_ok = 18 * num < 25 * den  # ratio < 25/18, that is 1/ratio > 18/25
            rows += [
                ("growth-5x-q", cur.n, f"{cur.q}/{prev.q}", ">= 5", cur.q >= 5 * prev.q),
                ("growth-5x-q-next", cur.n, f"{cur.q_next}/{prev.q_next}", ">= 5",
                 cur.q_next >= 5 * prev.q_next),
                ("ratio-window", cur.n, str(ratio), "(11/10, 25/18)", lower_ok and upper_ok),
                ("chain-upper", cur.n, str(1 / ratio), "> 18/25", upper_ok),
                ("chain-lower", cur.n, str(ratio), "> 11/10", lower_ok),
            ]
        # and the i-th peak at least (11/10)^i times the first
        rises = increasing and all(
            10**i * lv.q_next * base.a >= 11**i * base.q_next * lv.a for i, lv in enumerate(L)
        )
        rows.append(("exponential-rise", None,
                     ",".join(str(Fraction(lv.q_next, lv.a)) for lv in L),
                     "strictly increasing, >= (11/10)^(n-1) * first", rises))
    rows.append(("log-growth", None, ",".join(f"{math.log(lv.q) / lv.n:.6f}" for lv in L),
                 "-> infinity (asymptotic, reported only)", True,
                 False, "(1/n) log q_{k_n}; informational"))
    return ValidationReport(certificates=[Certificate(*row) for row in rows])


# ---------------------------------------------------------------------------
# serialization


def profile_to_dict(profile: Profile) -> dict:
    a = profile.alpha
    return {
        "alpha": {
            "head": list(a.head),
            "tail": list(a.tail),
            "name": a.name,
        },
        "strategy": profile.strategy,
        "variant": profile.variant,
        "n_max": profile.n_max,
        "levels": [
            {
                "n": lv.n,
                "k": lv.k,
                "p": str(lv.p),
                "q": str(lv.q),
                "q_next": str(lv.q_next),
                "A": str(lv.a),
            }
            for lv in profile.levels
        ],
    }
