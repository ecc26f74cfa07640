"""Exact evaluation of the level bumps, the truncated cocycle, and its sums.

Two piecewise-linear shapes per level n, both of period P = 1/(A_n q_{k_n})
and Lipschitz constant Lambda_n:

  main:  0 on [0, P/12], a ramp of slope Lambda_n up to the plateau
         q_{k_n+1}/(3 A_n n^2) on [5P/12, 7P/12], then the mirror ramp down;
         even about both 0 and P/2.
  tent:  a plain tent, Lambda_n * x up to P/2 and back down (A_n = 1 here,
         so P = 1/q_{k_n} and the peak is q_{k_n+1}/(2 n^2)).

Every exact quantity here is evaluated on an integer lattice.  With x = a/b
and a shift s/q (alpha_hat, or m alpha_hat), x and x + shift are u/D and
(u + s)/D over D = lcm(b, q); each level's position in its period is then an
integer r = u A_n q_{k_n} mod D, each bump an integer numerator over 4D
(:func:`_bump_num`), and each level's value one Fraction built at the end.
:func:`term`, :func:`phi` and :func:`phi_m` evaluate each level once at x and
once at x + shift; :func:`birkhoff` walks the orbit instead, stepping r by a
fixed integer |m| times.  The two share the lattice but not the route, so the
identity phi_m == birkhoff still compares two different evaluations of the
same sum.

The orbit lane in :mod:`besicov.dynamics` walks the same lattice, rounding
each bump in mpf.  The unit-period ``unit_position``/``bump`` pair lives in
the tests, as the independent oracle of both lanes.

The cocycle itself is the series of coboundary-like differences
f_l(x + alpha) - f_l(x).  The library replaces alpha by one deep convergent
alpha_hat = p_N/q_N *everywhere*, which turns every audited statement into an
exact rational identity; the substitution error is tracked per level as
Lambda_l |m| |alpha - alpha_hat| and surfaces as an explicit budget.  The
series is truncated at ``n_levels``; the omitted tail of the true cocycle is
bounded by sum_{l > N} 1/l^2 < 1/N per unit shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .cf import IrrationalSpec, convergent
from .levels import LevelParams, Profile, select_levels

#: Safety factor between q_N (denominator of alpha_hat) and the largest
#: Lipschitz constant in play.
DEFAULT_GUARD = 10**6


def _bump_num(r: int, d: int, variant: str) -> int:
    """The level bump at unit position u = r/d, 0 <= r < d, in integer numerators.

    The value is peak * _bump_num / (4d): s folds r onto [0, d/2], then main
    3 peak (u - 1/12) clamped to [0, peak] is clamp(12s - d, 0, 4d) and tent
    2 peak u is 8s.
    """
    s = d - r if 2 * r > d else r
    if variant == "tent":
        return 8 * s
    t = 12 * s - d
    if t <= 0:
        return 0
    return t if t < 4 * d else 4 * d


def _peak_den(level: LevelParams, variant: str) -> int:
    """The peak of f_n is q_{k_n+1} over this: 3 A_n n^2 (main), 2 A_n n^2 (tent)."""
    return (2 if variant == "tent" else 3) * level.a * level.n * level.n


def level_max(level: LevelParams, variant: str) -> Fraction:
    """Peak of f_n: the plateau for main, q_{k_n+1} / (2 A_n n^2) for tent."""
    return Fraction(level.q_next, _peak_den(level, variant))


def _on_lattice(x: Fraction, shift: Fraction) -> tuple[int, int, int]:
    """(u, s, d) with x = u/d and shift = s/d over d = lcm(den x, den shift)."""
    b, q = x.denominator, shift.denominator
    d = lcm(b, q)
    return x.numerator * (d // b), shift.numerator * (d // q), d


def _scaled(level: LevelParams, variant: str, num: int, d: int) -> Fraction:
    """peak * num / (4d): one Fraction for a level's integer bump numerator."""
    return Fraction(level.q_next * num, _peak_den(level, variant) * 4 * d)


def _term_num(c: int, u: int, s: int, d: int, variant: str) -> int:
    """Numerator over 4d of the bump difference at (u + s)/d and u/d, for a
    level of ``c`` cells."""
    return _bump_num((u + s) * c % d, d, variant) - _bump_num(u * c % d, d, variant)


def eval_level(level: LevelParams, variant: str, x: Fraction) -> Fraction:
    """f_n(x), exact; x is reduced mod the period internally."""
    d = x.denominator
    return _scaled(level, variant, _bump_num(x.numerator * level.cell_count % d, d, variant), d)


def term(level: LevelParams, variant: str, x: Fraction, shift: Fraction) -> Fraction:
    """f_n(x + shift) - f_n(x), exact."""
    u, s, d = _on_lattice(x, shift)
    return _scaled(level, variant, _term_num(level.cell_count, u, s, d, variant), d)


@dataclass(frozen=True)
class CocycleSpec:
    """A truncated cocycle with a pinned rational stand-in for alpha.

    ``profile`` carries at least ``n_levels`` levels; ``alpha_hat`` is the
    convergent p_N/q_N at ``alpha_depth``, chosen so that
    q_N > guard * max_{l <= n_levels} Lambda_l.  That guard keeps the
    substitution error Lambda_l |alpha - alpha_hat| certifiably below every
    inequality margin the audits assert.
    """

    profile: Profile
    n_levels: int
    alpha_depth: int
    alpha_hat: Fraction
    guard: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_levels <= self.profile.n_max:
            raise ValueError("n_levels must be within the profile's levels")
        q_n = self.alpha_hat.denominator
        if q_n <= self.guard * max(lv.lam for lv in self.levels):
            raise ValueError("alpha_hat too shallow for the guard invariant")

    @property
    def levels(self) -> tuple[LevelParams, ...]:
        return self.profile.levels[: self.n_levels]

    @property
    def variant(self) -> str:
        return self.profile.variant

    @property
    def alpha_gap_bound(self) -> Fraction:
        """Exact upper bound on |alpha - alpha_hat|: the bracket width 1/(q_N q_{N+1})."""
        n = self.alpha_depth
        return Fraction(
            1,
            convergent(self.profile.alpha, n).q * convergent(self.profile.alpha, n + 1).q,
        )

    @property
    def tail_bound(self) -> Fraction:
        """Bound on the omitted series tail per unit |m|: sum_{l>N} 1/l^2 < 1/N."""
        return Fraction(1, self.n_levels)

    def sub_budget_level(self, n: int, m: int = 1) -> Fraction:
        """Substitution error budget for level n at iterate count m."""
        return self.profile.level(n).lam * abs(m) * self.alpha_gap_bound

    def sub_budget(self, m: int = 1) -> Fraction:
        """Total substitution budget across all truncated levels."""
        return sum(
            (lv.lam for lv in self.levels), start=Fraction(0)
        ) * abs(m) * self.alpha_gap_bound

    def truncated(self, n_levels: int) -> "CocycleSpec":
        """Same cocycle cut at fewer levels (alpha_hat unchanged, so values
        of shared levels agree bit for bit)."""
        if n_levels == self.n_levels:
            return self
        return CocycleSpec(
            profile=self.profile,
            n_levels=n_levels,
            alpha_depth=self.alpha_depth,
            alpha_hat=self.alpha_hat,
            guard=self.guard,
        )


def make_cocycle(
    spec: IrrationalSpec,
    strategy: str,
    variant: str,
    n_max: int,
    n_levels: Optional[int] = None,
    alpha_depth: Optional[int] = None,
) -> CocycleSpec:
    """Build a cocycle spec, extending the level stack past n_max.

    The truncation default is n_max + 3 so that target sets sampled to depth
    n_max still leave a few audited levels above the deepest window in use.
    Level selection is prefix-stable, so the first n_max levels equal those of
    ``select_levels(spec, strategy, variant, n_max)`` exactly.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n_levels = n_max + 3 if n_levels is None else n_levels
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    profile = select_levels(spec, strategy, variant, max(n_max, n_levels))
    lam_max = max(lv.lam for lv in profile.levels[:n_levels])
    if alpha_depth is None:
        alpha_depth = 2
        while convergent(spec, alpha_depth).q <= DEFAULT_GUARD * lam_max:
            alpha_depth += 1
    c = convergent(spec, alpha_depth)
    return CocycleSpec(
        profile=profile,
        n_levels=n_levels,
        alpha_depth=alpha_depth,
        alpha_hat=c.value,
        guard=DEFAULT_GUARD,
    )


def _telescoped(cspec: CocycleSpec, x: Fraction, shift: Fraction) -> Fraction:
    """sum_l f_l(x + shift) - f_l(x) on the lattice of x and shift."""
    u, s, d = _on_lattice(x, shift)
    v = cspec.variant
    total = Fraction(0)
    for lv in cspec.levels:
        total += _scaled(lv, v, _term_num(lv.cell_count, u, s, d, v), d)
    return total


def phi(cspec: CocycleSpec, x: Fraction) -> Fraction:
    """Truncated cocycle value: sum of f_l(x + alpha_hat) - f_l(x)."""
    return _telescoped(cspec, x, cspec.alpha_hat)


def phi_m(cspec: CocycleSpec, x: Fraction, m: int) -> Fraction:
    """m-th ergodic sum evaluated through the telescoped form
    sum_l (f_l(x + m alpha_hat) - f_l(x)); exact for any integer m."""
    if m == 0:
        return Fraction(0)
    return _telescoped(cspec, x, m * cspec.alpha_hat)


def birkhoff(cspec: CocycleSpec, x: Fraction, m: int) -> Fraction:
    """m-th ergodic sum by direct orbit summation, on the integer lattice.

    Every orbit point x + j alpha_hat mod 1 is u_j/D with D = lcm(den x, q_N),
    and u steps by p_N D/q_N mod D (backward for m < 0).  Per level, the
    position r = u A_n q_{k_n} mod D steps by a fixed integer, and the bump
    differences f_l(y_{j+1}) - f_l(y_j) along the orbit add up as one integer
    numerator; one Fraction per level is built at the end.  Agrees with
    :func:`phi_m` bit for bit because the same alpha_hat is used throughout and
    each f_l has period dividing 1; since phi_m evaluates each level once at
    x and once at x + m alpha_hat while this walks all |m| steps, the equality
    is the module's master correctness check.
    """
    u, step, d = _on_lattice(x, cspec.alpha_hat)
    u %= d
    if m < 0:
        step = -step
    v = cspec.variant
    total = Fraction(0)
    for lv in cspec.levels:
        c = lv.cell_count
        dr = step * c % d
        r = u * c % d
        g = _bump_num(r, d, v)
        acc = 0
        for _ in range(abs(m)):
            r += dr
            if r >= d:
                r -= d
            g_next = _bump_num(r, d, v)
            acc += g_next - g
            g = g_next
        total += _scaled(lv, v, acc, d)
    return total
