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
integer r = u A_n q_{k_n} mod D and each bump an integer numerator over 4D
(:func:`_bump_num`).  Every exact sum reads one kernel, the potential
g = sum_l f_l: :func:`_weights` gives the lcm L of the levels' peak
denominators and level l's cell count and weight q_{k_l+1} L / _peak_den(l),
and :func:`_potential` each level's weighted bump numerator at u/D over 4DL,
which sum to g(u/D).  The truncated cocycle is the coboundary of g (Gottschalk
and Hedlund, *Topological Dynamics*, 1955), so :func:`phi_m` is
g(x + m alpha_hat) - g(x), one Fraction per result; :func:`term` and
:func:`eval_level` are its one-level cases, and :mod:`besicov.audit` reads the
same two helpers.  :func:`birkhoff` weights each level's bump differences
summed along the orbit instead, so the identity phi_m == birkhoff compares two
routes to the same sum.  The substitution budgets sum Lambda_l over the lcm S
of the l^2 (``tests/oracles.py`` keeps per-level Fraction sums as the oracles
of both).  A :class:`CocycleSpec` derives its integer constants once, as
cached properties outside its fields: ``kernel``, the (L, weights) of its
levels; ``lam_sum``, S and the Lambda_l summed over it; and ``gap``,
q_N q_{N+1}.  phi_m, birkhoff, the budgets, both audits and the scan read
them there.  :func:`walk` is the one routine that steps an orbit, for
``birkhoff`` and for the orbit lane in :mod:`besicov.dynamics`, which rounds
each bump along it as mpf would.  The unit-period ``unit_position``/``bump``
pair lives in the tests, as the independent oracle of both lanes.

The cocycle itself is the series of differences f_l(x + alpha) - f_l(x).
The library replaces alpha by one deep convergent alpha_hat = p_N/q_N
*everywhere*, which turns every audited statement into an exact rational
identity; the substitution error is tracked per level as
Lambda_l |m| |alpha - alpha_hat| and surfaces as an explicit budget.  The
series is truncated at ``n_levels``; the omitted tail of the true cocycle is
bounded by sum_{l > N} 1/l^2 < 1/N per unit shift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator, Optional

from .cf import IrrationalSpec, _q, convergent
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


Weights = tuple[tuple[int, int], ...]


def _weights(levels: tuple[LevelParams, ...], variant: str) -> tuple[int, Weights]:
    """(L, weights): L the lcm of the levels' peak denominators, and per level
    its cell count C_l and weight q_{k_l+1} L / _peak_den(l), so that f_l is
    weight * _bump_num / (4dL)."""
    dens = [_peak_den(lv, variant) for lv in levels]
    big = lcm(*dens)
    return big, tuple((lv.cell_count, lv.q_next * (big // den)) for lv, den in zip(levels, dens))


def _potential(weights: Weights, u: int, d: int, variant: str) -> list[int]:
    """Each level's weighted bump numerator at u/d, over 4dL: their sum is
    g(u/d), the potential g = sum_l f_l, for (L, weights) from :func:`_weights`."""
    return [wt * _bump_num(u * c % d, d, variant) for c, wt in weights]


def eval_level(level: LevelParams, variant: str, x: Fraction) -> Fraction:
    """f_n(x), exact; x is reduced mod the period internally."""
    big, weights = _weights((level,), variant)
    d = x.denominator
    return Fraction(_potential(weights, x.numerator, d, variant)[0], 4 * d * big)


def _coboundary(kernel: tuple[int, Weights], variant: str, u: int, s: int, d: int) -> Fraction:
    """g((u + s)/d) - g(u/d) for the potential g of ``kernel`` = (L, weights):
    one Fraction over 4dL."""
    big, weights = kernel
    at_x = sum(_potential(weights, u, d, variant))
    return Fraction(sum(_potential(weights, u + s, d, variant)) - at_x, 4 * d * big)


def term(level: LevelParams, variant: str, x: Fraction, shift: Fraction) -> Fraction:
    """f_n(x + shift) - f_n(x), exact."""
    return _coboundary(_weights((level,), variant), variant, *_on_lattice(x, shift))


def _guard_bound(levels: tuple[LevelParams, ...], guard: int) -> int:
    """The largest q_N the guard refuses: an integer q_N exceeds
    guard * Lambda_l = guard q_{k_l} q_{k_l+1} / l^2 exactly when it exceeds
    that value's floor, so the test is one integer maximum of floors."""
    return max(guard * lv.q * lv.q_next // (lv.n * lv.n) for lv in levels)


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
        if q_n <= _guard_bound(self.levels, self.guard):
            raise ValueError("alpha_hat too shallow for the guard invariant")

    @property
    def levels(self) -> tuple[LevelParams, ...]:
        return self.profile.levels[: self.n_levels]

    @property
    def variant(self) -> str:
        return self.profile.variant

    @cached_property
    def kernel(self) -> tuple[int, Weights]:
        """(L, weights) of the potential g over the truncated levels (:func:`_weights`)."""
        return _weights(self.levels, self.variant)

    @cached_property
    def lam_sum(self) -> tuple[int, int]:
        """(S, sum_l Lambda_l S): S the lcm of the l^2 over the truncated levels,
        and the Lipschitz constants summed over it, one integer."""
        s = lcm(*(lv.n * lv.n for lv in self.levels))
        return s, sum(lv.q * lv.q_next * (s // (lv.n * lv.n)) for lv in self.levels)

    @cached_property
    def gap(self) -> int:
        """q_N q_{N+1}: the bracket width's inverse."""
        spec, n = self.profile.alpha, self.alpha_depth
        return _q(spec, n) * _q(spec, n + 1)

    @property
    def alpha_gap_bound(self) -> Fraction:
        """Exact upper bound on |alpha - alpha_hat|: the bracket width 1/(q_N q_{N+1})."""
        return Fraction(1, self.gap)

    @property
    def tail_bound(self) -> Fraction:
        """Bound on the omitted series tail per unit |m|: sum_{l>N} 1/l^2 < 1/N."""
        return Fraction(1, self.n_levels)

    def sub_budget(self, m: int = 1) -> Fraction:
        """Total substitution budget across all truncated levels: the Lambda_l
        summed over S, times |m|, over S q_N q_{N+1}."""
        s, total = self.lam_sum
        return Fraction(total * abs(m), s * self.gap)

    def truncated(self, n_levels: int) -> "CocycleSpec":
        """Same cocycle cut at fewer levels (alpha_hat unchanged, so values
        of shared levels agree bit for bit)."""
        return self if n_levels == self.n_levels else replace(self, n_levels=n_levels)


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
    if alpha_depth is None:
        refused = _guard_bound(profile.levels[:n_levels], DEFAULT_GUARD)
        alpha_depth = 2
        while _q(spec, alpha_depth) <= refused:
            alpha_depth += 1
    return CocycleSpec(profile=profile, n_levels=n_levels, alpha_depth=alpha_depth,
                       alpha_hat=convergent(spec, alpha_depth).value, guard=DEFAULT_GUARD)


def phi(cspec: CocycleSpec, x: Fraction) -> Fraction:
    """Truncated cocycle value: sum of f_l(x + alpha_hat) - f_l(x)."""
    return phi_m(cspec, x, 1)


def phi_m(cspec: CocycleSpec, x: Fraction, m: int) -> Fraction:
    """m-th ergodic sum as the coboundary of the potential g = sum_l f_l:
    g(x + m alpha_hat) - g(x), exact for any integer m, one Fraction over 4dL
    on the lattice of x and alpha_hat."""
    u, s, d = _on_lattice(x, cspec.alpha_hat)
    return _coboundary(cspec.kernel, cspec.variant, u, m * s, d)


def walk(cspec: CocycleSpec, x: Fraction, steps: int) -> tuple[int, list[Iterator[int]]]:
    """(d, walks) for the orbit x_j = x + j alpha_hat mod 1, j = 0..|steps|
    (backward for steps < 0), each x_j = u_j/d with d = lcm(den x, q_N).

    ``walks[0]`` yields u_j and ``walks[l]`` level l's position u_j A_l q_{k_l}
    mod d (r/d of its period), each stepped by one fixed integer mod d.
    """
    u, step, d = _on_lattice(x, cspec.alpha_hat if steps >= 0 else -cspec.alpha_hat)

    def positions(c: int) -> Iterator[int]:
        r, dr = u * c % d, step * c % d
        yield r
        for _ in range(abs(steps)):
            r += dr
            if r >= d:
                r -= d
            yield r

    return d, [positions(c) for c in (1, *(lv.cell_count for lv in cspec.levels))]


def birkhoff(cspec: CocycleSpec, x: Fraction, m: int) -> Fraction:
    """m-th ergodic sum by direct orbit summation along :func:`walk`.

    Per level, the bump differences f_l(x_{j+1}) - f_l(x_j) add up as one
    integer numerator; the levels' sums, each times its :func:`_weights`
    weight, make one Fraction at the end.  Agrees with :func:`phi_m`
    bit for bit because the same alpha_hat is used throughout and each f_l has
    period dividing 1; since phi_m evaluates each level once at x and once at
    x + m alpha_hat while this walks all |m| steps, the equality is the
    module's master correctness check.
    """
    d, walks = walk(cspec, x, m)
    v = cspec.variant
    big, weights = cspec.kernel
    total = 0
    for (_, wt), rs in zip(weights, walks[1:]):
        g = _bump_num(next(rs), d, v)
        acc = 0
        for r in rs:
            g_next = _bump_num(r, d, v)
            acc += g_next - g
            g = g_next
        total += wt * acc
    return Fraction(total, 4 * d * big)
