"""The four nested interval families and their Cantor-set machinery.

At level n the circle is tiled by C_n = A_n q_{k_n} periods of length
P = 1/C_n; each family places one closed subinterval of length P/6 per
period, at a family-specific offset pattern (L, H) in twelfths of P:

    "++" : (-1,  1)      centred on the bump zeros
    "-+" : ( 2,  4)      inside the rising ramp
    "--" : ( 5,  7)      centred on the plateau, "++" shifted by P/2
    "+-" : ( 8, 10)      inside the falling ramp, "-+" shifted by P/2

so interval j is [(12j + L)/(12 C_n), (12j + H)/(12 C_n)] and its center is
(24j + L + H)/(24 C_n).  Every count, containment and grid cell over these
intervals is therefore an integer floor or ceil: ``child_span`` gives the
level-(n+1) children of one interval as a lifted index range, and its span
formula is the one nesting test; measured nesting counts read it (``_span``)
over the residues j C' mod C.  One descent (``_descend``) follows the spans
down, picking a child by policy at each level: ``sample_point`` runs it from
level-1 interval 0, and ``_probe_start`` by centers from the interval nearest
a point.
Membership is decided the same way: x = a/b lies in the level-n union when
it is at most H twelfths of a period past the band start at or below it, one
floor division (``_lift``).  ``member`` builds no ``Fraction``;
the per-level reductions x - j_lift P are built only by ``sample_point``,
which stores them in its ``DigitPath`` (``tests/oracles.member`` keeps the
Fraction formula with its reductions as the oracle).  No audit reads them:
``besicov target`` prints them and the benchmark's digests include them.
Only ``interval`` and the interval tables build the endpoints as
``Fraction``s.

The j = 0 interval of "++" straddles 0 and is kept as a single wrapped
interval on the circle, so counting and membership treat the circle metric
uniformly.  Intersecting the unions over all levels yields a topological
Cantor set; the library works with finite depths and certifies membership
level by level with exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import DepthExceedsProfile, IndexOutOfRange, InvalidDigitPath, InvariantBroken

if TYPE_CHECKING:  # annotations only
    from .levels import Profile

FAMILIES = ("++", "--", "+-", "-+")

#: CLI-safe aliases.
FAMILY_CODES = {"pp": "++", "mm": "--", "pm": "+-", "mp": "-+"}

#: Offsets (L, H) of each family's interval inside its period, in twelfths.
TWELFTHS = {"++": (-1, 1), "-+": (2, 4), "--": (5, 7), "+-": (8, 10)}


def canonical_family(family: str) -> str:
    fam = FAMILY_CODES.get(family, family)
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return fam


def family_kind(family: str) -> str:
    """A family is its escape signs, backward then forward in time: "aligned"
    when they agree, "mixed" when they differ."""
    s_minus, s_plus = canonical_family(family)
    return "aligned" if s_minus == s_plus else "mixed"


@dataclass(frozen=True)
class TargetInterval:
    """One closed level-n interval, endpoints exact; ``a`` may be negative
    only for the wrapped j = 0 interval of the "++" family."""

    family: str
    n: int
    j: int
    a: Fraction
    b: Fraction


def interval(profile: Profile, family: str, n: int, j: int) -> TargetInterval:
    fam = canonical_family(family)
    count = profile.level(n).cell_count
    _index(j, count, n)
    lo, hi = TWELFTHS[fam]
    den = 12 * count
    return TargetInterval(
        family=fam, n=n, j=j, a=Fraction(12 * j + lo, den), b=Fraction(12 * j + hi, den)
    )


def _index(j: int, c: int, n: int) -> int:
    """j, refused unless it indexes one of the c intervals of level n."""
    if not 0 <= j < c:
        raise IndexOutOfRange(f"j={j} outside 0..{c - 1} at level {n}")
    return j


def _lift(c: int, lo: int, hi: int, a: int, b: int) -> Optional[int]:
    """The lifted index j_lift of the interval of a level of ``c`` cells that
    holds x = a/b, for a family with offsets (lo, hi); None in a gap.

    x lies in the union exactly when it is at most hi twelfths of a period
    past the band start (12 j_lift + lo)/(12 c) at or below it.
    """
    t = 12 * c * a  # x in twelfths of a period is t/b
    j_lift = (t // b - lo) // 12
    if t - 12 * j_lift * b > hi * b:
        return None
    return j_lift


@dataclass(frozen=True)
class MemberResult:
    """Membership of x level by level, with the first failing level if any."""

    ok: bool
    first_fail: Optional[int]


def _lifts(cells: Iterable[int], family: str, a: int, b: int) -> Iterator[Optional[int]]:
    """``_lift`` of x = a/b at the levels of the cell counts ``cells``, from
    level 1, lazily: a caller stops at the first gap."""
    lo, hi = TWELFTHS[family]
    return (_lift(c, lo, hi, a, b) for c in cells)


def member(profile: Profile, family: str, x: Fraction, up_to: int) -> MemberResult:
    """Exact membership of x in every level-l union for l <= up_to, decided on
    integers (oracle with the per-level reductions: ``tests/oracles.member``).

    A failure reports the minimal failing level.
    """
    fam, b = canonical_family(family), x.denominator
    cells = (profile.level(n).cell_count for n in range(1, up_to + 1))
    for n, j_lift in enumerate(_lifts(cells, fam, x.numerator % b, b), 1):
        if j_lift is None:
            return MemberResult(ok=False, first_fail=n)
    return MemberResult(ok=True, first_fail=None)


def child_span(profile: Profile, family: str, n: int, j: int) -> tuple[int, int]:
    """Lifted index range ``(jmin, jmax)`` of the level-(n+1) intervals wholly
    inside level-n interval j; empty when jmin > jmax.

    Containment is closed (boundary touching counts), matching the counting
    convention the dimension bounds rely on.  With C = C_n and C' = C_{n+1},
    child k lies in parent j exactly when (12k + L) C >= (12j + L) C' and
    (12k + H) C <= (12j + H) C', one integer ceil and one integer floor.  The
    indices are lifted (the "++" interval j = 0 has children k < 0) and reduce
    mod C'.  Every child has the same length, so checking the two extreme
    children covers every child between them.
    """
    if n >= profile.n_max:
        raise DepthExceedsProfile(f"no level {n + 1} in profile")
    return _children(profile.level(n).cell_count, profile.level(n + 1).cell_count,
                     TWELFTHS[canonical_family(family)], n, j)


def _span(r: int, c: int, c1: int, twelfths: tuple[int, int]) -> tuple[int, int]:
    """``child_span`` of a parent j less q, where j C' = q C + r, C = c and
    C' = c1: ceil((12r + L D) / 12C) and floor((12r + H D) / 12C), D = C' - C."""
    lo, hi = twelfths
    d, den = c1 - c, 12 * c
    return -((-12 * r - lo * d) // den), (12 * r + hi * d) // den


def _children(c: int, c1: int, twelfths: tuple[int, int], n: int, j: int) -> tuple[int, int]:
    """``child_span`` of level-n interval j from the cell counts c = C_n and
    c1 = C_{n+1} and the family's offsets: the span formula, for
    ``child_span`` and for ``_descend``."""
    _index(j, c, n)
    lo, hi = twelfths
    q, r = divmod(j * c1, c)
    jmin, jmax = _span(r, c, c1, twelfths)
    jmin, jmax = q + jmin, q + jmax
    a, b = (12 * j + lo) * c1, (12 * j + hi) * c1  # 12 C C' times the parent ends
    # With c > 0 the span's ceil and floor imply both containments, so this
    # cannot fire; it guards the two roundings against a change.
    if jmin <= jmax and not ((12 * jmin + lo) * c >= a and (12 * jmax + hi) * c <= b):
        raise InvariantBroken(f"level {n + 1} children of j={j} escape their level {n} parent")
    return jmin, jmax


def _descend(cells: list[int], twelfths: tuple[int, int], n: int, j: int,
             policy: str) -> list[int]:
    """The index chain from level-n interval j down to the last level of the
    cell counts ``cells`` (from level n on), taking the "leftmost" or "center"
    child of the span at each level; an empty span is refused."""
    chain = [j]
    for c, c1 in zip(cells, cells[1:]):
        jmin, jmax = _children(c, c1, twelfths, n, j)
        if jmin > jmax:
            raise InvalidDigitPath(f"no children inside level-{n} interval (invalid profile?)")
        n += 1
        j = (jmin if policy == "leftmost" else jmin + (jmax - jmin + 1) // 2) % c1
        chain.append(j)
    return chain


def _center(profile: Profile, family: str, n: int, j: int) -> Fraction:
    """The center (24j + L + H)/(24 C_n) of level-n interval j, mod 1."""
    lo, hi = TWELFTHS[family]
    den = 24 * profile.level(n).cell_count
    return Fraction((24 * j + lo + hi) % den, den)


@dataclass(frozen=True)
class DigitPath:
    """Nested child choices identifying a depth-N point, as ``sample_point``
    returns them.

    ``point`` is the center of the depth-N interval; ``reductions[l-1]`` is
    point - j_l * P_l (lifted), which lies in the family's offset band at
    every level.  The divergence audits read only ``point``, ``indices`` and
    the depth, and re-certify the point's membership; the reductions are
    printed by ``besicov target``.
    """

    family: str
    indices: tuple[int, ...]
    point: Fraction
    reductions: tuple[Fraction, ...]

    @property
    def depth(self) -> int:
        return len(self.indices)


def sample_point(
    profile: Profile,
    family: str,
    policy: str = "center",
    depth: int = 1,
) -> tuple[Fraction, DigitPath]:
    """Produce a certified point of the depth-``depth`` intersection.

    One descent (``_descend``) builds the index chain from j_1 = 0.  Policy
    "center" takes the middle child at every level (keeping audit margins
    fat), "leftmost" the first in circle order.  Membership of the deepest
    interval's center at every level up to the depth is verified exactly
    before returning.
    """
    fam = canonical_family(family)
    if policy not in ("center", "leftmost"):
        raise ValueError("policy must be 'center' or 'leftmost'")
    if not 1 <= depth <= profile.n_max:
        raise DepthExceedsProfile(f"depth {depth} outside 1..{profile.n_max}")
    cells = [lv.cell_count for lv in profile.levels[:depth]]
    idx = tuple(_descend(cells, TWELFTHS[fam], 1, 0, policy))
    x = _center(profile, fam, depth, idx[-1])
    a, b = x.numerator, x.denominator
    reductions = []
    for c, j_lift in zip(cells, _lifts(cells, fam, a, b)):
        if j_lift is None:
            raise InvalidDigitPath(f"center fails membership at level {len(reductions) + 1}")
        reductions.append(Fraction(a * c - j_lift * b, b * c))
    return x, DigitPath(family=fam, indices=idx, point=x, reductions=tuple(reductions))


def _probe_start(profile: Profile, family: str, n_max: int, x: Fraction,
                 delta: Fraction) -> Optional[Fraction]:
    """The sensitivity probe's first candidate: from the level-n interval
    nearest x, n the first level whose period is at most delta/2, the center
    of the middle-child descent to depth min(n + 2, n_max) if within delta of
    x, else None.  It lies in the unions of levels n to that depth, but the
    levels below n are unchecked, so it need not lie in the target set."""
    cells = [lv.cell_count for lv in profile.levels[:n_max]]
    for n, c in enumerate(cells, 1):
        if delta * c >= 2:  # period <= delta/2 puts the descended interval within delta of x
            depth = min(n + 2, n_max)
            try:
                j = _descend(cells[n - 1 : depth], TWELFTHS[family], n, round(x * c) % c,
                             "center")[-1]
            except InvalidDigitPath:  # an interval with no children
                return None
            y = _center(profile, family, depth, j)
            d = (y - x) % 1
            return y if min(d, 1 - d) <= delta else None
    return None


def interval_row(profile: Profile, family: str, n: int, j: int) -> dict:
    """A CSV-ready row (decimal strings) for level-n interval j."""
    iv = interval(profile, family, n, j)
    return {
        "n": n,
        "j": j,
        "family": iv.family,
        "a_num": str(iv.a.numerator),
        "a_den": str(iv.a.denominator),
        "b_num": str(iv.b.numerator),
        "b_den": str(iv.b.denominator),
    }


def interval_rows(profile: Profile, family: str, n: int) -> Iterable[dict]:
    """Rows of ``interval_row`` for the whole level-n union."""
    for j in range(profile.level(n).cell_count):
        yield interval_row(profile, family, n, j)
