"""Machine checks of the divergence estimates on sampled target points.

For a point x certified to depth D and an iterate count m, the audited object
is the depth-D truncation of the cocycle (every audited level has an exact
membership certificate for x).  The reports keep three error sources apart:

* substitution: alpha was replaced by alpha_hat; per level this costs at most
  Lambda_l |m| |alpha - alpha_hat|, an exact rational bound;
* truncation: levels above D contribute at most |m| * sum_{l>D} 1/l^2
  < |m|/D to the untruncated series; reported for context, never silently
  absorbed into a certificate;
* bracket indecision: comparisons against alpha itself go through rational
  enclosures that escalate until strict inequalities are decided.

Sums and comparisons run on integer numerators, with one Fraction per result:
window edges are tested on integers, x and m alpha_hat go on one lattice for
all audited terms, and the report carries phi_m once their sum matches it.

Aligned families ("++", "--"): every term has the family's sign exactly, and
the term at the window level n(m) exceeds q_{k_n+1}/(75 A_n n^2) minus the
substitution budget, so the whole sum inherits the bound.

Mixed families ("+-", "-+"): terms above n(m) share the sign
(-1)^{k_1} s_+ sign(m) and each exceeds q_{k_n+1}/(24 A_n l^2) minus budget;
the head l <= n(m) is bounded by twice the level maxima.  The classical
asymptotic margin only opens for large n, so at desk scale the report states
the exact surrogate tail - head_bound and marks the certificate indeterminate
(not failed) when that margin does not close at the audited m.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .cf import certify_offset
from .cocycle import CocycleSpec, _on_lattice, _scaled, _term_num, level_max, phi_m
from .errors import (BelowFirstWindow, DepthExceedsProfile, InvariantBroken, Result,
                     WindowBeyondProfile)
from .levels import LevelParams, Profile
from .targets import DigitPath, family_kind, member

KINDS = ("aligned", "mixed")
#: The window edges are q_{k_n+1} / (den A_n), with den by kind.
_EDGE_DEN = {"aligned": 2, "mixed": 12}


@dataclass(frozen=True)
class WindowIndex:
    """The unique level n whose inequalities control iterate count m."""

    m: int
    n: int
    kind: str
    lo: Fraction  # inclusive
    hi: Fraction  # exclusive


def _window_edge(lv: LevelParams, kind: str) -> Fraction:
    return Fraction(lv.q_next, _EDGE_DEN[kind] * lv.a)


def window(profile: Profile, kind: str, m: int, n_limit: Optional[int] = None) -> WindowIndex:
    """Window index n(m): aligned windows are
    [q_{k_{n-1}+1}/(2A_{n-1}), q_{k_n+1}/(2A_n)) for n >= 2, mixed windows
    [q_{k_n+1}/(12A_n), q_{k_{n+1}+1}/(12A_{n+1})) for n >= 1.

    Contiguity and uniqueness follow from the strict rise of q_{k_n+1}/A_n.
    The edge tests |m| den A_i < q_{k_i+1} run on integers; only the two edges
    found become Fractions (oracle: ``tests/oracles.window``).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    limit = profile.n_max if n_limit is None else min(n_limit, profile.n_max)
    den = _EDGE_DEN[kind]
    edge = lambda i: _window_edge(profile.level(i), kind)
    for i in range(1, limit + 1):
        lv = profile.level(i)
        if abs(m) * den * lv.a < lv.q_next:
            break
    else:
        raise WindowBeyondProfile(f"|m|={abs(m)} at or past last edge {edge(limit)}")
    if i == 1:
        raise BelowFirstWindow(f"|m|={abs(m)} below first {kind} window {edge(1)}")
    # between the edges of levels i - 1 and i lies aligned window i, mixed window i - 1
    n = i if kind == "aligned" else i - 1
    return WindowIndex(m=m, n=n, kind=kind, lo=edge(i - 1), hi=edge(i))


@dataclass(frozen=True)
class ReportRow(Result):
    """One audited level: exact term value, its sign verdict, and the
    magnitude bound it was held to (None for rows without one)."""

    l: int
    value: Fraction
    sign_ok: bool
    bound: Optional[Fraction] = None
    bound_ok: Optional[bool] = None

    @property
    def sign(self) -> str:
        return "0" if self.value == 0 else ("+" if self.value > 0 else "-")

    def as_dict(self) -> dict:
        d = super().as_dict()
        d["term"], d["sign"] = d.pop("value"), self.sign
        return d


@dataclass
class DivergenceReport(Result):
    """Exact per-level ledger for one (x, m) audit.

    ``total`` equals the truncated phi_m bit for bit.  ``certified_lower`` is
    the rational the audit proves |total| to exceed (already net of the
    substitution budget); ``extension_tail_bound`` bounds whatever the
    untruncated series could add on top.  status is "pass", "fail", or
    "indeterminate" (margin thinner than the budget: reported, not asserted).
    """

    family: str
    kind: str
    m: int
    n_of_m: int
    window_lo: Fraction
    window_hi: Fraction
    x: Fraction
    indices: tuple[int, ...]
    levels_audited: int
    rows: list[ReportRow]
    total: Fraction
    sub_budget: Fraction
    extension_tail_bound: Fraction
    certified_lower: Fraction
    expected_sign: int
    status: str
    head_abs: Optional[Fraction] = None
    head_bound: Optional[Fraction] = None
    tail_abs: Optional[Fraction] = None
    tail_bound_sum: Optional[Fraction] = None
    net_lower: Optional[Fraction] = None
    asymptotic_ref: Optional[Fraction] = None
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = super().as_dict()
        d["window"] = [d.pop("window_lo"), d.pop("window_hi")]
        return d

    def csv_rows(self) -> list[dict]:
        return [
            {
                "m": self.m,
                "n_of_m": self.n_of_m,
                "l": r.l,
                "term": str(r.value),
                "sign": r.sign,
                "bound": "" if r.bound is None else str(r.bound),
                "pass": r.sign_ok and (r.bound_ok is not False),
            }
            for r in self.rows
        ]


def _aligned_floor(lv: LevelParams) -> Fraction:
    """q_{k_n+1}/(75 A_n n^2): the aligned pivot bound at window level n."""
    return Fraction(lv.q_next, 75 * lv.a * lv.n * lv.n)


def _mixed_ref(lv: LevelParams) -> Fraction:
    """q_{k_n+1}/(50 A_n n): the mixed bound at window level n, asymptotic only."""
    return Fraction(lv.q_next, 50 * lv.a * lv.n)


def _audited_terms(
    cspec: CocycleSpec, path: DigitPath, m: int, kind: str
) -> tuple[WindowIndex, list[Fraction], Fraction]:
    """The part both audits share: check the family kind (aligned families
    only on the main variant), find the window n(m), require depth n(m) + 2
    and membership at every audited level (re-certified, so reports stay
    sound even for hand-built paths), and return the exact terms for
    l <= L = min(n_levels, depth) and their total, phi_m of the depth-L
    truncation, once the two are shown to agree."""
    if family_kind(path.family) != kind:
        raise ValueError(f"family {path.family} is not {kind}")
    if kind == "aligned" and cspec.variant != "main":
        raise ValueError(
            f"aligned family {path.family} is not certified on the {cspec.variant} variant"
        )
    if m == 0:
        raise BelowFirstWindow("m = 0 is excluded")
    w = window(cspec.profile, kind, m, n_limit=cspec.n_levels)
    if path.depth < w.n + 2:
        raise DepthExceedsProfile(f"sample depth {path.depth} < required {w.n + 2} for this window")
    L = min(cspec.n_levels, path.depth)
    res = member(cspec.profile, path.family, path.point, L)
    if not res.ok:
        raise ValueError(
            f"point {path.point} leaves the {path.family} family at level {res.first_fail}"
        )
    u, s, d = _on_lattice(path.point, cspec.alpha_hat)
    v = cspec.variant
    terms = [_scaled(lv, v, _term_num(lv.cell_count, u, m * s, d, v), d) for lv in cspec.levels[:L]]
    total = phi_m(cspec.truncated(L), path.point, m)
    if sum(terms) != total:
        raise InvariantBroken(f"audited terms do not sum to phi_m at m={m}")
    return w, terms, total


def _report(
    cspec: CocycleSpec, path: DigitPath, m: int, w: WindowIndex, total: Fraction,
    rows: list[ReportRow], **own,
) -> DivergenceReport:
    """A report with the fields both audits fill alike; ``own`` holds the rest."""
    L = len(rows)
    return DivergenceReport(
        family=path.family,
        kind=w.kind,
        m=m,
        n_of_m=w.n,
        window_lo=w.lo,
        window_hi=w.hi,
        x=path.point,
        indices=path.indices,
        levels_audited=L,
        rows=rows,
        total=total,
        sub_budget=cspec.sub_budget(m),
        extension_tail_bound=abs(m) * Fraction(1, L),
        **own,
    )


def audit_aligned(cspec: CocycleSpec, path: DigitPath, m: int) -> DivergenceReport:
    """Certify the one-sided divergence estimate for "++" or "--" points.

    Requires x sampled to depth >= n(m) + 2.  The audited sum runs over
    l <= min(depth, n_levels); every level then holds an exact membership
    certificate, making the sign checks unconditional.
    """
    w, terms, total = _audited_terms(cspec, path, m, "aligned")
    sign = 1 if path.family == "++" else -1
    lv_n = cspec.profile.level(w.n)
    certified = _aligned_floor(lv_n) - cspec.sub_budget_level(w.n, m)
    rows = [ReportRow(l=l, value=t, sign_ok=t.numerator * sign >= 0)
            for l, t in enumerate(terms, 1)]
    pivot_value = terms[w.n - 1]
    rows[w.n - 1] = replace(rows[w.n - 1], bound=certified, bound_ok=abs(pivot_value) > certified)

    # window bullets: q-scaled displacement strictly inside (9/50, 1/2) of a period
    cells = lv_n.cell_count
    bullets_ok = certify_offset(
        cspec.profile.alpha, lv_n.k, Fraction(9, 50 * cells), Fraction(1, 2 * cells), abs(m)
    )[0]

    notes = []
    signs_ok = all(r.sign_ok for r in rows)
    if not bullets_ok:
        notes.append("window displacement bullets failed")
    if certified <= 0:
        status = "indeterminate"
        notes.append("substitution budget swallows the pivot bound")
    elif not signs_ok or not bullets_ok or abs(pivot_value) <= certified:
        status = "fail"
    else:
        status = "pass"
    return _report(
        cspec, path, m, w, total, rows,
        certified_lower=certified, expected_sign=sign, status=status, notes=notes,
    )


def audit_mixed(cspec: CocycleSpec, path: DigitPath, m: int) -> DivergenceReport:
    """Certify sign constancy and size of the tail terms for "+-" / "-+" points.

    Hard assertions: for every l in (n(m), L] the term's sign equals
    (-1)^{k_1} s_+ sign(m) and its magnitude exceeds
    q_{k_n+1}/(24 A_n l^2) minus the level's substitution budget.  The head
    l <= n(m) is bounded by sum of twice the level maxima; the report carries
    the exact surrogate net = |tail| - head_bound - tail_budget, passing when
    it is positive and indeterminate otherwise.
    """
    w, terms, total = _audited_terms(cspec, path, m, "mixed")
    s_plus = path.family[1]
    k1 = cspec.profile.level(1).k
    expected = (-1 if k1 % 2 else 1) * (1 if s_plus == "+" else -1) * (1 if m > 0 else -1)

    lv_n = cspec.profile.level(w.n)
    head = sum(terms[: w.n])
    tail = total - head
    levels = cspec.profile.levels
    head_bound = sum(2 * level_max(lv, cspec.variant) for lv in levels[: w.n])
    rows = [ReportRow(l=l, value=t, sign_ok=True) for l, t in enumerate(terms[: w.n], 1)]
    tail_bound_sum = Fraction(0)
    tail_budget = Fraction(0)
    all_ok = True

    for l, t in enumerate(terms[w.n :], w.n + 1):
        lv = levels[l - 1]
        budget = cspec.sub_budget_level(l, m)
        bound = Fraction(lv_n.q_next, 24 * lv_n.a * l * l) - budget
        sign_ok = t.numerator * expected > 0
        bound_ok = abs(t) > bound
        # displacement premise: both bump arguments share a linearity interval
        premise = certify_offset(
            cspec.profile.alpha, lv.k, Fraction(0), Fraction(1, 12 * lv.cell_count), abs(m)
        )[0]
        all_ok = all_ok and sign_ok and bound_ok and premise
        tail_bound_sum += bound
        tail_budget += budget
        rows.append(ReportRow(l=l, value=t, sign_ok=sign_ok, bound=bound, bound_ok=bound_ok))

    net = abs(tail) - tail_budget - head_bound
    if not all_ok:
        status = "fail"
    elif net > 0:
        status = "pass"
    else:
        status = "indeterminate"
    return _report(
        cspec, path, m, w, total, rows,
        certified_lower=max(net, Fraction(0)),
        expected_sign=expected,
        status=status,
        head_abs=abs(head),
        head_bound=head_bound,
        tail_abs=abs(tail),
        tail_bound_sum=tail_bound_sum,
        net_lower=net,
        asymptotic_ref=_mixed_ref(lv_n),
        notes=["net = |tail| - tail_budget - head_bound; asymptotic_ref holds for large n only"],
    )


def audit(cspec: CocycleSpec, path: DigitPath, m: int) -> DivergenceReport:
    """Dispatch to the aligned or mixed audit by the path's family."""
    if family_kind(path.family) == "aligned":
        return audit_aligned(cspec, path, m)
    return audit_mixed(cspec, path, m)


@dataclass
class ScanEntry(Result):
    """Exact |phi_m| at the scanned point for one iterate count m, and m's window."""

    m: int
    n_of_m: int
    abs_total: Fraction


@dataclass
class ScanTable(Result):
    """Window-grouped minima of |phi_m| over a range of iterate counts."""

    family: str
    kind: str
    entries: list[ScanEntry]
    window_minima: dict[int, Fraction]
    window_bounds: dict[int, Fraction]
    bounds_nondecreasing: bool
    skipped: list[int]


def discreteness_scan(
    cspec: CocycleSpec, path: DigitPath, m_lo: int, m_hi: int
) -> ScanTable:
    """Exact |phi_m| over m in [m_lo, m_hi], grouped by window.

    m = 0 and sub-window m are skipped (recorded), never special-cased into
    the minima.  The per-window certified bound sequence is reported with a
    monotonicity verdict; for aligned windows it is q_{k_n+1}/(75 A_n n^2),
    for mixed q_{k_n+1}/(50 A_n n), both of which rise only once the
    exponential growth of q_{k_n+1}/A_n beats the polynomial factor.
    """
    fam = path.family
    kind = family_kind(fam)
    L = min(cspec.n_levels, path.depth)
    cs = cspec.truncated(L)
    entries: list[ScanEntry] = []
    skipped: list[int] = []
    minima: dict[int, Fraction] = {}
    bounds: dict[int, Fraction] = {}
    for m in range(m_lo, m_hi + 1):
        if m == 0:
            skipped.append(m)
            continue
        try:
            w = window(cspec.profile, kind, m, n_limit=L)
        except (BelowFirstWindow, WindowBeyondProfile):
            skipped.append(m)
            continue
        val = abs(phi_m(cs, path.point, m))
        entries.append(ScanEntry(m=m, n_of_m=w.n, abs_total=val))
        if w.n not in minima or val < minima[w.n]:
            minima[w.n] = val
        if w.n not in bounds:
            bound = _aligned_floor if kind == "aligned" else _mixed_ref
            bounds[w.n] = bound(cspec.profile.level(w.n))
    ns = sorted(bounds)
    nondec = all(bounds[a] <= bounds[b] for a, b in zip(ns, ns[1:]))
    return ScanTable(
        family=fam,
        kind=kind,
        entries=entries,
        window_minima=minima,
        window_bounds=bounds,
        bounds_nondecreasing=nondec,
        skipped=skipped,
    )
