"""Machine checks of the divergence estimates on sampled target points.

For a point x certified to depth D and an iterate count m, the audited object
is the depth-D truncation of the cocycle (every audited level has an exact
membership certificate for x).  The reports keep three error sources apart:

* substitution: alpha was replaced by alpha_hat; per level this costs at most
  Lambda_l |m| |alpha - alpha_hat|, an exact rational bound;
* truncation: levels above D contribute at most |m| * sum_{l>D} 1/l^2
  < |m|/D to the untruncated series; reported for context, never silently
  absorbed into a certificate;
* bracket indecision: a comparison against alpha itself is decided by the
  convergent gap law on integers (``cf.gap_law_offset``) when the law
  decides it, and otherwise by rational enclosures that escalate until the
  strict inequalities are decided (``cf.certify_offset``).  The law decides
  each mixed displacement premise, since a tail level has
  12 A_l |m| < q_{k_l+1}, and the aligned bullets whenever the level ratio
  stays within the validated window's 25/18.

Sums and comparisons run on integer numerators, with one Fraction per
reported value.  Window edges are tested on integers (``_edge_index``), and
membership is re-certified on integers.  Every bump goes through the cocycle's
potential kernel (its level weights and per-level numerators of
g = sum_l f_l), so this module never decides a bump's numerator itself.  The
kernel's (L, weights), the budget's lcm and Lambda sum, and q_N q_{N+1} are
the constants the ``CocycleSpec`` derived once (``kernel``, ``lam_sum``,
``gap``); an audit of depth L < n_levels reads the first L weights.  The
audited terms are each level's g difference between x and x + m alpha_hat
over one denominator, from one pass of the kernel (``cocycle._differences``),
and their sum is the reported total, phi_m of the depth-L truncation.  A
second pass of the same kernel could not catch a fault in it, so the total is
checked by independent routes instead: ``cocycle.birkhoff`` sums bump
differences along the orbit (``besicov sum`` fails when the two differ), and
``tests/oracles.audit`` holds every report's terms to the Fraction bump
route's phi_m.  The mixed audit's ledger (each row's bound and verdict, the
tail budget and bound sums, head_bound, from the head levels' weights) is
held over one more denominator.  A scan puts x and alpha_hat on one lattice
once, so each m costs g(x + m alpha_hat), one bump per level.
``tests/oracles.py`` keeps the Fraction routes as oracles:
``window`` over Fraction edges, ``audit`` with Fraction ledgers, and
``discreteness_scan`` with ``window`` and ``phi_m`` for each m.

Aligned families ("++", "--"): every term has the family's sign exactly, and
the term at the window level n(m) exceeds q_{k_n+1}/(75 A_n n^2) minus the
substitution budget, so the whole sum inherits the bound.

Mixed families ("+-", "-+"): terms above n(m) share the sign
(-1)^{k_1} s_+ sign(m) and each exceeds q_{k_n+1}/(24 A_n l^2) minus budget;
the head l <= n(m) is bounded by twice the level maxima.  The classical
asymptotic margin only opens for large n, so at desk scale the report states
the exact surrogate tail - head_bound and marks the certificate indeterminate
(not failed) when that margin does not close at the audited m.

A report whose status is "fail" names in its notes each failed sub-check and
its level: sign rows and the pivot bound (aligned, beside the window bullets
note), displacement premises, signs and bounds (mixed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .cf import IrrationalSpec, certify_offset, gap_law_offset
from .cocycle import CocycleSpec, _differences, _on_lattice, _potential
from .errors import BelowFirstWindow, DepthExceedsProfile, Result, WindowBeyondProfile
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


def _edge_index(levels: Iterable[LevelParams], den: int, m: int) -> int:
    """The first i with |m| den A_i < q_{k_i+1}, counting ``levels`` from 1, or
    one past the last level: 1 + the number of window edges at or below |m|."""
    i = 0
    for i, lv in enumerate(levels, 1):
        if abs(m) * den * lv.a < lv.q_next:
            return i
    return i + 1


def window(profile: Profile, kind: str, m: int, n_limit: Optional[int] = None) -> WindowIndex:
    """Window index n(m): aligned windows are
    [q_{k_{n-1}+1}/(2A_{n-1}), q_{k_n+1}/(2A_n)) for n >= 2, mixed windows
    [q_{k_n+1}/(12A_n), q_{k_{n+1}+1}/(12A_{n+1})) for n >= 1.

    Contiguity and uniqueness follow from the strict rise of q_{k_n+1}/A_n.
    The edge tests |m| den A_i < q_{k_i+1} run on integers (``_edge_index``);
    only the two edges found become Fractions (oracle: ``tests/oracles.window``).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    limit = profile.n_max if n_limit is None else min(n_limit, profile.n_max)
    edge = lambda i: _window_edge(profile.level(i), kind)
    i = _edge_index((profile.level(n) for n in range(1, limit + 1)), _EDGE_DEN[kind], m)
    if i > limit:
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


def _offset_ok(spec: IrrationalSpec, k: int, lo: Fraction, hi: Fraction, scale: int) -> bool:
    """lo < scale |alpha - p_k/q_k| < hi, by the gap law when it decides and
    by ``certify_offset``'s escalating brackets otherwise."""
    verdict = gap_law_offset(spec, k, lo, hi, scale)
    return certify_offset(spec, k, lo, hi, scale)[0] if verdict is None else verdict


def _audited_terms(
    cspec: CocycleSpec, path: DigitPath, m: int, kind: str
) -> tuple[WindowIndex, list[Fraction], Fraction, list[int], int]:
    """The part both audits share: check the family kind (aligned families
    only on the main variant), find the window n(m), require depth n(m) + 2
    and membership at every audited level (re-certified on integers, so
    reports stay sound even for hand-built paths), and return the exact terms
    for l <= L = min(n_levels, depth), their total (phi_m of the depth-L
    truncation), and the terms' numerators over one denominator ``den`` = 4dK
    (K the lcm of the cocycle's ``kernel``, whose first L weights they read)."""
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
    big, weights = cspec.kernel
    den = 4 * d * big
    nums = _differences(weights[:L], cspec.variant, u, m * s, d)
    return w, [Fraction(t, den) for t in nums], Fraction(sum(nums), den), nums, den


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
        extension_tail_bound=Fraction(abs(m), L),
        **own,
    )


def audit_aligned(cspec: CocycleSpec, path: DigitPath, m: int) -> DivergenceReport:
    """Certify the one-sided divergence estimate for "++" or "--" points.

    Requires x sampled to depth >= n(m) + 2.  The audited sum runs over
    l <= min(depth, n_levels); every level then holds an exact membership
    certificate, making the sign checks unconditional.  A failed report's
    notes name each failed sign row and a failed pivot bound by level.
    """
    w, terms, total, _, _ = _audited_terms(cspec, path, m, "aligned")
    sign = 1 if path.family == "++" else -1
    lv_n = cspec.profile.level(w.n)
    gap = cspec.gap
    # q_{k_n+1}/(75 A_n n^2) less the level's budget q_{k_n} q_{k_n+1} |m| / (n^2 gap)
    den = 75 * lv_n.a
    certified = Fraction(lv_n.q_next * (gap - den * lv_n.q * abs(m)), den * w.n * w.n * gap)
    rows = [ReportRow(l=l, value=t, sign_ok=t.numerator * sign >= 0)
            for l, t in enumerate(terms, 1)]
    pivot_ok = abs(terms[w.n - 1]) > certified
    rows[w.n - 1] = replace(rows[w.n - 1], bound=certified, bound_ok=pivot_ok)

    # window bullets: q-scaled displacement strictly inside (9/50, 1/2) of a period
    cells = lv_n.cell_count
    bullets_ok = _offset_ok(
        cspec.profile.alpha, lv_n.k, Fraction(9, 50 * cells), Fraction(1, 2 * cells), abs(m)
    )

    notes = []
    if not bullets_ok:
        notes.append("window displacement bullets failed")
    if certified <= 0:
        status = "indeterminate"
        notes.append("substitution budget swallows the pivot bound")
    else:
        notes += [f"level {r.l}: sign check failed" for r in rows if not r.sign_ok]
        if not pivot_ok:
            notes.append(f"level {w.n}: pivot bound failed")
        status = "fail" if notes else "pass"  # every note here names a failed check
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
    it is positive and indeterminate otherwise.  A failed report's notes name
    each failed premise, sign or bound check by level.

    The ledger runs on integer numerators over one denominator, a multiple of
    every tail level's 24 A_n q_N q_{N+1} l^2 and of the lcm L of the
    cocycle's ``kernel``, over which each head level's maximum is its kernel
    weight (oracle: ``tests/oracles.audit``, the Fraction ledger).
    """
    w, terms, total, nums, den = _audited_terms(cspec, path, m, "mixed")
    s_plus = path.family[1]
    k1 = cspec.profile.level(1).k
    expected = (-1 if k1 % 2 else 1) * (1 if s_plus == "+" else -1) * (1 if m > 0 else -1)

    lv_n = cspec.profile.level(w.n)
    head, tail = sum(nums[: w.n]), sum(nums[w.n :])  # over den
    levels = cspec.profile.levels
    gap = cspec.gap
    kernel_big, weights = cspec.kernel
    scale = 24 * lv_n.a * gap  # times l^2: level l's bound and budget denominator
    big = lcm(scale * lcm(*(l * l for l in range(w.n + 1, len(terms) + 1))), kernel_big)
    head_bound = 2 * sum(wt for _, wt in weights[: w.n]) * (big // kernel_big)
    rows = [ReportRow(l=l, value=t, sign_ok=True) for l, t in enumerate(terms[: w.n], 1)]
    bound_sum = lam_sum = 0
    failed = []

    for l, t in enumerate(terms[w.n :], w.n + 1):
        lv = levels[l - 1]
        weight = big // (scale * l * l)
        lam = lv.q * lv.q_next  # Lambda_l l^2
        # q_{k_n+1}/(24 A_n l^2) less the budget Lambda_l |m| / gap, over big
        bound = (lv_n.q_next * gap - 24 * lv_n.a * lam * abs(m)) * weight
        sign_ok = t.numerator * expected > 0
        bound_ok = abs(t.numerator) * big > bound * t.denominator
        # displacement premise: both bump arguments share a linearity interval
        premise = _offset_ok(
            cspec.profile.alpha, lv.k, Fraction(0), Fraction(1, 12 * lv.cell_count), abs(m)
        )
        for check, ok in (("displacement premise", premise), ("sign check", sign_ok),
                          ("bound check", bound_ok)):
            if not ok:
                failed.append(f"level {l}: {check} failed")
        bound_sum += bound
        lam_sum += lam * weight
        rows.append(ReportRow(l=l, value=t, sign_ok=sign_ok, bound=Fraction(bound, big),
                              bound_ok=bound_ok))

    tail_budget = 24 * lv_n.a * abs(m) * lam_sum
    net = Fraction(abs(tail) * big - (tail_budget + head_bound) * den, den * big)
    status = "fail" if failed else "pass" if net > 0 else "indeterminate"
    return _report(
        cspec, path, m, w, total, rows,
        certified_lower=max(net, Fraction(0)),
        expected_sign=expected,
        status=status,
        head_abs=Fraction(abs(head), den),
        head_bound=Fraction(head_bound, big),
        tail_abs=Fraction(abs(tail), den),
        tail_bound_sum=Fraction(bound_sum, big),
        net_lower=net,
        asymptotic_ref=_mixed_ref(lv_n),
        notes=["net = |tail| - tail_budget - head_bound; asymptotic_ref holds for large n only",
               *failed],
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

    x and alpha_hat go on one lattice once per scan, with the level weights and
    the potential g(x) of the cocycle kernel, so each m costs g(x + m alpha_hat),
    one bump per level, and ``_edge_index``'s integer edge test (oracle:
    ``tests/oracles.discreteness_scan``, ``window`` and ``phi_m`` for each m).
    """
    fam = path.family
    kind = family_kind(fam)
    L = min(cspec.n_levels, path.depth)
    levels = cspec.levels[:L]
    v = cspec.variant
    u, s, d = _on_lattice(path.point, cspec.alpha_hat)
    big, weights = cspec.kernel
    weights = weights[:L]
    base = sum(_potential(weights, u, d, v))  # g(x), over 4 d big
    edge_den = _EDGE_DEN[kind]
    bound = _aligned_floor if kind == "aligned" else _mixed_ref
    entries: list[ScanEntry] = []
    skipped: list[int] = []
    minima: dict[int, Fraction] = {}
    bounds: dict[int, Fraction] = {}
    for m in range(m_lo, m_hi + 1):
        i = _edge_index(levels, edge_den, m)
        if i == 1 or i > L:  # below the first edge (m = 0 too) or past the last
            skipped.append(m)
            continue
        n = i if kind == "aligned" else i - 1
        val = Fraction(abs(sum(_potential(weights, u + m * s, d, v)) - base), 4 * d * big)
        entries.append(ScanEntry(m=m, n_of_m=n, abs_total=val))
        if n not in minima or val < minima[n]:
            minima[n] = val
        if n not in bounds:
            bounds[n] = bound(cspec.profile.level(n))
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
