"""Orbit simulation of the cylinder map and empirical chaos probes.

The cylinder map sends (x, t) to (x + alpha_hat mod 1, t + phi(x)).  The base
coordinate is advanced *exactly* (alpha_hat is rational, so x never leaves a
fixed denominator lattice); only the fiber coordinate t is floating point, at
a configurable binary precision with per-step error accounting.  The levels
are evaluated by :func:`besicov.cocycle.bump` in mpf, the orbit lane's own
evaluator (the certificates use the cocycle's integer-lattice kernel, which
the tests check against the same bump in Fractions).  Distances use the
taxicab metric: circle distance in x plus |difference| in t.

Probes are diagnostics, not certificates: each one carries its accumulated
error bound and refuses to assert anything the bound could explain away.
A sensitivity witness is only reported after re-simulation at doubled
precision reproduces the separation.  The interval point the sensitivity
probe tries first is descended and centred by ``targets`` on its integer
twelfths; this module keeps no interval geometry of its own.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpf

from .cocycle import CocycleSpec, bump, level_max, unit_position
from .errors import ErrorBudgetBlown

#: orbit refuses a declared error bound above ERROR_CAP; classify_orbit treats
#: the first SETTLE of the horizon as transient and needs |t| > ESCAPE_LEVEL.
ERROR_CAP = Fraction(1, 10**6)
SETTLE = 0.5
ESCAPE_LEVEL = 1.0


def _frac_to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


def _t_values(cspec: CocycleSpec, x0: Fraction, steps: int):
    """Yield (i, x_i, t_i - t_0) for i = 0..steps at working precision.

    Because x advances exactly, the ergodic sum telescopes per level to
    f_l(x_i) - f_l(x_0); each t_i is assembled fresh from one evaluation per
    level, so the float error never accumulates across steps.  Each level is
    the cocycle's own :func:`bump`, fed the exact unit position converted to
    mpf; with the unit-slope normalization its error stays below
    peak * 2^(4 - prec).
    """
    a = cspec.alpha_hat
    variant = cspec.variant
    peaks = [(lv, _frac_to_mpf(level_max(lv, variant))) for lv in cspec.levels]

    def fiber(x: Fraction) -> mpf:
        total = mpf(0)
        for lv, peak in peaks:
            total += bump(_frac_to_mpf(unit_position(lv, x)), variant, peak)
        return total

    x = x0 % 1
    base = fiber(x)
    yield 0, x, mpf(0)
    for i in range(1, steps + 1):
        x = (x + a) % 1
        yield i, x, fiber(x) - base


def orbit_error_bound(cspec: CocycleSpec, precision_bits: int) -> Fraction:
    """Bound on |t_float - t_exact| at any step of the simulation.

    The telescoped evaluation makes this independent of the step count: each
    reported t is one fresh sum of per-level values (error below
    peak * 2^(4-prec) per level) minus the base sum, plus summation rounding.
    Every orbit and probe asks for it before simulating, so this is where a
    precision below 64 bits is refused.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    peaks = sum(
        (level_max(lv, cspec.variant) for lv in cspec.levels), start=Fraction(0)
    )
    n = len(cspec.levels)
    return peaks * Fraction(64 + 4 * n, 2**precision_bits)


@dataclass
class OrbitRecord:
    """A simulated orbit with its declared error bound.

    ``xs``/``ts`` are float downcasts sampled every ``store_every`` steps
    (plot- and coverage-ready); ``checkpoints`` holds full-precision fiber
    values (as strings) at requested step indices; the final state is kept
    exactly in x and at working precision in t.
    """

    steps: int
    precision_bits: int
    store_every: int
    x0: Fraction
    t0: Fraction
    xs: list[float]
    ts: list[float]
    checkpoints: dict[int, str]
    x_final: Fraction
    t_final: str
    error_bound: Fraction

    def error_bound_float(self) -> float:
        return float(self.error_bound)


def orbit(
    cspec: CocycleSpec,
    x0: Fraction,
    t0: Fraction = Fraction(0),
    steps: int = 1000,
    precision_bits: int = 128,
    store_every: int = 1,
    checkpoints: Sequence[int] = (),
) -> OrbitRecord:
    """Simulate ``steps`` iterations from (x0, t0).

    Raises ErrorBudgetBlown when the declared error bound exceeds
    ``ERROR_CAP`` (1e-6 as a Fraction).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    bound = orbit_error_bound(cspec, precision_bits)
    if bound > ERROR_CAP:
        cap = float(ERROR_CAP)
        raise ErrorBudgetBlown(f"error bound {float(bound):.3g} exceeds cap {cap:.3g}")
    want = set(checkpoints)
    xs: list[float] = []
    ts: list[float] = []
    marks: dict[int, str] = {}
    dps = int(precision_bits * 0.302) + 2
    with mp.workprec(precision_bits):
        t_base = _frac_to_mpf(Fraction(t0))
        for i, x, dt in _t_values(cspec, x0, steps):
            t = t_base + dt
            if i % store_every == 0:
                xs.append(float(x))
                ts.append(float(t))
            if i in want:
                marks[i] = mp.nstr(t, dps)
        t_final = mp.nstr(t, dps)
    return OrbitRecord(
        steps=steps,
        precision_bits=precision_bits,
        store_every=store_every,
        x0=x0 % 1,
        t0=Fraction(t0),
        xs=xs,
        ts=ts,
        checkpoints=marks,
        x_final=x,
        t_final=t_final,
        error_bound=bound,
    )


def coverage(record: OrbitRecord, box_height: float, grid: int) -> float:
    """Fraction of grid cells of [0,1) x [-H, H] visited by the stored points."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    seen: set[tuple[int, int]] = set()
    h = float(box_height)
    for x, t in zip(record.xs, record.ts):
        if not -h <= t < h:
            continue
        i = int(x * grid) % grid
        j = int((t + h) / (2 * h) * grid)
        seen.add((i, min(j, grid - 1)))
    return len(seen) / (grid * grid)


@dataclass
class ProbeResult:
    kind: str
    params: dict
    outcome: str
    witness: Optional[dict] = None
    error_bound: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _circle_dist(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


def nonrecurrence_test(
    cspec: CocycleSpec,
    x: Fraction,
    t: Fraction,
    eps: Fraction,
    horizon: int,
    precision_bits: int = 128,
) -> ProbeResult:
    """Does the positive semi-orbit of (x, t) stay eps away from its start?

    The verdict is independent of t (vertical translations commute with the
    map), which the distance computation makes literal: only differences of
    fiber values enter.  Requires eps to clear the accumulated error bound;
    otherwise the probe refuses rather than guessing.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1 (a vacuous test is rejected)")
    eps = Fraction(eps)
    bound = orbit_error_bound(cspec, precision_bits)
    if bound >= eps:
        raise ErrorBudgetBlown(
            f"error bound {float(bound):.3g} not below eps {float(eps):.3g}"
        )
    x0 = x % 1
    best_k = 0
    best_val = None
    with mp.workprec(precision_bits):
        for k, xc, t_cur in _t_values(cspec, x0, horizon):
            if k == 0:
                continue
            d = _frac_to_mpf(_circle_dist(xc, x0)) + abs(t_cur)
            if best_val is None or d < best_val:
                best_val = d
                best_k = k
        eps_f = _frac_to_mpf(eps)
        bound_f = _frac_to_mpf(bound)
        if best_val - bound_f >= eps_f:
            outcome = "pass"
        elif best_val + bound_f < eps_f:
            outcome = "fail"
        else:
            raise ErrorBudgetBlown("minimum distance within error bound of eps")
    return ProbeResult(
        kind="nonrecurrence",
        params={
            "eps": str(eps),
            "horizon": horizon,
            "precision_bits": precision_bits,
            "x": str(x0),
            "t": str(Fraction(t)),
        },
        outcome=outcome,
        witness={"k": best_k, "min_distance": float(best_val)},
        error_bound=float(bound),
    )


def _target_candidate(
    cspec: CocycleSpec, x: Fraction, delta: Fraction
) -> Optional[Fraction]:
    """A point within delta of x on the fine levels of the target intervals.

    The start level n is the first whose period is at most delta/2; from
    the level-n interval nearest x the descent takes the middle child down
    to depth min(n + 2, n_levels) and returns that interval's center if it
    lies within delta of x.  The point lies in the level-l union for every
    l from n to the depth, but the levels below n are never checked, so it
    need not lie in the target set.  Family "-+" for tent cocycles, "++"
    for main.
    """
    from .targets import _center, pick_child

    profile = cspec.profile
    fam = "-+" if cspec.variant == "tent" else "++"
    for n in range(1, cspec.n_levels + 1):
        lv = profile.level(n)
        # period <= delta/2 puts the whole descended interval within delta of x
        if lv.period > delta / 2:
            continue
        depth = min(n + 2, cspec.n_levels)
        j = round(x / lv.period) % lv.cell_count
        for level in range(n, depth):
            j = pick_child(profile, fam, level, j)
            if j is None:
                return None
        y = _center(profile, fam, depth, j)
        return y if _circle_dist(y, x) <= delta else None
    return None


def sensitivity_probe(
    cspec: CocycleSpec,
    x: Fraction,
    delta: Fraction,
    eps: Fraction,
    horizon: int,
    samples: int = 8,
    seed: int = 0,
    precision_bits: int = 128,
) -> ProbeResult:
    """Search for a delta-close starting point whose orbit separates by > eps.

    Candidates: one point near x from the target intervals of the levels
    that resolve delta (see ``_target_candidate``: it lies in those levels'
    unions, not necessarily in the coarser ones), then seeded random
    rationals in (x - delta, x + delta).  The base separation is
    constant in time (rotations are isometries), so separation is driven by
    the fiber difference.  A found witness is re-simulated at doubled
    precision before being reported; absence of a witness is "not-found",
    never a disproof.
    """
    delta, eps = Fraction(delta), Fraction(eps)
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    rng = random.Random(seed)
    x0 = x % 1
    candidates: list[Fraction] = []
    tgt = _target_candidate(cspec, x0, delta)
    if tgt is not None and tgt != x0:
        candidates.append(tgt)
    scale = 1 << 20
    while len(candidates) < samples:
        off = Fraction(rng.randint(-scale, scale), scale) * delta
        y = (x0 + off) % 1
        if y != x0:
            candidates.append(y)

    def separation(y: Fraction, bits: int) -> tuple[int, float]:
        best_k, best_d = 0, float("-inf")
        with mp.workprec(bits):
            basef = _frac_to_mpf(_circle_dist(x0, y))
            pair = zip(_t_values(cspec, x0, horizon), _t_values(cspec, y, horizon))
            for (k, _, tx), (_, _, ty) in pair:
                if k == 0:
                    continue
                d = float(basef + abs(tx - ty))
                if d > best_d:
                    best_k, best_d = k, d
        return best_k, best_d

    bound = 2 * float(orbit_error_bound(cspec, precision_bits))
    params = {
        "delta": str(delta),
        "eps": str(eps),
        "horizon": horizon,
        "samples": samples,
        "seed": seed,
        "precision_bits": precision_bits,
        "x": str(x0),
    }
    for y in candidates:
        k, d = separation(y, precision_bits)
        if d - bound > float(eps):
            k2, d2 = separation(y, 2 * precision_bits)
            bound2 = 2 * float(orbit_error_bound(cspec, 2 * precision_bits))
            if d2 - bound2 > float(eps):
                return ProbeResult(
                    kind="sensitivity",
                    params=params,
                    outcome="witness-found",
                    witness={
                        "y": str(y),
                        "k": k2,
                        "separation": d2,
                        "reverified_bits": 2 * precision_bits,
                    },
                    error_bound=bound,
                )
    return ProbeResult(
        kind="sensitivity",
        params=params,
        outcome="not-found",
        error_bound=bound,
        details={"note": "absence of a witness is not a disproof"},
    )


def classify_orbit(
    cspec: CocycleSpec,
    x: Fraction,
    horizon: int,
    precision_bits: int = 128,
) -> str:
    """Heuristic label for the fiber motion: escaping+, escaping-,
    oscillating, or undetermined.

    Uses phi-sums relative to t0, so the label cannot depend on t0.
    escaping+ requires the post-transient minimum of t to clear both
    ESCAPE_LEVEL and the early-orbit maximum by more than the error bound;
    escaping- symmetrically.  Sign changes after the transient with small
    amplitude give "oscillating".  Anything else is "undetermined" rather
    than a claim.
    """
    if horizon < 4:
        return "undetermined"
    rec = orbit(cspec, x, Fraction(0), steps=horizon, precision_bits=precision_bits)
    err = float(rec.error_bound)
    ts = rec.ts
    split = int(len(ts) * SETTLE)
    head, tailpart = ts[1 : max(2, len(ts) // 4)], ts[split:]
    if not tailpart:
        return "undetermined"
    t_min, t_max = min(tailpart), max(tailpart)
    early = max(abs(v) for v in head) if head else 0.0
    if t_min - err > max(ESCAPE_LEVEL, early):
        return "escaping+"
    if t_max + err < -max(ESCAPE_LEVEL, early):
        return "escaping-"
    if t_min < 0 < t_max and max(abs(t_min), abs(t_max)) < ESCAPE_LEVEL:
        return "oscillating"
    return "undetermined"

