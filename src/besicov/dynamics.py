"""Orbit simulation of the cylinder map and empirical chaos probes.

The cylinder map sends (x, t) to (x + alpha_hat mod 1, t + phi(x)).  The base
coordinate is advanced *exactly*, by :func:`besicov.cocycle.walk`, which
:func:`besicov.cocycle.birkhoff` also sums along; only the fiber coordinate t is
floating point, at a binary precision that the caller passes in, with
per-step error accounting.  Each level's bump is computed in integers from
its lattice position and rounded by one integer routine at each point where
mpmath's raw ``libmp`` operations round, in one fixed order, so t has
mpmath's bits.  Values are signed pairs (m, e) for m 2^e; their sums,
compares, floats and decimal strings are made in integers as libmp makes
them, so the lane imports no mpmath (but for a decimal beyond 2^±3500) and,
having no context, threads may run it at different precisions at once.
Distances use the taxicab metric: circle distance in x plus |difference| in t.

Probes are diagnostics, not certificates: each one carries its accumulated
error bound and refuses to assert anything the bound could explain away.
A sensitivity witness is only reported after re-simulation at doubled
precision reproduces the separation.  The sensitivity probe's first
candidate is ``targets._probe_start``, the descent that samples target points
started near x; this module only chooses its family and keeps no interval
geometry of its own.
"""

from __future__ import annotations

import random
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, tee
from math import gcd, inf, ldexp, log
from typing import Iterator, Optional, Sequence

from .cocycle import CocycleSpec, level_max, walk
from .errors import ErrorBudgetBlown, Result

#: orbit refuses a declared error bound above ERROR_CAP; classify_orbit treats
#: the first SETTLE of the horizon as transient and needs |t| > ESCAPE_LEVEL.
ERROR_CAP = Fraction(1, 10**6)
SETTLE = 0.5
ESCAPE_LEVEL = 1.0


def _round(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2^e, m >= 0, rounded to ``prec`` significant bits, nearest with
    ties to even, as the pair (m', e') for m' * 2^e'.  This is the lane's one
    rounding: every libmp operation it replaces rounds its exact result so."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    q = m >> n
    half = 1 << (n - 1)
    low = m & (2 * half - 1)
    if low > half or low == half and q & 1:
        q += 1
    return q, e + n


def _div(a: int, b: int, prec: int) -> tuple[int, int]:
    """a/b, a >= 0 < b, correctly rounded to ``prec`` bits, as ``mpf_div``
    rounds it: a quotient of prec + 2 or prec + 3 bits, its last bit made
    sticky by a nonzero remainder, then one rounding."""
    if not a:
        return 0, 0
    k = prec + 2 - a.bit_length() + b.bit_length()
    q, rem = divmod(a << k, b) if k >= 0 else divmod(a, b << -k)
    return _round(q | (rem > 0), -k, prec)


def _quotient(n: int, d: int, prec: int) -> tuple[int, int]:
    """n/d, n >= 0 < d, bit for bit ``mpf(a) / mpf(b)`` for the reduced
    a/b = n/d.  Operands of at most ``prec`` bits convert exactly, so one
    division rounds n/d correctly whatever factor they share; a wider pair is
    reduced first, and each operand rounds as ``mpf()`` rounds it."""
    if (n | d).bit_length() <= prec:
        return _div(n, d, prec)
    g = gcd(n, d)
    a, ea = _round(n // g, 0, prec)
    b, eb = _round(d // g, 0, prec)
    m, e = _div(a, b, prec)
    return m, e + ea - eb


def _ratio(n: int, d: int, prec: int) -> tuple[int, int]:
    """n/d, d > 0, as a signed pair: bit for bit ``mpf(a) / mpf(b)`` for the
    reduced a/b = n/d, as :func:`_quotient` rounds |n|/d.  ``mpf_div`` rounds
    its exact quotient once to nearest, ties to even, and so does :func:`_div`,
    so the bits agree."""
    m, e = _quotient(abs(n), d, prec)
    return -m if n < 0 else m, e


def _add(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a + b for signed pairs, rounded once as ``mpf_add`` rounds it: the
    operands meet exactly at the smaller exponent (``mpf_add`` perturbs a far
    operand instead, which rounds to the same value for operands of at most
    ``prec`` bits)."""
    (ma, ea), (mb, eb) = a, b
    e = min(ea, eb)
    m = (ma << (ea - e)) + (mb << (eb - e))
    r, e = _round(abs(m), e, prec)
    return -r if m < 0 else r, e


def _sub(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a - b, rounded once as ``mpf_sub`` rounds it."""
    return _add(a, (-b[0], b[1]), prec)


def _less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for signed pairs, exactly."""
    (ma, ea), (mb, eb) = a, b
    e = min(ea, eb)
    return ma << (ea - e) < mb << (eb - e)


def _float(a: tuple[int, int]) -> float:
    """A signed pair as the nearest float, as ``to_float`` converts it: 53
    bits, then ``ldexp``; beyond the float range, an infinity."""
    m, e = a
    r, e = _round(abs(m), e, 53)
    try:
        return ldexp(-r if m < 0 else r, e)
    except OverflowError:
        return -inf if m < 0 else inf


#: ``math.log(10, 2)``, the float ``to_digits_exp`` sizes its binary fixed point by.
_LOG2_10 = log(10, 2)


def _numeral(n: int, size: int) -> str:
    """n >= 0 in decimal, about ``size`` digits, split in halves as
    ``libintmath.numeral`` splits it: ``str`` refuses an int of more than
    4300 digits."""
    if size < 250:
        return str(n)
    half = size // 2 + (size & 1)
    high, low = divmod(n, 10**half)
    return _numeral(high, half) + _numeral(low, half).rjust(half, "0")


def _decimal(a: tuple[int, int], bits: int) -> str:
    """A signed pair in decimal, as ``mp.nstr`` prints it at a precision of
    ``bits``: ``to_str`` at int(bits * 0.302) + 2 significant digits.  As
    there, the digits are first floored at 3 more digits, then rounded half
    up, then laid out fixed or with an exponent and stripped of trailing zeros.
    A value beyond 2^±3500, which ``to_digits_exp`` rescales by a power of
    ten in mpf arithmetic first, is printed by ``to_str`` itself."""
    m, e = a
    dps = int(bits * 0.302) + 2
    if not m:
        return "0.0"
    if abs(e + m.bit_length()) > 3500:
        from mpmath.libmp import from_man_exp, to_str

        return to_str(from_man_exp(m, e), dps)
    sign, m = ("-" if m < 0 else ""), abs(m)
    # to_digits_exp at dps + 3: a binary fixed point, then decimal digits, floored
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - e - m.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    digits = _numeral(fixed * 10**fixdps >> fixprec, dps + 3)
    exponent = len(digits) - fixdps - 1
    # to_str: round half up at dps digits, a carry past the first adding a digit
    if len(digits) > dps and digits[dps] in "56789":
        kept = digits[:dps].rstrip("9")
        if kept:
            digits = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (dps - len(kept))
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if not exponent:
        return sign + digits
    return f"{sign}{digits}e{exponent:+d}"


def _t_values(cspec: CocycleSpec, x0: Fraction, steps: int, prec: int):
    """(d, values), values yielding (i, u_i, t_i - t_0) for i = 0..steps along
    :func:`besicov.cocycle.walk` (x_i = u_i/d), t a signed pair rounded to ``prec`` bits.

    Because x advances exactly, the ergodic sum telescopes per level to
    f_l(x_i) - f_l(x_0); each t_i is assembled fresh from one evaluation per
    level, so the float error never accumulates across steps.  A level at
    u = r/d of its period rounds its bump in this order: u (:func:`_quotient`),
    1 - u past 1/2, then peak * (u * 2) for tent; for main 0 up to 1/12, the peak
    from 5/12, else peak * ((u - 1/12) * 3), with 1/12 and 5/12 rounded once
    per call; then the running sum, level by level, and fiber - base.

    These are the roundings mpmath's ``mpf_div``, ``mpf_sub``, ``mpf_mul``,
    ``mpf_mul_int`` and ``mpf_add`` make in that order, and each of those
    rounds its exact result once to nearest, ties to even (``mpf_div`` with
    a sticky bit, ``mpf_add`` with a perturbation of a far operand that acts
    as one).  So each step here computes the exact result in integers, m 2^e,
    and rounds it with :func:`_round` where libmp rounds, and the bits are
    libmp's in rounding mode ``'n'``, the only one implemented.  Each level's
    error stays below peak * 2^(4 - prec).
    """
    tent = cspec.variant == "tent"
    m12, e12 = _div(1, 12, prec)
    m512, e512 = _div(5, 12, prec)
    d, walks = walk(cspec, x0, steps)
    peaks = [_quotient(*level_max(lv, cspec.variant).as_integer_ratio(), prec)
             for lv in cspec.levels]
    # every position r < d, so the pair (r, d) is as wide as d at every step
    quotient = _div if d.bit_length() <= prec else _quotient

    def fiber(rs: list[int]) -> tuple[int, int]:
        mt, et = 0, 0
        for r, (pm, pe) in zip(rs, peaks):
            mv, ev = quotient(r, d, prec)
            # u = mv 2^ev against 1/2, 1/12 and 5/12: exact, on shifted mantissas
            if mv << (ev + 1) > 1 if ev >= -1 else mv > 1 << (-1 - ev):
                mv, ev = _round((1 << -ev) - mv, ev, prec)
            if tent:
                mb, eb = _round(pm * mv, pe + ev + 1, prec)
            elif mv << (ev - e12) <= m12 if ev >= e12 else mv <= m12 << (e12 - ev):
                continue
            elif mv << (ev - e512) >= m512 if ev >= e512 else mv >= m512 << (e512 - ev):
                mb, eb = pm, pe
            else:
                if ev >= e12:
                    mw, ew = _round((mv << (ev - e12)) - m12, e12, prec)
                else:
                    mw, ew = _round(mv - (m12 << (e12 - ev)), ev, prec)
                mw, ew = _round(3 * mw, ew, prec)
                mb, eb = _round(pm * mw, pe + ew, prec)
            if not mb:
                continue
            if not mt:
                mt, et = mb, eb
            elif et >= eb:
                mt, et = _round((mt << (et - eb)) + mb, eb, prec)
            else:
                mt, et = _round(mt + (mb << (eb - et)), et, prec)
        return mt, et

    rows = zip(*walks)
    u, *rs = next(rows)
    base = fiber(rs)
    later = ((i, u, _sub(fiber(rs), base, prec)) for i, (u, *rs) in enumerate(rows, 1))
    return d, chain([(0, u, (0, 0))], later)


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
    peaks = sum((level_max(lv, cspec.variant) for lv in cspec.levels), start=Fraction(0))
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
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    bound = orbit_error_bound(cspec, precision_bits)
    if bound > ERROR_CAP:
        cap = float(ERROR_CAP)
        raise ErrorBudgetBlown(f"error bound {float(bound):.3g} exceeds cap {cap:.3g}")
    want = set(checkpoints)
    xs: list[float] = []
    ts: list[float] = []
    marks: dict[int, str] = {}
    t0 = Fraction(t0)
    t_base = _ratio(*t0.as_integer_ratio(), precision_bits)
    d, values = _t_values(cspec, x0, steps, precision_bits)
    for i, u, dt in values:
        t = _add(t_base, dt, precision_bits)
        if i % store_every == 0:
            xs.append(u / d)  # int true division rounds as float(Fraction) does
            ts.append(_float(t))
        if i in want:
            marks[i] = _decimal(t, precision_bits)
    return OrbitRecord(
        steps=steps,
        precision_bits=precision_bits,
        store_every=store_every,
        x0=x0 % 1,
        t0=t0,
        xs=xs,
        ts=ts,
        checkpoints=marks,
        x_final=Fraction(u, d),
        t_final=_decimal(t, precision_bits),
        error_bound=bound,
    )


def coverage(record: OrbitRecord, box_height: float, grid: int) -> float:
    """Fraction of grid cells of [0,1) x [-H, H] visited by the stored points."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    h = float(box_height)
    if not h > 0:
        raise ValueError("box_height must be positive")
    seen: set[tuple[int, int]] = set()
    for x, t in zip(record.xs, record.ts):
        if not -h <= t < h:
            continue
        i = int(x * grid) % grid
        j = int((t + h) / (2 * h) * grid)
        seen.add((i, min(j, grid - 1)))
    return len(seen) / (grid * grid)


@dataclass
class ProbeResult(Result):
    """One float-lane probe: its inputs, outcome, witness if any, and the orbit error bound."""

    kind: str
    params: dict
    outcome: str
    witness: Optional[dict] = None
    error_bound: float = 0.0
    details: dict = field(default_factory=dict)


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
    if eps <= 0:
        raise ValueError("eps must be positive")
    bound = orbit_error_bound(cspec, precision_bits)
    if bound >= eps:
        raise ErrorBudgetBlown(
            f"error bound {float(bound):.3g} not below eps {eps}"
        )
    x0 = x % 1
    prec = precision_bits
    den, values = _t_values(cspec, x0, horizon, prec)
    _, u0, _ = next(values)
    best_k = 0
    best_val = None
    for k, u, t_cur in values:
        gap = (u - u0) % den  # circle distance min(gap, den - gap)/den
        d = _add(_ratio(min(gap, den - gap), den, prec), (abs(t_cur[0]), t_cur[1]), prec)
        if best_val is None or _less(d, best_val):
            best_val = d
            best_k = k
    eps_f = _ratio(*eps.as_integer_ratio(), prec)
    bound_f = _ratio(*bound.as_integer_ratio(), prec)
    if not _less(_sub(best_val, bound_f, prec), eps_f):
        outcome = "pass"
    elif _less(_add(best_val, bound_f, prec), eps_f):
        outcome = "fail"
    else:
        raise ErrorBudgetBlown("minimum distance within error bound of eps")
    return ProbeResult(
        kind="nonrecurrence",
        params={"eps": str(eps), "horizon": horizon, "precision_bits": precision_bits,
                "x": str(x0), "t": str(Fraction(t))},
        outcome=outcome,
        witness={"k": best_k, "min_distance": _float(best_val)},
        error_bound=float(bound),
    )


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
    that resolve delta (see ``targets._probe_start``: it lies in those levels'
    unions, not necessarily in the coarser ones), then seeded random
    rationals in (x - delta, x + delta).  The base separation is
    constant in time (rotations are isometries), so separation is driven by
    the fiber difference.  A found witness is re-simulated at doubled
    precision before being reported; absence of a witness is "not-found",
    never a disproof.
    """
    from .targets import _probe_start

    if horizon < 1:
        raise ValueError("horizon must be >= 1 (a vacuous test is rejected)")
    delta, eps = Fraction(delta), Fraction(eps)
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    scale = 1 << 20
    if (delta / scale).denominator == 1:
        raise ValueError("delta must not be a multiple of 2^20 (each offset is a whole turn)")
    rng = random.Random(seed)
    x0 = x % 1
    candidates: list[Fraction] = []
    fam = "-+" if cspec.variant == "tent" else "++"
    tgt = _probe_start(cspec.profile, fam, cspec.n_levels, x0, delta)
    if tgt is not None and tgt != x0:
        candidates.append(tgt)
    while len(candidates) < samples:
        off = Fraction(rng.randint(-scale, scale), scale) * delta
        y = (x0 + off) % 1
        if y != x0:
            candidates.append(y)

    # x0's fiber values per precision, for this call only: a tee left at step 0
    x_walks: dict[int, Iterator] = {}

    def x_values(bits: int) -> Iterator:
        """x0's fiber values at ``bits``, each step walked once, when first read."""
        if bits not in x_walks:
            x_walks[bits] = tee((t for _, _, t in _t_values(cspec, x0, horizon, bits)[1]), 1)[0]
        return copy(x_walks[bits])

    def separation(y: Fraction, bits: int):
        """Yield (k, distance of the orbits of x0 and y at step k) for k = 1..horizon."""
        basef = _ratio(*_circle_dist(x0, y).as_integer_ratio(), bits)
        for tx, (k, _, ty) in zip(x_values(bits), _t_values(cspec, y, horizon, bits)[1]):
            if k:
                ms, es = _sub(tx, ty, bits)
                yield k, _float(_add(basef, (abs(ms), es), bits))

    bound = 2 * float(orbit_error_bound(cspec, precision_bits))
    params = {"delta": str(delta), "eps": str(eps), "horizon": horizon, "samples": samples,
              "seed": seed, "precision_bits": precision_bits, "x": str(x0)}
    for y in candidates:
        # float subtraction is monotone, so a step clears eps + bound iff the
        # farthest one does: the first such step decides
        if any(d - bound > float(eps) for _, d in separation(y, precision_bits)):
            # max keeps the first of equal distances, the step reported
            k2, d2 = max(separation(y, 2 * precision_bits), key=lambda kd: kd[1])
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

