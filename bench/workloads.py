"""The benchmark's four workloads: seeded request lists over besicov's public API.

Each builder runs inside a worker interpreter that has already imported
``besicov``.  It builds the workload's shared state (profiles, cocycles, start
points) and returns the list of requests one pass runs, in order.  A request is
one user-level task: one certificate, one audit, one scan or one probe.

Every pass has a fixed mix: the same number of requests of each kind, and the
heavy kinds (measured nesting, box counting, formula nesting at wide n) always
run on the same profiles.  The seed draws everything else: which alpha a light
request uses, the points x, the iterate counts m, families, variants, horizons
and the order of the requests.  That keeps the work per pass nearly the same
for every seed, so run-to-run spread measures the program and not the draw.

Requests call the library only through the public functions of its modules
(and ``python -m besicov.cli`` for cold calls).  Each call into a layer goes
through ``tr.call(layer_name, fn, ...)`` so a traced run can record a span at
the layer boundary; ``tr.count`` records counts at the same boundaries.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from besicov import certlog, cf, cocycle, dimension, dynamics, levels, targets
from besicov.cli import parse_alpha
from besicov.errors import BelowFirstWindow, WindowBeyondProfile

# besicov exports a function named ``audit`` that shadows the module.
audit_mod = importlib.import_module("besicov.audit")


@dataclass
class Request:
    """One user-level task.  ``run(tr)`` returns the output whose canonical
    bytes are digested; ``check(output)`` is the oracle (True when it holds)."""

    rid: str
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    argv: Optional[list[str]] = None  # cli-cold only: the command line


def _rational(rng: random.Random, max_den: int = 1000) -> Fraction:
    den = rng.randrange(3, max_den)
    return Fraction(rng.randrange(1, den), den)


def _spread(rng: random.Random, lo: int, hi: int, count: int, shuffle: bool = True) -> list[int]:
    """``count`` integers covering [lo, hi) in equal strata, one seeded draw
    per stratum, shuffled unless ``shuffle`` is false: their sum barely
    depends on the seed."""
    width = (hi - lo) / count
    vals = [lo + int(i * width) + rng.randrange(max(1, int(width))) for i in range(count)]
    if shuffle:
        rng.shuffle(vals)
    return vals


def _near(rng: random.Random, mid: int) -> int:
    """A seeded integer within a tenth of ``mid``."""
    return rng.randint(round(0.9 * mid), round(1.1 * mid))


def _cycle(rng: random.Random, items: tuple, count: int) -> list:
    """Each item equally often (count a multiple of len(items)), seeded order."""
    out = list(items) * (count // len(items))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- exact-desk

DESK_ALPHAS = ("golden", "sqrt2m1", "quotients=1,2", "quotients=2,1,1", "quotients=3", "quotients=1,1,2")
#: Profile size of the measured nesting request per alpha: n_max = 3 for sqrt2m1
#: (1.7e5 children enumerated), 2 elsewhere (7e3 to 3e4 children).
DESK_NEST_N = {"sqrt2m1": 3}
#: Level-2 box counts run on these alphas (7e3 intervals each); the rest count level 1.
DESK_BOX_L2 = ("golden", "sqrt2m1")


def _gap_request(rid, spec, n):
    def run(tr):
        cert = tr.call("cf.gap_bounds_check", cf.gap_bounds_check, spec, n)
        tr.count("cf.gap_bounds_check.calls")
        tr.count("cf.gap_bounds_check.escalations", math.log2(cert.depth_used / max(8, n + 3)))
        return cert

    return Request(rid, "gap", run, lambda cert: cert.passed and cert.sign == (-1) ** n)


def _levels_request(rid, spec, strategy, variant, n_max):
    def run(tr):
        prof = tr.call("levels.select_levels", levels.select_levels, spec, strategy, variant, n_max)
        return tr.call("levels.validate_levels", levels.validate_levels, prof)

    return Request(rid, "levels", run, lambda rep: rep.passed)


def _sum_request(rid, cs, x, m):
    def run(tr):
        a = tr.call("cocycle.phi_m", cocycle.phi_m, cs, x, m)
        tr.count("cocycle.phi_m.calls")
        b = tr.call("cocycle.birkhoff", cocycle.birkhoff, cs, x, m)
        tr.count("cocycle.birkhoff.level_evals", 2 * abs(m) * cs.n_levels)
        return {"phi_m": a, "birkhoff": b}

    return Request(rid, "sum", run, lambda out: out["phi_m"] == out["birkhoff"])


def _count_audit(tr, rep):
    tr.count("audit.levels_audited", rep.levels_audited)
    tr.count("audit.status." + rep.status)


def _audit_request(rid, kind, cs, family, policy, depth, m):
    audit_fn = audit_mod.audit_aligned if kind == "aligned" else audit_mod.audit_mixed

    def run(tr):
        _, path = tr.call("targets.sample_point", targets.sample_point, cs.profile, family, policy, depth)
        tr.count("targets.sample_point.depth_sum", depth)
        rep = tr.call("audit.audit_" + kind, audit_fn, cs, path, m)
        _count_audit(tr, rep)
        return rep

    def check(rep):
        return rep.total == cocycle.phi_m(cs.truncated(rep.levels_audited), rep.x, rep.m)

    return Request(rid, "audit-" + kind, run, check)


def _scan_request(rid, cs, family, depth, m_lo, m_hi):
    def run(tr):
        _, path = tr.call("targets.sample_point", targets.sample_point, cs.profile, family, "center", depth)
        tr.count("targets.sample_point.depth_sum", depth)
        return tr.call("audit.discreteness_scan", audit_mod.discreteness_scan, cs, path, m_lo, m_hi)

    return Request(rid, "scan", run, lambda t: bool(t.entries) and all(v > 0 for v in t.window_minima.values()))


def _falconer_ok(bounds) -> bool:
    """Closed-form lower <= upper on every row, and the nested bounds inside
    [0, 1].  The nested lower and upper of one finite n are not ordered in
    general: on fixed profiles the lower one is the larger at every n."""
    for r in bounds.rows:
        if r.closed_lower.lo > r.closed_upper.hi:
            return False
        if r.lower is not None and not (0 <= r.lower.lo and r.upper.hi <= 1):
            return False
    return True


def _nesting_request(rid, prof, mode, family):
    def run(tr):
        stats = tr.call("dimension.nesting_stats", dimension.nesting_stats, prof, mode, family)
        if mode == "measured":
            tr.count("dimension.nesting_stats.parents_scanned", sum(lv.cell_count for lv in prof.levels[:-1]))
        bounds = tr.call("dimension.falconer_bounds", dimension.falconer_bounds, stats)
        return {"stats": stats, "bounds": bounds}

    return Request(rid, "nesting-" + mode, run, lambda out: _falconer_ok(out["bounds"]))


def _box_request(rid, prof, family, n, grid):
    def run(tr):
        res = tr.call("dimension.box_count", dimension.box_count, prof, family, n, grid)
        tr.count("dimension.box_count.intervals", prof.level(n).cell_count * len(res.counts))
        return res

    return Request(rid, "box", run, lambda r: all(c >= 1 for _, c in r.counts))


def _aligned_ms(cs, max_n: int) -> list[int]:
    """Iterate counts whose aligned window index is at most ``max_n``."""
    out = []
    for m in range(1, 200):
        try:
            w = audit_mod.window(cs.profile, "aligned", m, n_limit=cs.n_levels)
        except BelowFirstWindow:
            continue
        except WindowBeyondProfile:
            break
        if w.n > max_n:
            break
        out.append(m)
    return out


def _mixed_window(cs, n: int) -> tuple[int, int]:
    """Integer iterate counts [lo, hi) of mixed window n."""
    edge = lambda k: Fraction(cs.profile.level(k).q_next, 12 * cs.profile.level(k).a)
    return math.ceil(edge(n)), math.ceil(edge(n + 1))


def build_exact_desk(rng: random.Random, tr) -> list[Request]:
    specs = {a: parse_alpha(a) for a in DESK_ALPHAS}
    main10, main5, tent5, tent6, nest, box = {}, {}, {}, {}, {}, {}
    for a, spec in specs.items():
        main10[a] = tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "greedy", "main", 10, 10)
        main5[a] = tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "greedy", "main", 5, 5)
        tent5[a] = tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "greedy", "tent", 5, 5)
        tent6[a] = tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "greedy", "tent", 6, 6)
        nest[a] = tr.call("levels.select_levels", levels.select_levels, spec, "greedy", "main", DESK_NEST_N.get(a, 2))
        box[a] = tr.call("levels.select_levels", levels.select_levels, spec, "greedy", "main", 2)

    reqs: list[Request] = []
    for i, (a, n) in enumerate(zip(_cycle(rng, DESK_ALPHAS, 24), _spread(rng, 1, 61, 24))):
        reqs.append(_gap_request(f"gap-{i}", specs[a], n))
    for i, a in enumerate(_cycle(rng, DESK_ALPHAS, 12)):
        reqs.append(_levels_request(f"levels-{i}", specs[a], "greedy", rng.choice(levels.VARIANTS), rng.randint(4, 8)))
    # each (alpha, variant) keeps its stratum of m, so the slowest of these
    # requests, which sit at the pass's p90, are the same ones for every seed
    pairs = tuple(itertools.product(DESK_ALPHAS, levels.VARIANTS))
    for i, ((a, variant), m) in enumerate(zip(pairs, _spread(rng, 40, 112, 12, shuffle=False))):
        cs = main5[a] if variant == "main" else tent5[a]
        reqs.append(_sum_request(f"sum-{i}", cs, _rational(rng), rng.choice((1, -1)) * m))
    for i, a in enumerate(_cycle(rng, DESK_ALPHAS, 24)):
        m = rng.choice(_aligned_ms(main10[a], 8))
        fam, policy = rng.choice(("++", "--")), rng.choice(("center", "leftmost"))
        reqs.append(_audit_request(f"aligned-{i}", "aligned", main10[a], fam, policy, 10, m))
    for i, (a, n) in enumerate(_cycle(rng, tuple(itertools.product(DESK_ALPHAS, (1, 2, 3, 4))), 24)):
        lo, hi = _mixed_window(tent6[a], n)
        m = rng.choice((1, -1)) * rng.randrange(lo, hi)
        fam = rng.choice(("+-", "-+"))
        reqs.append(_audit_request(f"mixed-{i}", "mixed", tent6[a], fam, "center", min(6, n + 3), m))
    for i, a in enumerate(_cycle(rng, DESK_ALPHAS, 6)):
        lo, hi = _mixed_window(tent6[a], 2)
        m_lo = rng.randrange(lo, hi - 30)
        reqs.append(_scan_request(f"scan-{i}", tent6[a], rng.choice(("+-", "-+")), 6, m_lo, m_lo + 29))
    for i, a in enumerate(DESK_ALPHAS):
        reqs.append(_nesting_request(f"nest-{i}", nest[a], "measured", rng.choice(targets.FAMILIES)))
    for i, a in enumerate(DESK_ALPHAS + DESK_BOX_L2):
        n = 2 if i >= len(DESK_ALPHAS) else 1
        reqs.append(_box_request(f"box-{i}", box[a], rng.choice(targets.FAMILIES), n, rng.randint(50_000, 200_000)))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------- exact-bigint

#: Sampling stops at depth 2 (and fixed main profiles sample at depth 2 only
#: for golden): see known_gaps.json for the enumeration that rules out more.
BIG_ALPHAS = ("golden", "sqrt2m1", "quotients=1,2")
#: Formula nesting + Falconer bounds run at these n on every alpha, every pass.
BIG_NEST_N = (8, 9, 10, 11, 12)


def _log_request(rid, x):
    def run(tr):
        enc = tr.call("certlog.log_enclosure", certlog.log_enclosure, x)
        tr.count("certlog.log_enclosure.input_bits", x.numerator.bit_length() + x.denominator.bit_length())
        return enc

    def check(enc):
        ref = math.log(x.numerator) - math.log(x.denominator)
        return enc.lo <= enc.hi and abs(float(enc.mid) - ref) <= 1e-9 * max(1.0, abs(ref))

    return Request(rid, "log", run, check)


def _make_cocycle_request(rid, spec, variant, n_max):
    def run(tr):
        return tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "fixed", variant, n_max)

    return Request(rid, "make-cocycle", run, lambda cs: cs.alpha_hat.denominator > cs.guard)


def _sample_request(rid, prof, family, policy, depth):
    def run(tr):
        _, path = tr.call("targets.sample_point", targets.sample_point, prof, family, policy, depth)
        tr.count("targets.sample_point.depth_sum", depth)
        return path

    def check(path):
        return targets.member(prof, family, path.point, depth).ok

    return Request(rid, "sample", run, check)


def build_exact_bigint(rng: random.Random, tr) -> list[Request]:
    specs = {a: parse_alpha(a) for a in BIG_ALPHAS}
    sums, nest, fixed3 = {}, {}, {}
    for a, spec in specs.items():
        for variant in levels.VARIANTS:
            sums[a, variant] = tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "fixed", variant, 2)
            fixed3[a, variant] = tr.call("levels.select_levels", levels.select_levels, spec, "fixed", variant, 3)
        nest[a] = tr.call("levels.select_levels", levels.select_levels, spec, "fixed", "main", max(BIG_NEST_N))

    reqs: list[Request] = []
    for i, (a, n) in enumerate(zip(_cycle(rng, BIG_ALPHAS, 24), _spread(rng, 100, 600, 24))):
        reqs.append(_gap_request(f"gap-{i}", specs[a], n))
    pairs = tuple(itertools.product(BIG_ALPHAS, levels.VARIANTS))
    for i, ((a, variant), n) in enumerate(zip(_cycle(rng, pairs, 12), _spread(rng, 8, 13, 12))):
        reqs.append(_levels_request(f"levels-{i}", specs[a], "fixed", variant, n))
    for i, (a, variant, n) in enumerate(_cycle(rng, tuple(itertools.product(BIG_ALPHAS, levels.VARIANTS, (2, 3, 4))), 18)):
        reqs.append(_make_cocycle_request(f"cocycle-{i}", specs[a], variant, n))
    for i, (key, m) in enumerate(zip(_cycle(rng, pairs, 24), _spread(rng, 1, 9, 24))):
        reqs.append(_sum_request(f"sum-{i}", sums[key], _rational(rng), rng.choice((1, -1)) * m))
    for i, a in enumerate(BIG_ALPHAS):
        for n in BIG_NEST_N:
            prof = tr.call("levels.select_levels", levels.select_levels, specs[a], "fixed", "main", n)
            reqs.append(_nesting_request(f"nest-{a}-{n}", prof, "formula", rng.choice(targets.FAMILIES)))
    for i, a in enumerate(_cycle(rng, BIG_ALPHAS, 18)):
        lv = nest[a].level(rng.randint(6, 12))
        x = rng.choice((Fraction(lv.cell_count), lv.lam, Fraction(lv.q_next, lv.q), lv.period))
        reqs.append(_log_request(f"log-{i}", x))
    for a in BIG_ALPHAS:
        fam = rng.choice(targets.FAMILIES)
        reqs.append(_sample_request(f"sample-{a}-main1", fixed3[a, "main"], fam, rng.choice(("center", "leftmost")), 1))
        reqs.append(_sample_request(f"sample-{a}-tent2", fixed3[a, "tent"], fam, rng.choice(("center", "leftmost")), 2))
    reqs.append(_sample_request("sample-golden-main2", fixed3["golden", "main"], rng.choice(targets.FAMILIES), "center", 2))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------- orbit-float

ORBIT_ALPHAS = ("golden", "sqrt2m1")
#: Start points per cocycle: one certified target-set point, the rest seeded rationals.
ORBIT_STARTS = 5


def _orbit_check(cs, x0):
    """Acceptance criterion 10: every checkpoint lies within the declared error
    bound of the exact ergodic sum phi_m(x0, k)."""
    from mpmath import mp, mpf

    def check(rec):
        with mp.workprec(300):
            bound = mpf(rec.error_bound.numerator) / rec.error_bound.denominator
            for k, t in rec.checkpoints.items():
                exact = cocycle.phi_m(cs, x0, k)
                if abs(mpf(t) - mpf(exact.numerator) / exact.denominator) > bound:
                    return False
        return bool(rec.checkpoints)

    return check


def _count_orbit(tr, cs, steps):
    tr.count("dynamics.orbit.steps", steps)
    tr.count("dynamics.orbit.level_steps", steps * cs.n_levels)


def _orbit_request(rid, cs, x0, steps, bits):
    def run(tr):
        rec = tr.call("dynamics.orbit", dynamics.orbit, cs, x0, Fraction(0), steps, bits, 1, (steps // 2, steps))
        _count_orbit(tr, cs, steps)
        return rec

    return Request(rid, "orbit", run, _orbit_check(cs, x0))


def _coverage_request(rid, cs, x0, steps, height, grid):
    def run(tr):
        rec = tr.call("dynamics.orbit", dynamics.orbit, cs, x0, Fraction(0), steps, 128)
        _count_orbit(tr, cs, steps)
        return tr.call("dynamics.coverage", dynamics.coverage, rec, height, grid)

    return Request(rid, "coverage", run, lambda frac: 0 < frac <= 1)


def _nonrec_request(rid, cs, x0, eps, horizon):
    def run(tr):
        return tr.call("dynamics.nonrecurrence_test", dynamics.nonrecurrence_test, cs, x0, Fraction(0), eps, horizon)

    return Request(rid, "nonrecurrence", run, lambda res: res.outcome in ("pass", "fail"))


def _sensitivity_request(rid, cs, x0, delta, eps, horizon, seed):
    def run(tr):
        res = tr.call(
            "dynamics.sensitivity_probe", dynamics.sensitivity_probe, cs, x0, delta, eps, horizon, 8, seed
        )
        tr.count("dynamics.sensitivity_probe.reverified", int(res.witness is not None))
        return res

    def check(res):
        return res.outcome == "not-found" or res.witness["reverified_bits"] == 2 * res.params["precision_bits"]

    return Request(rid, "sensitivity", run, check)


def _classify_request(rid, cs, x0, horizon):
    def run(tr):
        return tr.call("dynamics.classify_orbit", dynamics.classify_orbit, cs, x0, horizon)

    return Request(rid, "classify", run, lambda label: label in ("escaping+", "escaping-", "oscillating", "undetermined"))


def build_orbit_float(rng: random.Random, tr) -> list[Request]:
    """Every kind runs from every start point of every cocycle equally often:
    the certified target point has a far wider denominator than the seeded
    rationals, so an unbalanced draw would change the work per pass."""
    cs, starts = {}, {}
    for a in ORBIT_ALPHAS:
        spec = parse_alpha(a)
        for variant in levels.VARIANTS:
            cs[a, variant] = tr.call("cocycle.make_cocycle", cocycle.make_cocycle, spec, "greedy", variant, 3)
            fam = "-+" if variant == "tent" else "++"
            x, _ = tr.call("targets.sample_point", targets.sample_point, cs[a, variant].profile, fam, "center", 3)
            starts[a, variant] = [x] + [_rational(rng) for _ in range(ORBIT_STARTS - 1)]
    runs = tuple(itertools.product(cs, range(ORBIT_STARTS)))
    tent_runs = tuple(r for r in runs if r[0][1] == "tent")

    reqs: list[Request] = []
    for i, (((key, j), bits), steps) in enumerate(
        zip(_cycle(rng, tuple(itertools.product(runs, (128, 256))), 40), _spread(rng, 80, 160, 40))
    ):
        reqs.append(_orbit_request(f"orbit-{i}", cs[key], starts[key][j], steps, bits))
    for i, ((key, j), steps) in enumerate(zip(_cycle(rng, runs, 20), _spread(rng, 100, 200, 20))):
        reqs.append(_coverage_request(f"coverage-{i}", cs[key], starts[key][j], steps, rng.choice((3.0, 30.0)), 40))
    for i, ((key, j), h) in enumerate(zip(_cycle(rng, runs, 20), _spread(rng, 60, 120, 20))):
        reqs.append(_nonrec_request(f"nonrec-{i}", cs[key], starts[key][j], Fraction(1, 10), h))
    for i, ((key, j), h) in enumerate(zip(_cycle(rng, tent_runs, 20), _spread(rng, 60, 100, 20))):
        reqs.append(_sensitivity_request(
            f"sens-{i}", cs[key], starts[key][j], Fraction(1, 1000), Fraction(1, 2), h, rng.randrange(1000)
        ))
    for i, ((key, j), h) in enumerate(zip(_cycle(rng, runs, 20), _spread(rng, 100, 200, 20))):
        reqs.append(_classify_request(f"classify-{i}", cs[key], starts[key][j], h))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------- cli-cold

CLI_ALPHAS = ("golden", "sqrt2m1")


@dataclass
class CliOutput:
    code: int
    stdout: bytes


def _cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_request(rid, argv, env, timeout):
    def run(tr):
        proc = tr.call(
            "cli.process",
            subprocess.run,
            [sys.executable, "-m", "besicov.cli", *argv],
            capture_output=True,
            env=env,
            timeout=timeout,
        )
        return CliOutput(proc.returncode, proc.stdout)

    kind = "cli-" + argv[0] + ("-" + argv[2] if argv[0] == "probe" else "")
    return Request(rid, kind, run, lambda out: out.code == 0 and bool(out.stdout), argv)


def cli_argvs(rng: random.Random) -> list[list[str]]:
    """The README's CLI examples with seeded arguments, probe horizons shortened
    so that interpreter start and import stay the dominant cost.  The sizes
    that set a command's cost (horizons, steps, m, n, grid) vary by a tenth at
    most, so the slowest commands, which set the p90 of 34, cost the same for
    every seed."""
    out = []
    for a in _cycle(rng, CLI_ALPHAS, 2):
        spec = parse_alpha(a)
        x = str(_rational(rng, 100))
        main = cocycle.make_cocycle(spec, "greedy", "main", 4)
        tent6 = cocycle.make_cocycle(spec, "greedy", "tent", 6, 6)
        lo, hi = _mixed_window(tent6, 2)
        m_lo = rng.randrange(lo, hi - 8)
        fam = rng.choice(tuple(targets.FAMILY_CODES))
        out += [
            ["cf", "--alpha", a, "--upto", str(rng.randint(6, 14)), "--out", "csv"],
            ["cf", "--alpha", a, "--upto", str(rng.randint(20, 40)), "--check"],
            ["levels", "--alpha", a, "--strategy", "fixed", "--n", str(rng.randint(2, 4))],
            ["levels", "--alpha", a, "--n", str(rng.randint(4, 7)), "--out", "json"],
            ["eval", "--alpha", a, "--x", x, "--out", "json"],
            ["sum", "--alpha", a, "--variant", "tent", "--x", x, "--m", str(_near(rng, 25))],
            ["target", "--alpha", a, "--family", fam, "--level", "1"],
            ["target", "--alpha", a, "--family", fam, "--n", "5", "--depth", "5", "--out", "json"],
            ["audit", "--alpha", a, "--family", rng.choice(("pp", "mm")), "--m", str(rng.choice(_aligned_ms(main, 5))), "--out", "json"],
            ["audit", "--alpha", a, "--variant", "tent", "--n", "6", "--trunc", "6", "--family", rng.choice(("mp", "pm")),
             "--m-range", f"{m_lo}:{m_lo + 7}"],
            ["dimension", "--alpha", a, "--strategy", "fixed", "--n", "7", "--out", "csv"],
            ["dimension", "--alpha", a, "--n", "2", "--mode", "measured", "--box", "--grid", str(_near(rng, 100_000)), "--out", "json"],
            ["orbit", "--alpha", a, "--variant", "tent", "--n", "3", "--x", x, "--steps", str(_near(rng, 100))],
            ["probe", "--kind", "sensitivity", "--alpha", a, "--variant", "tent", "--n", "4", "--x", x,
             "--delta", "1/1000", "--eps", "1/2", "--horizon", str(_near(rng, 80)), "--seed", str(rng.randrange(100))],
            ["probe", "--kind", "nonrecurrence", "--alpha", a, "--variant", "tent", "--n", "4", "--x", x,
             "--eps", "1/10", "--horizon", str(_near(rng, 80))],
            ["probe", "--kind", "coverage", "--alpha", a, "--variant", "tent", "--n", "3",
             "--horizon", str(_near(rng, 220)), "--grid", "40", "--height", "30"],
            ["probe", "--kind", "classify", "--alpha", a, "--variant", "tent", "--n", "5", "--x", x,
             "--horizon", str(_near(rng, 150))],
        ]
    rng.shuffle(out)
    return out


def build_cli_cold(rng: random.Random, tr, src: str, timeout: float) -> list[Request]:
    env = _cli_env(src)
    return [_cli_request(f"cli-{i}", argv, env, timeout) for i, argv in enumerate(cli_argvs(rng))]


# ---------------------------------------------------------------- canonical output


def canonical(obj: Any) -> Any:
    """JSON-ready form of a request's output: ``as_dict()`` where the library
    defines it, exact rationals as "p/q", floats by repr, dataclasses by field."""
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: canonical(getattr(obj, k)) for k in obj.__dataclass_fields__}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canonical_bytes(obj: Any) -> bytes:
    if isinstance(obj, CliOutput):
        return obj.stdout
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":")).encode()


def build(workload: str, seed: int, tr, src: str, timeout: float) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-desk":
        return build_exact_desk(rng, tr)
    if workload == "exact-bigint":
        return build_exact_bigint(rng, tr)
    if workload == "orbit-float":
        return build_orbit_float(rng, tr)
    if workload == "cli-cold":
        return build_cli_cold(rng, tr, src, timeout)
    raise ValueError(f"unknown workload {workload!r}")
