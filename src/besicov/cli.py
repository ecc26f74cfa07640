"""Command-line front end.

Each subcommand offers only the flags it reads, and --config PATH (a JSON file
whose keys are flag names of any subcommand; explicit flags win).  Where what
a subcommand reads depends on its mode (the probe --kind, dimension with or
without --box, target with --depth, --j or neither, sum and audit with
--m-range), a flag given explicitly that the mode does not read is a usage
error that names the flag and the mode.  All but probe, which always prints
JSON, take --out {csv|json}.  Rationals are printed as "numerator/denominator"
strings, big integers as decimal strings; outputs are byte-identical for
identical configurations.  Exit codes: 0 success, 1 usage error, 2
certificate failure.

The dimension and orbit/probe subcommands import their modules inside their
handlers, so the certificate subcommands never load them, nor ``mpmath``, which
only ``dynamics`` imports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, get_args, get_type_hints

from .audit import audit as run_audit
from .audit import window as window_of
from .cf import IrrationalSpec, convergent, gap_bounds_check
from .cocycle import CocycleSpec, eval_level, make_cocycle, phi, phi_m, birkhoff, term
from .errors import BesicovError, InvariantBroken, ValidationFailure
from .levels import Profile, profile_to_dict, select_levels, validate_levels
from .targets import (
    FAMILY_CODES,
    canonical_family,
    family_kind,
    interval_row,
    interval_rows,
    sample_point,
)

USAGE_ERROR = 1
CERT_FAILURE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no besicov flag looks like a number, so "-1/7" or "-3:3" is a value
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse exits 2 by default; the contract is 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def parse_alpha(text: str) -> IrrationalSpec:
    """--alpha accepts golden | sqrt2m1 | quotients=a1,a2,... | periodic=head;tail."""
    if text in ("golden", "sqrt2m1"):
        return IrrationalSpec.from_preset(text)
    kind, eq, body = text.partition("=")
    if not eq or kind not in ("quotients", "periodic"):
        raise ValueError(f"cannot parse --alpha {text!r}")
    head_s, _, tail_s = body.partition(";") if kind == "periodic" else ("", "", body)
    try:
        head = tuple(int(v) for v in head_s.split(",") if v)
        tail = tuple(int(v) for v in tail_s.split(",") if v)
        return IrrationalSpec(head=(0,) + head, tail=tail)
    except ValueError as e:
        raise ValueError(f"--alpha {text!r}: {e}") from None


def parse_rational(text: str, flag: str) -> Fraction:
    """A rational flag value such as 3/7; ``flag`` names it in the error."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} expects a rational like 3/7, got {text!r}") from None


def _flag(
    default,
    *,
    on: Optional[tuple[str, ...]] = None,
    only: Optional[tuple[str, ...]] = None,
    choices: Optional[tuple] = None,
    least: Optional[int] = None,
):
    """A RunConfig field whose flag is offered only by the subcommands ``on``
    (None: by every subcommand), read only in the modes ``only`` (see
    :func:`_mode`; None: in every mode), and only takes ``choices``, or
    integers from ``least`` up."""
    return field(default=default,
                 metadata={"on": on, "only": only, "choices": choices, "least": least})


#: The subcommands that read a group of flags (_TABLE: all but probe, always JSON).
_PROFILE = ("levels", "eval", "sum", "target", "audit", "dimension", "orbit", "probe")
_COCYCLE = ("eval", "sum", "audit", "orbit", "probe")
_M_VALUES = ("sum", "audit")
_SAMPLE = ("target", "audit")
_MPF = ("orbit", "probe")
_TABLE = ("cf", "levels", "eval", "sum", "target", "audit", "dimension", "orbit")
#: Modes, as :func:`_mode` names them, that some flags are read in only.
_SENSITIVITY = "probe --kind sensitivity"
_COVERAGE = "probe --kind coverage"
_NONRECURRENCE = "probe --kind nonrecurrence"
_BOX = "dimension --box"
_SAMPLED = "target --depth"
_ONE_ROW = "target --j"
_ALL_ROWS = "target without --depth or --j"


@dataclass
class RunConfig:
    """Everything a subcommand needs, merged from defaults, --config, flags.

    Each field is one flag, ``--name-with-dashes``: its type hint gives the
    argparse type (bool: a switch) and the JSON types --config takes, and the
    field order is the flag order of every --help page.
    """

    alpha: str = "golden"
    strategy: str = _flag("greedy", on=_PROFILE, choices=("fixed", "greedy"))
    variant: str = _flag("main", on=_PROFILE, choices=("main", "tent"))
    n: int = _flag(4, on=_PROFILE, least=1)
    depth: Optional[int] = _flag(None, on=_SAMPLE)
    alpha_depth: Optional[int] = _flag(None, on=_COCYCLE, least=1)
    trunc: Optional[int] = _flag(None, on=_COCYCLE, least=1)
    precision_bits: int = _flag(128, on=_MPF, least=64)
    family: str = _flag("pp", on=("target", "audit", "dimension"), choices=tuple(FAMILY_CODES))
    x: Optional[str] = _flag(None, on=("eval", "sum", "orbit", "probe"))
    seed: int = _flag(0, on=("probe",), only=(_SENSITIVITY,))
    out: str = _flag("csv", on=_TABLE, choices=("csv", "json"))
    config: Optional[str] = None  # the --config file itself, never a key in it
    upto: int = _flag(10, on=("cf",), least=0)
    check: bool = _flag(False, on=("cf",))
    m: Optional[int] = _flag(None, on=_M_VALUES, only=_M_VALUES)
    m_range: Optional[str] = _flag(None, on=_M_VALUES)
    level: int = _flag(1, on=("target",), only=(_ONE_ROW, _ALL_ROWS))
    j: Optional[int] = _flag(None, on=("target",), only=(_ONE_ROW, _ALL_ROWS))
    policy: str = _flag("center", on=_SAMPLE, only=(_SAMPLED, "audit", "audit --m-range"),
                        choices=("center", "leftmost"))
    max_rows: int = _flag(100000, on=("target",), only=(_ALL_ROWS,))
    mode: str = _flag("formula", on=("dimension",), choices=("formula", "measured"))
    kind: str = _flag("sensitivity", on=("probe",),
                      choices=("sensitivity", "nonrecurrence", "coverage", "classify"))
    eps: str = _flag("1/10", on=("probe",), only=(_SENSITIVITY, _NONRECURRENCE))
    delta: str = _flag("1/1000", on=("probe",), only=(_SENSITIVITY,))
    horizon: int = _flag(1000, on=("probe",), least=1)
    grid: int = _flag(1000, on=("dimension", "probe"), only=(_BOX, _COVERAGE), least=1)
    box: bool = _flag(False, on=("dimension",))
    box_level: int = _flag(1, on=("dimension",), only=(_BOX,))
    height: str = _flag("3", on=("probe",), only=(_COVERAGE,))
    samples: int = _flag(8, on=("probe",), only=(_SENSITIVITY,), least=1)
    t0: str = _flag("0", on=_MPF, only=("orbit", _NONRECURRENCE, _COVERAGE))
    steps: int = _flag(100, on=("orbit",), least=1)
    store_every: int = _flag(1, on=("orbit",), least=1)

    def spec(self) -> IrrationalSpec:
        return parse_alpha(self.alpha)

    def profile(self) -> Profile:
        return select_levels(self.spec(), self.strategy, self.variant, self.n)

    def point(self) -> Fraction:
        """The --x value, for the subcommands that cannot run without one."""
        if self.x is None:
            raise ValueError("--x is required")
        return parse_rational(self.x, "--x")

    def cocycle(self) -> CocycleSpec:
        spec = self.spec()
        try:
            return make_cocycle(spec, self.strategy, self.variant, self.n,
                                n_levels=self.trunc, alpha_depth=self.alpha_depth)
        except ValueError as e:  # with the counts checked, only a shallow alpha_depth
            if self.alpha_depth is None:
                raise
            raise UsageError(f"--alpha-depth {self.alpha_depth}: {e}") from None

    def m_values(self) -> list[int]:
        if self.m_range:
            lo_s, _, hi_s = self.m_range.partition(":")
            bad = UsageError(
                f"--m-range expects lo:hi integers with lo <= hi, got {self.m_range!r}"
            )
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise bad from None
            if lo > hi:
                raise bad
            return list(range(lo, hi + 1))
        if self.m is None:
            raise ValueError("provide --m or --m-range lo:hi")
        return [self.m]


def _mode(command: str, cfg: RunConfig) -> str:
    """The mode of a run, named as its argv selects it; the ``only`` of a
    RunConfig flag lists the modes that read it."""
    if command == "probe":
        return f"probe --kind {cfg.kind}"
    if command == "dimension":
        return _BOX if cfg.box else "dimension without --box"
    if command == "target":
        if cfg.depth is not None:
            return _SAMPLED
        return _ONE_ROW if cfg.j is not None else _ALL_ROWS
    if command in _M_VALUES and cfg.m_range:
        return f"{command} --m-range"
    return command


def _emit_csv(rows: list[dict], stream) -> None:
    if not rows:
        stream.write("\n")
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _emit(cfg: RunConfig, rows: list[dict], payload: dict, stream) -> None:
    if cfg.out == "json":
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        _emit_csv(rows, stream)


# ---------------------------------------------------------------- subcommands


def cmd_cf(cfg: RunConfig, stream) -> int:
    spec = cfg.spec()
    rows = []
    for n in range(cfg.upto + 1):
        c = convergent(spec, n)
        row = {"n": n, "p": str(c.p), "q": str(c.q), "side": "below" if c.sign > 0 else "above"}
        if cfg.check:
            row["gap_ok"] = gap_bounds_check(spec, n).passed if n >= 1 else ""
        rows.append(row)
    _emit(cfg, rows, {"convergents": rows}, stream)
    if cfg.check and any(r["gap_ok"] is False for r in rows):
        return CERT_FAILURE
    return 0


def cmd_levels(cfg: RunConfig, stream) -> int:
    profile = cfg.profile()
    report = validate_levels(profile)
    profile_dict = profile_to_dict(profile)
    payload = {"profile": profile_dict, "validation": report.as_dict()}
    _emit(cfg, profile_dict["levels"], payload, stream)
    if not report.passed:
        print(f"validation failed: {report.first_failure()}", file=sys.stderr)
        return CERT_FAILURE
    return 0


def cmd_eval(cfg: RunConfig, stream) -> int:
    x = cfg.point() % 1
    cspec = cfg.cocycle()
    rows = []
    for lv in cspec.levels:
        value = eval_level(lv, cspec.variant, x)
        t = term(lv, cspec.variant, x, cspec.alpha_hat)
        rows.append({"l": lv.n, "f_l": str(value), "term": str(t)})
    total = phi(cspec, x)
    payload = {
        "x": str(x),
        "levels": rows,
        "phi": str(total),
        "tail_bound": str(cspec.tail_bound),
        "alpha_depth": cspec.alpha_depth,
    }
    rows.append({"l": "phi", "f_l": "", "term": str(total)})
    _emit(cfg, rows, payload, stream)
    return 0


def cmd_sum(cfg: RunConfig, stream) -> int:
    x = cfg.point() % 1
    cspec = cfg.cocycle()
    rows = []
    ok = True
    for m in cfg.m_values():
        a = phi_m(cspec, x, m)
        b = birkhoff(cspec, x, m)
        ok = ok and a == b
        rows.append({"m": m, "phi_m": str(a), "birkhoff": str(b), "equal": a == b})
    _emit(cfg, rows, {"x": str(x), "sums": rows}, stream)
    return 0 if ok else CERT_FAILURE


def _check_level(flag: str, value: int, profile: Profile) -> int:
    """The value of a flag that names a level of ``profile``."""
    if not 1 <= value <= profile.n_max:
        raise UsageError(f"{flag} must be in 1..{profile.n_max}, got {value}")
    return value


def cmd_target(cfg: RunConfig, stream) -> int:
    profile = cfg.profile()
    fam = canonical_family(cfg.family)
    if cfg.depth is not None:
        depth = _check_level("--depth", cfg.depth, profile)
        x, path = sample_point(profile, fam, cfg.policy, depth)
        payload = {
            "family": fam,
            "x": str(x),
            "indices": list(path.indices),
            "reductions": [str(r) for r in path.reductions],
        }
        rows = [{"family": fam, "depth": path.depth, "x": str(x),
                 "indices": " ".join(map(str, path.indices))}]
        _emit(cfg, rows, payload, stream)
        return 0
    n = _check_level("--level", cfg.level, profile)
    lv = profile.level(n)
    if cfg.j is not None:
        if not 0 <= cfg.j < lv.cell_count:
            raise UsageError(f"--j must be in 0..{lv.cell_count - 1} at level {n}, got {cfg.j}")
        rows = [interval_row(profile, fam, n, cfg.j)]
    else:
        if lv.cell_count > cfg.max_rows:
            raise ValueError(
                f"level {n} has {lv.cell_count} intervals; pass --j or raise --max-rows"
            )
        rows = list(interval_rows(profile, fam, n))
    _emit(cfg, rows, {"intervals": rows}, stream)
    return 0


def cmd_audit(cfg: RunConfig, stream) -> int:
    cspec = cfg.cocycle()
    fam = canonical_family(cfg.family)
    kind = family_kind(fam)
    ms = [m for m in cfg.m_values() if m != 0]
    if not ms:
        raise ValueError("no nonzero m requested")
    n_needed = max(
        window_of(cspec.profile, kind, m, n_limit=cspec.n_levels).n for m in ms
    )
    if cfg.depth is None:
        depth = min(cspec.n_levels, n_needed + (3 if kind == "mixed" else 2))
    else:
        depth = _check_level("--depth", cfg.depth, cspec.profile)
    _, path = sample_point(cspec.profile, fam, cfg.policy, depth)
    reports = [run_audit(cspec, path, m) for m in ms]
    rows = [r for rep in reports for r in rep.csv_rows()]
    payload = {"reports": [rep.as_dict() for rep in reports]}
    _emit(cfg, rows, payload, stream)
    if any(rep.status == "fail" for rep in reports):
        return CERT_FAILURE
    return 0


def cmd_dimension(cfg: RunConfig, stream) -> int:
    from . import dimension as dim_mod

    profile = cfg.profile()
    fam = canonical_family(cfg.family)
    if cfg.box:
        _check_level("--box-level", cfg.box_level, profile)
        if cfg.grid < 3:
            raise UsageError(f"--grid must be >= 3 for --box (two distinct grids), got {cfg.grid}")
    stats = dim_mod.nesting_stats(profile, mode=cfg.mode, family=fam)
    bounds = dim_mod.falconer_bounds(stats)
    rows = dim_mod.nesting_rows_csv(stats, bounds)
    payload: dict = {
        "mode": cfg.mode,
        "rows": rows,
        "product_set_dimension": None,
    }
    finite = [b for b in bounds.rows if b.lower is not None]
    if finite:
        best = finite[-1]
        payload["product_set_dimension"] = f"{1 + float(best.lower.mid):.12g}"
    if cfg.box:
        res = dim_mod.box_count(profile, fam, cfg.box_level, cfg.grid)
        payload["box"] = {
            "counts": [[g, c] for g, c in res.counts],
            "slope": f"{res.slope:.12g}",
        }
    _emit(cfg, rows, payload, stream)
    return 0


def cmd_orbit(cfg: RunConfig, stream) -> int:
    from . import dynamics as dyn_mod

    x = cfg.point()
    cspec = cfg.cocycle()
    marks = range(0, cfg.steps + 1, cfg.store_every)
    rec = dyn_mod.orbit(
        cspec,
        x,
        parse_rational(cfg.t0, "--t0"),
        steps=cfg.steps,
        precision_bits=cfg.precision_bits,
        store_every=cfg.store_every,
        checkpoints=marks,
    )
    bits = cfg.precision_bits
    rows = []
    for i in marks:
        xi = (x + i * cspec.alpha_hat) % 1
        x_text = dyn_mod._decimal(dyn_mod._ratio(xi.numerator, xi.denominator, bits), bits)
        rows.append({"step": i, "x": x_text, "t": rec.checkpoints[i]})
    payload = {
        "steps": rec.steps,
        "precision_bits": rec.precision_bits,
        "error_bound": f"{rec.error_bound_float():.6g}",
        "points": rows,
    }
    _emit(cfg, rows, payload, stream)
    return 0


def cmd_probe(cfg: RunConfig, stream) -> int:
    from . import dynamics as dyn_mod

    cspec = cfg.cocycle()
    x = Fraction(1, 4) if cfg.x is None else parse_rational(cfg.x, "--x")
    if cfg.kind == "sensitivity":
        res = dyn_mod.sensitivity_probe(
            cspec,
            x,
            parse_rational(cfg.delta, "--delta"),
            parse_rational(cfg.eps, "--eps"),
            cfg.horizon,
            samples=cfg.samples,
            seed=cfg.seed,
            precision_bits=cfg.precision_bits,
        )
    elif cfg.kind == "nonrecurrence":
        res = dyn_mod.nonrecurrence_test(
            cspec,
            x,
            parse_rational(cfg.t0, "--t0"),
            parse_rational(cfg.eps, "--eps"),
            cfg.horizon,
            precision_bits=cfg.precision_bits,
        )
    elif cfg.kind == "coverage":
        height = parse_rational(cfg.height, "--height")
        if height <= 0:
            raise UsageError(f"--height must be > 0, got {cfg.height!r}")
        rec = dyn_mod.orbit(
            cspec, x, parse_rational(cfg.t0, "--t0"), steps=cfg.horizon,
            precision_bits=cfg.precision_bits,
        )
        frac = dyn_mod.coverage(rec, float(height), cfg.grid)
        res = dyn_mod.ProbeResult(
            kind="coverage",
            params={"horizon": cfg.horizon, "grid": cfg.grid, "height": cfg.height,
                    "x": str(x % 1)},
            outcome=f"{frac:.6f}",
            error_bound=rec.error_bound_float(),
        )
    elif cfg.kind == "classify":
        label = dyn_mod.classify_orbit(cspec, x, cfg.horizon, precision_bits=cfg.precision_bits)
        res = dyn_mod.ProbeResult(
            kind="classification",
            params={"horizon": cfg.horizon, "x": str(x % 1)},
            outcome=label,
        )
    else:
        raise ValueError(f"unknown probe kind {cfg.kind!r}")
    json.dump(res.as_dict(), stream, indent=2, sort_keys=True)
    stream.write("\n")
    return 0


#: Subcommands in --help order: handler and help line.
COMMANDS = {
    "cf": (cmd_cf, "convergent table"),
    "levels": (cmd_levels, "level profile and validation certificates"),
    "eval": (cmd_eval, "cocycle values at a point"),
    "sum": (cmd_sum, "phi_m / birkhoff cross-check"),
    "target": (cmd_target, "interval tables and certified samples"),
    "audit": (cmd_audit, "divergence reports"),
    "dimension": (cmd_dimension, "nesting stats and dimension bounds"),
    "orbit": (cmd_orbit, "simulate the cylinder map"),
    "probe": (cmd_probe, "chaos diagnostics"),
}

#: Allowed Python types of each RunConfig field (Optional[int] allows int and None).
_TYPES = {key: get_args(hint) or (hint,) for key, hint in get_type_hints(RunConfig).items()}
_JSON_NAMES = {bool: "true/false", int: "an integer", str: "a string", type(None): "null"}
_CHOICES = {f.name: f.metadata.get("choices") for f in fields(RunConfig)}
_LEAST = {f.name: f.metadata.get("least") for f in fields(RunConfig)}
_ONLY = {f.name: f.metadata.get("only") for f in fields(RunConfig)}

#: What ``besicov --help`` says above the list of subcommands.
DESCRIPTION = (
    "Build Besicovitch cylinder cocycles over irrational rotations and "
    "certify them in exact arithmetic: convergents, level profiles, cocycle "
    "values and ergodic sums, target sets, divergence audits and dimension "
    "bounds, with orbit simulations and chaos probes in floating point. "
    "Each subcommand takes only the flags it reads (see besicov <command> "
    "--help) and --config FILE, a JSON object of flag names; explicit flags "
    "win. Exit codes: 0 success, 1 usage error, 2 certificate failure."
)


def build_parser() -> _Parser:
    p = _Parser(prog="besicov", description=DESCRIPTION)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for f in fields(RunConfig):
            on, choices = f.metadata.get("on"), f.metadata.get("choices")
            if on is not None and name not in on:
                continue
            flag, kind = "--" + f.name.replace("_", "-"), _TYPES[f.name][0]
            if kind is bool:
                sp.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
            else:
                sp.add_argument(flag, type=kind, choices=choices, default=argparse.SUPPRESS)
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file's keys, then the flags given."""
    cfg = RunConfig()
    file_vals: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_vals = json.load(fh)
        if not isinstance(file_vals, dict):
            raise UsageError("--config expects a JSON object of flag names")
    for key, value in file_vals.items():
        if key not in _TYPES or key == "config":
            raise UsageError(f"unknown --config key {key!r}")
        if type(value) not in _TYPES[key]:  # bool is not taken for int
            expected = " or ".join(_JSON_NAMES.get(t, t.__name__) for t in _TYPES[key])
            raise UsageError(f"--config key {key!r} expects {expected}, got {value!r}")
        if _CHOICES[key] and value not in _CHOICES[key]:
            choices = ", ".join(_CHOICES[key])
            raise UsageError(f"--config key {key!r} expects one of {choices}, got {value!r}")
        setattr(cfg, key, value)
    explicit = [key for key in vars(args) if key != "command"]
    for key in explicit:
        setattr(cfg, key, getattr(args, key))
    mode = _mode(args.command, cfg)
    for key in explicit:
        if _ONLY[key] is not None and mode not in _ONLY[key]:
            raise UsageError(f"--{key.replace('_', '-')} is not read by {mode}")
    for key, least in _LEAST.items():
        value = getattr(cfg, key)
        if least is not None and value is not None and value < least:
            raise UsageError(f"--{key.replace('_', '-')} must be >= {least}, got {value}")
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        out = io.StringIO()
        code = COMMANDS[args.command][0](cfg, out)
        sys.stdout.write(out.getvalue())
        return code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ValidationFailure, InvariantBroken) as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return CERT_FAILURE
    except (BesicovError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
