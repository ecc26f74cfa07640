"""CLI surface: flags, outputs, exit codes, determinism."""

import argparse
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import besicov
from besicov import cli
from besicov.cli import (
    COMMANDS, RunConfig, _mode, build_parser, config_from_args, main, parse_alpha,
)
from besicov.levels import LevelParams, Profile
from besicov.targets import FAMILY_CODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cf_table(capsys):
    code, out, _ = run(capsys, "cf", "--alpha", "golden", "--upto", "10", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,q,side"
    assert len(lines) == 12
    qs = [line.split(",")[2] for line in lines[1:]]
    assert qs == ["1", "1", "2", "3", "5", "8", "13", "21", "34", "55", "89"]


def test_levels_fixed_golden(capsys):
    code, out, _ = run(
        capsys, "levels", "--alpha", "golden", "--strategy", "fixed", "--n", "3",
        "--out", "csv",
    )
    assert code == 0
    ks = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert ks == ["5", "17", "37"]


def test_integers_past_the_str_digit_cap(capsys):
    """Decimal strings of any length go in and out: ``main`` lifts Python's
    4300-digit cap on int <-> str conversion for the call, and restores it."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "levels", "--strategy", "fixed", "--n", "75", "--out", "csv")
    assert code == 0, err
    assert len(out.strip().splitlines()[-1].split(",")[3]) > 4300  # q of level 75
    code, _, err = run(capsys, "sum", "--x", f"1/1{'0' * 4398}1", "--m", "1")
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_sum_prints_identical_rationals(capsys):
    code, out, _ = run(
        capsys, "sum", "--alpha", "golden", "--variant", "tent", "--x", "1/7",
        "--m", "25", "--out", "csv",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == row[2] and row[3] == "True"


def test_target_sample_json(capsys):
    code, out, _ = run(
        capsys, "target", "--alpha", "golden", "--family", "pp", "--depth", "3",
        "--out", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "++" and len(data["indices"]) == 3


def test_audit_csv_and_exit(capsys):
    code, out, _ = run(capsys, "audit", "--alpha", "golden", "--family", "pp", "--m", "1")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "m,n_of_m,l,term,sign,bound,pass"


def test_audit_refuses_aligned_family_on_tent(capsys):
    code, out, err = run(capsys, "audit", "--variant", "tent", "--m", "11")
    assert code == 1 and out == ""
    assert err == "error: aligned family ++ is not certified on the tent variant\n"


def test_dimension_table(capsys):
    code, out, _ = run(
        capsys, "dimension", "--alpha", "golden", "--strategy", "greedy", "--n", "4",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,delta,epsilon,m,mbar,lower,upper,closed_lower,closed_upper"


def test_orbit_csv(capsys):
    code, out, _ = run(
        capsys, "orbit", "--alpha", "golden", "--variant", "tent", "--n", "3",
        "--x", "1/7", "--steps", "3",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_probe_json_deterministic(capsys):
    argv = (
        "probe", "--kind", "classify", "--alpha", "golden", "--variant", "tent",
        "--n", "4", "--x", "0", "--horizon", "150",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["kind"] == "classification"


def test_usage_error_is_exit_one(capsys):
    code, _, err = run(capsys, "cf", "--bogus")
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 1 and "--x" in err
    code, _, err = run(capsys, "sum", "--x", "1/7")
    assert code == 1 and err == "error: provide --m or --m-range lo:hi\n"
    code, _, err = run(capsys, "audit", "--m", "0")  # m = 0 alone leaves no m to audit
    assert code == 1 and err == "error: no nonzero m requested\n"


def test_run_config_passes_on_cocycle_errors_that_alpha_depth_did_not_cause():
    # the CLI refuses --n 0 before this; a RunConfig built in code reaches make_cocycle
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        RunConfig(n=0).cocycle()


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": "golden", "upto": 4, "out": "csv"}))
    code, out, _ = run(capsys, "cf", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"upto": 4}))
    code, out, _ = run(capsys, "cf", "--config", str(cfg), "--upto", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_byte_identical_reruns(capsys):
    argv = ("audit", "--alpha", "golden", "--variant", "tent", "--n", "6",
            "--trunc", "6", "--family", "mp", "--m-range", "83:85", "--out", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_certificate_failure_exit_two(capsys, monkeypatch):
    import besicov.levels as levels_mod

    select_levels = levels_mod.select_levels

    def tampered(spec, strategy, variant, n_max):
        good = select_levels(spec, strategy, variant, n_max)
        lv = good.levels[-1]
        bad = LevelParams(n=lv.n, k=lv.k, p=lv.p, q=lv.q, q_next=lv.q_next, a=lv.a + 1)
        return Profile(
            alpha=good.alpha, strategy=good.strategy, variant=good.variant,
            n_max=good.n_max, levels=good.levels[:-1] + (bad,),
        )

    monkeypatch.setattr(levels_mod, "select_levels", tampered)  # RunConfig.profile's lookup
    code, _, err = run(capsys, "levels", "--alpha", "golden", "--n", "3")
    assert code == 2
    assert "failed" in err


def test_failed_audit_exits_two_with_its_report(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("besicov.audit"), "_offset_ok", lambda *args: False)
    code, out, _ = run(capsys, "audit", "--alpha", "golden", "--family", "pp", "--m", "1",
                       "--out", "json")
    assert code == 2
    assert [r["status"] for r in json.loads(out)["reports"]] == ["fail"]


def test_failed_gap_check_exits_two_with_its_table(capsys, monkeypatch):
    cf_mod = importlib.import_module("besicov.cf")
    real = cf_mod.certify_offset
    monkeypatch.setattr(cf_mod, "certify_offset", lambda *args: (False, *real(*args)[1:]))
    code, out, _ = run(capsys, "cf", "--alpha", "golden", "--upto", "3", "--check", "--out", "json")
    assert code == 2
    assert [r["gap_ok"] for r in json.loads(out)["convergents"]] == ["", False, False, False]


@pytest.mark.parametrize(
    "module, name, broken, argv",
    [
        ("besicov.certlog", "_atanh_ends",
         lambda real: lambda a, b: (real(a, b)[0], real(a, b)[1] + (1 << 40)),
         ("dimension", "--n", "3")),
        ("besicov.dimension", "_count_range", lambda real: lambda *args: (0, 10**9),
         ("dimension", "--mode", "measured", "--n", "3")),
    ],
)
def test_broken_invariant_is_a_certificate_failure(capsys, monkeypatch, module, name, broken, argv):
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, name, broken(getattr(mod, name)))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("certificate failure: ") and "Traceback" not in err


def test_parse_alpha_forms():
    assert parse_alpha("golden").tail == (1,)
    assert parse_alpha("quotients=2,3").tail == (2, 3)
    spec = parse_alpha("periodic=4;1,2")
    assert spec.head == (0, 4) and spec.tail == (1, 2)
    with pytest.raises(ValueError):
        parse_alpha("0.618")
    for bad in ("quotients=a", "quotients=1,,x", "periodic=1,x;2"):
        with pytest.raises(ValueError, match=f"--alpha '{bad}'"):
            parse_alpha(bad)


def test_eval_csv_totals(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "golden", "--x", "3/7", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,f_l,term"
    assert lines[-1].startswith("phi,,")


def test_target_level_defaults_to_one(capsys):
    _, default, _ = run(capsys, "target", "--alpha", "golden", "--n", "3")
    _, first, _ = run(capsys, "target", "--alpha", "golden", "--n", "3", "--level", "1")
    assert default == first and default.splitlines()[1].startswith("1,0,")


def test_target_single_interval(capsys):
    code, out, _ = run(
        capsys, "target", "--alpha", "golden", "--family", "mp", "--level", "2",
        "--j", "17",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "2" and row[1] == "17"


def test_dimension_measured_json(capsys):
    code, out, _ = run(
        capsys, "dimension", "--alpha", "golden", "--n", "2", "--mode", "measured",
        "--out", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "measured"
    assert data["rows"][1]["m"] == "5"


def test_orbit_json_error_bound(capsys):
    code, out, _ = run(
        capsys, "orbit", "--alpha", "golden", "--variant", "tent", "--n", "3",
        "--x", "1/7", "--steps", "4", "--out", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["steps"] == 4 and float(data["error_bound"]) < 1e-20


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--x", ("eval", "--x", "1/0")),
        ("--eps", ("probe", "--kind", "nonrecurrence", "--x", "1/7", "--eps", "1/0")),
        ("--delta", ("probe", "--kind", "sensitivity", "--delta", "1/0")),
        ("--t0", ("orbit", "--x", "1/7", "--t0", "1/0")),
        ("--height", ("probe", "--kind", "coverage", "--horizon", "10", "--height", "1/0")),
        ("--trunc", ("eval", "--x", "3/7", "--trunc", "0")),
        ("--upto", ("cf", "--upto", "-1")),
        ("--m-range", ("sum", "--x", "1/7", "--m-range", "5")),
        ("--m-range", ("sum", "--x", "1/7", "--m-range", "5:3")),
        ("--store-every", ("orbit", "--x", "1/7", "--store-every", "0")),
        ("--level", ("target", "--level", "0")),
        ("--level", ("target", "--level", "0", "--j", "0")),
        ("--level", ("target", "--n", "3", "--level", "4")),
        ("--alpha", ("cf", "--alpha", "quotients=a")),
        ("--alpha", ("cf", "--alpha", "quotients=1,,x")),
        ("--alpha", ("cf", "--alpha", "periodic=1,x;2")),
        ("--j", ("target", "--level", "2", "--j", "-1")),
        ("--box-level", ("dimension", "--box", "--box-level", "9")),
        ("--grid", ("dimension", "--box", "--grid", "0")),
        ("--depth", ("audit", "--m", "1", "--depth", "0")),
        ("--depth", ("audit", "--m", "1", "--depth", "8")),
        ("--depth", ("target", "--depth", "0")),
        ("--depth", ("target", "--n", "3", "--depth", "4")),
        ("--height", ("probe", "--kind", "coverage", "--horizon", "10", "--height", "0")),
        ("--height", ("probe", "--kind", "coverage", "--horizon", "10", "--height", "-1")),
        ("--horizon", ("probe", "--kind", "classify", "--horizon", "0")),
        ("--horizon", ("probe", "--kind", "coverage", "--horizon", "0")),
        ("--horizon", ("probe", "--kind", "nonrecurrence", "--horizon", "-1")),
        ("--horizon", ("probe", "--kind", "sensitivity", "--horizon", "0")),
        ("--samples", ("probe", "--kind", "sensitivity", "--samples", "0")),
        ("--n", ("eval", "--x", "1/3", "--n", "0")),
        ("--n", ("eval", "--x", "1/3", "--n", "-2")),
        ("--n", ("sum", "--x", "1/3", "--m", "2", "--n", "0")),
        ("--n", ("orbit", "--x", "1/3", "--n", "0")),
        ("--n", ("audit", "--m", "1", "--n", "0")),
        ("--n", ("levels", "--n", "0")),
        ("--steps", ("orbit", "--x", "1/7", "--steps", "0")),
        ("--precision-bits", ("orbit", "--x", "1/7", "--precision-bits", "10")),
        ("--precision-bits", ("probe", "--kind", "classify", "--precision-bits", "10")),
        ("--grid", ("probe", "--kind", "coverage", "--horizon", "10", "--grid", "0")),
        ("--x", ("probe", "--kind", "classify", "--x=", "--horizon", "10")),
        ("--alpha-depth", ("eval", "--x", "1/3", "--alpha-depth", "-1")),
        ("--alpha-depth", ("eval", "--x", "1/3", "--alpha-depth", "0")),
        ("--alpha-depth", ("eval", "--x", "1/3", "--alpha-depth", "3")),
        ("--max-rows", ("target", "--n", "2", "--max-rows", "-1")),
        ("--max-rows", ("target", "--level", "3", "--max-rows", "10")),
        ("--grid", ("dimension", "--box", "--grid", "2")),
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert flag in err and "Traceback" not in err


def _cold(*argv):
    """``besicov`` in a fresh process with a timeout, so a probe that loops
    fails the test instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(besicov.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "besicov.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_flag_types_follow_the_annotations():
    hints = get_type_hints(RunConfig)
    assert cli._TYPES == {key: get_args(hint) or (hint,) for key, hint in hints.items()}


def test_runpy_main_prints_what_main_prints(capsys):
    """Run as ``__main__`` through runpy, whose ``sys.modules['__main__']`` is
    the calling script, the module still builds its flag table."""
    argv = ["cf", "--upto", "3"]
    env = dict(os.environ, PYTHONPATH=str(Path(besicov.__file__).parents[1]))
    code = "import runpy; runpy.run_module('besicov.cli', run_name='__main__')"
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, env=env, timeout=60)
    assert main(argv) == 0
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "argv, message",
    [
        # every random offset k/2^20 * delta is a whole turn, so y == x always
        (("--kind", "sensitivity", "--delta", "1048576"), "delta must not be a multiple of 2^20"),
        (("--kind", "sensitivity", "--delta", "1e400"), "delta must not be a multiple of 2^20"),
        (("--kind", "nonrecurrence", "--eps", "-1/10"), "eps must be positive"),
        (("--kind", "nonrecurrence", "--eps", "0"), "eps must be positive"),
    ],
)
def test_probe_inputs_that_cannot_run_exit_1(argv, message):
    proc = _cold("probe", *argv, "--horizon", "5")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {message}") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("delta", ["1", "1048575", "2097151/2"])
def test_sensitivity_runs_for_a_delta_off_the_offset_grid(delta):
    proc = _cold("probe", "--kind", "sensitivity", "--delta", delta, "--horizon", "5")
    assert proc.returncode == 0 and json.loads(proc.stdout)["kind"] == "sensitivity"


def test_negative_values_after_a_space(capsys):
    code, out, _ = run(capsys, "sum", "--x", "-1/7", "--m", "3", "--out", "json")
    assert code == 0 and json.loads(out)["x"] == "6/7"
    code, out, _ = run(capsys, "sum", "--x", "1/7", "--m-range", "-3:3")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [str(m) for m in range(-3, 4)]
    code, out, _ = run(capsys, "orbit", "--x", "1/7", "--t0", "-1/2", "--steps", "1")
    assert code == 0 and out.splitlines()[1].endswith(",-0.5")


def test_number_in_place_of_a_flag_is_a_usage_error(capsys):
    code, out, err = run(capsys, "cf", "-5")
    assert code == 1 and out == ""
    assert "unrecognized arguments: -5" in err


@pytest.mark.parametrize(
    "key, body, command",
    [
        ("upto", {"upto": "3"}, "cf"),
        ("upto", {"upto": True}, "cf"),
        ("n", {"n": 2.5}, "levels"),
        ("n", {"n": None}, "levels"),
        ("x", {"x": 0.5}, "eval"),
        ("box", {"box": 1}, "dimension"),
        ("bogus", {"bogus": 1}, "cf"),
        ("--config", [1, 2], "cf"),
        ("out", {"out": "xml"}, "cf"),
        ("strategy", {"strategy": "lazy"}, "levels"),
        ("variant", {"variant": "flat"}, "levels"),
        ("policy", {"policy": "middle"}, "target"),
        ("mode", {"mode": "guess"}, "dimension"),
        ("family", {"family": "++"}, "target"),
    ],
)
def test_bad_config_values_are_usage_errors(tmp_path, capsys, key, body, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert key in err and "--config" in err and "Traceback" not in err


def test_config_takes_null_for_optional_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"upto": 3, "depth": None, "check": True}))
    code, out, _ = run(capsys, "cf", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def _offered(cmd):
    """The RunConfig fields whose flags ``cmd`` offers."""
    return [f for f in fields(RunConfig) if f.metadata.get("reads") is None
            or cmd in {r.split()[0] for r in f.metadata["reads"]}]


def _mode_reads(cmd, mode):
    """The fields that ``cmd`` offers and, by their ``reads``, reads in ``mode``."""
    return {f.name for f in _offered(cmd) if f.metadata.get("reads") is None
            or {cmd, mode} & set(f.metadata["reads"])} - {"config"}


#: Argvs that between them take every branch of a handler that reads a flag,
#: and every mode of a subcommand.
_BRANCHES = [
    ["cf", "--upto", "3", "--check"],
    ["levels", "--n", "2"],
    ["eval", "--x", "1/3", "--n", "2"],
    ["sum", "--x", "1/3", "--n", "2", "--m-range", "1:2"],
    ["sum", "--x", "1/3", "--n", "2", "--m", "2"],
    ["target", "--n", "2", "--depth", "2"],
    ["target", "--n", "2", "--j", "0"],
    ["target", "--n", "2"],
    ["dimension", "--n", "2", "--box", "--grid", "10"],
    ["dimension", "--n", "2"],
    ["audit", "--m", "1"],
    ["audit", "--m-range", "1:2"],
    ["orbit", "--x", "1/7", "--n", "2", "--steps", "2"],
] + [["probe", "--kind", kind, "--n", "2", "--horizon", "5"]
     for kind in ("sensitivity", "nonrecurrence", "coverage", "classify")]

#: A value each mode-dependent flag takes, for argvs that give it where unread.
_MODE_FLAG_VALUES = {
    "t0": "5", "seed": "9", "m": "2", "level": "2", "j": "0", "policy": "leftmost",
    "max_rows": "5", "eps": "1", "delta": "2", "grid": "7", "box_level": "2", "height": "2",
    "samples": "3",
}


def test_each_subcommand_offers_the_flags_it_reads():
    """Per subcommand, the offered flags are those some mode reads; per mode,
    the reads are those its ``reads`` declarations name, so an explicit flag,
    which must be read by the mode (next test), is always read."""
    names = {f.name for f in fields(RunConfig)}
    seen: set = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            seen.add(name)
            return super().__getattribute__(name)

    read = {cmd: set() for cmd in COMMANDS}
    modes = set()
    for argv in _BRANCHES:
        cfg = config_from_args(build_parser().parse_args(argv))
        recording = Recording(**{name: getattr(cfg, name) for name in names})
        seen.clear()
        assert COMMANDS[argv[0]][0](recording, io.StringIO()) == 0, argv
        mode = _mode(argv[0], cfg)
        modes.add(mode)
        assert seen & names == _mode_reads(argv[0], mode), argv
        read[argv[0]] |= seen & names
    assert read == {cmd: {f.name for f in _offered(cmd)} - {"config"} for cmd in COMMANDS}
    declared = {m for f in fields(RunConfig) for m in f.metadata.get("reads") or ()}
    assert declared <= modes | set(COMMANDS)


@pytest.mark.parametrize("argv", _BRANCHES, ids=" ".join)
def test_an_explicit_flag_its_mode_does_not_read_is_a_usage_error(capsys, argv):
    mode = _mode(argv[0], config_from_args(build_parser().parse_args(argv)))
    unread = {f.name for f in _offered(argv[0])} - {"config"} - _mode_reads(argv[0], mode)
    for name in sorted(unread):
        flag = "--" + name.replace("_", "-")
        code, out, err = run(capsys, *argv, flag, _MODE_FLAG_VALUES[name])
        assert (code, out) == (1, ""), (argv, flag)
        assert err.endswith(f"usage error: {flag} is not read by {mode}\n"), err


def test_config_keys_are_not_held_to_the_mode(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 9, "grid": 7, "box_level": 2, "policy": "leftmost"}))
    quiet = [run(capsys, *argv)[:2] for argv in (["probe", "--kind", "classify", "--n", "2",
                                                  "--horizon", "5"], ["dimension", "--n", "2"])]
    loud = [run(capsys, *argv, "--config", str(cfg))[:2]
            for argv in (["probe", "--kind", "classify", "--n", "2", "--horizon", "5"],
                         ["dimension", "--n", "2"])]
    assert loud == quiet and all(code == 0 for code, _ in quiet)


# ------------------------------------------------------------ generated argv

def test_family_choices_are_the_family_codes():
    family = next(f for f in fields(RunConfig) if f.name == "family")
    assert family.metadata["choices"] == tuple(FAMILY_CODES)


def _flags_by_subcommand(parser) -> dict[str, set[str]]:
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in sp._actions for s in a.option_strings}
            for name, sp in subparsers.choices.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_subcommands_parser_has_its_flags_only(command):
    full, one = build_parser(), build_parser(command)
    assert one.format_help() == full.format_help()
    want = {name: {"-h", "--help"} for name in COMMANDS}
    want[command] = _flags_by_subcommand(full)[command]
    assert _flags_by_subcommand(one) == want


#: Argvs whose subcommand, if any, is not their first token, and some that
#: stop in argparse.
_PARSER_EDGES = [
    [], ["--help"], ["-h"], ["bogus"], ["--bogus", "cf", "--upto", "3"], ["-1/7", "cf"],
    ["--", "cf", "--upto", "2"], ["cf", "--help"], ["probe", "--help"], ["cf", "--upto"],
    ["levels", "--upto", "3"], ["audit", "--family", "zz", "--m", "1"],
]


@pytest.mark.parametrize("argv", _PARSER_EDGES + _BRANCHES, ids=" ".join)
def test_main_prints_what_the_parser_with_every_flag_prints(monkeypatch, argv):
    """main builds only the flags of the subcommand its first token names,
    and prints the same bytes as with every subcommand's flags."""
    built = []

    def outputs():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build_parser(command))
    got = outputs()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert got == outputs()
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]


#: Upper bounds on the integer flags whose cost grows with their value.
_INT_CAPS = {
    "n": 6, "steps": 200, "horizon": 200, "m": 200, "upto": 30, "depth": 8,
    "level": 8, "box_level": 8, "trunc": 8, "alpha_depth": 80, "grid": 2000,
    "samples": 4, "store_every": 50, "max_rows": 5000, "precision_bits": 256,
    "j": 10**4, "seed": 10**6,
}
_RATIONALS = ("1/7", "-1/7", "0", "3", "2/3", "-5/2", "1/1000")
_ALPHAS = ("golden", "sqrt2m1", "quotients=1,2", "periodic=2;1")
_JUNK = ("--bogus", "-5", "xyz", "", "--", "1/0", "-", "--n=", "--x=-1/3", "=", "--out=xml")


def _mostly(good, bad):
    """``good`` nine times in ten, ``bad`` otherwise."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def _flag_tokens(f):
    """One RunConfig flag with a value of its kind (capped), or now and then
    a value it does not take."""
    flag = "--" + f.name.replace("_", "-")
    kind = get_type_hints(RunConfig)[f.name]
    choices = f.metadata.get("choices")
    if kind is bool:
        return st.just([flag])
    if choices:
        values = st.sampled_from(choices)
    elif f.name in _INT_CAPS:
        values = st.integers(-3, _INT_CAPS[f.name]).map(str)
    elif f.name == "alpha":
        values = st.sampled_from(_ALPHAS)
    elif f.name == "m_range":
        values = st.builds(lambda lo, width: f"{lo}:{lo + width}", st.integers(-200, 200),
                           st.integers(-2, 20))
    elif f.name == "config":
        values = st.sampled_from(("no-such-file.json", "."))
    else:
        values = st.sampled_from(_RATIONALS)
    bad = st.sampled_from(("bogus", "1.5", "1/0", "", "quotients=0", "5", "a:b"))
    return _mostly(values, bad).map(lambda v: [flag, v])


#: Flags an argv may start with: values a subcommand cannot run without, so
#: that most argvs get past argument checking, and a horizon in place of
#: probe's default of 1000.  A later repeat of the flag wins.
_START = {"eval": ["--x", "1/7"], "sum": ["--x", "1/7", "--m", "3"],
          "audit": ["--m", "1"], "orbit": ["--x", "1/7"], "probe": ["--horizon", "100"]}
_ANY_TOKEN = st.one_of([_flag_tokens(f) for f in fields(RunConfig)]) | st.sampled_from(
    _JUNK).map(lambda t: [t])


def _argv_after(head):
    """Up to six more tokens: mostly flags the subcommand offers, sometimes
    any flag or a junk token."""
    part = _ANY_TOKEN
    if head and head[0] in COMMANDS:
        part = _mostly(st.one_of([_flag_tokens(f) for f in _offered(head[0])]), _ANY_TOKEN)
    return st.lists(part, max_size=6).map(lambda parts: head + [t for p in parts for t in p])


_ARGV = _mostly(
    st.sampled_from([[c] + _START.get(c, []) for c in COMMANDS]
                    + [[c] for c in COMMANDS if c != "probe"]),
    st.sampled_from([[], ["bogus"]]),
).flatmap(_argv_after)


@given(argv=_ARGV)
@settings(max_examples=80, deadline=None)
def test_generated_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    # exit 2 is a verdict: a failed audit, gap check or level validation still
    # prints the report it failed on
    assert code != 1 or (out.getvalue() == "" and err.getvalue()), argv
