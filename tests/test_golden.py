"""Golden corpus: the recorded stdout, stderr and exit code of CLI runs.

Each ``tests/golden/*.json`` holds one argv and what ``cli.main`` printed for
it: every README CLI example, every ``--help`` page at 80 columns,
argparse-level errors, the growth certificates of three more level
profiles, dimension rows on wide logarithms and float-lane rows at the edges of decimal printing.  The replay
test runs each argv again and wants the same bytes.  ``golden/results/``
holds the JSON form of library results that no CLI run prints (gap-law
certificates and discreteness scans), which the benchmark also hashes.
``PYTHONPATH=src python tests/test_golden.py`` records the cases that have
no file yet; it never rewrites an existing one.  README's
Python quick start is run as written too, so an API change cannot break it.
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from besicov import (
    IrrationalSpec, cli, discreteness_scan, gap_bounds_check, make_cocycle, sample_point,
)

GOLDEN = Path(__file__).parent / "golden"
RESULTS_DIR = GOLDEN / "results"
README = Path(__file__).parents[1] / "README.md"

#: Usage and input errors (exit 1), by file-name slug: argparse-level ones print
#: the usage line on stderr.
ERRORS = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "cf-bogus": ["cf", "--bogus"],
    "cf-out-xml": ["cf", "--out", "xml"],
    "cf-upto-missing-value": ["cf", "--upto"],
    "levels-n-abc": ["levels", "--n", "abc"],
    "levels-strategy-bad": ["levels", "--strategy", "lazy"],
    "sum-m-float": ["sum", "--x", "1/7", "--m", "1.5"],
    "target-policy-bad": ["target", "--policy", "middle"],
    "audit-family-bad": ["audit", "--family", "zz", "--m", "1"],
    "dimension-mode-bad": ["dimension", "--mode", "guess"],
    "probe-kind-bad": ["probe", "--kind", "lyapunov"],
    "orbit-steps-abc": ["orbit", "--x", "1/7", "--steps", "abc"],
    "levels-upto-not-a-levels-flag": ["levels", "--upto", "3"],
    "probe-coverage-height-1e400": ["probe", "--kind", "coverage", "--height", "1e400"],
    "probe-coverage-height-1e-400": ["probe", "--kind", "coverage", "--height", "1e-400"],
    "probe-sensitivity-eps-1e400": ["probe", "--kind", "sensitivity", "--eps", "1e400"],
    "probe-nonrecurrence-eps-1e-400": ["probe", "--kind", "nonrecurrence", "--eps", "1e-400"],
}

#: Growth-certificate JSON beyond README's greedy main example, by slug.
VALIDATION = {
    "tent-n6": ["levels", "--variant", "tent", "--n", "6", "--out", "json"],
    "fixed-n3": ["levels", "--strategy", "fixed", "--n", "3", "--out", "json"],
    "sqrt2m1-tent-n5": [
        "levels", "--alpha", "sqrt2m1", "--variant", "tent", "--n", "5", "--out", "json",
    ],
}

#: Dimension rows whose log inputs are wider than any the benchmark reaches
#: (up to 2219 bits at n = 20, against exact-bigint's 1467), by slug.
WIDE_LOGS = {
    "golden-fixed-n20": [
        "dimension", "--alpha", "golden", "--strategy", "fixed", "--n", "20", "--out", "json",
    ],
}

#: Float-lane rows at the edges of decimal printing, by slug: more digits than
#: ``str(int)`` prints at once, values below 2^-3500, whose digits come from a
#: decimal rescaling, and fiber values beyond the float range.
FLOAT_EDGES = {
    "orbit-20000-bits": ["orbit", "--x", "1/7", "--steps", "3", "--precision-bits", "20000"],
    "orbit-tiny-x": ["orbit", "--x", "7/3" + "0" * 2000, "--steps", "1"],
    "orbit-tiny-negative-t0": ["orbit", "--x", "1/7", "--steps", "2", "--t0", "-1e-1100"],
    "coverage-t0-beyond-float": ["probe", "--kind", "coverage", "--t0", "1e400", "--horizon", "5"],
    "nonrecurrence-64-bits": ["probe", "--kind", "nonrecurrence", "--precision-bits", "64"],
    "nonrecurrence-512-bits": ["probe", "--kind", "nonrecurrence", "--precision-bits", "512"],
    "sensitivity-64-bits": ["probe", "--kind", "sensitivity", "--precision-bits", "64"],
    "sensitivity-512-bits": ["probe", "--kind", "sensitivity", "--precision-bits", "512"],
}


def _gaps(alpha: str) -> list[dict]:
    spec = IrrationalSpec.from_preset(alpha)
    return [gap_bounds_check(spec, n).as_dict() for n in range(1, 13)]


def _scan(spec: IrrationalSpec, variant: str, n: int, family: str, m_lo: int, m_hi: int) -> dict:
    cspec = make_cocycle(spec, "greedy", variant, n, n_levels=n)
    _, path = sample_point(cspec.profile, family, "center", n)
    return discreteness_scan(cspec, path, m_lo, m_hi).as_dict()


#: ``as_dict()`` of library results, by slug.  The scans skip m = 0, the m
#: past the aligned profile's last window and the m below the first mixed one;
#: alpha = [0; 9, 11, 1, 1, ...] puts q_{k_1+1} = 100 in the mixed scan, so its
#: level-1 bound 100/50 is the integer Fraction 2.
RESULTS = {
    "gap-golden": lambda: _gaps("golden"),
    "gap-sqrt2m1": lambda: _gaps("sqrt2m1"),
    "scan-aligned-golden": lambda: _scan(
        IrrationalSpec.from_preset("golden"), "main", 6, "++", -4, 8),
    "scan-mixed-9-11": lambda: _scan(
        IrrationalSpec(head=(0, 9, 11), tail=(1,)), "tent", 4, "+-", -9, 50),
}


def dump_result(slug: str) -> str:
    return json.dumps(RESULTS[slug](), indent=2, sort_keys=True) + "\n"


def readme_examples() -> list[list[str]]:
    """Every ``besicov ...`` command in README's CLI block, as an argv."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    commands, line = [], ""
    for raw in block.splitlines():
        line += raw.rstrip()
        if line.endswith("\\"):
            line = line[:-1]
            continue
        if line.startswith("besicov "):
            commands.append(shlex.split(line, comments=True)[1:])
        line = ""
    return commands


def capture(argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` at 80 columns; ``--help`` exits via SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    old_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = e.code
    finally:
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cases() -> dict[str, list[str]]:
    named = {
        f"readme-{i:02d}-{argv[0]}": argv for i, argv in enumerate(readme_examples(), 1)
    }
    named["help"] = ["--help"]
    named.update((f"help-{cmd}", [cmd, "--help"]) for cmd in cli.COMMANDS)
    named.update((f"error-{slug}", argv) for slug, argv in ERRORS.items())
    named.update((f"validation-{slug}", argv) for slug, argv in VALIDATION.items())
    named.update((f"float-{slug}", argv) for slug, argv in FLOAT_EDGES.items())
    named.update((f"dimension-{slug}", argv) for slug, argv in WIDE_LOGS.items())
    return named


def _recorded() -> list[Path]:
    """The per-argv files; ``argv-digests.json`` is ``test_argv_digests``' corpus."""
    return sorted(p for p in GOLDEN.glob("*.json") if p.name != "argv-digests.json")


@pytest.mark.parametrize("path", _recorded(), ids=lambda p: p.stem)
def test_golden_replay(path):
    want = json.loads(path.read_text())
    got = capture(want["argv"])
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]
    assert got["exit"] == want["exit"]


def test_readme_examples_are_in_the_corpus():
    recorded = [json.loads(p.read_text())["argv"] for p in _recorded()]
    examples = readme_examples()
    assert examples
    assert [argv for argv in examples if argv not in recorded] == []


def test_readme_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from besicov import" in code
    exec(compile(code, "README.md (Library quick start)", "exec"), {})


@pytest.mark.parametrize("slug", sorted(RESULTS))
def test_result_replay(slug):
    assert dump_result(slug) == (RESULTS_DIR / f"{slug}.json").read_text()


def test_every_help_page_is_in_the_corpus():
    recorded = {p.stem for p in _recorded()}
    assert {"help"} | {f"help-{cmd}" for cmd in cli.COMMANDS} <= recorded


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    recorded = [json.loads(p.read_text())["argv"] for p in _recorded()]
    for name, argv in cases().items():
        path = GOLDEN / f"{name}.json"
        if argv in recorded:
            continue
        if path.exists():
            sys.exit(f"{path.name} holds another argv; append new README examples at the end")
        path.write_text(json.dumps(capture(argv), indent=2, sort_keys=True) + "\n")
        print(f"recorded {path.name}", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    for slug in RESULTS:
        path = RESULTS_DIR / f"{slug}.json"
        if not path.exists():
            path.write_text(dump_result(slug))
            print(f"recorded results/{path.name}", file=sys.stderr)


if __name__ == "__main__":
    record()
