"""Golden corpus: the recorded stdout, stderr and exit code of CLI runs.

Each ``tests/golden/*.json`` holds one argv and what ``cli.main`` printed for
it: every README CLI example, every ``--help`` page at 80 columns, and
argparse-level errors.  The replay test runs each argv again and wants the
same bytes.  ``PYTHONPATH=src python tests/test_golden.py`` records the cases
whose argv has no file yet; it never rewrites an existing one.
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from besicov import cli

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

#: argparse-level errors (usage line on stderr, exit 1), by file-name slug.
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
}


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
    return named


def _recorded() -> list[Path]:
    return sorted(GOLDEN.glob("*.json"))


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


if __name__ == "__main__":
    record()
