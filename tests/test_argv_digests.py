"""Argv digest corpus: a sha256 of what ``cli.main`` prints for many argvs.

``tests/golden/argv-digests.json`` lists the benchmark's cold-CLI command
lines for seeds 0-3 (136 argvs, written out in the file), each with a sha256
of its exit code, stdout and stderr.  The replay test runs every argv again
in-process and wants the same digest, so a change that moves any byte of
those outputs fails here.

    PYTHONPATH=src python tests/test_argv_digests.py --record

records the corpus from the benchmark's argv generator when the file does not
exist yet; it never rewrites an existing one.
"""

import hashlib
import json
import sys
from pathlib import Path

from test_golden import capture

CORPUS = Path(__file__).parent / "golden" / "argv-digests.json"
SEEDS = range(4)


def digest(argv: list[str]) -> str:
    got = capture(argv)
    blob = json.dumps([got["exit"], got["stdout"], got["stderr"]])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_argv_digests_replay():
    cases = json.loads(CORPUS.read_text())["cases"]
    assert len(cases) == 34 * len(SEEDS)
    moved = [case["argv"] for case in cases if digest(case["argv"]) != case["sha256"]]
    assert moved == []


def record() -> None:
    if CORPUS.exists():
        sys.exit(f"{CORPUS.name} exists; delete it first to record it again")
    import random

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from bench.workloads import cli_argvs

    cases = [
        {"seed": seed, "argv": argv, "sha256": digest(argv)}
        for seed in SEEDS
        for argv in cli_argvs(random.Random(f"cli-cold:{seed}"))
    ]
    lines = ",\n".join(json.dumps(case) for case in cases)
    CORPUS.write_text('{"cases": [\n' + lines + "\n]}\n")
    print(f"recorded {len(cases)} argvs in {CORPUS.name}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_argv_digests.py --record")
    record()
