"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at a tiny size (one request of each kind, one set-up, a
one-second budget), traced and untraced, and asserts that each run prints every
metric BENCHMARK.json names, with its unit, and that no request failed.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{label}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
            want = {m["name"]: m["unit"] for m in table}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{label}: {name} is not a number")
            print(f"ok  {label}: {len(got)} metrics, fail_ratio {res['failed']}/{res['attempted']}", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
