"""besicov benchmark: closed-loop runs of four workloads over the library.

    python3 bench/run.py --workload exact-desk --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, default seed

One client sends one request at a time (closed loop, no threads).  For each
workload this script

* measures set-up: it spawns a fresh worker interpreter several times and times
  each from spawn to "first request ready" (``import besicov`` plus the
  workload's shared profiles, cocycles and points); ``setup_s`` is the median;
* lets the last worker run the workload (see ``worker.py``) for ``--seconds``;
* checks outputs: every request's oracle on a verification pass, every timed
  output against the verified digest, and, on the default seed, every digest
  against ``bench/reference/<workload>.json`` recorded from the seed commit;
* prints the metrics by name with units, an environment stamp, and as its last
  line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``):

* ``wall_s``: one pass over the workload's requests, as the sum of each
  request's median latency over the run's timed passes (see ``_typical_pass``);
* ``req_p50_ms``, ``req_p90_ms``: median and 90th percentile of the request
  latencies of that typical pass (at least 100 requests a pass, so ten or more
  lie beyond the p90; cli-cold has 34);
* ``setup_s``: median set-up time, as above;
* ``peak_rss_mb``: the worker's peak resident memory (cli-cold: the largest
  child process).

Every timing above is scaled to a reference host speed (see ``hostspeed.py``):
the host's speed drifts by a third over stretches longer than a run, and a
reference operation timed beside the program's work takes that drift out.  The
raw timings and the scale factors are kept in the full result.

``fail_ratio`` (failed / attempted) is printed by name and carried by the
``failed`` and ``attempted`` fields of the last line.  A run is stamped
``noisy`` by the rule at ``NOISY_LOAD``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones
(spans and counts recorded around the benchmark's calls into each module, plus
the tracing overhead).  Full results, and spans as JSON lines, are written
under ``bench/out/``.  ``--write-reference`` re-records the reference digests;
run it only on a commit whose outputs are the accepted ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

WORKLOADS = ("exact-desk", "exact-bigint", "orbit-float", "cli-cold")
DEFAULT_SEED = 0
#: Spawns per run whose set-up time is measured; the last one runs the workload.
SETUP_REPS = 11
#: Host-speed reference samples taken before and after each of those spawns.
SETUP_REF_REPS = 20
#: A run is stamped noisy when the 1-minute load average before or after it
#: exceeds this: other work then held at least half a core beside the
#: benchmark's one busy core.  Discard noisy runs by this rule, not by eye.
NOISY_LOAD = (os.cpu_count() or 1) - 0.5
#: The worker must be done well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cf.gap_bounds_check.busy_s": "s",
    "cf.gap_bounds_check.calls": "count",
    "cf.gap_bounds_check.escalations": "count",
    "levels.select_levels.busy_s": "s",
    "levels.validate_levels.busy_s": "s",
    "cocycle.make_cocycle.busy_s": "s",
    "cocycle.phi_m.busy_s": "s",
    "cocycle.phi_m.calls": "count",
    "cocycle.birkhoff.busy_s": "s",
    "cocycle.birkhoff.level_evals": "count",
    "targets.sample_point.busy_s": "s",
    "targets.sample_point.depth_sum": "count",
    "audit.audit_aligned.busy_s": "s",
    "audit.audit_mixed.busy_s": "s",
    "audit.discreteness_scan.busy_s": "s",
    "audit.levels_audited": "count",
    "audit.status.pass": "count",
    "audit.status.indeterminate": "count",
    "audit.status.fail": "count",
    "dimension.nesting_stats.busy_s": "s",
    "dimension.nesting_stats.parents_scanned": "count",
    "dimension.box_count.busy_s": "s",
    "dimension.box_count.intervals": "count",
    "dimension.falconer_bounds.busy_s": "s",
    "certlog.log_enclosure.busy_s": "s",
    "certlog.log_enclosure.input_bits": "count",
    "dynamics.orbit.busy_s": "s",
    "dynamics.orbit.steps": "count",
    "dynamics.orbit.level_steps_per_s": "1/s",
    "dynamics.nonrecurrence_test.busy_s": "s",
    "dynamics.sensitivity_probe.busy_s": "s",
    "dynamics.sensitivity_probe.reverified": "count",
    "dynamics.classify_orbit.busy_s": "s",
    "dynamics.coverage.busy_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.busy_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def _timed_python(code: str, reps: int) -> list[float]:
    """Wall time of ``python3 -c code`` from spawn to exit, ``reps`` times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                       stdout=subprocess.PIPE)
        out.append(time.perf_counter() - t0)
    return out


def _import_s(reps: int) -> float:
    """Median in-process time of a fresh ``import besicov``."""
    code = "import time; t = time.perf_counter(); import besicov; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    vals = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                             capture_output=True, text=True).stdout)
        for _ in range(reps)
    ]
    return statistics.median(vals)


def _worker(args, setup_only: bool, trace_out: Path | None) -> tuple[float, dict | None]:
    """Spawn one worker; return (set-up seconds, raw result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload_name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            if line != "ready\n":
                raise BenchError(f"worker did not become ready (got {line!r})")
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def _typical_pass(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each request's median latency over the timed passes, each pass scaled
    by the host-speed factor of the reference samples taken within it.

    The per-request median drops a burst that slows a few requests of one
    pass; the scaling takes out the host's slower drift.  ``wall_s`` is the
    typical pass's total.
    """
    rows = [[t * (hostspeed.factor(p["ref"]) if scaled else 1.0) for t in p["latencies"]] for p in passes]
    return [statistics.median(lat) for lat in zip(*rows)]


def _quantiles(lat: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return q[4], q[8]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "besicov").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(args, workload: str) -> dict:
    args.workload_name = workload
    load_before = os.getloadavg()[0]
    interpreter_s = statistics.median(_timed_python("pass", 5))
    reps = 1 if args.smoke else SETUP_REPS
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    trace_out = OUT / f"{stem}.spans.jsonl" if args.trace else None
    setups, setup_factors = [], []
    for i in range(reps):
        ref = hostspeed.sample(SETUP_REF_REPS)
        if i < reps - 1:
            setups.append(_worker(args, True, None)[0])
            ref += hostspeed.sample(SETUP_REF_REPS)
        else:  # the last worker goes on to run the workload
            setup, raw = _worker(args, False, trace_out)
            setups.append(setup)
        setup_factors.append(hostspeed.factor(ref))

    failures = list(raw["failures"])
    digests = raw["digests"]
    reference_checked = args.seed == DEFAULT_SEED and not args.smoke
    ref_path = REFERENCE / f"{workload}.json"
    if reference_checked and args.write_reference:
        REFERENCE.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    if reference_checked:
        reference = json.loads(ref_path.read_text())
        for rid in raw["request_ids"]:
            if digests.get(rid) != reference.get(rid):
                failures.append({"request": rid, "error": "digest differs from the reference"})
    combined = hashlib.sha256(
        "".join(f"{rid}:{digests.get(rid)}\n" for rid in raw["request_ids"]).encode()
    ).hexdigest()[:16]

    plain = [p for p in raw["passes"] if not p["traced"]]
    typical, typical_raw = _typical_pass(plain), _typical_pass(plain, scaled=False)
    p50, p90 = _quantiles(typical)
    raw_p50, raw_p90 = _quantiles(typical_raw)
    e2e = {
        "wall_s": sum(typical),
        "req_p50_ms": 1000 * p50,
        "req_p90_ms": 1000 * p90,
        "setup_s": statistics.median(t * f for t, f in zip(setups, setup_factors)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    unscaled = {
        "wall_s": sum(typical_raw),
        "req_p50_ms": 1000 * raw_p50,
        "req_p90_ms": 1000 * raw_p90,
        "setup_s": statistics.median(setups),
    }
    layer = {}
    if args.trace:
        lp = raw["layers"]["passes"]
        for name in PER_LAYER:
            layer[name] = statistics.median(p.get(name, 0) for p in lp)
        rates = [p["dynamics.orbit.level_steps"] / p["dynamics.orbit.busy_s"] for p in lp if p.get("dynamics.orbit.busy_s")]
        layer["dynamics.orbit.level_steps_per_s"] = statistics.median(rates) if rates else 0
        layer["cli.interpreter_s"] = interpreter_s
        layer["cli.import_s"] = _import_s(3)
        traced_wall = sum(_typical_pass([p for p in raw["passes"] if p["traced"]]))
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]

    load_after = os.getloadavg()[0]
    result = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": len(failures),
        "fail_ratio": len(failures) / raw["attempted"],
        "failures": failures[:20],
        "end_to_end": e2e,
        "end_to_end_unscaled": unscaled,
        "host_speed": {
            "ref_s": hostspeed.REF_S,
            "pass_factors": [hostspeed.factor(p["ref"]) for p in raw["passes"]],
            "setup_factors": setup_factors,
        },
        "per_layer": layer,
        "passes": len(plain),
        "pass_latencies_s": [p["latencies"] for p in raw["passes"]],
        "pass_ref_s": [p["ref"] for p in raw["passes"]],
        "requests_per_pass": len(raw["request_ids"]),
        "setup_runs_s": setups,
        "reference_checked": reference_checked,
        "output_digest": combined,
        "known_gaps": [g for g in json.loads((HERE / "known_gaps.json").read_text()) if g["workload"] == workload],
        "env": {
            "commit": _commit(),
            "src_digest": _src_digest(),
            **raw["versions"],
            "nproc": os.cpu_count(),
            "loadavg_1m_before": load_before,
            "loadavg_1m_after": load_after,
            "cli.interpreter_s": interpreter_s,
            "noisy": max(load_before, load_after) > NOISY_LOAD,
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def _print_table(res: dict) -> None:
    w = res["workload"]
    print(f"== {w} (seed {res['seed']}, {res['passes']} timed passes of {res['requests_per_pass']} requests)")
    for name, unit in END_TO_END.items():
        print(f"  {w:13s} {name:40s} {res['end_to_end'][name]:14.6g} {unit}")
    print(f"  {w:13s} {'fail_ratio':40s} {res['fail_ratio']:14.6g} ratio ({res['failed']}/{res['attempted']})")
    for name, unit in PER_LAYER.items():
        if name in res["per_layer"]:
            print(f"  {w:13s} {name:40s} {res['per_layer'][name]:14.6g} {unit}")
    for f in res["failures"]:
        print(f"  FAILED {f['request']}: {f['error']}")
    print("ENV " + json.dumps({"workload": w, "output_digest": res["output_digest"],
                               "reference_checked": res["reference_checked"],
                               "host_speed_factor": statistics.median(res["host_speed"]["pass_factors"]),
                               **res["env"]}, sort_keys=True))


def _metrics(res: dict, prefix: str = "") -> dict:
    table, values = (PER_LAYER, res["per_layer"]) if res["trace"] else (END_TO_END, res["end_to_end"])
    return {prefix + name: {"value": values[name], "unit": unit} for name, unit in table.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one request of each kind, one set-up (for smoke.py)")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "besicov" / "__init__.py").is_file():
        print(f"error: no besicov sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(args, w) for w in names]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        _print_table(res)
    single = len(results) == 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: v for r in results for k, v in _metrics(r, "" if single else r["workload"] + ".").items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
