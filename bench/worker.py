"""Benchmark worker: one fresh interpreter that sets up a workload and runs it.

Started by ``run.py``, never by hand.  Protocol on stdout: the line ``ready``
as soon as ``import besicov`` and the workload's shared state are built (the
parent times set-up from spawn to this line), then, unless ``--setup-only``,
one JSON line with the raw measurements.

A run is one untimed verification pass followed by timed passes until
``--seconds`` have elapsed.  The verification pass warms every cache and runs
each request's oracle check; a timed pass compares each output's digest with
the verified one instead (cli-cold has no warm state to build, so its timed
passes run the oracle checks themselves).  A request fails if it raises, runs
past its timeout, or fails its check.  After each timed request, outside its
latency, the worker times the host-speed reference (see ``hostspeed.py``).

With ``--trace 1`` passes alternate untraced and traced, so the tracing
overhead is measured in the same process; spans and counts are kept in memory
and written as JSON lines when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A request running longer than this fails (in-process workloads use SIGALRM,
#: cli-cold the subprocess timeout).
REQUEST_TIMEOUT_S = 20.0
#: No request starts after this many seconds of worker time; the rest of the
#: pass counts as failed, so a stalled run still ends well inside 180 s.
DEADLINE_S = 140.0


#: Untraced timed passes a run holds at least, so each request's latency is
#: a median over several passes.
MIN_PASSES = 3
#: Host-speed reference samples taken after each timed request (see hostspeed.py).
REF_PER_REQUEST = 2


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request ran past {REQUEST_TIMEOUT_S:g} s")


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    @contextlib.contextmanager
    def request(self, rid):
        yield


class Tracer:
    """In-memory spans (name, start, end, parent span, request id) and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self._rid: Optional[str] = None
        self.pass_no = -1

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append({"span": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
                           "request": self._rid, "pass": self.pass_no})
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid].update(start=start, end=end)

    def count(self, name, n=1):
        self.counts.append({"count": name, "value": n, "request": self._rid, "pass": self.pass_no})

    @contextlib.contextmanager
    def request(self, rid):
        """A root span around one request; layer spans inside it are its children."""
        sid = len(self.spans)
        self.spans.append({"span": sid, "name": "request", "parent": None, "request": rid,
                           "pass": self.pass_no, "start": time.perf_counter()})
        self._rid = rid
        self._stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid]["end"] = time.perf_counter()
            self._stack.pop()
            self._rid = None

    def layer_metrics(self, pass_no: int) -> dict:
        """Per-layer busy time and counts of one traced pass."""
        out: dict = {}
        for s in self.spans:
            if s["pass"] == pass_no and s["name"] != "request":
                key = s["name"] + ".busy_s"
                out[key] = out.get(key, 0.0) + s["end"] - s["start"]
        for c in self.counts:
            if c["pass"] == pass_no:
                out[c["count"]] = out.get(c["count"], 0) + c["value"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans + self.counts:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run_one(req, tr, in_process: bool, t_start: float):
    """Run one request; return (latency_s, output or None, error or None)."""
    if time.perf_counter() - t_start > DEADLINE_S:
        return 0.0, None, "deadline"
    if in_process:
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with tr.request(req.rid):
            out = req.run(tr)
        return time.perf_counter() - t0, out, None
    except Exception as exc:  # a failed request is recorded, the run goes on
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    finally:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(requests, tr, verify: bool, expected: Optional[dict], in_process: bool, t_start: float,
             calibrate: bool = True) -> dict:
    """One pass over the requests, closed loop.  Checks outputs by oracle when
    ``verify``, else by digest against ``expected``.  Unless ``calibrate`` is
    false, times the host-speed reference after each request, outside its
    latency."""
    import hostspeed
    from workloads import canonical_bytes

    lat, failures, digests, ref = [], [], {}, []
    for req in requests:
        dt, out, err = _run_one(req, tr, in_process, t_start)
        lat.append(dt)
        if err is None:
            digests[req.rid] = _digest(canonical_bytes(out))
            if verify and not req.check(out):
                err = "output check failed"
            elif expected is not None and digests[req.rid] != expected.get(req.rid):
                err = "output does not match a verified one"
        if err is not None:
            failures.append({"request": req.rid, "kind": req.kind, "error": err})
        if calibrate:
            ref += hostspeed.sample(REF_PER_REQUEST)
    return {"latencies": lat, "failures": failures, "digests": digests, "ref": ref}


def _verified(p: dict) -> dict:
    """Digests of the requests that passed; a failed one then fails every pass."""
    bad = {f["request"] for f in p["failures"]}
    return {rid: d for rid, d in p["digests"].items() if rid not in bad}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    proto = sys.stdout
    sys.path.insert(0, str(SRC))
    import besicov

    if Path(besicov.__file__).resolve().parent != (SRC / "besicov").resolve():
        print(f"besicov imported from {besicov.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import mpmath
    import workloads

    in_process = args.workload != "cli-cold"
    null = NullTracer()
    tracer = Tracer() if args.trace else null  # set-up spans go in as pass -1
    requests = workloads.build(args.workload, args.seed, tracer, str(SRC), REQUEST_TIMEOUT_S)
    if args.smoke:  # one request of each kind
        seen: set = set()
        requests = [r for r in requests if not (r.kind in seen or seen.add(r.kind))]
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    t_start = time.perf_counter()
    expected = None
    verify_pass = None
    if in_process:
        verify_pass = run_pass(requests, null, True, None, True, t_start, calibrate=False)
        expected = _verified(verify_pass)

    passes = []
    t_timed = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(passes) % 2 == 1
        if use_trace:
            tracer.pass_no = len(passes)
        p = run_pass(requests, tracer if use_trace else null, not in_process, expected, in_process, t_start)
        p["traced"] = use_trace
        passes.append(p)
        if expected is None:
            expected = _verified(p)
        # stop before a pass that would end past --seconds, once the run holds
        # MIN_PASSES untraced passes (and, traced, one traced pass)
        elapsed = time.perf_counter() - t_timed
        mean_pass = elapsed / len(passes)
        untraced = sum(not q["traced"] for q in passes)
        traced = len(passes) - untraced
        enough = untraced >= (1 if args.smoke else MIN_PASSES) and (traced >= 1 or not args.trace)
        if enough and (elapsed + mean_pass > args.seconds or time.perf_counter() - t_start > DEADLINE_S):
            break

    layers: dict = {}
    if args.trace:
        if not in_process:  # the same argv in-process: cli.main's share of a cold call
            from besicov import cli

            tracer.pass_no = len(passes)
            for req in requests:
                with tracer.request(req.rid), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    tracer.call("cli.main", cli.main, req.argv)
        layer_passes = [tracer.layer_metrics(i) for i, p in enumerate(passes) if p["traced"]]
        if not in_process:
            extra = tracer.layer_metrics(len(passes))
            for lp in layer_passes:
                lp.update(extra)
        layers = {"passes": layer_passes}
        if args.trace_out:
            tracer.write(Path(args.trace_out))

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    all_passes = ([verify_pass] if verify_pass else []) + passes
    result = {
        "passes": [{k: p[k] for k in ("latencies", "traced", "ref")} for p in passes],
        "attempted": sum(len(p["latencies"]) for p in all_passes),
        "failures": [f for p in all_passes for f in p["failures"]],
        "digests": (verify_pass or passes[0])["digests"],
        "request_ids": [r.rid for r in requests],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "layers": layers,
        "versions": {"python": sys.version.split()[0], "mpmath": mpmath.__version__},
    }
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
