"""The in-process benchmark workloads replay their recorded digests.

Each in-process workload is built at seed 0 through ``bench/workloads.build``
with the worker's ``NullTracer`` and each request runs once; its output's
digest, ``sha256(canonical_bytes(out))[:16]``, must equal the one recorded in
``bench/reference/<workload>.json``.  A change that moves any output's bytes
fails here.  The bench modules are imported without writing bytecode, so the
test leaves ``bench/`` as it found it.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import worker
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))
    return worker, workloads


@pytest.mark.parametrize("workload", ["exact-desk", "exact-bigint", "orbit-float"])
def test_workload_outputs_match_reference_digests(bench_modules, workload):
    worker, workloads = bench_modules
    tr = worker.NullTracer()
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    requests = workloads.build(workload, 0, tr, str(BENCH.parent / "src"), worker.REQUEST_TIMEOUT_S)
    digests = {req.rid: worker._digest(workloads.canonical_bytes(req.run(tr))) for req in requests}
    assert digests == reference
