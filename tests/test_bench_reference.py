"""Every linear-Gaussian benchmark model still gives its recorded outcome.

bench/reference.json records, for each of the 400 models of the bench's
lg_pool(), the verdict, the zero count, the sweep flag and trend, the row
statuses and the Riccati traces at kappa 0.1 to 1e-4. The traces must agree
to the bench's TRACE_RTOL (1e-8), and 37 of the pool's 1,600 Newton walks
stop at the 30-step cap with the residual stalled between 1e-12 and 2e-10,
where the last two traces still differ by up to 1.5e-7 relative. So a change
to the Riccati walk matches the reference only if it keeps every Newton
iterate bit for bit; this test fails on one that does not, before a
benchmark run would. The bench modules are loaded from their files, as
tests/test_bench_spans.py loads bench/spans.py.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import maxacc
from maxacc import lingauss

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_pool_model_matches_its_reference_outcome():
    workloads = load_workloads()
    reference = json.loads((BENCH / "reference.json").read_text())["lg-sweep"]["pool"]
    pool = workloads.lg_pool()
    assert len(pool) == len(reference) == workloads.LG_POOL
    mismatched = []
    for k, (doc, ref) in enumerate(zip(pool, reference)):
        assert ref["digest"] == workloads.digest(doc), f"pool model {k} is not the recorded one"
        got = workloads.lg_outcome(lingauss, workloads.lg_model(maxacc, doc))
        if not workloads.lg_outcome_matches(got, ref["out"]):
            mismatched.append(k)
    assert mismatched == []
