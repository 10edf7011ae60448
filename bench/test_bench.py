"""Smoke tests of the benchmark itself, on shrunken inputs.

    python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

maxacc = run.load_maxacc()
REFERENCE = json.loads((run.BENCH / "reference.json").read_text())


def shrunken_lg(models: int = 3) -> workloads.LgSweep:
    wl = workloads.LgSweep()
    wl.prepare(maxacc, seed=0, workdir=None, reference=REFERENCE["lg-sweep"])
    wl.items = wl.items[:models]
    return wl


class OracleTest(unittest.TestCase):
    def test_mc_oracle_flags_perturbed_estimate(self):
        ref = REFERENCE["finite-deep"]["rows"]["0.1"]
        se = 4 * ref["std_error"]
        self.assertTrue(workloads.mc_row_ok(ref["estimate"] + se, se, ref))
        perturbed = ref["estimate"] + 5 * workloads.MC_SIGMAS * se
        self.assertFalse(workloads.mc_row_ok(perturbed, se, ref))
        self.assertFalse(workloads.mc_row_ok(float("nan"), se, ref))

    def test_lg_oracle_flags_perturbed_trace(self):
        wl = shrunken_lg()
        self.assertTrue(all(ok for _lat, ok in wl.run_pass()))
        model, ref = wl.items[0]
        bad = copy.deepcopy(ref)
        bad["out"]["traces"][-1] *= 1 + 1e-6
        wl.items[0] = (model, bad)
        self.assertEqual([ok for _lat, ok in wl.run_pass()], [False, True, True])

    def test_cli_oracle_checks_reverse_independently(self):
        doc = workloads.TWO_STATE
        good = json.dumps({"lambda_tilde": [["-1.0", "1.0"], ["1.0", "-1.0"]]})
        bad = json.dumps({"lambda_tilde": [["-1.0", "1.0"], ["2.0", "-2.0"]]})
        self.assertTrue(workloads.reverse_ok(doc, good))
        self.assertFalse(workloads.reverse_ok(doc, bad))


class TraceTest(unittest.TestCase):
    def test_self_times_add_up_to_parent(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap("leaf", lambda: time.sleep(0.01))

        def parent():
            leaf()
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(tracer.run_under, tracer.current(), leaf) for _ in range(2)]
                [f.result() for f in futures]
            time.sleep(0.01)

        tracer.wrap("parent", parent)()
        own = spans.self_times(tracer.spans)
        (root,) = [s for s in tracer.spans if s[2] == "parent"]
        kids = [s for s in tracer.spans if s[1] == root[0]]
        self.assertEqual(len(kids), 3)
        self.assertGreater(len({s[5] for s in kids} - {root[5]}), 0)  # pooled children
        # The two pooled leaves overlap, so only their union is subtracted.
        covered, cursor = 0.0, root[3]
        for _sid, _parent, _name, start, end, _thread in sorted(kids, key=lambda s: s[3]):
            covered += max(0.0, end - max(start, cursor))
            cursor = max(cursor, end)
        self.assertAlmostEqual(own[root[0]] + covered, root[4] - root[3], delta=1e-9)
        self.assertGreater(own[root[0]], 0.009)

    def test_traced_lg_pass_covers_layers_and_restores(self):
        original = maxacc.lingauss.riccati_stationary
        wl = shrunken_lg()
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span(spans.ROOT_SPAN):
                ops = wl.run_pass()
        finally:
            tracer.restore()
        self.assertIs(maxacc.lingauss.riccati_stationary, original)
        self.assertTrue(all(ok for _lat, ok in ops))
        m = spans.layer_metrics(tracer)
        self.assertEqual(m["lingauss.riccati_stationary.calls"], 3 * len(workloads.LG_KAPPAS))
        self.assertEqual(
            m["lingauss.riccati.warm_solves"] + m["lingauss.riccati.direct_solves"]
            + m["lingauss.riccati.continuation_solves"],
            m["lingauss.riccati_stationary.calls"],
        )
        self.assertGreater(m["lingauss.riccati.lyapunov_solves"], 0)
        self.assertGreater(m["trace.named_self_frac"], 0.9)
        self.assertEqual(m["markov.sample_path.calls"], 0)
        self.assertEqual(set(m) | {"trace_overhead_frac"}, set(spans.LAYER_UNITS))

    def test_wrappers_are_thread_safe_counters(self):
        tracer = spans.Tracer()
        bump = tracer.wrap("bump", lambda: None, after=lambda args, result: tracer.add("n"))
        threads = [threading.Thread(target=lambda: [bump() for _ in range(500)]) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        self.assertFalse(any(t.is_alive() for t in threads))
        self.assertEqual(tracer.counts["n"], 2000)
        self.assertEqual(len(tracer.spans), 2000)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], workloads.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, spans.LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
