"""Span tracer that wraps maxacc functions from outside the package.

Wrappers are installed by attribute on the module where each name is looked
up (``maxacc.wonham._filter_block``, ``maxacc.cli.parse_model_file``, ...),
so the package itself is untouched. Spans (id, parent, name, start, end,
thread) go into an in-memory list under a lock, because the estimator runs
its chunks on pool threads; a chunk's parent is the span that submitted it.
Self times and per-layer metrics are computed after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "bench.pass"

# Span name -> the (module, attribute) pairs where maxacc looks the name up.
SPANS = {
    "cli.run_command": [("maxacc.cli", "run_command")],
    "modelfile.parse_model_file": [("maxacc.cli", "parse_model_file")],
    "modelfile.validate_report": [("maxacc.cli", "validate_report")],
    "modelfile.model_hash": [("maxacc.cli", "model_hash")],
    "finite_analysis.finite_verdict": [
        ("maxacc.cli", "finite_verdict"),
        ("maxacc.wonham", "finite_verdict"),
    ],
    "finite_analysis.check_invertibility": [("maxacc.finite_analysis", "check_invertibility")],
    "finite_analysis.check_reconstructibility": [
        ("maxacc.finite_analysis", "check_reconstructibility")
    ],
    "markov.reduce_support": [("maxacc.cli", "reduce_support")],
    "markov.time_reverse": [("maxacc.cli", "time_reverse")],
    "markov.sample_path": [("maxacc.wonham", "sample_path")],
    "markov.obs_synthesis": [
        ("maxacc.wonham", "integrated_observation"),
        ("maxacc.wonham", "state_at"),
    ],
    "wonham.kappa_sweep_finite": [("maxacc.cli", "kappa_sweep_finite")],
    "wonham.estimate": [("maxacc.wonham", "estimate_stationary_error")],
    "wonham.chunk": [("maxacc.wonham", "_chunk_trial_means")],
    "wonham.transition": [("maxacc.wonham", "_transition")],
    "wonham.log_weights": [("maxacc.wonham", "_log_weights")],
    "wonham.filter_block": [("maxacc.wonham", "_filter_block")],
    "lingauss.ks_check": [("maxacc.cli", "ks_check"), ("maxacc.lingauss", "ks_check")],
    "lingauss.kappa_sweep_lg": [
        ("maxacc.cli", "kappa_sweep_lg"),
        ("maxacc.lingauss", "kappa_sweep_lg"),
    ],
    "lingauss.validate_model": [
        ("maxacc.lingauss", "validate_model"),
        ("maxacc.modelfile", "validate_model"),
    ],
    "lingauss.reduce_unstable": [
        ("maxacc.cli", "reduce_unstable"),
        ("maxacc.lingauss", "reduce_unstable"),
    ],
    "lingauss.transmission_zeros": [
        ("maxacc.cli", "transmission_zeros"),
        ("maxacc.lingauss", "transmission_zeros"),
    ],
    "lingauss.riccati_stationary": [("maxacc.lingauss", "riccati_stationary")],
    "lingauss.lyapunov_solve": [("maxacc.lingauss", "lyapunov_solve")],
}


class _Proxy:
    """Stands in for an imported module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Thread-safe span buffer plus named counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: Counter = Counter()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str]:
        """(id, name) of the innermost open span on this thread, or (0, "")."""
        stack = self._stack()
        return stack[-1] if stack else (0, "")

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def run_under(self, parent: tuple[int, str], fn, *args, **kwargs):
        """Run fn on this thread as if `parent` (from another thread) were open."""
        saved = self._stack()[:]
        self._local.stack = [parent] if parent[0] else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper; after(args, result) may add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, fn, count):
        """Counter-only wrapper: count(innermost span name) names the counter."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = count(tracer.current()[1])
            if key:
                tracer.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary listed in SPANS plus the counted calls."""
        mod = importlib.import_module
        after = {
            "markov.sample_path": self._after_sample_path,
            "wonham.filter_block": self._after_filter_block,
        }
        for name, sites in SPANS.items():
            for module_name, attr in sites:
                module = mod(module_name)
                self.patch(module, attr, self.wrap(name, getattr(module, attr), after.get(name)))
        self._install_riccati()

        lingauss, modelfile, wonham = mod("maxacc.lingauss"), mod("maxacc.modelfile"), mod("maxacc.wonham")
        self.patch(lingauss, "transfer_eval", self.counting(
            lingauss.transfer_eval, lambda _: "lingauss.transfer_eval.calls"))
        sla = lingauss.sla
        in_riccati = "lingauss.riccati_stationary"
        self.patch(lingauss, "sla", _Proxy(
            sla,
            solve_continuous_lyapunov=self.counting(
                sla.solve_continuous_lyapunov,
                lambda cur: "lingauss.riccati.lyapunov_solves" if cur == in_riccati else None),
            solve_continuous_are=self.counting(
                sla.solve_continuous_are,
                lambda cur: "lingauss.riccati.care_calls" if cur == in_riccati else None),
        ))
        jsonschema = modelfile.jsonschema
        self.patch(modelfile, "jsonschema", _Proxy(
            jsonschema, validate=self.wrap("modelfile.schema_validate", jsonschema.validate)))
        self.patch(wonham, "ThreadPoolExecutor", self._pool_class())

    def _install_riccati(self) -> None:
        """Classify each Riccati solve by its CARE calls: warm 0, direct 1, continuation >= 2."""
        lingauss = importlib.import_module("maxacc.lingauss")
        traced = lingauss.riccati_stationary
        tracer = self

        @functools.wraps(traced)
        def wrapper(*args, **kwargs):
            before = tracer.counts["lingauss.riccati.care_calls"]
            result = traced(*args, **kwargs)
            care = tracer.counts["lingauss.riccati.care_calls"] - before
            path = "warm" if care == 0 else "direct" if care == 1 else "continuation"
            tracer.add(f"lingauss.riccati.{path}_solves")
            return result

        self.patch(lingauss, "riccati_stationary", wrapper)

    def _after_sample_path(self, args, result) -> None:
        self.add("markov.sample_path.jumps", len(result[1]) - 1)

    def _after_filter_block(self, args, result) -> None:
        weights = args[2]
        self.add("wonham.filter_block.trial_steps", weights.shape[0] * weights.shape[1])
        # Computed, not measured: the weights read plus the filter path written.
        self.add("wonham.filter_block.bytes_computed", weights.nbytes + result.nbytes)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                with tracer._lock:
                    tracer.counts["wonham.pool.workers"] = max(
                        tracer.counts["wonham.pool.workers"], self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

        return TracedPool


# Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "markov.sample_path.s": "s",
    "markov.sample_path.calls": "count",
    "markov.sample_path.jumps": "count",
    "markov.sample_path.us_per_jump": "us",
    "markov.obs_synthesis.s": "s",
    "wonham.filter_block.s": "s",
    "wonham.filter_block.trial_steps": "count",
    "wonham.filter_block.ns_per_trial_step": "ns",
    "wonham.filter_block.bytes_computed": "B",
    "wonham.log_weights.s": "s",
    "wonham.transition.s": "s",
    "wonham.chunk.self_s": "s",
    "wonham.estimate.s": "s",
    "wonham.pool.chunks": "count",
    "wonham.pool.workers": "count",
    "wonham.pool.busy_over_wall": "ratio",
    "lingauss.riccati_stationary.s": "s",
    "lingauss.riccati_stationary.calls": "count",
    "lingauss.riccati.lyapunov_solves": "count",
    "lingauss.riccati.care_calls": "count",
    "lingauss.riccati.warm_solves": "count",
    "lingauss.riccati.direct_solves": "count",
    "lingauss.riccati.continuation_solves": "count",
    "lingauss.transmission_zeros.s": "s",
    "lingauss.transfer_eval.calls": "count",
    "lingauss.validate_model.calls": "count",
    "lingauss.lyapunov_solve.s": "s",
    "lingauss.reduce_unstable.s": "s",
    "modelfile.parse_model_file.s": "s",
    "modelfile.schema_validate.s": "s",
    "modelfile.schema_validate.calls": "count",
    "modelfile.validate_report.s": "s",
    "modelfile.model_hash.s": "s",
    "finite_analysis.check_invertibility.s": "s",
    "finite_analysis.check_reconstructibility.s": "s",
    "cli.run_command.s": "s",
    "cli.self_s": "s",
    "trace.pass_wall_s": "s",
    "trace.named_self_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may run on other threads and overlap each other; their union,
    clipped to the parent's interval, is what gets subtracted.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _thread in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _thread in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def summarise(spans) -> tuple[dict, dict, Counter]:
    """Per span name: inclusive seconds, self seconds and call count."""
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _parent, name, start, end, _thread in spans:
        incl[name] += end - start
        selfs[name] += own[sid]
        calls[name] += 1
    return incl, selfs, calls


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace_overhead_frac).

    ``.s`` metrics are inclusive span time summed over calls; ``self_s``
    metrics exclude child spans. trace.named_self_frac is the share of all
    span self time that falls inside a named layer rather than in the
    benchmark's own pass span.
    """
    incl, selfs, calls = summarise(tracer.spans)
    counts = tracer.counts
    out = {name: incl.get(name[:-2], 0.0) for name in LAYER_UNITS if name.endswith(".s")}
    out.update({name: counts[name] for name in LAYER_UNITS if name in counts})
    for name in ("markov.sample_path", "lingauss.riccati_stationary", "modelfile.schema_validate"):
        out[f"{name}.calls"] = calls[name]
    out["lingauss.validate_model.calls"] = calls["lingauss.validate_model"]
    out["wonham.pool.chunks"] = calls["wonham.chunk"]
    out["wonham.chunk.self_s"] = selfs.get("wonham.chunk", 0.0)
    out["cli.self_s"] = selfs.get("cli.run_command", 0.0)
    jumps = counts["markov.sample_path.jumps"]
    steps = counts["wonham.filter_block.trial_steps"]
    out["markov.sample_path.us_per_jump"] = 1e6 * out["markov.sample_path.s"] / jumps if jumps else 0.0
    out["wonham.filter_block.ns_per_trial_step"] = (
        1e9 * out["wonham.filter_block.s"] / steps if steps else 0.0
    )
    estimating = calls["wonham.estimate"] > 0
    out["wonham.pool.workers"] = counts["wonham.pool.workers"] or int(estimating)
    out["wonham.pool.busy_over_wall"] = (
        incl["wonham.chunk"] / incl["wonham.estimate"] if estimating else 0.0
    )
    out["trace.pass_wall_s"] = incl[ROOT_SPAN]
    out["trace.named_self_frac"] = 1.0 - selfs[ROOT_SPAN] / sum(selfs.values())
    for name in LAYER_UNITS:
        if name != "trace_overhead_frac":  # needs untraced passes too; see run.py
            out.setdefault(name, 0)
    return out
