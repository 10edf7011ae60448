"""The benchmark tracer still finds every package name it wraps.

bench/spans.py patches maxacc functions by module attribute; a renamed or
deleted name would only surface in the next traced benchmark run, so the
install/restore round trip is checked here, and so is a traced estimate that
must pass through every finite-family layer.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from maxacc import FiniteStateModel, wonham

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for group in spans.SPANS.values() for site in group]
    before = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}

    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), original in before.items():
            assert getattr(importlib.import_module(module), attr) is not original
    finally:
        tracer.restore()
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_finite_family_spans_fire():
    """One small estimate records every finite-family layer and every trial-step.

    A refactor that stops calling a wrapped name would read 0 in that
    layer's benchmark metric; here it fails instead.
    """
    spans = load_spans()
    model = FiniteStateModel([[-1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])
    trials, kappa, horizon = 3, 0.05, 25.0
    steps = int(round(horizon / wonham.auto_dt(model, kappa)))
    assert steps > wonham.BLOCK_STEPS
    tracer = spans.Tracer()
    try:
        tracer.install()
        with tracer.span(spans.ROOT_SPAN):
            wonham.estimate_stationary_error(
                model, np.array([0.0, 1.0]), kappa, trials=trials, horizon=horizon, seed=1
            )
    finally:
        tracer.restore()
    _incl, _selfs, calls = spans.summarise(tracer.spans)
    for name in ("markov.sample_path", "markov.obs_synthesis", "wonham.log_weights",
                 "wonham.filter_block", "wonham.chunk", "wonham.transition"):
        assert calls[name] > 0, name
    assert tracer.counts["wonham.filter_block.trial_steps"] == trials * steps
    assert spans.layer_metrics(tracer)["markov.sample_path.calls"] == trials


def test_bundle_goes_through_the_traced_trial_sampler():
    """simulate_bundle samples with the estimator's helpers, so the tracer sees it.

    A bundle sampler forked from the estimator's again would skip the wrapped
    names and go unseen by the benchmark's sampling layers.
    """
    spans = load_spans()
    model = FiniteStateModel([[-1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])
    tracer = spans.Tracer()
    try:
        tracer.install()
        wonham.simulate_bundle(model, 20.0, kappa=0.3, dt=0.01, seed=2)
    finally:
        tracer.restore()
    _incl, _selfs, calls = spans.summarise(tracer.spans)
    assert calls["markov.sample_path"] == 1
    assert calls["markov.obs_synthesis"] >= 1
