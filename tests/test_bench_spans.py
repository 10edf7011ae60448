"""The benchmark tracer still finds every package name it wraps.

bench/spans.py patches maxacc functions by module attribute; a renamed or
deleted name would only surface in the next traced benchmark run, so the
install/restore round trip is checked here, and so is a traced estimate that
must pass through every finite-family layer, and so are the Riccati counters,
which classify each solve by the CARE calls it makes, and the count of
linear-Gaussian validations per CLI command.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import random_stable_lg
from maxacc import FiniteStateModel, cli, lingauss, parse_model_file, wonham

ROOT = Path(__file__).resolve().parent.parent
SPANS_PY = ROOT / "bench" / "spans.py"


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


def traced_riccati_counts(run) -> dict:
    """The lingauss.riccati.* counters after one traced call of run()."""
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        run()
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer)
    return {name.split(".")[-1]: metrics[name] for name in metrics
            if name.startswith("lingauss.riccati.")}


def test_riccati_counters_classify_a_sweep():
    """A sweep solves its first row directly and warm-starts the rest.

    A counter that stops seeing the solves (a renamed scipy call, a solve
    path that bypasses the module attribute) would read 0 in the benchmark;
    here it fails instead.
    """
    model = parse_model_file(str(ROOT / "models" / "ks_example.json")).model
    counts = traced_riccati_counts(
        lambda: lingauss.kappa_sweep_lg(model, [0.1, 0.01, 0.001, 0.0001]))
    assert counts["warm_solves"] == 3
    assert counts["direct_solves"] == 1
    assert counts["continuation_solves"] == 0
    assert counts["care_calls"] == 1
    assert counts["lyapunov_solves"] > 0


def test_riccati_counters_see_the_continuation_ladder():
    """Seed 29's direct solve fails at kappa 1e-6 (scipy's ordqz cannot reorder)."""
    model = random_stable_lg(np.random.default_rng(29), p_max=6)
    counts = traced_riccati_counts(lambda: lingauss.riccati_stationary(model, 1e-6))
    assert counts["continuation_solves"] == 1
    assert counts["warm_solves"] == counts["direct_solves"] == 0
    assert counts["care_calls"] == 2


@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_a_model_file_is_validated_once(capsys, command):
    """Parsing builds the model, and building it is the one validation.

    LinearGaussianModel looks validate_model up in lingauss, where the tracer
    wraps it; a construction that stopped doing so would read 0 in the
    benchmark's lingauss.validate_model.calls, and here it fails instead.
    """
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        with tracer.span(spans.ROOT_SPAN):
            cli.run_command([command, "--model", str(ROOT / "models" / "ks_example.json")])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert spans.layer_metrics(tracer)["lingauss.validate_model.calls"] == 1
