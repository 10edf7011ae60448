"""The benchmark tracer still finds every package name it wraps.

bench/spans.py patches maxacc functions by module attribute; a renamed or
deleted name would only surface in the next traced benchmark run, so the
install/restore round trip is checked here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
