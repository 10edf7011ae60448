#!/usr/bin/env python3
"""Benchmark of maxacc's sweep and verdict paths, end to end and per module.

Run from the root of a maxacc checkout:

    python3 bench/run.py --workload finite-deep --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists): finite-deep,
lg-sweep, cli-analyze. A run repeats the workload's pass over
inputs made from --seed until --seconds have elapsed, checks every output
against bench/reference.json, and prints one JSON result as the last line of
standard output. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced passes and reports per-layer metrics from the
traced ones, plus the tracing overhead, and writes the spans of the last
traced pass to .bench_out/. The package is imported from src/ of the same
checkout; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread. OpenBLAS's own threads spin beside the Python thread, so a
# run holds more busy threads than a small shared host has CPUs and its times
# follow the scheduler: with them, lg-sweep burned 2x its wall time in CPU.
# Set before numpy is first imported; the setup probes inherit it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 4       # fresh interpreters per run, after one discarded warm-up
END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_maxacc():
    """Import maxacc from this checkout's src/ and nowhere else."""
    package = SRC / "maxacc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a maxacc checkout")
    sys.path.insert(0, str(SRC))
    import maxacc
    import maxacc.cli  # noqa: F401  (not imported by the package itself)

    if Path(maxacc.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported maxacc from {maxacc.__file__}, expected {package}")
    return maxacc


def setup_probe(t0_ns: int, argv: list[str] | None) -> None:
    """Child side of setup_s: import, then the first command up to its first timed operation."""
    maxacc = load_maxacc()
    if argv:
        from workloads import quiet_command

        class Reached(Exception):
            pass

        def first_row(*args, **kwargs):
            raise Reached

        maxacc.wonham.estimate_stationary_error = first_row
        try:
            quiet_command(maxacc.cli, argv)
        except Reached:
            pass
        else:
            sys.exit("error: setup probe never reached the first sweep row")
    print(time.monotonic_ns() - t0_ns)


def measure_setup(argv: list[str] | None) -> tuple[float, list[float]]:
    """Median setup time over fresh child interpreters, run one at a time."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "0"]
    if argv:
        cmd += ["--probe-argv", json.dumps(argv)]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        cmd[3] = str(time.monotonic_ns())
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        if k:  # the first child also writes bytecode caches
            samples.append(int(proc.stdout.split()[-1]) / 1e9)
    return statistics.median(samples), samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(maxacc, wl, workload: str, seed: int) -> dict:
    from importlib.metadata import version

    threads = os.environ.get("MAXACC_THREADS")
    nproc = os.cpu_count() or 1
    chunks = -(-getattr(wl, "trials", 1) // maxacc.wonham.CHUNK_TRIALS)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "MAXACC_THREADS": threads,
        "pool_width": max(1, min(int(threads) if threads else nproc, chunks)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def timed_passes(wl, seconds: float, trace: bool) -> list[dict]:
    """Repeat passes until `seconds` elapse; with trace, alternate untraced and traced."""
    import spans

    records = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer:
                with tracer.span(spans.ROOT_SPAN):
                    ops = wl.run_pass()
            else:
                ops = wl.run_pass()
        finally:
            t1, cpu1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.restore()
        records.append({"traced": traced, "wall": t1 - t0, "cpu": cpu1 - cpu0,
                        "ops": ops, "tracer": tracer})
        if time.perf_counter() - start >= seconds and (not trace or len(records) >= 2):
            return records


def end_to_end(records: list[dict], setup_s: float) -> dict:
    latencies = [lat for r in records for lat, _ok in r["ops"]]
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(r["wall"] for r in records),
        "ops_per_s": len(latencies) / sum(r["wall"] for r in records),
        "op_p50_ms": 1e3 * q[4],
        "op_p90_ms": 1e3 * q[8],
        "cpu_s": statistics.median(r["cpu"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(records: list[dict], out_dir: Path, workload: str, seed: int) -> dict:
    import spans

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_pass = [spans.layer_metrics(r["tracer"]) for r in traced]
    metrics = {}
    for name, unit in spans.LAYER_UNITS.items():
        if name == "trace_overhead_frac":
            continue
        values = [m[name] for m in per_pass]
        if unit == "count" and len(set(values)) > 1:
            print(f"warning: count {name} differs between passes: {values}", file=sys.stderr)
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["trace_overhead_frac"] = (
        statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in untraced)
        - 1.0
    )

    last = traced[-1]["tracer"]
    incl, selfs, _calls = spans.summarise(last.spans)
    total = sum(selfs.values())
    print("self-time share of the last traced pass:", file=sys.stderr)
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {value / total:7.1%}  {name}", file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    origin = min(s[3] for s in last.spans)
    with open(out_dir / f"trace-{workload}-seed{seed}.jsonl", "w") as fh:
        for sid, parent, name, start, end, thread in last.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start - origin, "end": end - origin,
                                 "thread": thread}) + "\n")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in spans.LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--probe-argv", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.setup_probe, json.loads(args.probe_argv) if args.probe_argv else None)
        return 0

    maxacc = load_maxacc()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload)
        wl.prepare(maxacc, args.seed, workdir, reference)
        if not args.trace:
            setup_s, setup_samples = measure_setup(wl.setup_command())
        records = timed_passes(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(not ok for r in records for _lat, ok in r["ops"])
    info = provenance(maxacc, wl, args.workload, args.seed)
    info.update(passes=len(records), latency_samples=attempted,
                pass_wall_s=[r["wall"] for r in records])
    if args.trace:
        metrics = per_layer(records, ROOT / ".bench_out", args.workload, args.seed)
    else:
        info["setup_samples_s"] = setup_samples
        values = end_to_end(records, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print("provenance: " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
