#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's oracles compare against.

Run from the root of a maxacc checkout, on the code whose outputs are taken
as correct:

    python3 bench/make_reference.py

Writes bench/reference.json. Monte-Carlo rows get a high-trial reference
estimate with its standard error; pool models get their verdicts, zero
counts, flags, exit codes and Riccati traces, keyed by a digest of the
generated model so a change in the generator shows up as a mismatch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, load_maxacc

REF_SEED = 20240101
REF_TRIALS = {"finite-deep": 512}


def finite_reference(maxacc, workloads, name: str, workdir: Path) -> dict:
    wl = workloads.make(name)
    path = workloads.write_model(workdir, name, wl.doc)
    code, out = workloads.quiet_command(maxacc.cli, wl.argv(path, REF_SEED, REF_TRIALS[name]))
    rows, _flag = workloads.parse_sweep_csv(out)
    # The flag and exit code the workload itself produces, at its own trial count.
    run_code, run_out = workloads.quiet_command(maxacc.cli, wl.argv(path, 0))
    return {
        "exit": run_code,
        "flag": workloads.parse_sweep_csv(run_out)[1],
        "ref_trials": REF_TRIALS[name],
        "ref_seed": REF_SEED,
        "rows": {r["kappa"]: {"estimate": float(r["estimate"]), "std_error": float(r["std_error"])}
                 for r in rows},
    }


def lg_reference(maxacc, workloads) -> dict:
    pool = []
    for doc in workloads.lg_pool():
        try:
            out = workloads.lg_outcome(maxacc.lingauss, workloads.lg_model(maxacc, doc))
        except Exception as exc:
            out = {"error": type(exc).__name__}
        pool.append({"digest": workloads.digest(doc), "out": out})
    return {"pool": pool}


def cli_reference(maxacc, workloads, workdir: Path) -> dict:
    chains, lgs = workloads.cli_pool()
    ref = {}
    for family, pool in (("finite", chains), ("lg", lgs)):
        entries = []
        for k, doc in enumerate(pool):
            path = workloads.write_model(workdir, f"{family}{k}", doc)
            out = {}
            for command in workloads.CLI_COMMANDS[family]:
                argv = workloads.cli_argv(command, path)
                out[command[0]] = workloads.cli_outcome(*workloads.quiet_command(maxacc.cli, argv))
            entries.append({"digest": workloads.digest(doc), "out": out})
        ref[family] = entries
    return ref


def main() -> int:
    maxacc = load_maxacc()
    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        workdir = Path(tmp)
        for name in REF_TRIALS:
            reference[name] = finite_reference(maxacc, workloads, name, workdir)
            print(name, json.dumps(reference[name]), file=sys.stderr)
        reference["lg-sweep"] = lg_reference(maxacc, workloads)
        reference["cli-analyze"] = cli_reference(maxacc, workloads, workdir)
    (BENCH / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
