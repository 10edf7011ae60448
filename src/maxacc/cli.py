"""Command dispatch: analyze / zeros / reverse / sweep / report.

Exit codes: 0 success, 1 invalid model or input, 2 undecided verdict or a
sweep whose empirical trend does not confirm the algebraic verdict, 3
internal numerical failure. Diagnostics go to standard error; artifacts go
to --out paths or standard output.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MaxaccError
from .finite_analysis import finite_verdict
from .lingauss import is_stable, kappa_sweep_lg, ks_check, reduce_unstable, transmission_zeros
from .markov import reduce_support, time_reverse
from .modelfile import ParsedModelFile, model_hash, parse_model_file, validate_report
from .svgreport import render_sweep_svg
from .verdicts import CONSISTENT, TestFunction, identity_embedding, indicator
from .wonham import SimParams, check_kappa, kappa_sweep_finite

DEFAULT_KAPPAS_FINITE = [0.5, 0.1, 0.02]
DEFAULT_KAPPAS_LG = [0.1, 0.01, 0.001, 0.0001]
EXIT_PREFIX = {1: "error:", 2: "undecided:", 3: "numerical failure:"}
SIM_FLAGS = tuple(f.name for f in fields(SimParams))  # flags named after the SimParams fields


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 (argparse hook)
        raise _UsageError(message)


def _provenance(seed: int | None) -> dict:
    return {
        "tool": "maxacc",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _bundle(parsed: ParsedModelFile, seed: int | None = None, **sections) -> dict:
    bundle = {
        "schema_version": 1,
        "model_hash": model_hash(parsed),
        "provenance": _provenance(seed),
    }
    bundle.update(sections)
    return validate_report(bundle)


def _cmd_analyze(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    if parsed.kind == "finite":
        verdict = finite_verdict(parsed.model)
    else:
        verdict = ks_check(parsed.model)
    bundle = _bundle(parsed, verdict=verdict.to_dict())
    _emit(json.dumps(bundle, indent=2) + "\n", args.out)
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    if parsed.kind == "finite":
        print("error: zeros requires a linear_gaussian model", file=sys.stderr)
        return 1
    model = parsed.model
    if not is_stable(model.A):
        model = reduce_unstable(model)
        print("note: unstable A reduced by output injection", file=sys.stderr)
    report = transmission_zeros(model)
    bundle = _bundle(parsed, zero_report=report.to_dict())
    _emit(json.dumps(bundle, indent=2) + "\n", args.out)
    return 0


def _cmd_reverse(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    if parsed.kind != "finite":
        print("error: reverse requires a finite model", file=sys.stderr)
        return 1
    reduced = reduce_support(parsed.model)
    tilde = time_reverse(reduced)
    if args.json:
        bundle = _bundle(
            parsed, lambda_tilde=[[repr(float(v)) for v in row] for row in tilde]
        )
        _emit(json.dumps(bundle, indent=2) + "\n", args.out)
    else:
        lines = [" ".join(repr(float(v)) for v in row) for row in tilde]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_kappas(text: str) -> list[float]:
    try:
        kappas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"--kappa: {exc}") from exc
    if not kappas:
        raise _UsageError("--kappa needs a comma-separated list of positive finite numbers")
    return [check_kappa(k) for k in kappas]


def _parse_f(spec: str, d: int) -> TestFunction:
    if spec == "identity":
        return identity_embedding(d)
    if spec.startswith("indicator:"):
        try:
            i = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise _UsageError(f"--f: bad indicator index in {spec!r}") from exc
        if not 0 <= i < d:
            raise _UsageError(f"--f: indicator index {i} outside 0..{d - 1}")
        return indicator(i, d)
    try:
        values = np.array([float(tok) for tok in spec.split(",")])
    except ValueError as exc:
        raise _UsageError(
            f"--f: expected 'identity', 'indicator:K', or a comma-separated vector, got {spec!r}"
        ) from exc
    if values.shape != (d,):
        raise _UsageError(f"--f: vector needs {d} entries, got {len(values)}")
    return TestFunction(values, name="vector")


def _cmd_sweep(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    sim = parsed.sim
    try:
        if args.kappa:
            kappas = _parse_kappas(args.kappa)
        elif sim.kappas:
            kappas = sim.kappas
        else:
            kappas = DEFAULT_KAPPAS_FINITE if parsed.kind == "finite" else DEFAULT_KAPPAS_LG
        # The sim block passed the same rules when the file was parsed, so a
        # failure here names a flag.
        params = sim.params(**{name: getattr(args, name) for name in SIM_FLAGS})
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise _UsageError(f"--{name.replace('_', '-')} {rule}") from exc

    if parsed.kind == "finite":
        model = parsed.model
        f = _parse_f(args.f, model.d) if args.f else indicator(0, model.d)
        result = kappa_sweep_finite(model, f, kappas, params)
    else:
        for name in (*SIM_FLAGS, "f"):
            if getattr(args, name) is not None:
                print(f"note: --{name.replace('_', '-')} ignored for linear_gaussian sweeps", file=sys.stderr)
        result = kappa_sweep_lg(parsed.model, kappas)

    _emit(result.to_csv(), args.out)
    if args.json:
        bundle = _bundle(
            parsed,
            seed=params.seed if parsed.kind == "finite" else None,
            verdict=result.verdict_reference.to_dict(),
            sweep=result.to_dict(),
        )
        Path(args.json).write_text(json.dumps(bundle, indent=2) + "\n")
    for row in result.rows:
        if row.status != "ok":
            print(f"note: kappa={row.kappa:g}: {row.status}", file=sys.stderr)
    if result.flag != CONSISTENT:
        print(f"sweep flag: {result.flag} (trend {result.trend!r})", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.csv)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    reader = csv.DictReader(io.StringIO(text))
    rows: list[tuple[float, float, float | None]] = []
    flag = ""
    try:
        for rec in reader:
            flag = rec.get("flag", "") or flag
            if not rec.get("estimate"):
                continue
            se = rec.get("std_error") or None
            rows.append(
                (float(rec["kappa"]), float(rec["estimate"]), float(se) if se else None)
            )
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {path} is not a sweep CSV: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print(f"error: {path} has no plottable rows", file=sys.stderr)
        return 1
    svg = render_sweep_svg(rows, title=path.name, flag=flag)
    _emit(svg, args.out or str(path.with_suffix(".svg")))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parse_args never changes it."""
    parser = _Parser(prog="maxacc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def with_model(p: _Parser) -> None:
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("analyze", help="print the maximal-accuracy verdict as JSON")
    with_model(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("zeros", help="print the transmission-zero report as JSON")
    with_model(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("reverse", help="print the time-reversed generator")
    with_model(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of plain rows")
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("sweep", help="run a kappa sweep and write the CSV table")
    with_model(p)
    p.add_argument("--kappa", help="comma-separated noise strengths")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials per kappa (finite models)")
    p.add_argument("--horizon", type=float, help="simulation horizon per trial")
    p.add_argument("--dt", type=float, help="filter grid step (default: kappa-dependent)")
    p.add_argument("--burn-in", type=float, dest="burn_in", help="time discarded before averaging")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--f", help="test function: 'identity', 'indicator:K', or a value vector")
    p.add_argument("--json", help="also write a full report bundle to this path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render a sweep CSV to a log-log SVG chart")
    p.add_argument("csv", help="sweep CSV produced by the sweep command")
    p.add_argument("--out", help="SVG path (default: CSV path with .svg)")
    p.set_defaults(func=_cmd_report)
    return parser


def run_command(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and map failures to documented exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MaxaccError as exc:
        print(f"{EXIT_PREFIX[exc.exit_code]} {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:  # before ValueError, its base class
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
