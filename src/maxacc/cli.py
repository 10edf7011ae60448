"""Command dispatch: analyze / zeros / reverse / sweep / report.

Exit codes: 0 success, 1 invalid model or input, 2 undecided verdict or a
sweep whose empirical trend does not confirm the algebraic verdict, 3
internal numerical failure. One table, EXITS, maps each failure's exception
class to its code and standard-error prefix. Invalid input includes an output
path that cannot be written ("cannot write <path>: ...") and a report CSV row
whose kappa, estimate or std_error cannot be plotted ("<path> line N: ...").
Diagnostics go to standard error; artifacts go to --out paths or standard
output, written as UTF-8.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, errors
from .finite_analysis import finite_verdict
from .lingauss import kappa_sweep_lg, ks_check, reduce_unstable, transmission_zeros
from .markov import reduce_support, time_reverse
from .modelfile import SCHEMA_VERSION, ParsedModelFile, model_hash, parse_model_file, validate_report
from .svgreport import render_sweep_svg
from .verdicts import (CONSISTENT, check_kappa, check_kappas, check_test_function, identity_embedding,
                       indicator, to_json)
from .wonham import SimParams, kappa_sweep_finite

DEFAULT_KAPPAS_FINITE = [0.5, 0.1, 0.02]
DEFAULT_KAPPAS_LG = [0.1, 0.01, 0.001, 0.0001]
SIM_FLAGS = tuple(f.name for f in fields(SimParams))  # flags named after the SimParams fields


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 (argparse hook)
        raise _UsageError(message)


# Exit code and standard-error prefix of every command failure. run_command takes
# the first class of the exception's MRO listed here, so LinAlgError (a ValueError)
# exits 3 and every subclass of InvalidInput exits 1; an exception of no listed
# class is a bug and keeps its traceback.
EXITS: dict[type[Exception], tuple[int, str]] = {
    _UsageError: (1, "usage error:"),
    **dict.fromkeys((ValueError, errors.InvalidInput), (1, "error:")),
    errors.IllConditionedPencil: (2, "undecided:"),
    **dict.fromkeys((errors.MaxaccError, np.linalg.LinAlgError), (3, "numerical failure:")),
}


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _emit_bundle(out: str | None, parsed: ParsedModelFile, seed: int | None = None, **sections) -> None:
    """Write a command's report bundle as JSON, once it passes the report schema.

    Strict JSON: a non-finite float that bypassed verdicts.to_json fails the dump (exit 1).
    """
    provenance = {
        "tool": "maxacc",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
    }
    bundle = {"schema_version": SCHEMA_VERSION, "model_hash": model_hash(parsed), "provenance": provenance, **sections}
    _emit(json.dumps(validate_report(bundle), indent=2, allow_nan=False) + "\n", out)


def _cmd_analyze(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    if parsed.kind == "finite":
        verdict = finite_verdict(parsed.model)
    else:
        verdict = ks_check(parsed.model)
    _emit_bundle(args.out, parsed, verdict=to_json(verdict))
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    if parsed.kind == "finite":
        raise ValueError("zeros requires a linear_gaussian model")
    model = reduce_unstable(parsed.model)
    if not parsed.model.stable:
        print("note: unstable A reduced by output injection", file=sys.stderr)
    report = transmission_zeros(model)
    _emit_bundle(args.out, parsed, zero_report=to_json(report))
    return 0


def _cmd_reverse(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    if parsed.kind != "finite":
        raise ValueError("reverse requires a finite model")
    reduced = reduce_support(parsed.model)
    tilde = time_reverse(reduced)
    if args.json:
        _emit_bundle(args.out, parsed, lambda_tilde=[[repr(float(v)) for v in row] for row in tilde])
    else:
        lines = [" ".join(repr(float(v)) for v in row) for row in tilde]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_kappas(text: str) -> list[float]:
    try:
        kappas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"--kappa: {exc}") from exc
    return check_kappas(kappas)


def _parse_f(spec: str, d: int) -> np.ndarray:
    if spec == "identity":
        return identity_embedding(d)
    try:
        if spec.startswith("indicator:"):
            try:
                i = int(spec.split(":", 1)[1])
            except ValueError as exc:
                raise _UsageError(f"--f: bad indicator index in {spec!r}") from exc
            return indicator(i, d)
        try:
            values = [float(tok) for tok in spec.split(",")]
        except ValueError as exc:
            raise _UsageError(
                f"--f: expected 'identity', 'indicator:K', or a comma-separated vector, got {spec!r}"
            ) from exc
        return check_test_function(values, d)
    except ValueError as exc:  # the test-function rule, named after the flag
        raise _UsageError(f"--f: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    parsed = parse_model_file(args.model)
    try:
        default = DEFAULT_KAPPAS_FINITE if parsed.kind == "finite" else DEFAULT_KAPPAS_LG
        kappas = _parse_kappas(args.kappa) if args.kappa is not None else parsed.kappas or default
        # The sim block passed the same rules when the file was parsed, so a
        # failure here names a flag.
        flags = {name: getattr(args, name) for name in SIM_FLAGS if getattr(args, name) is not None}
        params = replace(parsed.sim, **flags)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise _UsageError(f"--{name.replace('_', '-')} {rule}") from exc

    if parsed.kind == "finite":
        model = parsed.model
        f = _parse_f(args.f, model.d) if args.f is not None else indicator(0, model.d)
        result = kappa_sweep_finite(model, f, kappas, params)
    else:
        for name in (*SIM_FLAGS, "f"):
            if getattr(args, name) is not None:
                print(f"note: --{name.replace('_', '-')} ignored for linear_gaussian sweeps", file=sys.stderr)
        result = kappa_sweep_lg(parsed.model, kappas)

    if args.json:  # before the CSV, so a bundle that fails leaves no table behind
        _emit_bundle(args.json, parsed, params.seed if parsed.kind == "finite" else None,
                     verdict=to_json(result.verdict), sweep=to_json(result))
    _emit(result.to_csv(), args.out)
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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    try:
        columns = reader.fieldnames or ()
        records = [(reader.line_num, rec) for rec in reader]
    except csv.Error as exc:
        raise ValueError(f"{path} is not a sweep CSV: {exc}") from exc
    for column in ("kappa", "estimate"):
        if column not in columns:
            raise ValueError(f"{path} is not a sweep CSV: no {column!r} column")
    rows: list[tuple[float, float, float | None]] = []
    flag = ""
    for line, rec in records:
        flag = rec.get("flag", "") or flag
        if not rec.get("estimate"):
            continue
        try:
            se = rec.get("std_error")
            kappa, est, se = float(rec["kappa"]), float(rec["estimate"]), float(se) if se else None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} is not a sweep CSV: {exc}") from exc
        try:  # what render_sweep_svg can draw; sweep --trials 1 writes std_error nan
            check_kappa(kappa)
            if not math.isfinite(est):
                raise ValueError(f"estimate must be finite, got {est:g}")
            if se is not None and not (math.isnan(se) or 0 <= se < math.inf):
                raise ValueError(f"std_error must be empty, nan, or finite and >= 0, got {se:g}")
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from exc
        rows.append((kappa, est, se))
    if not rows:
        raise ValueError(f"{path} has no plottable rows")
    # Outside a UTF-8 locale argv keeps non-ASCII bytes as surrogates: show them as UTF-8.
    title = path.name.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    svg = render_sweep_svg(rows, title=title, flag=flag)
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
    """Parse argv, dispatch, and map a failure to its exit code through EXITS."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:
        found = next((EXITS[cls] for cls in type(exc).__mro__ if cls in EXITS), None)
        if found is None:
            raise
        code, prefix = found
        print(f"{prefix} {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
