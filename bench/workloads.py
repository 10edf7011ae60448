"""The three benchmark workloads: inputs made from a seed, one timed pass, oracles.

A pass is the workload's fixed unit of work; a run repeats passes over the
same inputs. Each pass returns one (latency seconds, correct) pair per
operation. Model pools are drawn from POOL_SEED, so their reference outputs
can be recorded once (see make_reference.py); the workload seed picks which
pool models a run uses and keys the Monte-Carlo RNG.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

POOL_SEED = 9011084
LG_KAPPAS = [0.1, 0.01, 0.001, 0.0001]
LG_POOL = 400           # alternating stable / unstable models
LG_PER_PASS = 200
CLI_POOL = 240          # per family
CLI_PER_PASS = 20       # per family; two commands per file
CLI_COMMANDS = {"finite": (["analyze"], ["reverse", "--json"]), "lg": (["analyze"], ["zeros"])}
MC_SIGMAS = 4.0         # Monte-Carlo rows must lie within this many combined SEs
TRACE_RTOL = 1e-8       # Riccati traces: the solver's own residual bound


def _num(x: float) -> str:
    return repr(float(x))


def _matrix(M) -> list[list[str]]:
    return [[_num(v) for v in row] for row in np.atleast_2d(M)]


def finite_doc(L: np.ndarray, h: np.ndarray) -> dict:
    return {
        "schema_version": 1,
        "type": "finite",
        "finite": {"d": int(L.shape[0]), "lambda": _matrix(L), "h": _matrix(h)},
    }


def lg_doc(A: np.ndarray, D: np.ndarray, H: np.ndarray) -> dict:
    return {
        "schema_version": 1,
        "type": "linear_gaussian",
        "linear_gaussian": {"A": _matrix(A), "D": _matrix(D), "H": _matrix(H)},
    }


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _with_diagonal(L: np.ndarray) -> np.ndarray:
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def random_chain(rng: np.random.Generator) -> dict:
    """Irreducible chain with d in 2..8; a third of them copy one observation row."""
    d = int(rng.integers(2, 9))
    L = np.where(rng.random((d, d)) < 0.5, rng.uniform(0.1, 2.0, (d, d)), 0.0)
    for i in range(d):
        L[i, (i + 1) % d] = max(L[i, (i + 1) % d], 0.3)
    h = rng.uniform(-1.0, 2.0, (d, 1 if rng.random() < 0.8 else 2))
    if rng.random() < 0.3:
        i, j = rng.choice(d, size=2, replace=False)
        h[j] = h[i]
    return finite_doc(_with_diagonal(L), h)


def random_lg(rng: np.random.Generator, unstable: bool) -> dict:
    """Gaussian model with p <= 6, shifted to put the rightmost eigenvalue of A
    at a random distance right (unstable) or left (stable) of the axis."""
    p = int(rng.integers(1, 7))
    m = int(rng.integers(1, p + 1))
    n = int(rng.integers(1, p + 1))
    M = rng.standard_normal((p, p))
    margin = rng.uniform(0.1, 1.0) if unstable else -rng.uniform(0.3, 1.5)
    A = M + (margin - float(np.max(np.linalg.eigvals(M).real))) * np.eye(p)
    return lg_doc(A, rng.standard_normal((p, m)), rng.standard_normal((n, p)))


def lg_model(maxacc, doc: dict):
    node = doc["linear_gaussian"]
    return maxacc.LinearGaussianModel(*(np.array(node[k], dtype=float) for k in ("A", "D", "H")))


def lg_pool() -> list[dict]:
    rng = np.random.default_rng([POOL_SEED, 1])
    return [random_lg(rng, unstable=k % 2 == 1) for k in range(LG_POOL)]


def cli_pool() -> tuple[list[dict], list[dict]]:
    rng = np.random.default_rng([POOL_SEED, 2])
    chains = [random_chain(rng) for _ in range(CLI_POOL)]
    lgs = [random_lg(rng, unstable=k % 2 == 1) for k in range(CLI_POOL)]
    return chains, lgs


TWO_STATE = finite_doc(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([[0.0], [1.0]]))


def quiet_command(cli, argv: list[str]) -> tuple[int, str]:
    """run_command with standard output captured and diagnostics dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue()


def write_model(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# oracles


def parse_sweep_csv(text: str) -> tuple[list[dict], str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows, (rows[0]["flag"] if rows else "")


def mc_row_ok(estimate: float, std_error: float, ref: dict) -> bool:
    """A Monte-Carlo row agrees with its high-trial reference within MC_SIGMAS combined SEs."""
    combined = math.hypot(std_error, ref["std_error"])
    return math.isfinite(estimate) and abs(estimate - ref["estimate"]) <= MC_SIGMAS * combined


def lg_outcome(lingauss, model) -> dict:
    """Exact-comparison fields plus Riccati traces for one lg-sweep operation."""
    verdict = lingauss.ks_check(model)
    sweep = lingauss.kappa_sweep_lg(model, LG_KAPPAS)
    return {
        "maximal_accuracy": verdict.maximal_accuracy,
        "zeros": len(verdict.zero_report.zeros),
        "flag": sweep.flag,
        "trend": sweep.trend,
        "status": [r.status if r.status == "ok" else r.status.split(":")[1].strip()
                   for r in sweep.rows],
        "traces": [r.estimate if r.status == "ok" else None for r in sweep.rows],
    }


def lg_outcome_matches(got: dict, ref: dict) -> bool:
    if {k: v for k, v in got.items() if k != "traces"} != {
        k: v for k, v in ref.items() if k != "traces"
    }:
        return False
    for a, b in zip(got["traces"], ref["traces"]):
        if (a is None) != (b is None):
            return False
        if a is not None and not abs(a - b) <= TRACE_RTOL * abs(b):
            return False
    return True


def cli_argv(command: list[str], path: str) -> list[str]:
    return [command[0], "--model", path, *command[1:]]


def cli_outcome(code: int, stdout: str) -> dict:
    """Fields of a CLI result that must match the reference exactly."""
    out: dict = {"exit": code}
    if code != 0:
        return out
    bundle = json.loads(stdout)
    if "verdict" in bundle:
        v = bundle["verdict"]
        out["maximal_accuracy"] = v["maximal_accuracy"]
        if "reconstructibility" in v:
            out["rec_dim"] = v["reconstructibility"]["dim"]
            out["invertible"] = v["invertibility"]["ok"]
        if "zero_report" in v:
            out["zeros"] = len(v["zero_report"]["zeros"])
    if "zero_report" in bundle:
        zr = bundle["zero_report"]
        out["zeros"] = len(zr["zeros"])
        out["open_right"] = sum(z["classification"] == "OPEN_RIGHT" for z in zr["zeros"])
    return out


def reverse_ok(doc: dict, stdout: str) -> bool:
    """Independent check of `reverse --json`: pi_i L~_ij = pi_j L_ji, rows sum to 0."""
    L = np.array(doc["finite"]["lambda"], dtype=float)
    R = np.array(json.loads(stdout)["lambda_tilde"], dtype=float)
    w, v = np.linalg.eig(L.T)
    pi = np.real(v[:, np.argmin(np.abs(w))])
    pi = pi / pi.sum()
    keep = pi > 1e-12
    L, pi = L[np.ix_(keep, keep)], pi[keep]
    if R.shape != L.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(L))))
    off = ~np.eye(len(pi), dtype=bool)
    flux = (pi[:, None] * R - (pi[:, None] * L).T)[off]
    return bool(np.all(np.abs(flux) <= 1e-9 * scale) and np.all(np.abs(R.sum(axis=1)) <= 1e-9 * scale))


# ---------------------------------------------------------------------------
# workloads


class FiniteSweep:
    """`maxacc sweep` on one chain; an operation is one sweep row."""

    def __init__(self, name, doc, kappas, trials, horizon, f):
        self.name, self.doc = name, doc
        self.kappas, self.trials, self.horizon, self.f = kappas, trials, horizon, f

    def argv(self, path: str, seed: int, trials: int | None = None) -> list[str]:
        return [
            "sweep", "--model", path,
            "--kappa", ",".join(_num(k) for k in self.kappas),
            "--trials", str(trials or self.trials),
            "--horizon", _num(self.horizon),
            "--seed", str(seed),
            "--f", self.f,
        ]

    def prepare(self, maxacc, seed: int, workdir: Path, reference: dict) -> None:
        self.cli, self.ref = maxacc.cli, reference
        self.command = self.argv(write_model(workdir, self.name, self.doc), seed)
        self.row_times: list[float] = []
        wonham = maxacc.wonham
        timed = wonham.estimate_stationary_error

        def timer(*args, **kwargs):
            start = perf_counter()
            try:
                return timed(*args, **kwargs)
            finally:
                self.row_times.append(perf_counter() - start)

        wonham.estimate_stationary_error = timer

    def setup_command(self) -> list[str]:
        return self.command

    def run_pass(self) -> list[tuple[float, bool]]:
        self.row_times.clear()
        code, out = quiet_command(self.cli, self.command)
        rows, flag = parse_sweep_csv(out)
        command_ok = code == self.ref["exit"] and flag == self.ref["flag"] and len(rows) == len(self.kappas)
        ops = []
        for row, latency in zip(rows, self.row_times):
            ref = self.ref["rows"].get(row["kappa"])
            ok = ref is not None and bool(row["estimate"]) and mc_row_ok(
                float(row["estimate"]), float(row["std_error"]), ref)
            ops.append((latency, command_ok and ok))
        return ops + [(0.0, False)] * (len(self.kappas) - len(ops))


class LgSweep:
    """Library ks_check plus kappa_sweep_lg; an operation is one model."""

    name = "lg-sweep"

    def prepare(self, maxacc, seed: int, workdir: Path, reference: dict) -> None:
        self.lingauss = maxacc.lingauss
        pool = lg_pool()
        rng = np.random.default_rng(seed)
        half = LG_PER_PASS // 2
        picks = np.concatenate([
            2 * rng.choice(LG_POOL // 2, half, replace=False),
            2 * rng.choice(LG_POOL // 2, half, replace=False) + 1,
        ])
        rng.shuffle(picks)
        self.items = []
        for k in picks:
            doc, ref = pool[k], reference["pool"][k]
            self.items.append((lg_model(maxacc, doc), ref if ref["digest"] == digest(doc) else None))

    def setup_command(self) -> None:
        return None

    def run_pass(self) -> list[tuple[float, bool]]:
        ops = []
        for model, ref in self.items:
            start = perf_counter()
            try:
                got = lg_outcome(self.lingauss, model)
            except Exception as exc:  # an escaping failure is recorded, never fatal
                got = {"error": type(exc).__name__}
            latency = perf_counter() - start
            ops.append((latency, ref is not None and (
                got == ref["out"] if "error" in got else lg_outcome_matches(got, ref["out"]))))
        return ops


class CliAnalyze:
    """In-process run_command on generated model files; an operation is one command."""

    name = "cli-analyze"

    def prepare(self, maxacc, seed: int, workdir: Path, reference: dict) -> None:
        self.cli = maxacc.cli
        chains, lgs = cli_pool()
        rng = np.random.default_rng(seed)
        self.items = []
        for family, pool in (("finite", chains), ("lg", lgs)):
            for k in rng.choice(CLI_POOL, CLI_PER_PASS, replace=False):
                doc, ref = pool[k], reference[family][k]
                path = write_model(workdir, f"{family}{k}", doc)
                valid = ref["digest"] == digest(doc)
                for command in CLI_COMMANDS[family]:
                    expected = ref["out"][command[0]] if valid else None
                    self.items.append((cli_argv(command, path), doc, expected))
        order = rng.permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def setup_command(self) -> None:
        return None

    def run_pass(self) -> list[tuple[float, bool]]:
        ops = []
        for argv, doc, ref in self.items:
            start = perf_counter()
            code, out = quiet_command(self.cli, argv)
            latency = perf_counter() - start
            ok = ref is not None and cli_outcome(code, out) == ref
            if ok and argv[0] == "reverse":
                ok = reverse_ok(doc, out)
            ops.append((latency, ok))
        return ops


def make(name: str):
    if name == "finite-deep":
        # Three kappas with row costs 1:2:4, so the median row is a middle one
        # rather than the gap between a cheap and a dear row.
        return FiniteSweep(name, TWO_STATE, [0.1, 0.07, 0.05], trials=32, horizon=25.0, f="indicator:1")
    if name == "lg-sweep":
        return LgSweep()
    if name == "cli-analyze":
        return CliAnalyze()
    raise KeyError(name)


WORKLOADS = ["finite-deep", "lg-sweep", "cli-analyze"]
