"""Shared result types: verdicts, zero reports, sweep tables, trend classification.

Both model families answer the same question (does the optimal filter reach
maximal accuracy as the noise strength kappa goes to zero?) and validate the
answer the same way (a kappa sweep of the stationary error classified as
decay versus plateau), so the result containers live in one place.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateWeight, NoStabilizingSolution

# Sweep flags.
CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"
UNDECIDED = "UNDECIDED"

# Zero classifications by real part.
OPEN_RIGHT = "OPEN_RIGHT"
BOUNDARY = "BOUNDARY"
LEFT = "LEFT"

# Trend decision rule constants. The theory gives no convergence rate, so the
# classifier is deliberately coarse: a clear log-log slope with a small final
# value counts as decay; two stable final values well above zero count as a
# plateau; everything else stays undecided.
DECAY_SLOPE = 0.5
DECAY_FLOOR = 0.05          # final estimate below this fraction of the base variance
PLATEAU_FLOOR = 0.1         # plateau level above this fraction of the base variance
EXACT_HALF_WIDTH = 0.0125   # synthetic relative half-width for exact (Riccati) rows


# Largest |f(i)| a test function may take. A squared error is at most
# (2 F_MAX)^2, and a sweep row sums at most wonham.TRIAL_STEP_BUDGET (1e10) of
# them and squares per-trial means for its standard error, so every sum stays
# finite: (2 F_MAX)^4 * 1e10 is about 1.6e291.
F_MAX = 1e70


def check_test_function(f: np.ndarray, d: int) -> np.ndarray:
    """The one test-function rule: f: states -> R is a 1-d vector of d values within +-F_MAX."""
    v = np.asarray(f, dtype=float)
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ValueError("test function must be a finite 1-d value vector")
    if v.shape != (d,):
        raise ValueError(f"test function needs {d} values, got shape {v.shape}")
    peak = float(np.abs(v).max(initial=0.0))
    if peak > F_MAX:
        raise ValueError(f"test function values must be at most {F_MAX:g} in absolute value, got {peak:g}")
    return v


def check_positive(name: str, value: float) -> float:
    """The rule for horizons, grid steps and noise strengths: positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value:g}")
    return value


def check_integer(name: str, value) -> int:
    """The rule for trial counts, seeds and state indices: an integer, returned as int.

    A numpy integer is accepted; a bool is refused, though Python counts it as one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_kappa(kappa: float) -> float:
    """The one noise-strength rule: kappa is positive and finite."""
    return check_positive("kappa", kappa)


def check_kappas(kappas) -> list[float]:
    """The one kappa-grid rule: at least one kappa, each passing check_kappa, and none repeated."""
    grid = [check_kappa(kappa) for kappa in kappas]
    if not grid:
        raise ValueError("kappa grid is empty; a sweep needs at least one kappa")
    repeated = [kappa for i, kappa in enumerate(grid) if kappa in grid[:i]]
    if repeated:
        raise ValueError(f"kappa {repeated[0]:g} is repeated; a sweep has one row per kappa")
    return grid


def indicator(i: int, d: int) -> np.ndarray:
    """The indicator of state i among d states."""
    i = check_integer("indicator index", i)
    if not 0 <= i < d:
        raise ValueError(f"indicator index {i} outside 0..{d - 1}")
    v = np.zeros(d)
    v[i] = 1.0
    return v


def identity_embedding(d: int) -> np.ndarray:
    """The state index as a value: f(i) = i."""
    return np.arange(d, dtype=float)


@dataclass
class InvertibilityReport:
    ok: bool
    violations: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class ReconstructibilityReport:
    ok: bool
    dim: int
    basis: np.ndarray
    notes: list[str] = field(default_factory=list)


@dataclass
class Zero:
    """One certified transmission zero with its rank-drop certificate."""

    value: complex
    classification: str         # OPEN_RIGHT | BOUNDARY | LEFT
    sigma_min: float            # smallest singular value of the transfer matrix there
    multiplicity: int = 1


@dataclass
class ZeroReport:
    zeros: list[Zero]
    normal_rank: int
    structural_fail: bool = False   # wide systems: columns can never be independent
    scale: float = 1.0              # reference transfer-matrix scale used to certify
    notes: list[str] = field(default_factory=list)

    def open_right(self) -> list[Zero]:
        return [z for z in self.zeros if z.classification == OPEN_RIGHT]


@dataclass
class Verdict:
    """Structured maximal-accuracy answer for either model family."""

    kind: str                   # "finite" | "linear_gaussian"
    maximal_accuracy: bool
    invertibility: InvertibilityReport | None = None
    reconstructibility: ReconstructibilityReport | None = None
    zero_report: ZeroReport | None = None
    reduced_dim: int | None = None
    notes: list[str] = field(default_factory=list)


@dataclass
class SweepRow:
    """One kappa point of a sweep. std_error is None for exact (Riccati) rows."""

    kappa: float
    estimate: float
    std_error: float | None = None
    trials: int | None = None
    horizon: float | None = None
    dt: float | None = None
    burn_in: float | None = None
    status: str = "ok"

    def half_width(self) -> float:
        """95% confidence half-width; synthetic for exact rows (see classify_trend)."""
        if self.std_error is None:
            return EXACT_HALF_WIDTH * abs(self.estimate)
        return 1.96 * self.std_error


@contextmanager
def row_failure(row: SweepRow):
    """Both sweeps' per-row rule: a numerical failure or ValueError goes into row.status."""
    try:
        yield
    except (DegenerateWeight, NoStabilizingSolution, ValueError) as exc:
        row.status = f"error: {type(exc).__name__}: {exc}"


@dataclass
class SweepResult:
    """A sweep's rows, its trend and flag, and the verdict it was flagged against."""

    rows: list[SweepRow]
    base_variance: float
    trend: str                  # "decays" | "plateau" | "undecided"
    flag: str
    verdict: Verdict

    @classmethod
    def of(cls, rows: list[SweepRow], verdict: Verdict, base: float) -> SweepResult:
        """Classify the rows' trend and flag it against the verdict."""
        trend = classify_trend(rows, base)
        return cls(rows, base, trend, consistency_flag(trend, verdict.maximal_accuracy), verdict)

    def to_csv(self) -> str:
        """Fixed-schema CSV; float fields use repr so output is byte-stable."""
        buf = io.StringIO()
        buf.write("kappa,estimate,std_error,trials,horizon,dt,burn_in,flag\n")
        for r in self.rows:
            cells = [repr(float(r.kappa))]
            if r.status == "ok":
                cells.append(repr(float(r.estimate)))
                cells.append("" if r.std_error is None else repr(float(r.std_error)))
            else:
                cells.extend(["", ""])
            for v in (r.trials, r.horizon, r.dt, r.burn_in):
                if v is None:
                    cells.append("")
                elif isinstance(v, int):
                    cells.append(str(v))
                else:
                    cells.append(repr(float(v)))
            cells.append(self.flag)
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def classify_trend(rows: list[SweepRow], base_variance: float) -> str:
    """Classify a sweep as "decays", "plateau", or "undecided".

    Rule: fit the slope of log(estimate) against log(kappa); slope above 0.5
    with the final estimate below 0.05 * base variance means decay. Otherwise,
    final two estimates within twice their combined confidence half-widths of
    each other and above 0.1 * base variance means plateau. Anything else is
    undecided. Exact rows carry a synthetic relative half-width so the same
    band logic applies to Riccati sweeps. A sweep whose smallest-kappa row
    failed is undecided: the question is about small kappa, and the rows left
    cannot answer it.
    """
    if rows and min(rows, key=lambda r: r.kappa).status != "ok":
        return "undecided"
    rows = sorted((r for r in rows if r.status == "ok"), key=lambda r: -r.kappa)
    if len(rows) < 2:
        return "undecided"
    est = np.array([r.estimate for r in rows])
    if np.all(est < 1e-14):
        # Error is identically zero at every kappa; nothing left to decay.
        return "decays"
    kap = np.array([r.kappa for r in rows])
    slope = float(np.polyfit(np.log(kap), np.log(np.maximum(est, 1e-300)), 1)[0])
    if slope > DECAY_SLOPE and est[-1] < DECAY_FLOOR * base_variance:
        return "decays"
    band = 2.0 * (rows[-1].half_width() + rows[-2].half_width())
    if abs(est[-1] - est[-2]) <= band and est[-1] > PLATEAU_FLOOR * base_variance:
        return "plateau"
    return "undecided"


def consistency_flag(trend: str, maximal_accuracy: bool) -> str:
    """CONSISTENT when the empirical trend matches the algebraic verdict."""
    if trend == "decays":
        return CONSISTENT if maximal_accuracy else INCONSISTENT
    if trend == "plateau":
        return INCONSISTENT if maximal_accuracy else CONSISTENT
    return UNDECIDED


def to_json(value):
    """A result as the plain JSON values of its report-bundle section.

    A dataclass becomes its fields in declaration order; a complex field is
    written as "re" and "im" in its place, and a Verdict leaves out the None
    sections of the other model family. Arrays and tuples become lists. A
    non-finite float becomes None, so every bundle is strict JSON (RFC 8259).
    """
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist() if np.isfinite(value).all() else to_json(value.tolist())
    out = {}
    for f in fields(value):  # a TypeError for anything else
        v = getattr(value, f.name)
        if isinstance(v, complex):
            out["re"], out["im"] = to_json(v.real), to_json(v.imag)
        elif v is not None or not isinstance(value, Verdict):
            out[f.name] = to_json(v)
    return out
