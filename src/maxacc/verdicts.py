"""Shared result types: verdicts, zero reports, sweep tables, trend classification.

Both model families answer the same question (does the optimal filter reach
maximal accuracy as the noise strength kappa goes to zero?) and validate the
answer the same way (a kappa sweep of the stationary error classified as
decay versus plateau), so the result containers live in one place.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass, field

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


@dataclass
class TestFunction:
    """A test function f: states -> R, stored as its value vector."""

    __test__ = False  # the Test* name trips pytest collection otherwise

    values: np.ndarray
    name: str = "f"

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("test function must be a finite 1-d value vector")
        self.values = v


def indicator(i: int, d: int) -> TestFunction:
    v = np.zeros(d)
    v[i] = 1.0
    return TestFunction(v, name=f"indicator:{i}")


def identity_embedding(d: int) -> TestFunction:
    return TestFunction(np.arange(d, dtype=float), name="identity")


@dataclass
class InvertibilityReport:
    ok: bool
    violations: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [list(v) for v in self.violations],
            "notes": list(self.notes),
        }


@dataclass
class ReconstructibilityReport:
    ok: bool
    dim: int
    basis: np.ndarray
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "dim": self.dim,
            "basis": self.basis.tolist(),
            "notes": list(self.notes),
        }


@dataclass
class Zero:
    """One certified transmission zero with its rank-drop certificate."""

    value: complex
    classification: str         # OPEN_RIGHT | BOUNDARY | LEFT
    sigma_min: float            # smallest singular value of the transfer matrix there
    multiplicity: int = 1

    def to_dict(self) -> dict:
        return {
            "re": float(self.value.real),
            "im": float(self.value.imag),
            "classification": self.classification,
            "sigma_min": self.sigma_min,
            "multiplicity": self.multiplicity,
        }


@dataclass
class ZeroReport:
    zeros: list[Zero]
    normal_rank: int
    structural_fail: bool = False   # wide systems: columns can never be independent
    scale: float = 1.0              # reference transfer-matrix scale used to certify
    notes: list[str] = field(default_factory=list)

    def open_right(self) -> list[Zero]:
        return [z for z in self.zeros if z.classification == OPEN_RIGHT]

    def to_dict(self) -> dict:
        return {
            "zeros": [z.to_dict() for z in self.zeros],
            "normal_rank": self.normal_rank,
            "structural_fail": self.structural_fail,
            "scale": self.scale,
            "notes": list(self.notes),
        }


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

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "maximal_accuracy": self.maximal_accuracy}
        if self.invertibility is not None:
            out["invertibility"] = self.invertibility.to_dict()
        if self.reconstructibility is not None:
            out["reconstructibility"] = self.reconstructibility.to_dict()
        if self.zero_report is not None:
            out["zero_report"] = self.zero_report.to_dict()
        if self.reduced_dim is not None:
            out["reduced_dim"] = self.reduced_dim
        out["notes"] = list(self.notes)
        return out


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
    rows: list[SweepRow]
    verdict_reference: Verdict
    base_variance: float
    trend: str = "undecided"    # "decays" | "plateau" | "undecided"
    flag: str = UNDECIDED

    @classmethod
    def of(cls, rows: list[SweepRow], verdict: Verdict, base: float) -> SweepResult:
        """Classify the rows' trend and flag it against the verdict."""
        trend = classify_trend(rows, base)
        return cls(rows, verdict, base, trend, consistency_flag(trend, verdict.maximal_accuracy))

    def ok_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.status == "ok"]

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

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "kappa": r.kappa,
                    "estimate": r.estimate if r.status == "ok" else None,
                    "std_error": r.std_error,
                    "trials": r.trials,
                    "horizon": r.horizon,
                    "dt": r.dt,
                    "burn_in": r.burn_in,
                    "status": r.status,
                }
                for r in self.rows
            ],
            "base_variance": self.base_variance,
            "trend": self.trend,
            "flag": self.flag,
            "verdict": self.verdict_reference.to_dict(),
        }


def classify_trend(rows: list[SweepRow], base_variance: float) -> str:
    """Classify a sweep as "decays", "plateau", or "undecided".

    Rule: fit the slope of log(estimate) against log(kappa); slope above 0.5
    with the final estimate below 0.05 * base variance means decay. Otherwise,
    final two estimates within twice their combined confidence half-widths of
    each other and above 0.1 * base variance means plateau. Anything else is
    undecided. Exact rows carry a synthetic relative half-width so the same
    band logic applies to Riccati sweeps.
    """
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
