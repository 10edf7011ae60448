"""Maximal-accuracy analysis of linear-Gaussian filtering models.

For the linear SDE system

    dX_t = A X_t dt + D dW_t,        X in R^p, W in R^m,
    dY_t = H X_t dt + kappa dB_t,    Y in R^n,

the optimal (Kalman-Bucy) filter reaches maximal accuracy as kappa -> 0 if
and only if the transfer matrix G(lam) = H (lam I - A)^{-1} D has linearly
independent columns for every lam with Re lam > 0. Zeros strictly inside the
right half plane obstruct maximal accuracy; boundary zeros do not, because
the criterion is a strict inequality.

This module provides the structural checks (rank, stabilizability,
detectability), transfer-function zero finding with per-zero certification,
the output-injection reduction A -> A - KH for unstable models, Lyapunov and
stationary Riccati solvers, and the Riccati-trace kappa sweep that plays the
role of the Monte-Carlo sweep in the finite-state case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    IllConditionedPencil,
    NoStabilizingSolution,
    NotDetectable,
    NotDetectableOrStabilizable,
    NotStable,
    RankDeficientDorH,
    SingularShift,
)
from .verdicts import (
    BOUNDARY,
    LEFT,
    OPEN_RIGHT,
    SweepResult,
    SweepRow,
    Verdict,
    Zero,
    ZeroReport,
    row_failure,
)
from .wonham import check_kappa

RANK_TOL = 1e-9             # relative singular-value cutoff for rank decisions
BOUNDARY_BAND = 1e-8        # |Re lam| below this: boundary zero, does not fail the test
CERT_ACCEPT = 1e-7          # sigma_min / scale below this certifies a zero
CERT_REJECT = 1e-5          # sigma_min / scale above this rejects a candidate
SHIFT_TOL = 1e-10           # relative distance to an eigenvalue that blocks evaluation
RICCATI_RESIDUAL = 1e-8     # relative residual bound on the stationary equation
PSD_TOL = 1e-10
COMPRESSION_SEED = 0x5EED   # seeds the random row compressions of tall systems


def _svd_rank(s: np.ndarray) -> int:
    """Numerical rank from singular values in descending order."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def _rank(M: np.ndarray) -> int:
    return _svd_rank(np.linalg.svd(M, compute_uv=False))


@dataclass
class LinearGaussianModel:
    """Linear SDE system matrices A (p x p), D (p x m), H (n x p).

    Construction enforces shape consistency, m <= p and n <= p, and full rank
    of D (independent columns) and H (independent rows). Stability and the
    stabilizability/detectability assumptions are checked by validate_model,
    so that rejected models can still be constructed and inspected.
    """

    A: np.ndarray
    D: np.ndarray
    H: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        p = self.A.shape[0]
        if self.A.shape != (p, p):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.D.shape[0] != p:
            raise DimensionMismatch(f"D has {self.D.shape[0]} rows, A is {p} x {p}")
        if self.H.shape[1] != p:
            raise DimensionMismatch(f"H has {self.H.shape[1]} columns, A is {p} x {p}")
        if self.m > p or self.n > p:
            raise DimensionMismatch(
                f"need m <= p and n <= p, got p={p}, m={self.m}, n={self.n}"
            )
        for name, M, full in (("D", self.D, self.m), ("H", self.H, self.n)):
            if _rank(M) < full:
                raise RankDeficientDorH(f"{name} must have full rank {full}")

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[1]

    @property
    def n(self) -> int:
        return self.H.shape[0]


def is_stable(A: np.ndarray, margin: float = 0.0) -> bool:
    """True when every eigenvalue of A has real part below -margin."""
    return bool(np.max(np.linalg.eigvals(A).real) < -margin)


def _pbh_rank_ok(A: np.ndarray, other: np.ndarray, stack_rows: bool) -> bool:
    """PBH test: full rank of the pencil at every eigenvalue with Re >= 0."""
    p = A.shape[0]
    eigs = np.linalg.eigvals(A)
    for lam in eigs[eigs.real >= -1e-9]:
        shifted = A - lam * np.eye(p)
        M = np.vstack([shifted, other]) if stack_rows else np.hstack([shifted, other])
        if _rank(M) < p:
            return False
    return True


def validate_model(model: LinearGaussianModel) -> dict:
    """Check the standing assumptions and classify the model.

    Returns {"stable", "stabilizable", "detectable"} booleans. Stability is
    read off the eigenvalues of A; stabilizability of (A, D) and
    detectability of (A, H) use PBH rank tests at each eigenvalue with
    nonnegative real part. Raises NotDetectableOrStabilizable when A is
    unstable and the pair tests do not guarantee a reduction to a stable
    model.
    """
    stable = is_stable(model.A)
    stabilizable = _pbh_rank_ok(model.A, model.D, stack_rows=False)
    detectable = _pbh_rank_ok(model.A, model.H, stack_rows=True)
    if not stable and not (stabilizable and detectable):
        raise NotDetectableOrStabilizable(
            "A is unstable and (A, D) stabilizable / (A, H) detectable fails"
        )
    return {"stable": stable, "stabilizable": stabilizable, "detectable": detectable}


def lyapunov_solve(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A S + S A^T + Q = 0 for the stationary covariance S.

    Parameters
    ----------
    A : asymptotically stable p x p matrix.
    Q : symmetric positive semidefinite p x p matrix.

    Returns
    -------
    The unique symmetric solution, with relative residual below 1e-10.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if not is_stable(A):
        raise NotStable("Lyapunov equation needs an asymptotically stable A")
    S = sla.solve_continuous_lyapunov(A, -Q)
    S = 0.5 * (S + S.T)
    # One refinement pass on the residual, then verify.
    R = A @ S + S @ A.T + Q
    corr = sla.solve_continuous_lyapunov(A, -R)
    S = 0.5 * ((S + corr) + (S + corr).T)
    R = A @ S + S @ A.T + Q
    denom = max(np.linalg.norm(Q), 2 * np.linalg.norm(A @ S), 1e-300)
    if np.linalg.norm(R) > 1e-10 * denom:
        raise NotStable(f"Lyapunov residual {np.linalg.norm(R):.2e} did not converge")
    return S


def transfer_eval(model: LinearGaussianModel, lam: complex) -> np.ndarray:
    """Evaluate the transfer matrix G(lam) = H (lam I - A)^{-1} D.

    Uses a linear solve, never an explicit inverse. Raises SingularShift when
    lam is an eigenvalue of A (within a relative tolerance), where G has a
    pole rather than a value.
    """
    A, D, H = model.A, model.D, model.H
    eigs = np.linalg.eigvals(A)
    scale = max(1.0, float(np.max(np.abs(eigs))), abs(lam))
    if np.min(np.abs(eigs - lam)) <= SHIFT_TOL * scale:
        raise SingularShift(f"lambda = {lam} is an eigenvalue of A")
    X = np.linalg.solve(lam * np.eye(model.p) - A, D.astype(complex))
    return H @ X


def _probe_scale(model: LinearGaussianModel, radius: float) -> tuple[float, int]:
    """Generic transfer-matrix size and column rank on the circle |lambda| = radius.

    Sampled at probe points where G is regular. Zeros are certified relative
    to this scale: at a zero of a single-output system the largest singular
    value vanishes together with the smallest, so the scale cannot be read
    off the zero itself. A strictly proper G decays like 1/|lambda|, so a far
    pencil candidate is certified against the scale at its own radius, or any
    numerically infinite generalized eigenvalue would pass.
    """
    scale = 0.0
    rank = 0
    for ref in _probe_points(radius):
        s = np.linalg.svd(transfer_eval(model, ref), compute_uv=False)
        if s.size and s[0] > scale:
            scale = float(s[0])
        rank = max(rank, _svd_rank(s))
    return max(scale, 1e-300), rank


def _probe_points(radius: float) -> list[complex]:
    return [radius + 0j, radius * 1j, radius * (0.6 + 0.8j), 0.5 * radius * (1 + 1j)]


def _classify(lam: complex) -> str:
    if lam.real > BOUNDARY_BAND:
        return OPEN_RIGHT
    if lam.real < -BOUNDARY_BAND:
        return LEFT
    return BOUNDARY


def _pencil_candidates(A: np.ndarray, D: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Finite generalized eigenvalues of the system pencil [[A, D], [H, 0]].

    The pencil is taken against blockdiag(I, 0); finite eigenvalues are the
    points where the square system [A, D; H, 0] drops rank, which for a
    square transfer matrix are exactly its zeros.
    """
    p, m = D.shape
    n = H.shape[0]
    L = np.block([[A, D], [H, np.zeros((n, m))]])
    M = np.zeros((p + n, p + m))
    M[:p, :p] = np.eye(p)
    w = sla.eigvals(L, M)
    return w[np.isfinite(w)]


def _cluster(candidates: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Group nearby candidates into (center, multiplicity) pairs."""
    clusters: list[list[complex]] = []
    for lam in sorted(candidates, key=lambda z: (z.real, z.imag)):
        for group in clusters:
            if abs(lam - group[0]) <= tol * max(1.0, abs(group[0])):
                group.append(lam)
                break
        else:
            clusters.append([lam])
    return [(complex(np.mean(g)), len(g)) for g in clusters]


def transmission_zeros(model: LinearGaussianModel) -> ZeroReport:
    """Locate and certify the zeros of G(lam) = H (lam I - A)^{-1} D.

    Requires a stable A (reduce unstable models first; the verdict is
    invariant under that reduction). Three regimes:

    * wide (m > n): an n x m matrix with m > n can never have independent
      columns; the report carries the structural verdict and no zero search.
    * square (m == n): finite generalized eigenvalues of the system pencil,
      each certified by the smallest singular value of G there.
    * tall (m < n): candidates from two independently drawn random row
      compressions M H (m x p each, drawn from COMPRESSION_SEED); every
      candidate is certified or rejected directly on the full system, which
      guards against an unlucky draw.

    Certification is relative to the transfer scale on a reference circle
    outside the spectral disc of A: sigma_min below CERT_ACCEPT * scale
    certifies, above CERT_REJECT * scale rejects, and the band in between
    raises IllConditionedPencil rather than guessing.
    """
    eigs = np.linalg.eigvals(model.A)
    if not np.max(eigs.real) < 0:
        raise NotStable("transmission_zeros needs a stable A; apply reduce_unstable first")
    rho = float(np.max(np.abs(eigs)))
    ref_radius = 2.0 * (1.0 + rho)
    scale, normal_rank = _probe_scale(model, ref_radius)
    if model.m > model.n:
        return ZeroReport(
            zeros=[],
            normal_rank=normal_rank,
            structural_fail=True,
            scale=scale,
            notes=[f"m = {model.m} > n = {model.n}: columns can never be independent"],
        )
    if normal_rank < model.m:
        return ZeroReport(
            zeros=[],
            normal_rank=normal_rank,
            structural_fail=True,
            scale=scale,
            notes=[
                f"normal rank {normal_rank} < m = {model.m}: columns are "
                "dependent at every lambda"
            ],
        )

    if model.m == model.n:
        candidates = _pencil_candidates(model.A, model.D, model.H)
        notes = []
    else:
        rng = np.random.default_rng(COMPRESSION_SEED)
        pools = []
        for _ in range(2):
            M = rng.standard_normal((model.m, model.n))
            pools.append(_pencil_candidates(model.A, model.D, M @ model.H))
        candidates = np.concatenate(pools) if pools else np.array([])
        notes = ["tall system: candidates from two random row compressions"]

    eig_scale = max(1.0, rho)
    zeros: list[Zero] = []
    for center, mult in _cluster(candidates, 1e-7):
        if np.min(np.abs(eigs - center)) <= 1e-8 * eig_scale:
            raise IllConditionedPencil(
                f"candidate zero {center} coincides with an eigenvalue of A; "
                "cannot certify (non-minimal realization?)"
            )
        s = np.linalg.svd(transfer_eval(model, center), compute_uv=False)
        sigma_min = float(s[-1])
        # Beyond the reference circle G has already decayed, so the margins
        # must follow it; otherwise near-infinite pencil eigenvalues, where
        # sigma_min is trivially tiny, would be certified as zeros.
        local = scale if abs(center) <= ref_radius else _probe_scale(model, abs(center))[0]
        if sigma_min < CERT_ACCEPT * local:
            zeros.append(Zero(center, _classify(center), sigma_min, mult))
        elif sigma_min <= CERT_REJECT * local:
            raise IllConditionedPencil(
                f"candidate {center}: sigma_min/scale = {sigma_min / local:.2e} "
                f"falls between the accept ({CERT_ACCEPT:g}) and reject "
                f"({CERT_REJECT:g}) thresholds"
            )
        elif abs(center) > 1e6 * ref_radius:
            notes.append(
                f"dropped pencil candidate at |lambda| = {abs(center):.2e} "
                "(indistinguishable from a zero at infinity)"
            )
        # Other rejected candidates are spurious compression artifacts
        # (possible for the tall path) and are dropped silently.
    zeros.sort(key=lambda z: (z.value.real, z.value.imag))
    return ZeroReport(zeros=zeros, normal_rank=normal_rank, scale=scale, notes=notes)


def ks_check(model: LinearGaussianModel) -> Verdict:
    """Algebraic maximal-accuracy verdict for a linear-Gaussian model.

    Wide systems (m > n) never achieve maximal accuracy. Otherwise the answer
    is true exactly when no certified zero lies strictly in the open right
    half plane; boundary zeros are allowed. Unstable models are reduced by
    output injection first, which leaves the answer unchanged.
    """
    flags = validate_model(model)
    notes = []
    work = model
    if not flags["stable"]:
        work = reduce_unstable(model)
        notes.append("unstable A reduced by output injection A - KH before zero search")
    report = transmission_zeros(work)
    ok = not report.structural_fail and not report.open_right()
    if report.structural_fail:
        notes.extend(report.notes)
    return Verdict(
        kind="linear_gaussian",
        maximal_accuracy=ok,
        zero_report=report,
        notes=notes,
    )


def detectability_gain(
    A: np.ndarray,
    H: np.ndarray,
    margin: float = 1e-6,
    weight: float = 1.0,
) -> np.ndarray:
    """A gain K such that A - KH is stable with the requested margin.

    Parameters
    ----------
    A, H : system matrices with (A, H) detectable.
    margin : every eigenvalue of A - KH must satisfy Re < -margin.
    weight : state weight of the underlying dual Riccati construction. Any
        positive value yields a valid gain; different weights give
        different gains, which is useful for checking that downstream
        verdicts do not depend on the choice.

    Returns K = 0 when A already meets the margin. The gain is otherwise the
    dual LQ solution X H^T with X solving the shifted dual Riccati equation,
    so the margin is met by construction and re-verified on the eigenvalues.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    p = A.shape[0]
    if not _pbh_rank_ok(A, H, stack_rows=True):
        raise NotDetectable("(A, H) fails the PBH detectability test")
    if is_stable(A, margin=margin):
        return np.zeros((p, H.shape[0]))
    shifted = A + margin * np.eye(p)
    try:
        X = sla.solve_continuous_are(
            shifted.T, H.T, weight * np.eye(p), np.eye(H.shape[0])
        )
    except np.linalg.LinAlgError as exc:
        raise NotDetectable(f"dual Riccati construction failed: {exc}") from exc
    K = X @ H.T
    if not is_stable(A - K @ H, margin=margin * (1 - 1e-9)):
        raise NotDetectable("constructed gain misses the stability margin")
    return K


def reduce_unstable(
    model: LinearGaussianModel, gain: np.ndarray | None = None
) -> LinearGaussianModel:
    """Replace A by A - KH for a stabilizing K; D and H are unchanged.

    The zero structure of H (lam I - A)^{-1} D in the open right half plane,
    and hence the maximal-accuracy verdict, is invariant under this
    substitution for any valid K. A stable model with no explicit gain is
    returned unchanged (the K = 0 path).
    """
    if gain is None:
        if is_stable(model.A):
            return model
        gain = detectability_gain(model.A, model.H)
    K = np.atleast_2d(np.asarray(gain, dtype=float))
    if K.shape != (model.p, model.n):
        raise DimensionMismatch(f"gain must be {model.p} x {model.n}, got {K.shape}")
    Abar = model.A - K @ model.H
    if not is_stable(Abar):
        raise NotStable("provided gain does not stabilize A - KH")
    return LinearGaussianModel(Abar, model.D, model.H)


@dataclass
class RiccatiSolution:
    """Stationary filter error covariance at one noise level."""

    kappa: float
    P: np.ndarray
    trace: float = field(init=False)

    def __post_init__(self) -> None:
        self.trace = float(np.trace(self.P))


def _riccati_residual(A: np.ndarray, Q: np.ndarray, H: np.ndarray, r: float, P: np.ndarray) -> float:
    corr = P @ H.T @ H @ P / r
    res = A @ P + P @ A.T + Q - corr
    denom = np.linalg.norm(Q) + 2 * np.linalg.norm(A @ P) + np.linalg.norm(corr)
    return float(np.linalg.norm(res) / max(denom, 1e-300))


def _kleinman(
    A: np.ndarray, Q: np.ndarray, H: np.ndarray, r: float, P: np.ndarray, iters: int = 30
) -> np.ndarray | None:
    """Newton (Kleinman) refinement of the stationary Riccati solution.

    Each step solves one Lyapunov equation for the current closed loop.
    Returns None when the starting point is not stabilizing or progress
    stalls above the residual target.
    """
    best = None
    for _ in range(iters):
        K = P @ H.T / r
        Acl = A - K @ H
        if not is_stable(Acl):
            return best
        P = sla.solve_continuous_lyapunov(Acl, -(Q + r * K @ K.T))
        P = 0.5 * (P + P.T)
        res = _riccati_residual(A, Q, H, r, P)
        best = P
        if res < 1e-12:
            break
    return best


def riccati_stationary(
    model: LinearGaussianModel, kappa: float, warm: np.ndarray | None = None
) -> RiccatiSolution:
    """Stabilizing solution P of A P + P A^T + D D^T - P H^T H P / kappa^2 = 0.

    Solved by the Hamiltonian/Schur method with Newton refinement. Small
    kappa makes the direct solve ill conditioned, so on failure the solver
    walks a geometric kappa ladder from an easier noise level down to the
    target, warm-starting Newton at each rung. A warm start from a nearby
    kappa can be supplied directly, which is how sweeps traverse a grid.
    """
    check_kappa(kappa)
    validate_model(model)
    A, H = model.A, model.H
    Q = model.D @ model.D.T
    r = kappa * kappa

    def finish(P: np.ndarray) -> RiccatiSolution:
        P = 0.5 * (P + P.T)
        res = _riccati_residual(A, Q, H, r, P)
        if res > RICCATI_RESIDUAL:
            raise NoStabilizingSolution(
                f"Riccati residual {res:.2e} exceeds {RICCATI_RESIDUAL:g} at kappa={kappa:g}"
            )
        if np.min(np.linalg.eigvalsh(P)) < -PSD_TOL:
            raise NoStabilizingSolution(f"Riccati solution indefinite at kappa={kappa:g}")
        return RiccatiSolution(kappa=kappa, P=P)

    def care(rk: float) -> np.ndarray:
        """Direct Schur solve; LinAlgError, or ValueError when scipy's ordqz cannot reorder."""
        P = sla.solve_continuous_are(A.T, H.T, Q, rk * np.eye(model.n))
        return 0.5 * (P + P.T)

    if warm is not None:
        P = _kleinman(A, Q, H, r, warm)
        if P is not None and _riccati_residual(A, Q, H, r, P) <= RICCATI_RESIDUAL:
            return finish(P)

    try:
        P = care(r)
        refined = _kleinman(A, Q, H, r, P, iters=5)
        if refined is not None:
            P = refined
        if _riccati_residual(A, Q, H, r, P) <= RICCATI_RESIDUAL:
            return finish(P)
    except ValueError:
        pass

    # Continuation: start from an easy noise level, walk down in half-decade
    # steps so each Newton warm start stays inside its basin.
    ladder = []
    k = max(kappa * 1e3, 1.0)
    while k > kappa * 1.0001:
        ladder.append(k)
        k /= np.sqrt(10.0)
    ladder.append(kappa)
    try:
        P = care(ladder[0] * ladder[0])
    except ValueError as exc:
        raise NoStabilizingSolution(
            f"direct Riccati solve failed at continuation start kappa={ladder[0]:g}: {exc}"
        ) from exc
    for k in ladder:
        P = _kleinman(A, Q, H, k * k, P)
        if P is None:
            raise NoStabilizingSolution(
                f"Newton continuation lost the stabilizing branch at kappa={k:g}"
            )
    return finish(P)


def kappa_sweep_lg(model: LinearGaussianModel, kappas: list[float]) -> SweepResult:
    """Riccati-trace sweep: rows (kappa, trace P(kappa)) plus the verdict flag.

    The sweep walks kappas in descending order, warm-starting each solve from
    the previous solution (the continuation is sequential by construction).
    Exact rows carry no standard error; the trend classifier uses a synthetic
    relative band instead. The base scale for the decay/plateau floors is the
    stationary signal variance trace(Sigma) when A is stable, otherwise the
    error trace at the largest swept kappa.
    """
    verdict = ks_check(model)
    rows: list[SweepRow] = []
    P_prev: np.ndarray | None = None
    for kappa in sorted(kappas, reverse=True):
        row = SweepRow(kappa=kappa, estimate=float("nan"))
        with row_failure(row):
            sol = riccati_stationary(model, kappa, warm=P_prev)
            row.estimate = sol.trace
            P_prev = sol.P
        rows.append(row)
    if is_stable(model.A):
        base = float(np.trace(lyapunov_solve(model.A, model.D @ model.D.T)))
    else:
        ok = [r for r in rows if r.status == "ok"]
        base = ok[0].estimate if ok else float("nan")
    return SweepResult.of(rows, verdict, base)
