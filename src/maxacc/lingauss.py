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

from .deferred import DeferredModule
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
    check_kappa,
    check_kappas,
    row_failure,
)

sla = DeferredModule("scipy.linalg")  # bench/spans.py and the tests wrap names on it

RANK_TOL = 1e-9             # relative singular-value cutoff for rank decisions
BOUNDARY_BAND = 1e-8        # |Re lam| below this: boundary zero, does not fail the test
CERT_ACCEPT = 1e-7          # sigma_min / scale below this certifies a zero
CERT_REJECT = 1e-5          # sigma_min / scale above this rejects a candidate
SHIFT_TOL = 1e-10           # relative distance to an eigenvalue that blocks evaluation
RICCATI_RESIDUAL = 1e-8     # relative residual bound on the stationary equation
PSD_TOL = 1e-10
COMPRESSION_SEED = 0x5EED   # seeds the random row compressions of tall systems
GAIN_MARGIN = 1e-6          # reduce_unstable puts every eigenvalue of A - KH left of -GAIN_MARGIN


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

    Construction enforces shape consistency, m <= p and n <= p, full rank of
    D (independent columns) and H (independent rows), and the standing
    assumptions of validate_model: A is stable, or (A, D) is stabilizable and
    (A, H) is detectable. A model that exists therefore meets them, and
    carries the eigenvalues of A (eigs) and whether A is stable (stable).
    """

    A: np.ndarray
    D: np.ndarray
    H: np.ndarray
    eigs: np.ndarray = field(init=False)
    stable: bool = field(init=False)

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
        self.eigs = np.linalg.eigvals(self.A)
        self.stable = validate_model(self)["stable"]

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[1]

    @property
    def n(self) -> int:
        return self.H.shape[0]


def is_stable(A: np.ndarray) -> bool:
    """True when every eigenvalue of A has negative real part."""
    return bool(np.max(np.linalg.eigvals(A).real) < 0)


def _pbh_rank_ok(A: np.ndarray, eigs: np.ndarray, B: np.ndarray) -> bool:
    """PBH test: [A - lam I, B] has full row rank at every eigenvalue lam of A with Re >= 0.

    That is stabilizability of (A, B); detectability of (A, H) is the test on (A^T, H^T)."""
    p = A.shape[0]
    for lam in eigs[eigs.real >= -1e-9]:
        if _rank(np.hstack([A - lam * np.eye(p), B])) < p:
            return False
    return True


def validate_model(model: LinearGaussianModel) -> dict:
    """Check the standing assumptions and classify the model.

    LinearGaussianModel calls this when it is built, so a model that exists
    has passed it. Returns {"stable", "stabilizable", "detectable"} booleans.
    Stability is read off model.eigs; stabilizability of (A, D) and
    detectability of (A, H) use PBH rank tests at each eigenvalue with
    nonnegative real part. Raises NotDetectableOrStabilizable when A is
    unstable and the pair tests do not guarantee a reduction to a stable
    model.
    """
    stable = bool(np.max(model.eigs.real) < 0)
    stabilizable = _pbh_rank_ok(model.A, model.eigs, model.D)
    detectable = _pbh_rank_ok(model.A.T, model.eigs, model.H.T)
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
    A, D, H, eigs = model.A, model.D, model.H, model.eigs
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


def _cluster(pools: list[np.ndarray], tol: float) -> list[tuple[complex, int]]:
    """Group nearby candidates of all pools into (center, multiplicity) pairs.

    Each pool holds one pencil's candidates, so a group's multiplicity is the
    most candidates any one pool puts in it: a zero that both row compressions
    of a tall system find is counted once, not once per compression.
    """
    clusters: list[list[tuple[complex, int]]] = []
    tagged = [(lam, k) for k, pool in enumerate(pools) for lam in pool]
    for lam, k in sorted(tagged, key=lambda t: (t[0].real, t[0].imag)):
        for group in clusters:
            if abs(lam - group[0][0]) <= tol * max(1.0, abs(group[0][0])):
                group.append((lam, k))
                break
        else:
            clusters.append([(lam, k)])
    result = []
    for group in clusters:
        values, owners = zip(*group)
        result.append((complex(np.mean(values)), max(map(owners.count, owners))))
    return result


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
    if not model.stable:
        raise NotStable("transmission_zeros needs a stable A; apply reduce_unstable first")
    eigs = model.eigs
    rho = float(np.max(np.abs(eigs)))
    ref_radius = 2.0 * (1.0 + rho)
    scale, normal_rank = _probe_scale(model, ref_radius)
    structural = None
    if model.m > model.n:
        structural = f"m = {model.m} > n = {model.n}: columns can never be independent"
    elif normal_rank < model.m:
        structural = (
            f"normal rank {normal_rank} < m = {model.m}: columns are dependent at every lambda"
        )
    if structural:
        return ZeroReport(
            zeros=[], normal_rank=normal_rank, structural_fail=True, scale=scale,
            notes=[structural],
        )

    if model.m == model.n:
        pools = [_pencil_candidates(model.A, model.D, model.H)]
        notes = []
    else:
        rng = np.random.default_rng(COMPRESSION_SEED)
        pools = []
        for _ in range(2):
            M = rng.standard_normal((model.m, model.n))
            pools.append(_pencil_candidates(model.A, model.D, M @ model.H))
        notes = ["tall system: candidates from two random row compressions"]

    eig_scale = max(1.0, rho)
    zeros: list[Zero] = []
    for center, mult in _cluster(pools, 1e-7):
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
    notes = []
    work = model
    if not model.stable:
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


def reduce_unstable(model: LinearGaussianModel) -> LinearGaussianModel:
    """Replace A by A - KH for a stabilizing K; D and H are unchanged.

    The open right-half-plane zeros of H (lam I - A)^{-1} D, and so the
    verdict, do not depend on K, so one K serves. A stable model comes back
    unchanged; otherwise K = X H^T, with X the dual Riccati solution for
    A + GAIN_MARGIN I and unit weights, puts every eigenvalue of A - KH left
    of -GAIN_MARGIN, re-verified on the reduced model's own eigs.
    """
    if model.stable:
        return model
    try:
        X = sla.solve_continuous_are(
            (model.A + GAIN_MARGIN * np.eye(model.p)).T, model.H.T, np.eye(model.p), np.eye(model.n)
        )
    except np.linalg.LinAlgError as exc:
        raise NotDetectable(f"dual Riccati construction failed: {exc}") from exc
    K = X @ model.H.T
    reduced = LinearGaussianModel(model.A - K @ model.H, model.D, model.H)
    if not np.max(reduced.eigs.real) < -GAIN_MARGIN * (1 - 1e-9):
        raise NotDetectable("constructed gain misses the stability margin")
    return reduced


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
    A: np.ndarray, Q: np.ndarray, H: np.ndarray, r: float, P: np.ndarray
) -> np.ndarray | None:
    """Newton (Kleinman) refinement of the stationary Riccati solution.

    Each step solves one Lyapunov equation for the current closed loop; the
    walk stops at a residual below 1e-12 or after 30 steps. Returns None when
    the starting point is not stabilizing.
    """
    best = None
    for _ in range(30):
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

    Newton walks from up to three starts, tried in order:

    1. the caller's warm start, a solution at a nearby kappa, which is how
       sweeps traverse a grid;
    2. the direct Hamiltonian/Schur solve at kappa;
    3. the Schur solve at max(1e3 kappa, 1), walked down to kappa in
       half-decade rungs so each Newton start stays inside its basin. Small
       kappa makes the direct solve ill conditioned; this ladder rescues it.

    A start is accepted when its relative residual is within RICCATI_RESIDUAL
    and P is positive semidefinite. A failed start moves on to the next; only
    the failure of the last one is raised.
    """
    check_kappa(kappa)
    A, H = model.A, model.H
    Q = model.D @ model.D.T
    r = kappa * kappa
    ladder = []
    k = max(kappa * 1e3, 1.0)
    while k > kappa * 1.0001:
        ladder.append(k)
        k /= np.sqrt(10.0)
    ladder.append(kappa)
    # (Schur-solve kappa, or None for the warm start; Newton rungs)
    starts = [(None, [kappa])] if warm is not None else []
    for start, rungs in starts + [(kappa, [kappa]), (ladder[0], ladder)]:
        try:
            if start is None:
                P = warm
            else:
                try:
                    P = sla.solve_continuous_are(A.T, H.T, Q, start * start * np.eye(model.n))
                except ValueError as exc:  # LinAlgError, or scipy's ordqz failing to reorder
                    raise NoStabilizingSolution(
                        f"direct Riccati solve failed at continuation start kappa={start:g}: {exc}"
                    ) from exc
                P = 0.5 * (P + P.T)
            for k in rungs:
                P = _kleinman(A, Q, H, k * k, P)
                if P is None:
                    raise NoStabilizingSolution(
                        f"Newton continuation lost the stabilizing branch at kappa={k:g}"
                    )
            res = _riccati_residual(A, Q, H, r, P)
            if not res <= RICCATI_RESIDUAL:
                raise NoStabilizingSolution(
                    f"Riccati residual {res:.2e} exceeds {RICCATI_RESIDUAL:g} at kappa={kappa:g}"
                )
            if np.min(np.linalg.eigvalsh(P)) < -PSD_TOL:
                raise NoStabilizingSolution(f"Riccati solution indefinite at kappa={kappa:g}")
            return RiccatiSolution(kappa=kappa, P=P)
        except (ValueError, NoStabilizingSolution) as exc:
            failure = exc
    raise failure


def kappa_sweep_lg(model: LinearGaussianModel, kappas: list[float]) -> SweepResult:
    """Riccati-trace sweep: rows (kappa, trace P(kappa)) plus the verdict flag.

    The grid meets check_kappas, then the sweep walks it in descending order,
    warm-starting each solve from the previous solution. Exact rows carry no
    standard error; the trend classifier uses a synthetic relative band
    instead. The base scale for the decay/plateau floors is the stationary
    signal variance trace(Sigma) when A is stable, otherwise the error trace
    at the largest swept kappa.
    """
    kappas = check_kappas(kappas)
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
    if model.stable:
        base = float(np.trace(lyapunov_solve(model.A, model.D @ model.D.T)))
    else:
        ok = [r for r in rows if r.status == "ok"]
        base = ok[0].estimate if ok else float("nan")
    return SweepResult.of(rows, verdict, base)
