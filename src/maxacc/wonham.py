"""Monte-Carlo estimation of the stationary filtering error for finite models.

The exact optimal filter for a finite-state signal in white observation noise
is propagated by a splitting scheme: predict with the transition semigroup
over one grid step, correct by Bayes' rule with the Gaussian likelihood of the
observed increment, renormalize. Euler steps on the filter equation leave the
simplex at small kappa; the splitting scheme cannot.

The stationary error e(f, kappa) = E[(f(X_t) - E[f(X_t) | observations])^2]
is estimated by time-averaging after a burn-in and averaging over independent
trials. The error at kappa = 0 itself is never simulated (conditioning on the
noiseless observation field is not samplable); a sweep over decreasing kappa
is the proxy.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DegenerateWeight
from .finite_analysis import finite_verdict
from .markov import FiniteStateModel, integrated_observation, sample_path, state_at, trial_rngs
from .verdicts import SweepResult, SweepRow, TestFunction

BLOCK_STEPS = 16384         # grid steps precomputed per vectorized block
CHUNK_TRIALS = 64           # trials per work item; fixed so results never depend on pool size
SCAN_MAX_BATCH_D2 = 2000    # blocks with batch * d^2 above this filter as one chunk
LOG_TINY = -700.0           # full log-likelihood below this in every state: weights underflowed
STEP_BUDGET = 50_000_000
DT_FACTOR = 0.5             # default step: dt = DT_FACTOR * kappa^2 ...
DT_MIN = 1e-6               # ... but never below DT_MIN


@dataclass
class SimParams:
    """Knobs for the Monte-Carlo estimator; dt and burn_in None mean derive from the model."""

    trials: int = 32
    horizon: float = 200.0
    dt: float | None = None
    burn_in: float | None = None
    seed: int = 0


def auto_dt(model: FiniteStateModel, kappa: float) -> float:
    """Step size policy: dt <= DT_FACTOR * kappa^2, capped by the fastest jump rate.

    The Bayes correction stiffens like kappa^-2, so dt must shrink with the
    noise; the DT_MIN floor keeps pathological kappas from freezing the sweep.
    """
    dt = DT_FACTOR * kappa * kappa
    max_rate = float(np.max(-np.diag(model.Lambda), initial=0.0))
    if max_rate > 0:
        dt = min(dt, 0.2 / max_rate)
    return max(dt, DT_MIN)


def auto_burn_in(model: FiniteStateModel) -> float:
    """Burn-in of 10 relaxation times from the spectral gap of the generator."""
    eigs = np.linalg.eigvals(model.Lambda)
    decay = sorted(-eigs.real[(-eigs.real) > 1e-12])
    if decay:
        return 10.0 / decay[0]
    rates = -np.diag(model.Lambda)
    pos = rates[rates > 0]
    if pos.size:
        return 10.0 / float(np.min(pos))
    return 0.0


def _transition(model: FiniteStateModel, dt: float) -> np.ndarray:
    """One-step transition matrix exp(Lambda dt), clipped back onto row-stochastic form."""
    T = expm(model.Lambda * dt)
    T = np.clip(T, 0.0, None)
    return T / T.sum(axis=1, keepdims=True)


def _filter_block(
    mu: np.ndarray,
    T_dt: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Advance a batch of filters through one block of predict/correct steps.

    mu: (batch, d) current filter states; weights: (batch, steps, d)
    nonnegative likelihood factors, already shifted per row for stability.
    Returns the (batch, steps, d) path of corrected filter states. Mass is
    checked once per block: a row whose mass vanishes or turns NaN stays NaN.

    The recursion mu_{k+1} ∝ mu_k T diag(w_k) is linear up to normalization,
    so it runs as a two-level scan over chunks of about sqrt(steps) steps:
    pass 1 multiplies out each chunk's transfer matrix (all chunks at once),
    pass 2 carries the filter across chunk boundaries in sequence, and pass 3
    fills in the steps inside every chunk at once from its start state. That
    is about 3 sqrt(steps) array operations instead of steps of them. Pass 1
    costs d^2 per trial-step against d for the plain recursion, so past
    SCAN_MAX_BATCH_D2 the block is one chunk and pass 3 is that recursion.
    """
    batch, steps, d = weights.shape
    # A block whose weights are all 1 carries no information: stepwise, a
    # stationary mu then stays exactly stationary, which mixing chunk rows
    # in pass 2 can miss by an ulp.
    one_chunk = batch * d * d > SCAN_MAX_BATCH_D2 or np.all(weights == 1.0)
    length = steps if one_chunk else math.isqrt(steps - 1) + 1
    chunks = -(-steps // length)
    head = (chunks - 1) * length
    # Step-major copy w[b, k, :, c] = weights[b, c * length + k], so each pass
    # reads one contiguous slice per trial and step (strided reads across the
    # whole block cost several times more). The last chunk is padded with
    # predict-only steps of weight 1.
    w = np.empty((batch, length, d, chunks))
    w[..., :-1] = weights[:, :head].reshape(batch, chunks - 1, length, d).transpose(0, 2, 3, 1)
    w[:, : steps - head, :, -1] = weights[:, head:]
    w[:, steps - head :, :, -1] = 1.0
    wk = w.transpose(1, 2, 0, 3)  # wk[k]: the weights of step k, (d, batch, chunks)
    TT = T_dt.T
    ones = np.ones(d)
    starts = np.empty((d, batch, chunks))
    starts[:, :, 0] = mu.T
    with np.errstate(invalid="ignore", divide="ignore"):
        if chunks > 1:
            # Pass 1: prods[:, i, b, c] is the filter over chunk c of trial b
            # started from e_i, renormalized every step; logr[i, b, c] is its
            # log-likelihood, so no row underflows however unlikely its start.
            shape = (d, d, batch, chunks - 1)
            prods = np.zeros(shape)
            prods[np.arange(d), np.arange(d)] = 1.0
            prods = prods.reshape(d, -1)
            logr = np.zeros(prods.shape[1])
            w1 = wk[:, :, None, :, :-1]
            for k in range(length):
                prods = TT @ prods
                step = prods.reshape(shape)
                step *= w1[k]
                s = ones @ prods
                prods /= s
                logr += np.log(s)
            prods, logr = prods.reshape(shape), logr.reshape(shape[1:])
            # A start state whose filter lost all mass has likelihood 0.
            dead = ~np.isfinite(logr)
            logr[dead] = -np.inf
            prods[:, dead] = 0.0
            # Pass 2: mu_{c+1} ∝ sum_i mu_c[i] exp(logr_c[i]) prods_c[:, i].
            for c in range(chunks - 1):
                lw = np.log(starts[:, :, c]) + logr[:, :, c]
                lw = np.exp(lw - lw.max(axis=0))
                nxt = (prods[:, :, :, c] * lw).sum(axis=1)
                starts[:, :, c + 1] = nxt / (ones @ nxt)
        # Pass 3: the predict/correct recursion inside every chunk at once,
        # each step's states overwriting the weights it has just used.
        m = starts.reshape(d, -1)
        for k in range(length):
            m = TT @ m
            step = m.reshape(starts.shape)
            step *= wk[k]
            m /= ones @ m
            wk[k] = step
    out = np.ascontiguousarray(w.transpose(0, 3, 1, 2)).reshape(batch, chunks * length, d)
    out = out[:, :steps]
    if not np.all(np.isfinite(out[:, -1])):
        raise DegenerateWeight("filter mass vanished; refine dt for this kappa")
    return out


def _log_weights(
    inc: np.ndarray, h: np.ndarray, kappa: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-state log-likelihood of observation increments, up to a shared term.

    log p_i(dY) = -(dY - h_i dt)^2 / (2 kappa^2 dt) splits into a state part
    (dY . h_i) / kappa^2 - dt |h_i|^2 / (2 kappa^2) and a state-independent
    -|dY|^2 / (2 kappa^2 dt) that cancels in the normalization. The full value
    is still needed to detect underflow of every weight, so the shared term is
    returned separately.
    """
    state_part = (inc @ h.T) / (kappa * kappa) - (dt * np.sum(h * h, axis=1)) / (
        2.0 * kappa * kappa
    )
    shared = -np.einsum("...n,...n->...", inc, inc) / (2.0 * kappa * kappa * dt)
    return state_part, shared


def _filter_increments(
    model: FiniteStateModel, mu: np.ndarray, T_dt: np.ndarray,
    inc: np.ndarray, kappa: float, dt: float,
) -> np.ndarray:
    """Filter a (batch, steps, n) block of increments from states mu to (batch, steps, d)."""
    state_part, shared = _log_weights(inc, model.h, kappa, dt)
    # Column-wise maximum: numpy's max over a short last axis is ~50x slower.
    top = functools.reduce(np.maximum, np.moveaxis(state_part, 2, 0))
    if np.any(top + shared < LOG_TINY):
        raise DegenerateWeight("all likelihood weights underflowed; dt too large for this kappa")
    # The shifted weights overwrite the log-weights: one block-sized array fewer.
    state_part -= top[..., None]
    return _filter_block(mu, T_dt, np.exp(state_part, out=state_part))


def run_filter(
    model: FiniteStateModel,
    obs_increments: np.ndarray,
    kappa: float,
    dt: float,
) -> np.ndarray:
    """Run the discretized optimal filter along one observation record.

    Returns the (steps + 1, d) path of filter states starting from the
    stationary law. Raises DegenerateWeight when the filter degenerates,
    which signals that dt is too large for this kappa.
    """
    if kappa <= 0:
        raise ValueError("run_filter needs kappa > 0")
    inc = np.asarray(obs_increments, dtype=float)
    if inc.ndim == 1:
        inc = inc[:, None]
    if inc.shape[1] != model.n:
        raise ValueError(f"observation increments have {inc.shape[1]} coordinates, model has {model.n}")
    mu = model.pi[None, :].copy()
    T_dt = _transition(model, dt)
    steps = inc.shape[0]
    path = np.empty((steps + 1, model.d))
    path[0] = mu[0]
    for start in range(0, steps, BLOCK_STEPS):
        block = inc[None, start : start + BLOCK_STEPS]
        out = _filter_increments(model, mu, T_dt, block, kappa, dt)
        path[1 + start : 1 + start + out.shape[1]] = out[0]
        mu = out[:, -1, :].copy()
    return path


def _chunk_trial_means(
    model: FiniteStateModel,
    fvals: np.ndarray,
    kappa: float,
    dt: float,
    steps: int,
    burn_steps: int,
    seed: int,
    trial_indices: np.ndarray,
) -> np.ndarray:
    """Per-trial time-averaged squared error for one chunk of trials.

    Each trial owns the two RNG substreams of trial_rngs(seed, trial): one
    for the signal path, one for observation noise. The keying makes results
    independent of chunking and pool size.
    """
    batch = len(trial_indices)
    horizon = steps * dt
    paths, obs_rngs = [], []
    for t in trial_indices:
        path_rng, obs_rng = trial_rngs(seed, int(t))
        x0 = int(path_rng.choice(model.d, p=model.pi))
        paths.append(sample_path(model.Lambda, x0, horizon, path_rng))
        obs_rngs.append(obs_rng)

    T_dt = _transition(model, dt)
    mu = np.tile(model.pi, (batch, 1))
    err_sum = np.zeros(batch)
    sqrt_dt = np.sqrt(dt)
    for start in range(0, steps, BLOCK_STEPS):
        blk = min(BLOCK_STEPS, steps - start)
        times = (start + np.arange(blk + 1)) * dt
        inc = np.empty((batch, blk, model.n))
        fX = np.empty((batch, blk))
        for b, (jt, st) in enumerate(paths):
            drift = np.diff(integrated_observation(jt, st, model.h, times), axis=0)
            inc[b] = drift + kappa * sqrt_dt * obs_rngs[b].standard_normal((blk, model.n))
            fX[b] = fvals[state_at(jt, st, times[1:])]
        out = _filter_increments(model, mu, T_dt, inc, kappa, dt)
        mu = out[:, -1, :].copy()
        first = max(burn_steps - start, 0)
        if first < blk:
            est = out[:, first:, :] @ fvals
            err_sum += np.sum((fX[:, first:] - est) ** 2, axis=1)
    return err_sum / (steps - burn_steps)


def estimate_stationary_error(
    model: FiniteStateModel,
    f: TestFunction | np.ndarray,
    kappa: float,
    trials: int = 32,
    horizon: float = 200.0,
    dt: float | None = None,
    burn_in: float | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate e(f, kappa) with a standard error from between-trial variance.

    Time-averages the squared filter error after burn_in, then averages over
    trials; the standard error is the between-trial standard deviation divided
    by sqrt(trials) (NaN for a single trial). Trials accumulate in fixed index
    order, so the result does not depend on how many workers ran them. The
    MAXACC_THREADS environment variable caps the worker pool.
    """
    fvals = f.values if isinstance(f, TestFunction) else np.asarray(f, dtype=float)
    if fvals.shape != (model.d,):
        raise ValueError(f"test function needs {model.d} values, got shape {fvals.shape}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if dt is None:
        dt = auto_dt(model, kappa)
    if burn_in is None:
        burn_in = auto_burn_in(model)
    for name, value in (("horizon", horizon), ("dt", dt)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not 0 <= burn_in < math.inf:
        raise ValueError(f"burn_in must be nonnegative and finite, got {burn_in}")
    steps = int(round(horizon / dt))
    burn_steps = int(np.floor(burn_in / dt + 1e-9))
    if burn_steps >= steps:
        raise ValueError(f"horizon {horizon} leaves no samples after burn-in {burn_in}")
    if steps > STEP_BUDGET:
        raise ValueError(
            f"dt {dt:g} needs {steps} grid steps per trial, over the budget of {STEP_BUDGET}; "
            "use a larger dt or a shorter horizon"
        )

    chunks = [np.arange(s, min(s + CHUNK_TRIALS, trials)) for s in range(0, trials, CHUNK_TRIALS)]
    workers = os.environ.get("MAXACC_THREADS")
    max_workers = int(workers) if workers else (os.cpu_count() or 1)
    max_workers = max(1, min(max_workers, len(chunks)))

    def work(idx: np.ndarray) -> np.ndarray:
        return _chunk_trial_means(model, fvals, kappa, dt, steps, burn_steps, seed, idx)

    if max_workers == 1 or len(chunks) == 1:
        results = [work(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(work, chunks))
    means = np.concatenate(results)
    estimate = float(np.mean(means))
    std_error = float(np.std(means, ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan")
    return estimate, std_error


def kappa_sweep_finite(
    model: FiniteStateModel,
    f: TestFunction | np.ndarray,
    kappas: list[float],
    params: SimParams | None = None,
) -> SweepResult:
    """One Monte-Carlo error estimate per kappa, cross-referenced with the verdict.

    Rows are computed at kappas sorted in descending order. A per-row failure
    (for example weight underflow at an explicitly forced dt) is recorded in
    the row status and the remaining rows still run. The empirical trend is
    classified on the successful rows and flagged CONSISTENT or INCONSISTENT
    against the algebraic verdict.
    """
    params = params or SimParams()
    fv = f if isinstance(f, TestFunction) else TestFunction(np.asarray(f, dtype=float))
    verdict = finite_verdict(model)
    base = model.variance_of(fv.values)
    rows: list[SweepRow] = []
    for kappa in sorted(kappas, reverse=True):
        dt = params.dt if params.dt is not None else auto_dt(model, kappa)
        burn = params.burn_in if params.burn_in is not None else auto_burn_in(model)
        row = SweepRow(
            kappa=kappa,
            estimate=float("nan"),
            std_error=None,
            trials=params.trials,
            horizon=params.horizon,
            dt=dt,
            burn_in=burn,
        )
        try:
            est, se = estimate_stationary_error(
                model,
                fv,
                kappa,
                trials=params.trials,
                horizon=params.horizon,
                dt=dt,
                burn_in=burn,
                seed=params.seed,
            )
            row.estimate, row.std_error = est, se
        except (DegenerateWeight, ValueError) as exc:
            row.status = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)
    return SweepResult.of(rows, verdict, base)
