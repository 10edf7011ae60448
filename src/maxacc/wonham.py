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
from bisect import bisect_right
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateWeight
from .finite_analysis import finite_verdict
from .markov import FiniteStateModel, integrated_observation, sample_path, state_at
from .verdicts import (SweepResult, SweepRow, check_integer, check_kappa, check_kappas, check_positive,
                       check_test_function, row_failure)

BLOCK_STEPS = 16384         # grid steps precomputed per vectorized block
CHUNK_TRIALS = 64           # trials per work item; fixed so results never depend on pool size
SCAN_MAX_BATCH_D2 = 2000    # blocks with batch * d^2 above this filter as one chunk
SLAB_MIN_STEPS = 4          # steps per copy into pass 3's buffer, at least; 1-2 cost 3-6% on scanned blocks
LOG_TINY = -700.0           # full log-likelihood below this in every state: weights underflowed
STEP_BUDGET = 50_000_000    # grid steps per trial
TRIAL_STEP_BUDGET = 10_000_000_000  # trials * grid steps per sweep row
MAX_TRIALS = 1_000_000     # trials per sweep row; each costs ~0.25 ms on one core whatever its grid
DT_FACTOR = 0.5             # default step: dt = DT_FACTOR * kappa^2 ...
DT_MIN = 1e-6               # ... but never below DT_MIN
TAYLOR_TERMS = 20           # terms of the series for exp(M) at |M|_1 <= 0.5


@dataclass(frozen=True)
class SimParams:
    """Settings of the Monte-Carlo estimator; dt and burn_in None mean derive from the model.

    Construction checks every field: a ValueError whose message starts with
    the field name, so callers only rename the field. trials and seed must be
    integers (a bool is refused) and are stored as int; horizon, dt and
    burn_in are stored as float, so equal settings write equal bytes. Whether
    a burn-in leaves samples depends on dt, so the estimator checks that per
    kappa.
    """

    trials: int = 32
    horizon: float = 200.0
    dt: float | None = None
    burn_in: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        check_positive("horizon", self.horizon)
        if self.dt is not None:
            check_positive("dt", self.dt)
        if self.burn_in is not None and not 0 <= self.burn_in < math.inf:
            raise ValueError(f"burn_in must be nonnegative and finite, got {self.burn_in:g}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("horizon", "dt", "burn_in"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))

    def resolve(self, model: FiniteStateModel, kappa: float) -> tuple[float, float]:
        """(dt, burn_in) for one kappa: the given values, else auto_dt and auto_burn_in."""
        dt = self.dt if self.dt is not None else auto_dt(model, kappa)
        return dt, self.burn_in if self.burn_in is not None else auto_burn_in(model)


def _pool_threads() -> int:
    """The worker cap: MAXACC_THREADS, a positive integer, or the CPU count when it is unset or empty."""
    value = os.environ.get("MAXACC_THREADS")
    if not value:
        return os.cpu_count() or 1
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"MAXACC_THREADS must be a positive integer, got {value!r}")
    return int(value)


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
    """One-step transition matrix exp(Lambda dt), clipped back onto row-stochastic form.

    Scaling and squaring in numpy alone, so a finite sweep never imports
    scipy: M = Lambda dt is halved s times until its 1-norm is at most 0.5,
    exp(M / 2^s) is its Taylor series to TAYLOR_TERMS terms (the rest is
    below 0.5^21 / 21! ~ 1e-26), and s squarings undo the halving. Stated
    bound, pinned by tests/test_wonham.py: every entry within 1e-13 of
    scipy.linalg.expm for d <= 8 and dt from DT_MIN to 5 / (largest exit
    rate), past the auto_dt cap of 0.2 / rate.
    """
    M = model.Lambda * dt
    mantissa, exponent = math.frexp(float(np.abs(M).sum(axis=0).max(initial=0.0)))
    squarings = max(0, exponent + (mantissa > 0.5))  # the least s with norm / 2^s <= 0.5
    M = np.ldexp(M, -squarings)  # exact, and 2.0**squarings would overflow past 1023
    eye = np.eye(len(M))
    T = eye
    for k in range(TAYLOR_TERMS, 0, -1):  # Horner form: I + M (I + M/2 (I + M/3 (...)))
        T = eye + (M @ T) / k
    for _ in range(squarings):
        T = T @ T
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
    The (batch, steps, d) path of corrected filter states is written over
    weights, in whatever layout weights has, and weights is returned: a
    caller that still needs its factors passes a copy. Mass is checked once
    per block: a row whose mass vanishes or turns NaN stays NaN.

    The recursion mu_{k+1} ∝ mu_k T diag(w_k) is linear up to normalization,
    so it runs as a two-level scan over chunks of about sqrt(steps) steps:
    pass 1 multiplies out each chunk's transfer matrix (all chunks at once),
    pass 2 carries the filter across chunk boundaries in sequence, and pass 3
    fills in the steps inside every chunk at once from its start state. That
    is about 3 sqrt(steps) array operations instead of steps of them. Pass 1
    costs d^2 per trial-step against d for the plain recursion, so past
    SCAN_MAX_BATCH_D2 the block is one chunk of every step, and pass 3 alone
    is that recursion, through the same loop. The passes run in weights
    itself: the full chunks of each (trial, state) row are reordered in
    place, step k of every chunk side by side, and put back after pass 3.
    Pass 3 copies a slab of steps of every chunk, the ragged last one
    included, into one buffer, filters it there and copies it back: at least
    SLAB_MIN_STEPS steps a slab, about sqrt(steps) when there is one chunk.
    So beside weights the kernel holds one row and buffers the size of a few
    chunks, not a block-sized array.
    """
    batch, steps, d = weights.shape
    # A block whose weights are all 1 carries no information: stepwise, a
    # stationary mu then stays exactly stationary, which mixing chunk rows
    # in pass 2 can miss by an ulp.
    one_chunk = batch * d * d > SCAN_MAX_BATCH_D2 or weights.min() == 1.0 == weights.max()
    tile = math.isqrt(steps - 1) + 1  # about sqrt(steps)
    length = steps if one_chunk else tile
    chunks = -(-steps // length)
    head = (chunks - 1) * length
    rest = steps - head
    # The head of each row, its chunks - 1 full chunks, as chunk-major (in
    # step order) and step-major (chunk-interleaved) grids of the same memory;
    # splitting one axis is a view whatever the strides, so reshape never copies.
    by_chunk = weights[:, :head].reshape(batch, chunks - 1, length, d)
    by_step = weights[:, :head].reshape(batch, length, chunks - 1, d)
    row = np.empty(head)

    def reorder(source: np.ndarray, target: np.ndarray) -> None:
        """Transpose each (trial, state) head row from the source grid into the target, through row."""
        if not head:
            return
        grid = row.reshape(source.shape[1:3])
        for b in range(batch):
            for i in range(d):
                grid[:] = source[b, :, :, i]
                target[b, :, :, i] = grid.T

    # hk[k]: the weights of step k of the full chunks, (d, batch, chunks - 1),
    # one contiguous slice per trial and state in state-major storage (strided
    # reads across the whole block cost several times more).
    reorder(by_chunk, by_step)
    hk = by_step.transpose(1, 3, 0, 2)
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
            for k in range(length):
                prods = TT @ prods
                step = prods.reshape(shape)
                step *= hk[k, :, None]
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
        # each step's states overwriting the weights they have just used. It
        # runs span steps at a time through buf: the full chunks' weights from
        # hk, the last chunk's from its rows, padded past its end with
        # predict-only steps of weight 1, so each step reads one array.
        span = max(SLAB_MIN_STEPS, -(-tile // chunks))
        buf = np.empty((span, d, batch, chunks))
        m = starts.reshape(d, -1)
        for k0 in range(0, length, span):
            k1 = min(k0 + span, length)
            r = max(min(rest, k1) - k0, 0)
            slab = buf[: k1 - k0]
            slab[..., :-1] = hk[k0:k1]
            slab[:r, ..., -1] = weights[:, head + k0 : head + k0 + r].transpose(1, 2, 0)
            slab[r:, ..., -1] = 1.0
            for w in slab:
                m = TT @ m
                step = m.reshape(starts.shape)
                step *= w
                m /= ones @ m
                w[...] = step
            hk[k0:k1] = slab[..., :-1]
            weights[:, head + k0 : head + k0 + r] = slab[:r, ..., -1].transpose(2, 0, 1)
    reorder(by_step, by_chunk)
    if not np.all(np.isfinite(weights[:, -1])):
        raise DegenerateWeight("filter mass vanished; refine dt for this kappa")
    return weights


def _log_weights(
    inc: np.ndarray, h: np.ndarray, kappa: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-state log-likelihood of observation increments, up to a shared term.

    log p_i(dY) = -(dY - h_i dt)^2 / (2 kappa^2 dt) splits into a state part
    (dY . h_i) / kappa^2 - dt |h_i|^2 / (2 kappa^2) and a state-independent
    -|dY|^2 / (2 kappa^2 dt) that cancels in the normalization. The full value
    is still needed to detect underflow of every weight, so the shared term is
    returned separately.

    inc is one trial's (steps, n) increments, as the feed passes them; the
    state part comes back state-major, (d, steps), and shared as (steps,).
    A leading batch axis, (batch, steps, n), gives (d, batch, steps) and
    (batch, steps). The state part is built one state at a time: numpy is
    several times slower on any elementwise pass whose inner axis is the
    short state axis, a broadcast product over it included.
    """
    kk = kappa * kappa
    offset = (dt * np.sum(h * h, axis=1)) / (2.0 * kk)
    state_part = np.empty((h.shape[0],) + inc.shape[:-1])
    for i, row in enumerate(state_part):
        if h.shape[1] == 1:  # several times cheaper than a one-term matmul
            np.multiply(inc[..., 0], h[i, 0], out=row)
        else:
            np.matmul(inc, h[i], out=row)
        row /= kk
        row -= offset[i]
    shared = -np.einsum("...n,...n->...", inc, inc) / (2.0 * kk * dt)
    return state_part, shared


def _filter_increments(
    model: FiniteStateModel, mu: np.ndarray, T_dt: np.ndarray,
    increments: Iterable[np.ndarray], kappa: float, dt: float,
) -> np.ndarray:
    """Filter a batch of trials from states mu to their (batch, steps, d) path.

    increments yields each trial's (steps, n) observation increments in
    the order of mu's rows, and is read once. Each trial's log-weights are
    built, checked for underflow and shifted by their per-step maximum into
    that trial's rows of the state-major (d, batch, steps) storage, which is
    then exponentiated and overwritten by the path in place; the path comes
    back as a view of it. Beside the storage only one trial's increments and
    log-weights exist at a time, so a block costs one block-sized array.
    """
    weights = None
    for b, inc in enumerate(increments):
        state_part, shared = _log_weights(inc, model.h, kappa, dt)
        if weights is None:
            weights = np.empty((model.d, len(mu), len(inc)))
        top = functools.reduce(np.maximum, state_part)
        shared += top  # the full log-likelihood of each step's most likely state
        if np.any(shared < LOG_TINY):
            raise DegenerateWeight("all likelihood weights underflowed; dt too large for this kappa")
        np.subtract(state_part, top, out=weights[:, b])
        del inc, state_part, shared, top  # not held while the next trial's are built
    np.exp(weights, out=weights)
    return _filter_block(mu, T_dt, np.moveaxis(weights, 0, -1))


def run_filter(
    model: FiniteStateModel,
    obs_increments: np.ndarray,
    kappa: float,
    dt: float,
) -> np.ndarray:
    """Run the discretized optimal filter along one observation record.

    Returns the (steps + 1, d) path of filter states starting from the
    stationary law. The increments are a finite (steps,) or (steps, n)
    array, refused with ValueError before any filtering otherwise. Raises
    DegenerateWeight when the filter degenerates, which signals that dt is
    too large for this kappa.
    """
    check_kappa(kappa)
    check_positive("dt", dt)
    inc = np.asarray(obs_increments, dtype=float)
    if inc.ndim not in (1, 2):
        raise ValueError(f"observation increments must be a 1-d or 2-d array, got {inc.ndim} dimensions")
    if not np.all(np.isfinite(inc)):
        raise ValueError("observation increments have non-finite entries")
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
        out = _filter_increments(model, mu, T_dt, [inc[start : start + BLOCK_STEPS]], kappa, dt)
        path[1 + start : 1 + start + out.shape[1]] = out[0]
        mu = out[:, -1, :].copy()
    return path


@dataclass
class TrajectoryBundle:
    """One simulation run: signal path plus gridded observation increments."""

    jump_times: np.ndarray
    states: np.ndarray
    obs_increments: np.ndarray
    dt: float
    kappa: float
    seed: int

    def state_at(self, at: np.ndarray) -> np.ndarray:
        return state_at(self.jump_times, self.states, np.asarray(at))


def simulate_bundle(
    model: FiniteStateModel,
    horizon: float,
    kappa: float,
    dt: float,
    seed: int = 0,
) -> TrajectoryBundle:
    """Sample a stationary signal path and its observation increments together.

    The bundle is trial 0 of estimate_stationary_error(seed=seed), drawn by
    the estimator's own trial sampler over the whole grid of
    round(horizon / dt) cells: run_filter on its increments filters the
    record that trial filters at the same dt and horizon, so horizon, dt and
    seed obey the SimParams rules. A grid with no cells, or more than
    STEP_BUDGET, is refused before any sampling.
    """
    seed = SimParams(horizon=horizon, dt=dt, seed=seed).seed
    check_kappa(kappa)
    steps = _grid_steps(horizon, dt)
    trial = _trial_path(model, seed, 0, steps * dt)
    inc = _observe(trial, model.h, np.arange(steps + 1) * dt, kappa * np.sqrt(dt))
    return TrajectoryBundle(*trial[0], inc, dt, kappa, seed)


def _grid_steps(horizon: float, dt: float) -> int:
    """round(horizon / dt) grid cells of one trial, refused at 0 or over STEP_BUDGET before sampling."""
    ratio = horizon / dt
    # Checked as a float, before int() can overflow on it; round() takes a
    # ratio up to half a step over the budget down to the budget.
    if ratio > STEP_BUDGET + 0.5:
        raise ValueError(
            f"dt {dt:g} needs {ratio:.0f} grid steps per trial, over the budget of {STEP_BUDGET}; "
            "use a larger dt or a shorter horizon"
        )
    steps = int(round(ratio))
    if steps == 0:
        raise ValueError(f"horizon {horizon:g} rounds to 0 grid steps of dt {dt:g}")
    return steps


def _trial_path(
    model: FiniteStateModel, seed: int, trial: int, horizon: float,
) -> tuple[tuple[np.ndarray, np.ndarray], np.random.Generator]:
    """Stationary signal path of one trial on [0, horizon], and its noise generator.

    Each trial owns two RNG substreams keyed [seed, trial, stream]: stream 0
    draws the initial state from pi and then the jumps, stream 1 the
    observation noise. The keying makes results independent of chunking and
    pool size.
    """
    path_rng = np.random.default_rng([seed, trial, 0])
    x0 = bisect_right(model.pi_cdf, path_rng.random())
    return sample_path(model.jumps, x0, horizon, path_rng), np.random.default_rng([seed, trial, 1])


def _observe(
    trial: tuple[tuple[np.ndarray, np.ndarray], np.random.Generator], h: np.ndarray,
    times: np.ndarray, noise_scale: float,
) -> np.ndarray:
    """The (cells, n) observation increments of one trial over the cells of the grid `times`.

    Each increment is the exact integral of h over its cell (from the jump
    times, not endpoint samples) plus noise_scale times a standard normal.
    The draws are those of rng.standard_normal((cells, n)) from the trial's
    noise generator, so a grid filled block by block gets the increments it
    gets filled at once.
    """
    path, rng = trial
    inc = rng.standard_normal((len(times) - 1, h.shape[1]))
    inc *= noise_scale
    inc += np.diff(integrated_observation(*path, h, times), axis=0)
    return inc


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

    Each block is observed and filtered trial by trial into one block of
    storage (_filter_increments), and its error is reduced trial by trial
    from that trial's contiguous state-major rows, so no other block-sized
    array is formed.
    """
    batch = len(trial_indices)
    trials = [_trial_path(model, seed, int(t), steps * dt) for t in trial_indices]

    T_dt = _transition(model, dt)
    mu = np.tile(model.pi, (batch, 1))
    err_sum = np.zeros(batch)
    noise_scale = kappa * np.sqrt(dt)
    for start in range(0, steps, BLOCK_STEPS):
        blk = min(BLOCK_STEPS, steps - start)
        times = (start + np.arange(blk + 1)) * dt
        observed = (_observe(trial, model.h, times, noise_scale) for trial in trials)
        path = _filter_increments(model, mu, T_dt, observed, kappa, dt)
        mu = path[:, -1, :].copy()
        first = max(burn_steps - start, 0)  # est is empty while the block is all burn-in
        planes = np.moveaxis(path, -1, 0)  # the state-major storage, (d, batch, steps)
        for b, ((jt, st), _) in enumerate(trials):
            # est = f_0 p_0 + f_1 p_1 + ... in state order, so no choice of BLAS
            # kernel reaches its bits; then (est - f(X))^2 in place, f(X) being
            # a path with X's jumps, and est - f(X) is -(f(X) - est) exactly.
            est = planes[0, b, first:] * fvals[0]
            for k in range(1, model.d):
                est += planes[k, b, first:] * fvals[k]
            est -= state_at(jt, fvals[st], times[1 + first:])
            err_sum[b] += np.sum(np.square(est, out=est))
        del path, planes, est  # nothing of this block is held through the next one
    return err_sum / (steps - burn_steps)


def estimate_stationary_error(
    model: FiniteStateModel,
    f: np.ndarray,
    kappa: float,
    trials: int = SimParams.trials,
    horizon: float = SimParams.horizon,
    dt: float | None = None,
    burn_in: float | None = None,
    seed: int = SimParams.seed,
) -> tuple[float, float]:
    """Estimate e(f, kappa) with a standard error from between-trial variance.

    Time-averages the squared filter error after burn_in, then averages over
    trials; the standard error is the between-trial standard deviation divided
    by sqrt(trials) (NaN for a single trial). Trials accumulate in fixed index
    order, so the result does not depend on how many workers ran them. The
    MAXACC_THREADS environment variable caps the worker pool. f, one value per
    state, obeys check_test_function and the settings obey the SimParams
    rules; work over a budget is refused before any sampling.
    """
    fvals = check_test_function(f, model.d)
    check_kappa(kappa)
    dt, burn_in = SimParams(trials, horizon, dt, burn_in, seed).resolve(model, kappa)
    steps = _grid_steps(horizon, dt)
    burn = burn_in / dt + 1e-9  # compared as a float, before int() can overflow on it
    if burn >= steps:
        raise ValueError(f"horizon {horizon} leaves no samples after burn-in {burn_in}")
    burn_steps = math.floor(burn)
    if trials * steps > TRIAL_STEP_BUDGET:
        raise ValueError(
            f"trials {trials} of {steps} grid steps need {trials * steps} trial-steps, "
            f"over the budget of {TRIAL_STEP_BUDGET}; use fewer trials or a shorter horizon"
        )
    if trials > MAX_TRIALS:
        raise ValueError(
            f"trials {trials} over the cap of {MAX_TRIALS} per row: each trial costs "
            "path sampling and RNG setup whatever its grid; use fewer trials"
        )

    starts = range(0, trials, CHUNK_TRIALS)
    max_workers = min(_pool_threads(), len(starts))

    def work(start: int) -> np.ndarray:
        idx = np.arange(start, min(start + CHUNK_TRIALS, trials))
        return _chunk_trial_means(model, fvals, kappa, dt, steps, burn_steps, seed, idx)

    if max_workers == 1:
        results = [work(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(work, starts))
    means = np.concatenate(results)
    estimate = float(np.mean(means))
    std_error = float(np.std(means, ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan")
    return estimate, std_error


def kappa_sweep_finite(
    model: FiniteStateModel,
    f: np.ndarray,
    kappas: list[float],
    params: SimParams | None = None,
) -> SweepResult:
    """One Monte-Carlo error estimate per kappa, cross-referenced with the verdict.

    f, the kappas and MAXACC_THREADS are checked before any row. Rows run at
    kappas sorted in descending order; a per-row failure (for example weight
    underflow at an explicitly forced dt) is recorded in the row status and
    the remaining rows still run. SweepResult classifies the rows' trend and
    flags it against the trend the algebraic verdict predicts.
    """
    f = check_test_function(f, model.d)
    kappas = check_kappas(kappas)
    _pool_threads()
    params = params or SimParams()
    verdict = finite_verdict(model)
    base = model.variance_of(f)
    rows: list[SweepRow] = []
    for kappa in sorted(kappas, reverse=True):
        dt, burn_in = params.resolve(model, kappa)
        row = SweepRow(kappa, float("nan"), trials=params.trials, horizon=params.horizon,
                       dt=dt, burn_in=burn_in)
        settings = asdict(params) | {"dt": dt, "burn_in": burn_in}  # so the estimator resolves nothing again
        with row_failure(row):
            row.estimate, row.std_error = estimate_stationary_error(model, f, kappa, **settings)
        rows.append(row)
    return SweepResult(rows, base, verdict)
