"""Finite-state continuous-time Markov models.

Model representation, stationary analysis, time reversal, and exact-jump
simulation of the signal together with its integrated noisy observations

    Y_t = int_0^t h(X_s) ds + kappa * B_t.

States are indexed 0..d-1. Observation values are stored as a (d, n) table,
one row per state; scalar observations are accepted as a flat d-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySupport, NotRateMatrix, NotUniqueStationary, ZeroSupport

RATE_TOL = 1e-12        # row-sum / nonnegativity tolerance for generators
NULLITY_TOL = 1e-10     # singular-value cutoff for stationary-law uniqueness
SUPPORT_TOL = 1e-12     # pi entries below this are treated as transient mass


def validate_rate_matrix(Lambda: np.ndarray) -> np.ndarray:
    """Check that Lambda is a square generator matrix and return it as float."""
    L = np.asarray(Lambda, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise NotRateMatrix(f"generator must be square, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise NotRateMatrix("generator has non-finite entries")
    off = L - np.diag(np.diag(L))
    if np.min(off) < -RATE_TOL:
        i, j = np.unravel_index(np.argmin(off), L.shape)
        raise NotRateMatrix(f"negative off-diagonal rate at ({i}, {j}): {L[i, j]}")
    rowsum = L.sum(axis=1)
    scale = max(1.0, float(np.max(np.abs(L))))
    if np.max(np.abs(rowsum)) > RATE_TOL * scale:
        i = int(np.argmax(np.abs(rowsum)))
        raise NotRateMatrix(f"row {i} sums to {rowsum[i]}, expected 0")
    return L


def stationary_distribution(Lambda: np.ndarray) -> np.ndarray:
    """Stationary law of the chain: the unique pi >= 0 with pi^T Lambda = 0, sum 1.

    Solved densely by replacing one equation with the normalization
    constraint. Uniqueness is checked via the nullity of Lambda^T: a second
    direction in the nullspace means more than one closed class.
    """
    L = validate_rate_matrix(Lambda)
    d = L.shape[0]
    if d == 1:
        return np.ones(1)
    s = np.linalg.svd(L.T, compute_uv=False)
    scale = s[0] if s[0] > 0 else 1.0
    nullity = int(np.sum(s <= NULLITY_TOL * scale))
    if nullity != 1:
        raise NotUniqueStationary(
            f"nullspace of Lambda^T is {nullity}-dimensional; chain has "
            "no unique stationary law"
        )
    A = L.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.where(np.abs(pi) < SUPPORT_TOL, 0.0, pi)
    if np.min(pi) < 0:
        raise NotUniqueStationary("stationary solve produced negative mass")
    return pi / pi.sum()


@dataclass
class FiniteStateModel:
    """Finite-state signal model: generator Lambda, observation table h, law pi.

    pi is computed at construction; building a model therefore fails on
    invalid generators and on chains without a unique stationary law.
    """

    Lambda: np.ndarray
    h: np.ndarray
    pi: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.Lambda = validate_rate_matrix(self.Lambda)
        h = np.asarray(self.h, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.ndim != 2 or h.shape[0] != self.Lambda.shape[0]:
            raise NotRateMatrix(
                f"observation table shape {h.shape} incompatible with "
                f"{self.Lambda.shape[0]} states"
            )
        if not np.all(np.isfinite(h)):
            raise NotRateMatrix("observation table has non-finite entries")
        self.h = h
        self.pi = stationary_distribution(self.Lambda)

    @property
    def d(self) -> int:
        return self.Lambda.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    def variance_of(self, f: np.ndarray) -> float:
        """Stationary variance of a test function, Var_pi(f)."""
        f = np.asarray(f, dtype=float)
        mean = float(self.pi @ f)
        return float(self.pi @ (f - mean) ** 2)


def reduce_support(model: FiniteStateModel) -> FiniteStateModel:
    """Restrict the model to {i : pi_i > SUPPORT_TOL}, dropping transient states.

    Returns the model unchanged when every state carries mass. The restricted
    generator is re-validated: leaving the support has probability zero under
    pi, so restricted rows still sum to zero up to round-off.
    """
    keep = model.pi > SUPPORT_TOL
    if not np.any(keep):
        raise EmptySupport("support reduction removed every state")
    if np.all(keep):
        return model
    idx = np.flatnonzero(keep)
    L = model.Lambda[np.ix_(idx, idx)].copy()
    # Zero out residual leakage rates toward dropped states.
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return FiniteStateModel(L, model.h[idx])


def time_reverse(model: FiniteStateModel) -> np.ndarray:
    """Generator of the time-reversed chain: lam~_ij = lam_ji pi_j / pi_i.

    Requires strictly positive pi (apply reduce_support first). The diagonal
    is set so rows sum to zero; pi is stationary for the result.
    """
    if np.min(model.pi) <= 0:
        raise ZeroSupport("time reversal needs pi > 0 everywhere; reduce support first")
    pi = model.pi
    R = model.Lambda.T * pi[None, :] / pi[:, None]
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def sample_path(
    Lambda: np.ndarray,
    initial_state: int,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-jump (Gillespie) sample of the chain on [0, horizon].

    Returns (jump_times, states) with jump_times[0] = 0 and states[k] the
    state held on [jump_times[k], jump_times[k+1]). States with zero exit
    rate hold forever. Takes the generator directly so absorbing or frozen
    chains can be sampled from an explicit initial state.
    """
    L = np.asarray(Lambda, dtype=float)
    d = L.shape[0]
    exit_rates = -np.diag(L)
    # Row-normalized jump kernels, precomputed once.
    kernels = []
    for i in range(d):
        if exit_rates[i] > 0:
            row = np.clip(L[i], 0.0, None)
            row[i] = 0.0
            kernels.append(row / row.sum())
        else:
            kernels.append(None)
    times = [0.0]
    states = [int(initial_state)]
    t, x = 0.0, int(initial_state)
    while True:
        if exit_rates[x] <= 0:
            break
        t += rng.exponential(1.0 / exit_rates[x])
        if t >= horizon:
            break
        x = int(rng.choice(d, p=kernels[x]))
        times.append(t)
        states.append(x)
    return np.asarray(times), np.asarray(states, dtype=np.intp)


def check_positive(name: str, value: float) -> float:
    """The rule for horizons, grid steps and noise strengths: positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value:g}")
    return value


def simulate_path(
    model: FiniteStateModel,
    horizon: float,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the stationary signal: initial state from pi, then exact jumps."""
    check_positive("horizon", horizon)  # NaN or inf would draw jumps forever
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x0 = int(rng.choice(model.d, p=model.pi))
    return sample_path(model.Lambda, x0, horizon, rng)


def integrated_observation(
    jump_times: np.ndarray,
    states: np.ndarray,
    h: np.ndarray,
    at: np.ndarray,
) -> np.ndarray:
    """Evaluate int_0^t h(X_s) ds exactly at each time in `at`.

    The path is piecewise constant, so the integral is a prefix sum over
    completed holding intervals plus a partial term in the current one.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    at = np.asarray(at, dtype=float)
    vals = h[states]                                   # (jumps, n)
    seg = np.diff(jump_times)[:, None] * vals[:-1]     # completed segments
    prefix = np.vstack([np.zeros((1, h.shape[1])), np.cumsum(seg, axis=0)])
    k = np.searchsorted(jump_times, at, side="right") - 1
    return prefix[k] + vals[k] * (at - jump_times[k])[:, None]


def state_at(jump_times: np.ndarray, states: np.ndarray, at: np.ndarray) -> np.ndarray:
    """State of the piecewise-constant path at each time in `at`."""
    k = np.searchsorted(jump_times, np.asarray(at, dtype=float), side="right") - 1
    return states[k]


def simulate_observations(
    jump_times: np.ndarray,
    states: np.ndarray,
    h: np.ndarray,
    kappa: float,
    dt: float,
    horizon: float,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Observation increments Delta Y on the grid {0, dt, 2dt, ...} covering [0, horizon].

    Each increment is the exact integral of h over the grid cell (using the
    jump times, not endpoint sampling) plus kappa * sqrt(dt) * xi with xi
    standard normal. kappa = 0 gives noiseless increments.
    """
    check_positive("dt", dt)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    steps = int(round(horizon / dt))
    grid = np.arange(steps + 1) * dt
    integral = integrated_observation(jump_times, states, h, grid)
    inc = np.diff(integral, axis=0)
    if kappa > 0:
        inc = inc + kappa * np.sqrt(dt) * rng.standard_normal(inc.shape)
    return inc


def trial_rngs(seed: int, trial: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(signal path, observation noise) RNG substreams of one trial, keyed (seed, trial, stream)."""
    return np.random.default_rng([seed, trial, 0]), np.random.default_rng([seed, trial, 1])


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

    The path covers the whole grid of round(horizon / dt) cells, and both
    draw from trial_rngs(seed, 0): the bundle is the record that trial 0 of
    estimate_stationary_error(seed=seed) filters at the same dt and horizon.
    """
    check_positive("dt", dt)
    horizon = round(horizon / dt) * dt
    path_rng, obs_rng = trial_rngs(seed, 0)
    jt, st = simulate_path(model, horizon, path_rng)
    inc = simulate_observations(jt, st, model.h, kappa, dt, horizon, obs_rng)
    return TrajectoryBundle(jt, st, inc, dt, kappa, seed)
