"""Finite-state continuous-time Markov models.

Model representation, stationary analysis, time reversal, exact-jump
simulation of the signal, and the exact integral int_0^t h(X_s) ds of its
observation drift. The noisy observation Y_t = int_0^t h(X_s) ds + kappa * B_t
of a Monte-Carlo trial is drawn in wonham, next to the filter.

States are indexed 0..d-1. Observation values are stored as a (d, n) table,
one row per state; scalar observations are accepted as a flat d-vector.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import NotRateMatrix, NotUniqueStationary, ZeroSupport
from .verdicts import check_positive

RATE_TOL = 1e-12        # row-sum tolerance for generators
NULLITY_TOL = 1e-10     # singular-value cutoff for stationary-law uniqueness
SUPPORT_TOL = 1e-12     # pi entries below this are treated as transient mass


def validate_rate_matrix(Lambda: np.ndarray) -> np.ndarray:
    """Check that Lambda is a nonempty square generator matrix and return it as float."""
    L = np.asarray(Lambda, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.size == 0:
        raise NotRateMatrix(f"generator must be a nonempty square matrix, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise NotRateMatrix("generator has non-finite entries")
    off = L - np.diag(np.diag(L))
    if np.min(off) < 0:
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
    nullity = int(np.sum(s <= NULLITY_TOL * s[0]))
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
        if h.ndim != 2 or h.shape[0] != self.Lambda.shape[0] or h.shape[1] == 0:
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

    @functools.cached_property
    def jumps(self) -> tuple[list, list]:
        """The jump_kernel of Lambda, built on first use: a model is fixed once built."""
        return jump_kernel(self.Lambda)

    @functools.cached_property
    def pi_cdf(self) -> list[float]:
        """choice_cdf(pi): a start state drawn from pi bisects one uniform draw on it."""
        return choice_cdf(self.pi)

    def variance_of(self, f: np.ndarray) -> float:
        """Stationary variance of a test function, Var_pi(f)."""
        f = np.asarray(f, dtype=float)
        mean = float(self.pi @ f)
        return float(self.pi @ (f - mean) ** 2)


def reduce_support(model: FiniteStateModel) -> FiniteStateModel:
    """Restrict the model to {i : pi_i > SUPPORT_TOL}, dropping transient states.

    Returns the model unchanged when every state carries mass. pi sums to 1,
    so its largest entry is at least 1/d and the support is never empty. The
    restricted generator is re-validated: leaving the support has probability
    zero under pi, so restricted rows still sum to zero up to round-off.
    """
    keep = model.pi > SUPPORT_TOL
    if np.all(keep):
        return model
    # The diagonal drops residual leakage rates toward dropped states.
    return FiniteStateModel(_exit_diagonal(model.Lambda[np.ix_(keep, keep)]), model.h[keep])


def time_reverse(model: FiniteStateModel) -> np.ndarray:
    """Generator of the time-reversed chain: lam~_ij = lam_ji pi_j / pi_i.

    Requires strictly positive pi (apply reduce_support first). The diagonal
    is set so rows sum to zero; pi is stationary for the result.
    """
    if np.min(model.pi) <= 0:
        raise ZeroSupport("time reversal needs pi > 0 everywhere; reduce support first")
    pi = model.pi
    return _exit_diagonal(model.Lambda.T * pi[None, :] / pi[:, None])


def _exit_diagonal(R: np.ndarray) -> np.ndarray:
    """R with its diagonal set, in place, to minus its off-diagonal row sums."""
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, 0.0 - R.sum(axis=1))  # not -sum: a state with no exits gets +0.0, not -0.0
    return R


def choice_cdf(p: np.ndarray) -> list[float]:
    """p's CDF as Generator.choice builds it: bisect_right(cdf, rng.random()) draws as choice does."""
    cdf = np.cumsum(p)
    return (cdf / cdf[-1]).tolist()


def jump_kernel(Lambda: np.ndarray) -> tuple[list, list]:
    """The sampler's (means, cdfs): per state, the mean holding time and its jump's choice_cdf.

    Both are None for a state with zero exit rate, which holds forever. Takes
    the generator directly, so absorbing or frozen chains can be sampled.
    """
    L = np.asarray(Lambda, dtype=float)
    means, cdfs = [None] * len(L), [None] * len(L)
    for i, rate in enumerate(-np.diag(L)):
        if rate > 0:
            row = np.clip(L[i], 0.0, None)
            row[i] = 0.0
            cdfs[i] = choice_cdf(row / row.sum())
            means[i] = float(1.0 / rate)
    return means, cdfs


def sample_path(
    kernel: tuple[list, list],
    initial_state: int,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-jump (Gillespie) sample of the chain on [0, horizon].

    Returns (jump_times, states) with jump_times[0] = 0 and states[k] the
    state held on [jump_times[k], jump_times[k+1]). The chain is given by
    its jump_kernel, built once for every path (FiniteStateModel.jumps). The
    stream is choice's and exponential's: scale * standard_exponential is
    exponential(scale).
    """
    check_positive("horizon", horizon)  # NaN or inf would draw jumps forever
    means, cdfs = kernel
    uniform, exponential = rng.random, rng.standard_exponential
    times = [0.0]
    states = [int(initial_state)]
    t, x = 0.0, int(initial_state)
    while cdfs[x] is not None:
        t += means[x] * exponential()
        if t >= horizon:
            break
        x = bisect_right(cdfs[x], uniform())
        times.append(t)
        states.append(x)
    return np.asarray(times), np.asarray(states, dtype=np.intp)


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
    take = _at_points(jump_times, at)
    return take(prefix) + take(vals) * (at - take(jump_times))[:, None]


def state_at(jump_times: np.ndarray, states: np.ndarray, at: np.ndarray) -> np.ndarray:
    """State of the piecewise-constant path at each time in `at`."""
    return _at_points(jump_times, np.asarray(at, dtype=float))(states)


def _at_points(jump_times: np.ndarray, at: np.ndarray):
    """Map from per-holding-interval arrays to their values at each time in `at`.

    The time at[j] lies in the interval k = searchsorted(jump_times, at[j],
    "right") - 1. On a sorted grid with far fewer jumps than points, each
    jump is placed in the grid once and each interval's row repeated over
    the points it holds, which is several times cheaper than searching for
    every point and gathering by k; elsewhere the map gathers by k.
    """
    if (at.ndim == 1 and 4 * len(jump_times) <= len(at) and at[0] >= jump_times[0]
            and np.all(at[1:] >= at[:-1])):
        counts = np.diff(np.searchsorted(at, jump_times, side="left"), append=len(at))
        return lambda rows: np.repeat(rows, counts, axis=0)
    k = np.searchsorted(jump_times, at, side="right") - 1
    return lambda rows: rows[k]
