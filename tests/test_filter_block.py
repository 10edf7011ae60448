"""The blocked-scan filter kernel against the plain sequential recursion."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from maxacc import wonham
from maxacc.errors import DegenerateWeight

pytestmark = pytest.mark.filterwarnings("error")

TOL = 1e-12
# 1, 2: no second chunk; 56/57/63/64/65 sit on both sides of an 8 x 8 grid
# (57 leaves one step in the last chunk, 63 pads one step, 64 pads none);
# 3616 and 16384 are the block lengths of the kappa = 0.05 sweep row.
STEPS = [1, 2, 56, 57, 63, 64, 65, 3616, 16384]


def reference_filter(mu: np.ndarray, T: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One predict/correct step at a time: the recursion the scan must reproduce."""
    out = np.empty_like(weights)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(weights.shape[1]):
            mu = (mu @ T) * weights[:, k]
            mu = mu / mu.sum(axis=1, keepdims=True)
            out[:, k] = mu
    if not np.all(np.isfinite(mu)):
        raise DegenerateWeight("filter mass vanished; refine dt for this kappa")
    return out


def outcome(fn, mu, T, weights):
    try:
        return fn(mu, T, weights)
    except DegenerateWeight:
        return None


def assert_same_outcome(mu, T, weights):
    """Both kernels fail, or both return paths within TOL of each other."""
    ref = outcome(reference_filter, mu, T, weights)
    got = outcome(wonham._filter_block, mu, T, weights)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= TOL


def transition(Lambda, dt: float) -> np.ndarray:
    return wonham._transition(SimpleNamespace(Lambda=np.asarray(Lambda, dtype=float)), dt)


def random_chain(d: int, rng: np.random.Generator) -> np.ndarray:
    L = rng.uniform(0.2, 2.0, (d, d))
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return transition(L, 0.01)


def shifted_weights(log_w: np.ndarray) -> np.ndarray:
    return np.exp(log_w - log_w.max(axis=2, keepdims=True))


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_matches_sequential_recursion(d, batch, steps):
    rng = np.random.default_rng([d, batch, steps])
    T = random_chain(d, rng)
    weights = shifted_weights(rng.normal(0.0, 2.0, (batch, steps, d)))
    mu = rng.dirichlet(np.ones(d), size=batch)  # not the stationary law
    assert_same_outcome(mu, T, weights)


def test_scan_and_single_chunk_paths_are_both_taken():
    """The parity grid above covers multi-chunk blocks and the one-chunk bound."""
    assert 64 * 3 * 3 <= wonham.SCAN_MAX_BATCH_D2 < 64 * 6 * 6


def in_layout(factors: np.ndarray, layout: str) -> np.ndarray:
    """A (batch, steps, d) copy of factors, stored trial-major, state-major
    (d, batch, steps: the storage the estimator filters in) or time-major (steps, d, batch)."""
    axes = {"trial_major": (0, 1, 2), "state_major": (2, 0, 1), "time_major": (1, 2, 0)}[layout]
    return factors.transpose(axes).copy().transpose(np.argsort(axes))


@pytest.mark.parametrize("layout", ["trial_major", "state_major", "time_major"])
@pytest.mark.parametrize("batch, steps, d", [(3, 57, 2), (64, 65, 6), (3, 64, 2), (3, 2, 3)])
def test_path_overwrites_the_weights(layout, batch, steps, d):
    """The path is written into the weights array, in its own layout, and that
    array is returned; a scanned block with a ragged last chunk (3 x 57 x 2) and
    with a full one (3 x 64 x 2, an 8 x 8 grid), and one-chunk blocks by size
    (64 x 65 x 6) and by length (3 x 2 x 3). The layout moves no bit of the path:
    the estimator filters state-major, the tests here mostly trial-major."""
    rng = np.random.default_rng([batch, steps, d])
    T = random_chain(d, rng)
    factors = shifted_weights(rng.normal(0.0, 2.0, (batch, steps, d)))
    mu = rng.dirichlet(np.ones(d), size=batch)
    weights = in_layout(factors, layout)
    assert np.array_equal(weights, factors)
    out = wonham._filter_block(mu, T, weights)
    assert out is weights
    assert np.shares_memory(out, weights)
    assert np.max(np.abs(out - reference_filter(mu, T, factors))) <= TOL
    assert np.array_equal(out, wonham._filter_block(mu, T, in_layout(factors, "trial_major")))


def test_uninformative_block_keeps_the_stationary_law_exactly():
    """All weights 1 (constant h): step by step, pi = (1/2, 1/2) is an exact
    fixed point of the symmetric chain, and the block must keep it so."""
    T = transition([[-1.0, 1.0], [1.0, -1.0]], 0.005)
    mu = np.full((8, 2), 0.5)
    out = wonham._filter_block(mu, T, np.ones((8, 12000, 2)))
    assert np.all(out == 0.5)


def test_chunk_likelihoods_beyond_double_range():
    """State 0 is absorbing and explains each increment e^-20 worse than state 1,
    so over one chunk the filter started from e_0 is less likely than the one
    started from e_1 by far more than 1e-308; no row may underflow."""
    steps, batch = 4096, 3
    T = transition([[0.0, 0.0], [1.0, -1.0]], 0.01)
    log_w = np.zeros((batch, steps, 2))
    log_w[:, :, 0] = -20.0
    chunk = math.isqrt(steps - 1) + 1
    assert -20.0 * chunk < math.log(1e-308)
    mu = np.array([[0.5, 0.5], [1.0, 0.0], [1e-300, 1.0 - 1e-300]])
    out = wonham._filter_block(mu, T, np.exp(log_w))
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - reference_filter(mu, T, np.exp(log_w)))) <= TOL
    assert np.all(out[1, :, 0] == 1.0)  # absorbed at the start: stays there


def test_dead_start_state_does_not_fail_a_live_filter():
    """State 1 is absorbing and one increment rules it out: the filter started
    from e_1 loses all its mass, but a filter with mass on state 0 survives."""
    steps = 400
    T = transition([[-1.0, 1.0], [0.0, 0.0]], 0.001)
    weights = np.ones((2, steps, 2))
    weights[:, 250, 1] = 0.0
    mu = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert_same_outcome(mu, T, weights.copy())
    assert np.all(np.isfinite(wonham._filter_block(mu, T, weights)))


@pytest.mark.parametrize("position", [0, 5, 199, 200, 399])
@pytest.mark.parametrize("kind", ["zero", "nan", "ruled_out"])
def test_fails_exactly_where_the_loop_fails(kind, position):
    """A vanished or NaN mass in one trial at any step fails the whole block."""
    steps, batch = 400, 3
    rng = np.random.default_rng(position)
    if kind == "ruled_out":
        # pi = (0, 1) on an absorbing state 1, then an increment that rules it out.
        T = transition([[-1.0, 1.0], [0.0, 0.0]], 0.01)
        mu = np.tile([0.0, 1.0], (batch, 1))
        weights = np.ones((batch, steps, 2))
        weights[1, position] = [1.0, 0.0]
    else:
        T = random_chain(2, rng)
        mu = rng.dirichlet(np.ones(2), size=batch)
        weights = shifted_weights(rng.normal(0.0, 1.0, (batch, steps, 2)))
        weights[1, position] = 0.0 if kind == "zero" else np.nan
    # In the estimator's state-major storage the failing step sits inside a
    # reordered row head (steps 0 to 379, 19 chunks of 20) or in the last chunk.
    state_major = in_layout(weights, "state_major")
    assert outcome(reference_filter, mu, T, weights) is None
    with pytest.raises(DegenerateWeight, match="mass vanished"):
        wonham._filter_block(mu, T, weights)
    with pytest.raises(DegenerateWeight, match="mass vanished"):
        wonham._filter_block(mu, T, state_major)
