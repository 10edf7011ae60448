"""Finite-state model construction, stationary laws, reversal, simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_finite_model
from oracles import choice_sample_path
from maxacc import (
    FiniteStateModel,
    reduce_support,
    simulate_bundle,
    stationary_distribution,
    time_reverse,
)
from maxacc.errors import InvalidInput, NotRateMatrix, NotUniqueStationary, ZeroSupport
from maxacc.markov import (
    _at_points,
    integrated_observation,
    jump_kernel,
    sample_path,
    state_at,
    validate_rate_matrix,
)

SYM2 = np.array([[-1.0, 1.0], [1.0, -1.0]])


class TestRateMatrixValidation:
    def test_valid_generator_passes(self):
        out = validate_rate_matrix(SYM2)
        assert out.dtype == float

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(NotRateMatrix, match=r"\(0, 1\)"):
            validate_rate_matrix([[1.0, -1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("build", [validate_rate_matrix, lambda L: FiniteStateModel(L, [0.0, 1.0])],
                             ids=["validate", "model"])
    def test_any_negative_rate_rejected(self, build):
        """No tolerance on the sign: RATE_TOL bounds row sums only."""
        with pytest.raises(NotRateMatrix, match=r"^negative off-diagonal rate at \(1, 0\): -5e-13$"):
            build([[-1.0, 1.0], [-5e-13, 5e-13]])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(NotRateMatrix, match="row 0"):
            validate_rate_matrix([[-1.0, 2.0], [1.0, -1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(NotRateMatrix):
            validate_rate_matrix([[-1.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NotRateMatrix):
            validate_rate_matrix([[-np.inf, np.inf], [1.0, -1.0]])

    @pytest.mark.parametrize("build", [validate_rate_matrix, lambda L: FiniteStateModel(L, np.zeros((0, 1)))],
                             ids=["validate", "model"])
    def test_empty_generator_rejected(self, build):
        """A chain needs at least one state; the stationary solve never sees an empty generator."""
        with pytest.raises(NotRateMatrix, match=r"^generator must be a nonempty square matrix, got shape \(0, 0\)$"):
            build(np.zeros((0, 0)))


class TestStationaryDistribution:
    def test_symmetric_two_state_is_uniform(self):
        assert np.allclose(stationary_distribution(SYM2), [0.5, 0.5], atol=1e-12)

    def test_single_state(self):
        assert np.array_equal(stationary_distribution([[0.0]]), [1.0])

    def test_asymmetric_two_state(self):
        pi = stationary_distribution([[-2.0, 2.0], [1.0, -1.0]])
        assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_frozen_two_state_not_unique(self):
        with pytest.raises(NotUniqueStationary):
            stationary_distribution(np.zeros((2, 2)))

    def test_two_closed_classes_not_unique(self):
        L = np.zeros((4, 4))
        L[0, 1] = L[1, 0] = 1.0
        L[2, 3] = L[3, 2] = 1.0
        np.fill_diagonal(L, -L.sum(axis=1) + np.diag(L))
        with pytest.raises(NotUniqueStationary):
            stationary_distribution(L)

    def test_random_models_satisfy_stationarity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_finite_model(rng)
            assert abs(model.pi.sum() - 1.0) <= 1e-12
            assert np.min(model.pi) >= 0.0
            assert np.max(np.abs(model.pi @ model.Lambda)) <= 1e-10


class TestModelConstruction:
    def test_scalar_h_becomes_column(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        assert model.h.shape == (2, 1)
        assert model.d == 2 and model.n == 1

    def test_h_row_count_must_match_states(self):
        with pytest.raises(NotRateMatrix):
            FiniteStateModel(SYM2, [0.0, 1.0, 2.0])

    def test_h_without_columns_rejected(self):
        """An observation table needs at least one channel; the verdict never sees an empty h."""
        with pytest.raises(NotRateMatrix, match=r"^observation table shape \(2, 0\) incompatible with 2 states$"):
            FiniteStateModel(SYM2, np.zeros((2, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_h_must_be_finite(self, bad):
        with pytest.raises(InvalidInput, match="^observation table has non-finite entries$"):
            FiniteStateModel(SYM2, [0.0, bad])

    def test_variance_of_indicator(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        assert model.variance_of([1.0, 0.0]) == pytest.approx(0.25, abs=1e-15)


class TestReduceSupport:
    def test_full_support_unchanged(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        assert reduce_support(model) is model

    def test_absorbing_state_reduces_to_it(self):
        model = FiniteStateModel([[-1.0, 1.0], [0.0, 0.0]], [3.0, 7.0])
        reduced = reduce_support(model)
        assert reduced.d == 1
        assert np.array_equal(reduced.Lambda, [[0.0]])
        assert np.array_equal(reduced.h, [[7.0]])

    def test_transient_state_dropped_and_renormalized(self):
        L = np.array([[-2.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]])
        model = FiniteStateModel(L, [0.0, 1.0, 2.0])
        reduced = reduce_support(model)
        assert reduced.d == 2
        assert np.allclose(reduced.Lambda, SYM2, atol=1e-12)
        assert np.allclose(reduced.pi, [0.5, 0.5], atol=1e-12)
        assert np.array_equal(reduced.h[:, 0], [1.0, 2.0])


class TestTimeReverse:
    def test_symmetric_chain_is_reversible(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        assert np.allclose(time_reverse(model), SYM2, atol=1e-12)

    def test_uniform_pi_gives_transpose(self):
        # Directed cycle: doubly stochastic generator, uniform pi, not reversible.
        L = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        model = FiniteStateModel(L, [0.0, 1.0, 2.0])
        assert np.allclose(time_reverse(model), L.T, atol=1e-12)

    def test_asymmetric_two_state_by_formula(self):
        model = FiniteStateModel([[-2.0, 2.0], [1.0, -1.0]], [0.0, 1.0])
        tilde = time_reverse(model)
        # lam~_01 = lam_10 pi_1 / pi_0 = 1 * (2/3) / (1/3) = 2, and symmetrically.
        assert np.allclose(tilde, [[-2.0, 2.0], [1.0, -1.0]], atol=1e-12)

    def test_zero_support_rejected(self):
        model = FiniteStateModel([[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0])
        with pytest.raises(ZeroSupport):
            time_reverse(model)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_time_reverse_properties(seed):
    """Involution, stationarity of pi under the reversed chain, validity."""
    model = random_finite_model(np.random.default_rng(seed))
    tilde = time_reverse(model)
    validate_rate_matrix(tilde)
    assert np.max(np.abs(model.pi @ tilde)) <= 1e-10
    back = time_reverse(FiniteStateModel(tilde, model.h))
    assert np.max(np.abs(back - model.Lambda)) <= 1e-10


class TestSamplePath:
    def test_single_state_never_jumps(self):
        jt, states = sample_path(jump_kernel(np.array([[0.0]])), 0, 100.0, np.random.default_rng(0))
        assert np.array_equal(jt, [0.0])
        assert np.array_equal(states, [0])

    def test_frozen_chain_stays_put(self):
        jt, states = sample_path(jump_kernel(np.zeros((2, 2))), 1, 50.0, np.random.default_rng(0))
        assert np.array_equal(jt, [0.0])
        assert np.array_equal(states, [1])

    def test_ergodic_fraction_matches_pi(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        horizon = 1e4
        rng = np.random.default_rng(42)
        jt, states = sample_path(jump_kernel(SYM2), int(rng.choice(2, p=model.pi)), horizon, rng)
        time_in_1 = float(
            integrated_observation(jt, states, np.array([0.0, 1.0]), np.array([horizon]))[0, 0]
        )
        assert abs(time_in_1 / horizon - 0.5) < 0.02

    def test_occupation_within_three_standard_errors(self):
        """Batch-means check of occupation frequencies against pi, T = 1e5."""
        L = np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        model = FiniteStateModel(L, np.zeros(3))
        horizon, batches = 1e5, 100
        rng = np.random.default_rng(5)
        jt, states = sample_path(jump_kernel(L), int(rng.choice(3, p=model.pi)), horizon, rng)
        edges = np.linspace(0.0, horizon, batches + 1)
        for i in range(3):
            ind = np.zeros(3)
            ind[i] = 1.0
            occ = np.diff(integrated_observation(jt, states, ind, edges)[:, 0])
            occ /= horizon / batches
            se = occ.std(ddof=1) / np.sqrt(batches)
            assert abs(occ.mean() - model.pi[i]) < 3.0 * se

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        """NaN or inf would never end the jump loop of a jumping chain; all fail
        before sampling. The chain here is frozen, so a missing check fails the
        test instead of hanging it."""
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            sample_path(jump_kernel(np.zeros((2, 2))), 0, horizon, np.random.default_rng(0))


def _edge_case_generator(rng: np.random.Generator, d: int, absorbing: bool) -> np.ndarray:
    """Random sparse generator whose state 0 has one exit target, state d-1 none if absorbing."""
    L = np.where(rng.random((d, d)) < 0.6, rng.uniform(0.1, 3.0, (d, d)), 0.0)
    L[0] = 0.0
    L[0, int(rng.integers(1, d))] = rng.uniform(0.5, 2.0)
    if absorbing:
        L[d - 1] = 0.0
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


class TestSamplePathStream:
    """sample_path draws the stream of the rng.choice/exponential reference sampler."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("absorbing", [False, True])
    def test_same_times_states_and_generator_state(self, d, absorbing):
        rng = np.random.default_rng(100 * d + absorbing)
        for _ in range(3):
            L = _edge_case_generator(rng, d, absorbing)
            for x0 in range(d):
                seed = int(rng.integers(2**32))
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                jt, states = sample_path(jump_kernel(L), x0, 150.0, ours)
                jt_ref, states_ref = choice_sample_path(L, x0, 150.0, ref)
                assert np.array_equal(jt, jt_ref)
                assert np.array_equal(states, states_ref)
                assert states.dtype == states_ref.dtype
                assert ours.random() == ref.random()

    def test_single_exit_target_row_still_draws(self):
        """A one-target kernel consumes a uniform draw per jump, as choice does."""
        L = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [3.0, 0.0, -3.0]])
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        jt, states = sample_path(jump_kernel(L), 0, 40.0, ours)
        assert len(jt) > 20 and np.array_equal(states[:3], [0, 1, 2])
        jt_ref, states_ref = choice_sample_path(L, 0, 40.0, ref)
        assert np.array_equal(jt, jt_ref) and np.array_equal(states, states_ref)


class TestCellIndex:
    """_at_points agrees with searchsorted(jump_times, at, "right") - 1 on both of its paths."""

    H = np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0], [1.0, 1.0], [0.0, -2.0]])

    def paths_taken(self, monkeypatch, jt, at) -> list[str]:
        """Check jt and at, then report the side of every searchsorted _at_points makes.

        The fast path places the jumps in the grid ("left"), the fallback
        places the grid points among the jumps ("right").
        """
        self.check(jt, at)
        sides, real = [], np.searchsorted

        def spy(a, v, side="left", sorter=None):
            sides.append(side)
            return real(a, v, side=side, sorter=sorter)

        with monkeypatch.context() as m:
            m.setattr(np, "searchsorted", spy)
            _at_points(np.asarray(jt, dtype=float), np.asarray(at, dtype=float))
        return sides

    def check(self, jt, at) -> None:
        jt = np.asarray(jt, dtype=float)
        at = np.asarray(at, dtype=float)
        states = np.arange(len(jt)) % len(self.H)
        k = np.searchsorted(jt, at, side="right") - 1
        rows = np.arange(len(jt))
        assert np.array_equal(_at_points(jt, at)(rows), rows[k])  # k = -1 before the first jump
        assert np.array_equal(state_at(jt, states, at), states[k])
        if at.ndim == 1:
            # Reference: the integral gathered by k.
            vals = self.H[states]
            seg = np.diff(jt)[:, None] * vals[:-1]
            prefix = np.vstack([np.zeros((1, 2)), np.cumsum(seg, axis=0)])
            expected = prefix[k] + vals[k] * (at - jt[k])[:, None]
            assert np.array_equal(integrated_observation(jt, states, self.H, at), expected)

    def test_grid_time_exactly_at_a_jump(self, monkeypatch):
        jt = [0.0, 0.5, 1.25, 3.0]
        at = np.arange(41) * 0.125
        assert {0.5, 1.25, 3.0} <= set(at)
        assert self.paths_taken(monkeypatch, jt, at) == ["left"]

    def test_block_grid_not_starting_at_zero(self, monkeypatch):
        jt = [0.0, 3.0, 12.5, 13.0, 14.375, 20.0]
        at = (100 + np.arange(41)) * 0.125
        assert at[0] == 12.5
        assert self.paths_taken(monkeypatch, jt, at) == ["left"]

    def test_grid_past_the_last_jump(self, monkeypatch):
        jt = [0.0, 1.0, 2.0]
        at = (16 + np.arange(65)) * 0.125
        assert self.paths_taken(monkeypatch, jt, at) == ["left"]

    def test_grid_before_the_first_jump_falls_back(self, monkeypatch):
        jt = [5.0, 6.0, 7.5]
        at = np.arange(81) * 0.125
        assert self.paths_taken(monkeypatch, jt, at) == ["right"]

    def test_unsorted_grid_falls_back(self, monkeypatch):
        jt = [0.0, 0.5, 1.25, 3.0]
        at = np.random.default_rng(1).permutation(np.arange(41) * 0.125)
        assert self.paths_taken(monkeypatch, jt, at) == ["right"]

    def test_scalar_time_falls_back(self, monkeypatch):
        jt = [0.0, 0.5, 1.25, 3.0]
        for at in (0.0, 0.5, 1.3, 7.0):
            assert self.paths_taken(monkeypatch, jt, np.float64(at)) == ["right"]

    def test_few_points_fall_back(self, monkeypatch):
        jt = [0.0, 0.5, 1.25, 3.0]
        assert self.paths_taken(monkeypatch, jt, [0.25, 0.5, 2.0]) == ["right"]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_paths_and_grids(self, seed):
        rng = np.random.default_rng(seed)
        jt = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 20.0, int(rng.integers(0, 12))))])
        dt = float(rng.choice([0.125, 0.1, 0.01]))
        at = (int(rng.integers(0, 300)) + np.arange(int(rng.integers(1, 400)))) * dt
        if rng.random() < 0.3:  # land some jumps exactly on grid points
            jt = np.unique(np.concatenate([jt, rng.choice(at, 2)]))
        self.check(jt, at)


class TestObservations:
    """A noiseless record is the np.diff of integrated_observation on the grid;
    noisy records come from simulate_bundle."""

    def test_noiseless_frozen_path_increments(self):
        h = np.array([2.0, -3.0])
        jt, states = sample_path(jump_kernel(np.zeros((2, 2))), 1, 10.0, np.random.default_rng(0))
        inc = np.diff(integrated_observation(jt, states, h, np.arange(41) * 0.25), axis=0)
        assert inc.shape == (40, 1)
        assert np.allclose(inc, -3.0 * 0.25, atol=1e-12)

    def test_noiseless_increments_integrate_exactly(self):
        model = FiniteStateModel(SYM2, [0.5, -1.5])
        rng = np.random.default_rng(3)
        jt, states = sample_path(jump_kernel(SYM2), int(rng.choice(2, p=model.pi)), 200.0, rng)
        grid = np.arange(20001) * 0.01
        inc = np.diff(integrated_observation(jt, states, model.h, grid), axis=0)
        total = integrated_observation(jt, states, model.h, np.array([200.0]))[0]
        assert np.allclose(inc.sum(axis=0), total, rtol=1e-10, atol=1e-10)

    def test_pure_noise_statistics(self):
        """h = 0, kappa = 1: increments are iid N(0, dt)."""
        dt, steps = 0.05, 200_000
        model = FiniteStateModel(np.zeros((1, 1)), np.zeros(1))
        inc = simulate_bundle(model, steps * dt, kappa=1.0, dt=dt, seed=9).obs_increments[:, 0]
        assert inc.shape == (steps,)
        assert abs(inc.mean()) < 4.0 * np.sqrt(dt / steps)
        chi2_mean = np.mean((inc / np.sqrt(dt)) ** 2)
        assert abs(chi2_mean - 1.0) < 5.0 * np.sqrt(2.0 / steps)

    def test_drift_mean_matches_stationary_average(self):
        """Law of large numbers for mean(dY/dt) at kappa = 1."""
        model = FiniteStateModel([[-2.0, 2.0], [1.0, -1.0]], [0.0, 1.0])
        horizon, dt = 5000.0, 0.5
        inc = simulate_bundle(model, horizon, 1.0, dt, seed=13).obs_increments
        assert abs(inc.mean() / dt - 2.0 / 3.0) < 0.1


class TestBundle:
    def test_bundle_shapes_and_state_lookup(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        bundle = simulate_bundle(model, horizon=20.0, kappa=0.3, dt=0.1, seed=2)
        assert bundle.obs_increments.shape == (200, 1)
        at = np.array([0.0, 5.0, 19.9])
        assert np.array_equal(bundle.state_at(at), state_at(bundle.jump_times, bundle.states, at))

    def test_path_stream_independent_of_dt(self):
        """Refining dt regenerates noise but must not perturb the signal path."""
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        coarse = simulate_bundle(model, 20.0, 0.3, dt=0.1, seed=8)
        fine = simulate_bundle(model, 20.0, 0.3, dt=0.05, seed=8)
        assert np.array_equal(coarse.jump_times, fine.jump_times)
        assert np.array_equal(coarse.states, fine.states)

    @pytest.mark.parametrize("name, value", [
        (name, value)
        for name in ("horizon", "kappa", "dt")
        for value in (float("nan"), float("inf"), 0.0, -1.0)
    ])
    def test_inputs_obey_the_one_rule(self, name, value):
        """horizon, kappa and dt are positive and finite, checked before sampling."""
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        args = dict(horizon=10.0, kappa=0.3, dt=0.1) | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            simulate_bundle(model, **args, seed=0)

    @pytest.mark.parametrize("horizon", [0.01, 0.05])
    def test_grid_without_steps_names_the_given_horizon(self, horizon):
        """A positive horizon that rounds to no cells is refused as given, not as 0."""
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        message = rf"^horizon {horizon:g} rounds to 0 grid steps of dt 0.1$"
        with pytest.raises(ValueError, match=message):
            simulate_bundle(model, horizon, 0.3, 0.1)

    def test_same_seed_reproduces(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        a = simulate_bundle(model, 10.0, 0.3, 0.1, seed=21)
        b = simulate_bundle(model, 10.0, 0.3, 0.1, seed=21)
        assert np.array_equal(a.obs_increments, b.obs_increments)
