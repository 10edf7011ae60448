"""Optimal-filter recursion and Monte-Carlo stationary-error estimation."""

from __future__ import annotations

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_finite_model
from maxacc import (
    FiniteStateModel,
    estimate_stationary_error,
    indicator,
    kappa_sweep_finite,
    run_filter,
    simulate_bundle,
)
from maxacc import wonham
from maxacc.errors import DegenerateWeight
from maxacc.modelfile import parse_model_file
from maxacc.verdicts import CONSISTENT, F_MAX, INCONSISTENT, UNDECIDED, SweepResult, SweepRow, Verdict
from maxacc.wonham import DT_MIN, SimParams, auto_burn_in, auto_dt
from oracles import small_noise_leading, two_state_error, two_state_error_by_quadrature

SYM2 = np.array([[-1.0, 1.0], [1.0, -1.0]])

pytestmark = pytest.mark.filterwarnings("error")


def two_state(h=(0.0, 1.0)) -> FiniteStateModel:
    return FiniteStateModel(SYM2, np.array(h))


class TestStepPolicies:
    def test_auto_dt_tracks_kappa_squared(self):
        model = two_state()
        assert auto_dt(model, 0.02) == pytest.approx(0.5 * 0.02**2)

    def test_auto_dt_capped_by_fastest_rate(self):
        model = two_state()
        # 0.5 kappa^2 = 0.125 exceeds 0.2 / max_rate = 0.2.
        assert auto_dt(model, 0.5) == pytest.approx(0.125)
        assert auto_dt(model, 5.0) == pytest.approx(0.2)

    def test_auto_dt_floor(self):
        assert auto_dt(two_state(), 1e-5) == 1e-6

    def test_auto_burn_in_from_spectral_gap(self):
        # Eigenvalues 0 and -2: ten relaxation times is 5.
        assert auto_burn_in(two_state()) == pytest.approx(5.0)

    def test_auto_burn_in_frozen_chain(self):
        assert auto_burn_in(FiniteStateModel([[0.0]], [1.0])) == 0.0

    def test_auto_burn_in_falls_back_to_the_slowest_exit_rate(self):
        """Lambda = 1e-13 [[-1, 1], [1, -1]] relaxes at rate 2e-13, under the absolute
        1e-12 eigenvalue cutoff, so the burn-in is 10 over the slowest exit rate, 1e-13,
        not 10 / 2e-13. The cutoff is not scale-free, so this value moves once the same
        model in other units gets the same answer (ROADMAP item 4)."""
        model = FiniteStateModel(1e-13 * np.array([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 1.0])
        assert auto_burn_in(model) == pytest.approx(1e14, rel=1e-12)


class TestTransition:
    EXPM_TOL = 1e-13  # largest entry difference from scipy.linalg.expm

    def test_matches_scipy_expm_over_the_step_range(self):
        """d = 1 to 8, an absorbing state, dt from DT_MIN past auto_dt's cap to a 5 / rate user dt."""
        import scipy.linalg

        rng = np.random.default_rng(22)
        models = [FiniteStateModel([[0.0]], [1.0]), FiniteStateModel([[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0])]
        models += [random_finite_model(rng, d_max=8) for _ in range(100)]
        assert {model.d for model in models} == set(range(1, 9))
        for model in models:
            rate = float(np.max(-np.diag(model.Lambda))) or 1.0
            for dt in [*np.geomspace(DT_MIN, 0.2 / rate, 7), 1.0 / rate, 5.0 / rate]:
                T = wonham._transition(model, dt)
                assert np.max(np.abs(T - scipy.linalg.expm(model.Lambda * dt))) <= self.EXPM_TOL
                assert np.all(T >= 0.0)
                assert np.max(np.abs(T.sum(axis=1) - 1.0)) <= 1e-15

    def test_absorbing_state_stays_absorbing_exactly(self):
        T = wonham._transition(FiniteStateModel([[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0]), 3.0)
        assert T[1].tolist() == [0.0, 1.0]


class TestRunFilter:
    def test_constant_observation_filter_stays_stationary(self):
        """Uninformative observations: the filter never moves off pi."""
        model = two_state(h=(2.0, 2.0))
        bundle = simulate_bundle(model, 50.0, kappa=0.3, dt=0.05, seed=1)
        path = run_filter(model, bundle.obs_increments, 0.3, 0.05)
        assert np.max(np.abs(path - model.pi)) <= 1e-12

    def test_single_state_filter_is_constant_one(self):
        model = FiniteStateModel([[0.0]], [1.0])
        inc = np.random.default_rng(0).normal(size=(100, 1))
        path = run_filter(model, inc, kappa=1.0, dt=0.1)
        assert np.array_equal(path, np.ones((101, 1)))

    def test_simplex_preserved(self):
        model = FiniteStateModel(
            [[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]],
            [0.0, 1.0, -1.0],
        )
        bundle = simulate_bundle(model, 40.0, kappa=0.1, dt=0.005, seed=5)
        path = run_filter(model, bundle.obs_increments, 0.1, 0.005)
        assert np.max(np.abs(path.sum(axis=1) - 1.0)) <= 1e-12
        assert np.min(path) >= 0.0

    def test_small_noise_tracks_true_state(self):
        """At kappa = 0.05 the filter concentrates; a dt/10 grid agrees."""
        model = two_state()
        kappa, dt_coarse, horizon = 0.05, auto_dt(two_state(), 0.05), 50.0
        fine = simulate_bundle(model, horizon, kappa, dt_coarse / 10.0, seed=17)
        coarse_inc = fine.obs_increments.reshape(-1, 10, 1).sum(axis=1)

        grid_c = np.arange(1, coarse_inc.shape[0] + 1) * dt_coarse
        truth = fine.state_at(grid_c)
        burn = int(round(auto_burn_in(model) / dt_coarse))

        path_c = run_filter(model, coarse_inc, kappa, dt_coarse)
        mass_c = path_c[1:][np.arange(truth.size), truth]
        path_f = run_filter(model, fine.obs_increments, kappa, dt_coarse / 10.0)
        mass_f = path_f[10::10][np.arange(truth.size), truth]

        assert mass_c[burn:].mean() > 0.95
        assert mass_f[burn:].mean() > 0.95
        assert abs(mass_c[burn:].mean() - mass_f[burn:].mean()) < 0.01

    def test_observation_record_is_left_unchanged(self):
        """The filter overwrites its own weights, never the increments it reads:
        over a two-block record, given 2-D or as a 1-D view, the bundle's
        increments still equal a fresh bundle's and a second run repeats the first."""
        model = two_state()
        bundle = simulate_bundle(model, 25.0, kappa=0.05, dt=0.00125, seed=5)
        assert bundle.obs_increments.shape[0] > wonham.BLOCK_STEPS
        first = run_filter(model, bundle.obs_increments, 0.05, 0.00125)
        second = run_filter(model, bundle.obs_increments[:, 0], 0.05, 0.00125)
        fresh = simulate_bundle(model, 25.0, kappa=0.05, dt=0.00125, seed=5)
        assert np.array_equal(bundle.obs_increments, fresh.obs_increments)
        assert np.array_equal(first, second)

    def test_underflowed_weights_raise(self):
        """An increment inconsistent with every state must not pass silently."""
        model = two_state()
        inc = np.full((5, 1), 10.0)
        with pytest.raises(DegenerateWeight):
            run_filter(model, inc, kappa=0.01, dt=0.1)

    def test_non_finite_increment_raises(self, monkeypatch):
        """A NaN or inf is a bad input, refused before filtering, not a step too large for kappa."""
        def no_filter(*args, **kwargs):
            raise AssertionError("filtered a non-finite record")

        monkeypatch.setattr(wonham, "_filter_increments", no_filter)
        for bad in (np.nan, np.inf, -np.inf):
            inc = np.zeros((5, 1))
            inc[3] = bad
            with pytest.raises(ValueError, match="^observation increments have non-finite entries$"):
                run_filter(two_state(), inc, kappa=0.3, dt=0.1)

    @pytest.mark.parametrize("shape", [(), (5, 1, 1)])
    def test_increments_must_be_one_or_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=rf"^observation increments must be a 1-d or 2-d array, "
                                             rf"got {len(shape)} dimensions$"):
            run_filter(two_state(), np.zeros(shape), kappa=0.3, dt=0.1)

    def test_vanishing_mass_raises(self):
        """pi = (0, 1) and an increment that rules out state 1: the mass is 0,
        which must raise, not divide with a RuntimeWarning."""
        model = FiniteStateModel([[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0])
        inc = np.ones((10, 1))
        inc[3] = 0.0
        with pytest.raises(DegenerateWeight, match="mass vanished"):
            run_filter(model, inc, kappa=0.01, dt=1.0)

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            run_filter(two_state(), np.zeros((5, 1)), kappa=0.0, dt=0.1)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_dt_must_be_positive_and_finite(self, dt):
        """A bad step is a bad input (ValueError), not a degenerate filter."""
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            run_filter(two_state(), np.zeros((5, 1)), kappa=0.3, dt=dt)

    def test_increment_width_must_match_model(self):
        with pytest.raises(ValueError):
            run_filter(two_state(), np.zeros((5, 3)), kappa=0.3, dt=0.1)


class TestEstimator:
    @pytest.mark.parametrize(
        "kappa, horizon",
        # 667 steps in one block, the grid overshooting the horizon by 0.015
        # (a jump falls there at seed 0); 80 000 steps over several blocks.
        [(0.3, 30.0), (0.1, 400.0)],
    )
    def test_bundle_filter_reproduces_trial_zero(self, kappa, horizon):
        """simulate_bundle + run_filter at seed s is trial 0 of the estimator at seed s."""
        model = two_state()
        f = np.array([0.0, 1.0])
        dt, burn_in, seed = auto_dt(model, kappa), auto_burn_in(model), 0
        steps = int(round(horizon / dt))
        bundle = simulate_bundle(model, horizon, kappa, dt, seed=seed)
        path = run_filter(model, bundle.obs_increments, kappa, dt)
        truth = f[bundle.state_at(np.arange(1, steps + 1) * dt)]
        burn_steps = int(np.floor(burn_in / dt + 1e-9))
        expected = np.mean((truth - path[1:] @ f)[burn_steps:] ** 2)
        est, _ = estimate_stationary_error(
            model, f, kappa, trials=1, horizon=horizon, dt=dt, burn_in=burn_in, seed=seed
        )
        assert est == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_constant_test_function_error_is_zero(self):
        est, se = estimate_stationary_error(
            two_state(), np.zeros(2), kappa=0.3, trials=4, horizon=30.0, seed=0
        )
        assert est == 0.0 and se == 0.0
        # Nonzero constants pick up the round-off of the filter renormalization
        # (sum mu = 1 only to machine precision), squared: ~1e-31, not exact 0.
        est, se = estimate_stationary_error(
            two_state(), np.array([2.0, 2.0]), kappa=0.3, trials=4, horizon=30.0, seed=0
        )
        assert est <= 1e-30 and se <= 1e-30

    def test_constant_observation_error_is_variance_exactly(self):
        """Symmetric chain, constant h: the filter sits at pi = (1/2, 1/2)
        to round-off, so the squared error of an indicator is 1/4 pathwise."""
        model = two_state(h=(1.0, 1.0))
        est, se = estimate_stationary_error(
            model, np.array([1.0, 0.0]), kappa=0.5, trials=4, horizon=40.0, seed=1
        )
        assert abs(est - 0.25) <= 1e-12
        assert se <= 1e-12

    def test_constant_observation_error_is_variance_statistical(self):
        """Non-uniform chain: filter = pi only on average; compare within CI."""
        model = FiniteStateModel(
            [[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]],
            [5.0, 5.0, 5.0],
        )
        f = np.array([0.0, 1.0, -1.0])
        est, se = estimate_stationary_error(
            model, f, kappa=0.4, trials=16, horizon=100.0, seed=2
        )
        assert abs(est - model.variance_of(f)) <= 3.0 * se

    def test_huge_noise_estimate_matches_variance(self):
        """kappa so large that observations carry nothing: e = Var_pi(f)."""
        model = two_state()
        f = np.array([0.0, 1.0])
        est, se = estimate_stationary_error(
            model, f, kappa=50.0, trials=16, horizon=150.0, seed=3
        )
        assert abs(est - 0.25) <= 3.0 * se

    def test_estimate_bounded_by_variance(self):
        """Conditioning cannot hurt: estimate <= Var_pi(f) + 3 se."""
        model = two_state()
        f = np.array([0.0, 1.0])
        for kappa in (0.5, 0.2):
            est, se = estimate_stationary_error(
                model, f, kappa, trials=8, horizon=60.0, seed=4
            )
            assert est <= model.variance_of(f) + 3.0 * se

    def test_error_shrinks_with_kappa_up_to_ci(self):
        model = two_state()
        f = np.array([0.0, 1.0])
        e_hi, se_hi = estimate_stationary_error(model, f, 0.5, trials=8, horizon=60.0, seed=5)
        e_lo, se_lo = estimate_stationary_error(model, f, 0.1, trials=8, horizon=60.0, seed=5)
        assert e_lo <= e_hi + 1.96 * (se_hi + se_lo)

    def test_dt_halving_within_two_standard_errors(self):
        model = two_state()
        f = np.array([0.0, 1.0])
        dt = auto_dt(model, 0.3)
        e1, se1 = estimate_stationary_error(model, f, 0.3, trials=16, horizon=80.0, dt=dt, seed=6)
        e2, se2 = estimate_stationary_error(
            model, f, 0.3, trials=16, horizon=80.0, dt=dt / 2.0, seed=6
        )
        assert abs(e1 - e2) < 2.0 * (se1 + se2)

    def test_single_trial_has_nan_std_error(self):
        est, se = estimate_stationary_error(
            two_state(), np.array([0.0, 1.0]), 0.5, trials=1, horizon=30.0, seed=7
        )
        assert np.isfinite(est)
        assert np.isnan(se)

    def test_deterministic_and_pool_independent(self, monkeypatch):
        """128 trials split into two chunks must not depend on the pool size."""
        model = two_state()
        f = np.array([0.0, 1.0])
        kwargs = dict(trials=128, horizon=10.0, seed=8)
        monkeypatch.setenv("MAXACC_THREADS", "1")
        serial = estimate_stationary_error(model, f, 0.5, **kwargs)
        monkeypatch.setenv("MAXACC_THREADS", "4")
        parallel = estimate_stationary_error(model, f, 0.5, **kwargs)
        assert serial == parallel

    @pytest.mark.parametrize("horizon", [25.0, 80.0])
    @pytest.mark.parametrize("name", ["two_state", "quad"])
    def test_working_set_stays_under_one_and_a_quarter_blocks(self, monkeypatch, name, horizon):
        """One kappa 0.05 estimate peaks at 1.13 arrays of batch x BLOCK_STEPS x d, both as
        a two-block row (horizon 25: 16384 + 3616 steps) and a four-block one (horizon 80),
        on the two-state chain and on QUAD (d = 4, n = 2, the feed's matmul branch): the
        weights the path overwrites, with one trial's feed and the kernel's chunk-sized
        buffers beside them and no block-sized array outliving its block."""
        monkeypatch.setenv("MAXACC_THREADS", "1")
        model, f = {"two_state": (two_state(), [0.0, 1.0]), "quad": (QUAD, [1.0, 0.0, -1.0, 2.0])}[name]
        estimate_stationary_error(model, np.array(f), 0.05, trials=32, horizon=horizon)  # warm-up
        tracemalloc.start()
        try:
            estimate_stationary_error(model, np.array(f), 0.05, trials=32, horizon=horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 32 * wonham.BLOCK_STEPS * model.d * 8
        assert peak <= 1.25 * block

    @pytest.mark.parametrize("scanned", [True, False])
    def test_kernel_allocates_under_a_quarter_block(self, scanned):
        """_filter_block on a 32 x 16384 x 2 state-major block works in place: scanned, it
        allocates 0.11 of the block (one row, the chunk buffers); as one chunk (all weights
        1), a slab of about sqrt(steps) steps at a time. Neither copies the block."""
        T = wonham._transition(two_state(), 0.00125)
        storage = np.ones((2, 32, wonham.BLOCK_STEPS))
        if scanned:
            storage = np.exp(-np.random.default_rng(1).random(storage.shape))
        mu = np.full((32, 2), 0.5)
        tracemalloc.start()
        try:
            wonham._filter_block(mu, T, np.moveaxis(storage, 0, -1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * storage.nbytes

    def test_estimate_sums_the_states_in_order(self, monkeypatch):
        """The filtered f is f_0 p_0 + f_1 p_1 + f_2 p_2 in that order, bit for bit, so no
        choice of BLAS kernel reaches an estimate. The true f(X) is swapped for that sum of
        the recorded path: a last-bit difference in any entry leaves a nonzero error."""
        f = np.array([0.3, 0.7, -1.1])  # products inexact: orders and kernels disagree
        paths, sums = [], []
        filter_increments = wonham._filter_increments

        def in_order_sum(jump_times, values, times):
            p = paths[-1][len(sums), -len(times):]
            sums.append(p[:, 0] * f[0] + p[:, 1] * f[1] + p[:, 2] * f[2])
            return sums[-1]

        monkeypatch.setattr(wonham, "_filter_increments", lambda *a: paths.append(filter_increments(*a)) or paths[-1])
        monkeypatch.setattr(wonham, "state_at", in_order_sum)
        monkeypatch.setenv("MAXACC_THREADS", "1")
        model = FiniteStateModel([[-2.0, 1.5, 0.5], [0.5, -1.0, 0.5], [1.0, 0.3, -1.3]], [[0.0], [1.0], [2.5]])
        got = estimate_stationary_error(model, f, 0.2, trials=2, horizon=5.0, dt=0.01, burn_in=1.0, seed=4)
        assert (len(paths), [len(s) for s in sums]) == (1, [400, 400])  # one block, burn-in cut
        assert got == (0.0, 0.0)

    def test_argument_validation(self):
        model = two_state()
        with pytest.raises(ValueError):
            estimate_stationary_error(model, np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            estimate_stationary_error(model, np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            estimate_stationary_error(
                model, np.zeros(2), 0.5, horizon=10.0, burn_in=20.0
            )
        for name, value in (
            ("trials", 0), ("trials", -3), ("dt", 0.0), ("burn_in", -1.0),
            ("horizon", np.inf), ("horizon", np.nan), ("dt", np.nan),
            ("burn_in", np.inf), ("seed", -1),
        ):
            with pytest.raises(ValueError, match=name):
                estimate_stationary_error(model, np.zeros(2), 0.5, **{name: value})
        for kappa in (np.nan, np.inf):
            with pytest.raises(ValueError, match="kappa"):
                estimate_stationary_error(model, np.zeros(2), kappa)

    def test_largest_test_function_keeps_every_sum_finite(self):
        """At |f| = F_MAX a row's squared errors and their spread stay finite; beyond it f is refused."""
        assert (2 * F_MAX) ** 4 * wonham.TRIAL_STEP_BUDGET < sys.float_info.max
        model = two_state()
        est, se = estimate_stationary_error(model, [F_MAX, -F_MAX], 0.5, trials=4, horizon=8.0)
        assert np.isfinite(est) and np.isfinite(se) and est > 0
        with pytest.raises(ValueError, match=r"at most 1e\+70 in absolute value, got 2e\+70"):
            estimate_stationary_error(model, [0.0, -2 * F_MAX], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raw_test_function_obeys_the_test_function_rule(self, bad):
        """A raw vector fails the test-function rule in the estimator as in kappa_sweep_finite."""
        f = [bad, 1.0]
        with pytest.raises(ValueError, match="test function must be a finite") as raw:
            estimate_stationary_error(two_state(), f, 0.5, trials=2, horizon=10.0)
        with pytest.raises(ValueError) as swept:
            kappa_sweep_finite(two_state(), f, [0.5], SimParams(trials=2, horizon=10.0))
        assert str(raw.value) == str(swept.value)

    def test_sweep_checks_the_length_of_f_before_any_work(self, monkeypatch):
        """A wrong-length f fails with the rule's message, not from the verdict or variance."""
        def no_verdict(model):
            raise AssertionError("verdict computed for a bad test function")

        monkeypatch.setattr(wonham, "finite_verdict", no_verdict)
        with pytest.raises(ValueError, match=r"^test function needs 2 values, got shape \(3,\)$"):
            kappa_sweep_finite(two_state(), np.zeros(3), [0.5], SimParams(trials=2, horizon=5.0))

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_indicator_index_out_of_range(self, i):
        with pytest.raises(ValueError, match=rf"^indicator index {i} outside 0..1$"):
            indicator(i, 2)

    @pytest.mark.parametrize("i", [True, np.bool_(False), 1.0, "1"])
    def test_indicator_index_must_be_an_integer(self, i):
        """A bool would select every entry and a float would raise numpy's IndexError."""
        with pytest.raises(ValueError, match=r"^indicator index must be an integer, got "):
            indicator(i, 2)

    def test_indicator_takes_a_numpy_integer(self):
        assert indicator(np.int64(1), 2).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("Lambda", [
        [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]],   # state 2 transient
        [[-1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [1.0, 0.0, -1.0]],   # state 1 transient
        [[0.0, 0.0], [3.0, -3.0]],                                # absorbing state 0
    ])
    def test_start_state_is_drawn_as_choice_draws_it(self, monkeypatch, Lambda):
        """The bisected start state and the generator after it are those of rng.choice(d, p=pi)."""
        model = FiniteStateModel(Lambda, np.zeros(len(Lambda)))
        assert np.min(model.pi) == 0.0
        starts = []

        def record(L, x0, horizon, rng):
            starts.append((x0, rng.bit_generator.state))
            return np.zeros(1), np.array([x0])

        monkeypatch.setattr(wonham, "sample_path", record)
        for seed in range(3):
            for trial in range(40):
                wonham._trial_path(model, seed, trial, 1.0)
                rng = np.random.default_rng([seed, trial, 0])
                assert starts.pop() == (int(rng.choice(model.d, p=model.pi)), rng.bit_generator.state)

    def test_step_budget_is_an_error_before_simulation(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an over-budget row")

        monkeypatch.setattr(wonham, "sample_path", no_simulation)
        steps = int(round(60.0 / wonham.DT_MIN))
        assert steps > wonham.STEP_BUDGET
        with pytest.raises(ValueError, match=rf"dt 1e-06 needs {steps} grid steps"):
            estimate_stationary_error(two_state(), np.zeros(2), 0.001, horizon=60.0)

    def test_bundle_step_budget_is_an_error_before_simulation(self, monkeypatch):
        """simulate_bundle counts and caps its grid with the estimator's rule."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an over-budget bundle")

        monkeypatch.setattr(wonham, "sample_path", no_simulation)
        with pytest.raises(ValueError, match=rf"^dt 1e-15 needs {10**15} grid steps per trial, "
                                             rf"over the budget of {wonham.STEP_BUDGET}; "):
            simulate_bundle(two_state(), 1.0, 0.3, 1e-15)

    def test_bundle_step_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(wonham, "STEP_BUDGET", 200)
        assert simulate_bundle(two_state(), 20.0, 0.3, 0.1).obs_increments.shape == (200, 1)
        with pytest.raises(ValueError, match="^dt 0.1 needs 201 grid steps"):
            simulate_bundle(two_state(), 20.1, 0.3, 0.1)

    def test_grid_without_steps_is_refused_as_an_empty_grid(self):
        """A horizon that rounds to no grid steps is refused by simulate_bundle's grid
        rule, not blamed on the burn-in."""
        with pytest.raises(ValueError, match="^horizon 1 rounds to 0 grid steps of dt 5$"):
            estimate_stationary_error(two_state(), np.zeros(2), 0.5, horizon=1.0, dt=5.0, burn_in=0.0)

    def test_overflowing_grid_is_a_budget_error_before_simulation(self, monkeypatch):
        """A horizon / dt that overflows to inf is refused by the budget rule, not by int()."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an over-budget grid")

        monkeypatch.setattr(wonham, "sample_path", no_simulation)
        budget = rf"^dt 1e-10 needs inf grid steps per trial, over the budget of {wonham.STEP_BUDGET}; "
        with pytest.raises(ValueError, match=budget):
            estimate_stationary_error(two_state(), np.zeros(2), 0.5, horizon=1e300, dt=1e-10)
        with pytest.raises(ValueError, match=budget):
            simulate_bundle(two_state(), 1e300, 0.5, 1e-10)

    def test_total_work_cap_is_an_error_before_simulation(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an over-budget row")

        monkeypatch.setattr(wonham, "sample_path", no_simulation)
        steps = int(round(10.0 / auto_dt(two_state(), 0.5)))
        assert steps <= wonham.STEP_BUDGET
        with pytest.raises(ValueError, match=rf"^trials 1000000000000 of {steps} grid steps need"):
            estimate_stationary_error(two_state(), np.zeros(2), 0.5, trials=10**12, horizon=10.0)

    def test_total_work_cap_boundary(self, monkeypatch):
        steps = int(round(10.0 / auto_dt(two_state(), 0.5)))
        monkeypatch.setattr(wonham, "TRIAL_STEP_BUDGET", 2 * steps)
        est, _ = estimate_stationary_error(two_state(), np.array([0.0, 1.0]), 0.5, trials=2, horizon=10.0)
        assert np.isfinite(est)
        with pytest.raises(ValueError, match="^trials 3 "):
            estimate_stationary_error(two_state(), np.array([0.0, 1.0]), 0.5, trials=3, horizon=10.0)

    def test_total_work_cap_clears_every_shipped_run(self):
        """At least 10x above gate [6]'s star rows: 96 trials of 2e6 grid steps."""
        assert wonham.TRIAL_STEP_BUDGET >= 10 * 96 * int(round(400.0 / (wonham.DT_FACTOR * 0.02**2)))

    def test_trial_cap_is_an_error_before_simulation(self, monkeypatch):
        """Ten steps per trial pass the trial-step budget; the trial count itself is capped."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an over-cap row")

        monkeypatch.setattr(wonham, "sample_path", no_simulation)
        trials = wonham.MAX_TRIALS + 1
        with pytest.raises(ValueError, match=rf"^trials {trials} over the cap of {wonham.MAX_TRIALS} "):
            estimate_stationary_error(two_state(), np.zeros(2), 0.5, trials=trials, horizon=1.25,
                                      burn_in=0.0)

    def test_trial_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(wonham, "MAX_TRIALS", 3)
        est, _ = estimate_stationary_error(two_state(), np.array([0.0, 1.0]), 0.5, trials=3, horizon=10.0)
        assert np.isfinite(est)
        with pytest.raises(ValueError, match="^trials 4 over the cap of 3 "):
            estimate_stationary_error(two_state(), np.array([0.0, 1.0]), 0.5, trials=4, horizon=10.0)

    def test_trial_cap_clears_every_shipped_run(self):
        """At least 1000x gate [6]'s 96 trials per row."""
        assert wonham.MAX_TRIALS >= 1000 * 96

    def test_chunks_cover_the_trials_in_order(self, monkeypatch):
        seen = []

        def chunk(model, fvals, kappa, dt, steps, burn_steps, seed, idx):
            seen.append((idx[0], len(idx)))
            return np.zeros(len(idx))

        monkeypatch.setattr(wonham, "_chunk_trial_means", chunk)
        monkeypatch.setenv("MAXACC_THREADS", "1")
        estimate_stationary_error(two_state(), np.zeros(2), 0.5, trials=150, horizon=1.0, burn_in=0.0)
        assert seen == [(0, 64), (64, 64), (128, 22)]


STAR = FiniteStateModel(
    [[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]], [[0.0], [1.0], [1.0]]
)
QUAD = FiniteStateModel(
    [[-1.5, 1.0, 0.5, 0.0], [0.5, -1.0, 0.0, 0.5], [0.0, 1.0, -2.0, 1.0], [1.0, 0.0, 0.5, -1.5]],
    [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, -1.0]],
)


class TestGoldenValues:
    """Estimates and one filter path recorded with the plain forms of the filter's feed.

    Path sampling by rng.choice, cell lookup by searchsorted, time-major
    log-weights: the fast forms must keep every per-trial stream and every
    filter value (they agree bit for bit). Each model runs at two kappas;
    the smaller takes 20 000 steps, so a block after the first is covered.
    """

    @pytest.mark.parametrize(
        "model, f, kappa, horizon, estimate, std_error",
        [
            (two_state(), [0.0, 1.0], 0.5, 20.0, 0.20899280786617366, 0.010560790232140281),
            (two_state(), [0.0, 1.0], 0.05, 25.0, 0.02161500148941869, 0.0015626790895706298),
            (STAR, [0.0, 1.0, -1.0], 0.1, 20.0, 0.6468055555555554, 0.02555100100315788),
            (STAR, [0.0, 1.0, -1.0], 0.05, 25.0, 0.6683423913043486, 0.020889821417681552),
            (QUAD, [1.0, 0.0, -1.0, 2.0], 0.3, 20.0, 0.5062350790881306, 0.04807951417478098),
            (QUAD, [1.0, 0.0, -1.0, 2.0], 0.08, 25.0, 0.10597555955251163, 0.01167207726945524),
        ],
    )
    def test_estimates(self, model, f, kappa, horizon, estimate, std_error):
        got = estimate_stationary_error(
            model, np.array(f), kappa, trials=6, horizon=horizon, burn_in=2.0, seed=3
        )
        assert got == pytest.approx((estimate, std_error), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [[[0.0], [1.0], [1.0]], QUAD.h.tolist(), [[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]]])
    def test_log_weights_state_major_matches_time_major(self, h):
        h = np.array(h)
        inc = np.random.default_rng(4).normal(scale=0.05, size=(3, 50, h.shape[1]))
        state_part, shared = wonham._log_weights(inc, h, 0.07, 0.002)
        plain = (inc @ h.T) / (0.07 * 0.07) - (0.002 * np.sum(h * h, axis=1)) / (2.0 * 0.07 * 0.07)
        assert np.array_equal(np.moveaxis(state_part, 0, -1), plain)
        assert shared.shape == (3, 50)

    def test_run_filter_path(self):
        bundle = simulate_bundle(STAR, 25.0, kappa=0.05, dt=0.00125, seed=5)
        path = run_filter(STAR, bundle.obs_increments, 0.05, 0.00125)
        assert path.shape == (20001, 3)
        recorded = {
            1: [0.46347787794536005, 0.26826106102731995, 0.26826106102731995],
            777: [0.9601529709052857, 0.019923514547357128, 0.019923514547357128],
            5000: [0.995270428835271, 0.0023647855823644938, 0.0023647855823644938],
            16384: [0.04283019059130014, 0.4785849047043507, 0.4785849047043491],
            16385: [0.028112053737164345, 0.4859439731314187, 0.485943973131417],
            16386: [0.02349407241905499, 0.4882529637904734, 0.48825296379047173],
            19999: [0.004728364142963984, 0.4976358179285224, 0.4976358179285135],
            20000: [0.00333848760660131, 0.4983307561967038, 0.49833075619669487],
        }
        for step, row in recorded.items():
            assert path[step] == pytest.approx(row, rel=1e-12, abs=0.0)


class TestTwoStateClosedForm:
    """The symmetric two-state chain's exact stationary error, e = f_gap^2 K0 / (2 (K0 + K1))."""

    @pytest.mark.parametrize(
        "kappa, expected", [(0.5, 0.205793), (0.1, 0.0590333), (0.05, 0.0225476), (0.02, 0.00518859)]
    )
    def test_closed_form_values(self, kappa, expected):
        assert two_state_error(1.0, 1.0, 1.0, kappa) == pytest.approx(expected, rel=5e-6)

    @pytest.mark.parametrize(
        "rate, h_gap, f_gap, kappa",
        [(1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 1.0, 0.1), (1.0, 1.0, 1.0, 0.05), (1.0, 1.0, 1.0, 0.02),
         (2.0, 3.0, 1.5, 0.3), (0.5, -2.0, -1.0, 0.7)],
    )
    def test_closed_form_is_the_quadrature(self, rate, h_gap, f_gap, kappa):
        exact = two_state_error(rate, h_gap, f_gap, kappa)
        assert exact == pytest.approx(two_state_error_by_quadrature(rate, h_gap, f_gap, kappa), rel=1e-6)

    @pytest.mark.parametrize("kappa", [0.1, 0.05])
    def test_estimator_is_pinned_to_the_closed_form(self, kappa):
        """models/twostate.json at its own trials, horizon and seed, within 4 standard errors."""
        parsed = parse_model_file(Path(__file__).resolve().parent.parent / "models" / "twostate.json")
        model, sim = parsed.model, parsed.sim
        f = indicator(1, 2)
        est, se = estimate_stationary_error(
            model, f, kappa, trials=sim.trials, horizon=sim.horizon, seed=sim.seed
        )
        rate, h_gap = model.Lambda[0, 1], model.h[1, 0] - model.h[0, 0]
        assert model.Lambda[1, 0] == rate  # the closed form is for a symmetric chain
        assert abs(est - two_state_error(rate, h_gap, 1.0, kappa)) <= 4.0 * se


class TestSmallNoiseLaw:
    """The leading small-noise term 4 kappa^2 log(1/kappa) sum pi_i lambda_ij (f_i - f_j)^2 / (h_i - h_j)^2."""

    CHAIN3 = np.array([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [2.0, 1.0, -3.0]])

    @pytest.mark.parametrize("rate, h_gap, f_gap", [(1.0, 1.0, 1.0), (2.0, 3.0, 1.5), (0.5, -2.0, -1.0)])
    @pytest.mark.parametrize("kappa", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_two_state_closed_form_over_the_law_is_its_next_term(self, rate, h_gap, f_gap, kappa):
        """With z = 4 rate kappa^2 / h_gap^2, K0(z) ~ -log(z / 2) - gamma and K1(z) ~ 1 / z give
        ratio 1 + (log(h_gap^2 / (2 rate)) / 2 - gamma / 2) / log(1/kappa). At kappa = 1e-2
        the terms after it still move the ratio by up to 2.7e-3, so the grid starts at 1e-3."""
        law = small_noise_leading([[-rate, rate], [rate, -rate]], [0.0, h_gap], [0.0, f_gap], kappa)
        expected = 1.0 + (0.5 * math.log(h_gap**2 / (2.0 * rate)) - 0.5 * np.euler_gamma) / math.log(1.0 / kappa)
        assert two_state_error(rate, h_gap, f_gap, kappa) / law == pytest.approx(expected, abs=1e-3)

    def test_three_state_estimate_follows_the_law(self):
        """Distinct h, kappa 0.05: the estimate over the law read 0.987 +- 0.016 at this seed.

        The 0.05 margin is an empirical fact about this chain at this seed, not a property
        of the law: the law's next term is O(1 / log(1/kappa)), and the two-state ratio
        above is 0.838 at kappa 0.02. Another chain, or a correct change to the estimator's
        bias, can move the ratio by more; widen the margin then rather than the law."""
        h = np.array([[0.0], [1.0], [2.5]])
        f = np.array([0.0, 1.0, -1.0])
        est, se = estimate_stationary_error(FiniteStateModel(self.CHAIN3, h), f, 0.05,
                                            trials=64, horizon=60.0, seed=3)
        law = small_noise_leading(self.CHAIN3, h, f, 0.05)
        assert abs(est / law - 1.0) <= 0.05 + 4.0 * se / law

    def test_tied_or_multi_channel_h_is_refused(self):
        with pytest.raises(ValueError, match="pairwise distinct h"):
            small_noise_leading(self.CHAIN3, [0.0, 1.0, 0.0], [0.0, 1.0, -1.0], 0.05)
        with pytest.raises(ValueError, match="scalar observations only, got n = 2"):
            small_noise_leading(self.CHAIN3, np.eye(3)[:, :2], [0.0, 1.0, -1.0], 0.05)


class TestSweepFlag:
    """SweepResult derives its trend from its rows and its flag from that trend
    against the one the verdict predicts: "decays" if maximally accurate, else "plateau"."""

    # Estimates at kappa 0.5, 0.1 and 0.02, each with standard error 0.01, over base variance 1.
    ESTIMATES = {"decays": [0.2, 0.04, 0.008], "plateau": [0.5, 0.5, 0.5], "undecided": [0.5, 0.4, 0.3]}

    def rows(self, trend: str) -> list[SweepRow]:
        return [SweepRow(k, e, std_error=0.01) for k, e in zip((0.5, 0.1, 0.02), self.ESTIMATES[trend])]

    @pytest.mark.parametrize("trend, maximal_accuracy, flag", [
        ("decays", True, CONSISTENT), ("decays", False, INCONSISTENT),
        ("plateau", True, INCONSISTENT), ("plateau", False, CONSISTENT),
        ("undecided", True, UNDECIDED), ("undecided", False, UNDECIDED),
    ])
    def test_flag_table(self, trend, maximal_accuracy, flag):
        result = SweepResult(self.rows(trend), 1.0, Verdict("finite", maximal_accuracy))
        assert (result.trend, result.flag) == (trend, flag)

    @pytest.mark.parametrize("name", ["trend", "flag"])
    def test_trend_and_flag_are_not_arguments(self, name):
        """No caller can build a result whose trend or flag contradicts its rows."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            SweepResult(self.rows("decays"), 1.0, Verdict("finite", False), **{name: "plateau"})


class TestSweep:
    def test_rows_descend_and_reference_verdict(self):
        model = two_state()
        params = SimParams(trials=4, horizon=30.0, seed=9)
        result = kappa_sweep_finite(model, np.array([0.0, 1.0]), [0.1, 0.5], params)
        assert [r.kappa for r in result.rows] == [0.5, 0.1]
        assert result.verdict.kind == "finite"
        assert result.verdict.maximal_accuracy is True
        assert result.base_variance == pytest.approx(0.25)

    def test_constant_observation_plateau_is_consistent(self):
        model = two_state(h=(1.0, 1.0))
        params = SimParams(trials=4, horizon=40.0, seed=10)
        result = kappa_sweep_finite(model, np.array([1.0, 0.0]), [0.5, 0.1], params)
        assert result.trend == "plateau"
        assert result.flag == "CONSISTENT"

    def test_an_exact_filter_decays(self):
        """A one-state chain's filter is exact, so every row's error is 0: a decay."""
        model = FiniteStateModel([[0.0]], [1.0])
        params = SimParams(trials=2, horizon=5.0, seed=13)
        result = kappa_sweep_finite(model, np.array([1.0]), [0.5, 0.3], params)
        assert [r.estimate for r in result.rows] == [0.0, 0.0]
        assert result.trend == "decays"

    def test_failed_row_recorded_not_raised(self):
        """burn_in >= horizon is a per-row failure; the sweep still returns."""
        model = two_state()
        params = SimParams(trials=2, horizon=10.0, burn_in=20.0, seed=11)
        result = kappa_sweep_finite(model, np.array([0.0, 1.0]), [0.5, 0.1], params)
        assert all(r.status.startswith("error:") for r in result.rows)
        assert result.trend == "undecided"
        assert result.flag == UNDECIDED

    def test_over_budget_row_recorded_others_filled(self):
        """kappa 0.001 needs 60M steps at the dt floor: that row fails, the others run."""
        model = two_state()
        params = SimParams(trials=2, horizon=60.0, seed=12)
        result = kappa_sweep_finite(model, np.array([0.0, 1.0]), [0.5, 0.001, 0.3], params)
        assert [r.kappa for r in result.rows] == [0.5, 0.3, 0.001]
        ok, over = result.rows[:2], result.rows[2]
        assert all(r.status == "ok" and np.isfinite(r.estimate) for r in ok)
        assert over.status.startswith("error: ValueError: dt 1e-06 needs 60000000 grid steps")
        assert np.isnan(over.estimate)

    def test_csv_schema_with_failed_rows(self):
        model = two_state()
        params = SimParams(trials=2, horizon=10.0, burn_in=20.0, seed=11)
        result = kappa_sweep_finite(model, np.array([0.0, 1.0]), [0.5], params)
        lines = result.to_csv().splitlines()
        assert lines[0] == "kappa,estimate,std_error,trials,horizon,dt,burn_in,flag"
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert cells[1] == "" and cells[2] == ""
        assert cells[-1] == UNDECIDED
