"""Acceptance gate: the eight headline behaviors, each with a runtime budget.

Every test prints exactly one PASS/FAIL line (echoed in the terminal summary)
so the gate outcome can be read off a plain pytest run.
"""

from __future__ import annotations

import functools
import time

import numpy as np

import conftest
from conftest import random_finite_model, random_stable_lg, random_unstable_lg
from maxacc import (
    FiniteStateModel,
    LinearGaussianModel,
    check_reconstructibility,
    detectability_gain,
    estimate_stationary_error,
    indicator,
    ks_check,
    lyapunov_solve,
    reduce_unstable,
    riccati_stationary,
    run_filter,
    simulate_bundle,
    time_reverse,
    transmission_zeros,
)
from maxacc.verdicts import OPEN_RIGHT
from oracles import brute_force_reconstructibility


def benchmark_lg(H=(1.0, -2.0)) -> LinearGaussianModel:
    return LinearGaussianModel(
        A=np.diag([-1.0, -4.0]), D=np.array([[1.0], [1.0]]), H=np.array([list(H)])
    )


def gate(num: int, label: str, budget_s: float):
    """Run the criterion body, enforce its runtime budget, record one line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"runtime {elapsed:.1f}s exceeds the {budget_s:g}s budget"
                )
            except BaseException:
                line = f"ACCEPTANCE FAIL [{num}] {label}"
                conftest.acceptance_lines.append(line)
                print(line)
                raise
            line = f"ACCEPTANCE PASS [{num}] {label} ({elapsed:.2f}s)"
            conftest.acceptance_lines.append(line)
            print(line)

        return wrapper

    return deco


@gate(1, "right-halfplane zero at 2 blocks maximal accuracy", 1.0)
def test_right_zero_blocks_accuracy():
    model = benchmark_lg()
    report = transmission_zeros(model)
    assert len(report.zeros) == 1
    assert abs(report.zeros[0].value - 2.0) < 1e-8
    assert report.zeros[0].classification == OPEN_RIGHT
    assert ks_check(model).maximal_accuracy is False


@gate(2, "stationary covariance of the two-pole system", 1.0)
def test_stationary_covariance():
    model = benchmark_lg()
    S = lyapunov_solve(model.A, model.D @ model.D.T)
    expected = np.array([[0.5, 0.2], [0.2, 0.125]])
    assert np.max(np.abs(S - expected)) < 1e-10


@gate(3, "minimum-phase and boundary-zero variants pass", 1.0)
def test_minimum_phase_contrast():
    left = transmission_zeros(benchmark_lg(H=(1.0, 2.0)))
    assert len(left.zeros) == 1
    assert abs(left.zeros[0].value - (-2.0)) < 1e-8
    assert ks_check(benchmark_lg(H=(1.0, 2.0))).maximal_accuracy is True

    boundary = transmission_zeros(benchmark_lg(H=(1.0, -4.0)))
    assert len(boundary.zeros) == 1
    assert abs(boundary.zeros[0].value) < 1e-8
    assert ks_check(benchmark_lg(H=(1.0, -4.0))).maximal_accuracy is True


@gate(4, "Riccati trace plateaus vs decays across the dichotomy", 10.0)
def test_riccati_sweep_dichotomy():
    model = benchmark_lg()
    base = riccati_stationary(model, 0.1).trace
    t3 = riccati_stationary(model, 1e-3).trace
    t4 = riccati_stationary(model, 1e-4).trace
    assert abs(t3 - t4) / t3 < 0.05
    assert t3 > 0.1 * base and t4 > 0.1 * base

    variant = benchmark_lg(H=(1.0, 2.0))
    hi = riccati_stationary(variant, 0.1).trace
    lo = riccati_stationary(variant, 1e-4).trace
    assert lo / hi < 1e-2


@gate(5, "closure and brute-force reconstructibility agree on 200 models", 30.0)
def test_reconstructibility_oracle_equivalence():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        model = random_finite_model(rng, d_max=4, tie_prob=0.3)
        closure = check_reconstructibility(model).dim
        brute = brute_force_reconstructibility(model)["dim"]
        assert closure == brute


@gate(6, "Monte-Carlo sweeps match the dichotomy within stated CIs", 600.0)
def test_empirical_dichotomy():
    # (a) informative observations: error falls past CI overlap, tiny at 0.02
    chain = FiniteStateModel(
        Lambda=np.array([[-1.0, 1.0], [1.0, -1.0]]), h=np.array([[0.0], [1.0]])
    )
    f = indicator(1, 2)
    rows = {}
    for kappa in (0.5, 0.1, 0.02):
        est, se = estimate_stationary_error(
            chain, f, kappa, trials=32, horizon=150.0, seed=0
        )
        hw = 1.96 * se
        assert hw < 0.005
        rows[kappa] = (est, hw)
    assert rows[0.5][0] - rows[0.5][1] > rows[0.1][0] + rows[0.1][1]
    assert rows[0.1][0] - rows[0.1][1] > rows[0.02][0] + rows[0.02][1]
    assert rows[0.02][0] < 0.02

    # (b) two states indistinguishable to the observations: no decay. The
    # test function separates exactly those states (orthogonal to what the
    # observation path can reveal), so the error must hold its plateau.
    star = FiniteStateModel(
        Lambda=np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]),
        h=np.array([[0.0], [1.0], [1.0]]),
    )
    g = np.array([0.0, 1.0, -1.0])
    est_hi, se_hi = estimate_stationary_error(
        star, g, 0.1, trials=96, horizon=400.0, seed=0
    )
    est_lo, se_lo = estimate_stationary_error(
        star, g, 0.02, trials=96, horizon=400.0, seed=0
    )
    for se in (se_hi, se_lo):
        assert 1.96 * se < 0.005
    assert est_lo > 0.05
    assert abs(est_lo - est_hi) <= 2 * 1.96 * se_hi

    # (c) uninformative observations: the filter stays at the stationary law
    # and the error equals the stationary variance at every noise level.
    blind = FiniteStateModel(
        Lambda=np.array([[-1.0, 1.0], [1.0, -1.0]]), h=np.array([[1.0], [1.0]])
    )
    f0 = indicator(0, 2)
    for kappa in (0.5, 0.1, 0.02):
        est, se = estimate_stationary_error(
            blind, f0, kappa, trials=8, horizon=50.0, seed=0
        )
        assert abs(est - 0.25) <= 3 * 1.96 * se + 1e-12


@gate(7, "property suites: reversal, Riccati order, zeros, simplex", 120.0)
def test_property_suites():
    # time reversal: involution, stationarity, rate-matrix validity
    rng = np.random.default_rng(77)
    for _ in range(1000):
        model = random_finite_model(rng, d_max=6)
        pi = model.pi
        tilde = time_reverse(model)
        back = time_reverse(FiniteStateModel(Lambda=tilde, h=model.h))
        assert np.max(np.abs(back - model.Lambda)) <= 1e-10
        assert np.max(np.abs(pi @ tilde)) <= 1e-10
        assert np.all(tilde[~np.eye(model.d, dtype=bool)] >= -1e-12)
        assert np.max(np.abs(tilde.sum(axis=1))) <= 1e-10

    # Riccati monotonicity and similarity invariance of the zero set
    rng = np.random.default_rng(2026)
    for _ in range(100):
        model = random_stable_lg(rng, p_max=4)
        P_hi = riccati_stationary(model, 0.3).P
        P_lo = riccati_stationary(model, 0.1, warm=P_hi).P
        assert np.min(np.linalg.eigvalsh(P_hi - P_lo)) > -1e-9

        Q, _ = np.linalg.qr(rng.standard_normal((model.p, model.p)))
        T = Q @ np.diag(rng.uniform(0.5, 2.0, model.p))
        Ti = np.linalg.inv(T)
        sim = LinearGaussianModel(T @ model.A @ Ti, T @ model.D, model.H @ Ti)
        z1 = [z.value for z in transmission_zeros(model).zeros]
        z2 = [z.value for z in transmission_zeros(sim).zeros]
        assert len(z1) == len(z2)
        for z in z1:
            assert min(abs(z - w) for w in z2) < 1e-8 * max(1.0, abs(z))
        assert ks_check(model).maximal_accuracy == ks_check(sim).maximal_accuracy

    # simplex preservation on every filter step
    rng = np.random.default_rng(11)
    for i in range(5):
        model = random_finite_model(rng, d_max=5)
        bundle = simulate_bundle(model, kappa=0.3, horizon=20.0, dt=0.01, seed=i)
        mu = run_filter(model, bundle.obs_increments, kappa=0.3, dt=0.01)
        assert np.max(np.abs(mu.sum(axis=1) - 1.0)) <= 1e-12
        assert np.min(mu) >= 0.0


@gate(8, "verdict is gain-independent on 50 random unstable models", 30.0)
def test_reduction_gain_independence():
    rng = np.random.default_rng(55)
    for _ in range(50):
        model = random_unstable_lg(rng, p_max=4)
        verdicts = []
        for weight in (1.0, 7.0):
            K = detectability_gain(model.A, model.H, weight=weight)
            verdicts.append(ks_check(reduce_unstable(model, gain=K)).maximal_accuracy)
        assert verdicts[0] == verdicts[1]
