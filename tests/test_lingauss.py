"""Linear-Gaussian analysis: structure checks, zeros, Riccati sweeps."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from conftest import random_stable_lg, random_unstable_lg
from maxacc import (
    LinearGaussianModel,
    detectability_gain,
    kappa_sweep_lg,
    ks_check,
    lyapunov_solve,
    reduce_unstable,
    riccati_stationary,
    transfer_eval,
    transmission_zeros,
    validate_model,
)
from maxacc import lingauss
from maxacc.errors import (
    DimensionMismatch,
    NoStabilizingSolution,
    NotDetectable,
    NotDetectableOrStabilizable,
    NotStable,
    RankDeficientDorH,
    SingularShift,
)
from maxacc.lingauss import CERT_ACCEPT, CERT_REJECT, is_stable
from maxacc.verdicts import BOUNDARY, LEFT, OPEN_RIGHT


def benchmark(H=(1.0, -2.0)) -> LinearGaussianModel:
    """Two-pole single-output system; the default H has a right-halfplane zero."""
    return LinearGaussianModel(
        A=np.diag([-1.0, -4.0]), D=np.array([[1.0], [1.0]]), H=np.array([list(H)])
    )


class TestModelValidation:
    def test_stable_scalar_all_flags(self):
        flags = validate_model(LinearGaussianModel([[-1.0]], [[1.0]], [[1.0]]))
        assert flags == {"stable": True, "stabilizable": True, "detectable": True}

    def test_unstable_but_reducible(self):
        model = LinearGaussianModel(
            np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]])
        )
        flags = validate_model(model)
        assert not flags["stable"]
        assert flags["stabilizable"] and flags["detectable"]

    def test_undetectable_unstable_rejected(self):
        model = LinearGaussianModel(
            np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]])
        )
        with pytest.raises(NotDetectableOrStabilizable):
            validate_model(model)

    def test_zero_observation_row_rejected(self):
        with pytest.raises(RankDeficientDorH):
            LinearGaussianModel([[1.0]], [[1.0]], [[0.0]])

    def test_dependent_noise_columns_rejected(self):
        with pytest.raises(RankDeficientDorH):
            LinearGaussianModel(
                np.diag([-1.0, -2.0]),
                np.array([[1.0, 2.0], [2.0, 4.0]]),
                np.array([[1.0, 0.0]]),
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearGaussianModel([[-1.0, 0.0]], [[1.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            LinearGaussianModel([[-1.0]], [[1.0], [1.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            LinearGaussianModel([[-1.0]], [[1.0]], [[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            # m > p: more noise channels than states.
            LinearGaussianModel([[-1.0]], [[1.0, 2.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            # n > p: more observation rows than states.
            LinearGaussianModel([[-1.0]], [[1.0]], [[1.0], [2.0]])


class TestLyapunov:
    def test_negative_identity(self):
        S = lyapunov_solve(-np.eye(2), np.eye(2))
        assert np.allclose(S, 0.5 * np.eye(2), atol=1e-12)

    def test_benchmark_covariance(self):
        model = benchmark()
        S = lyapunov_solve(model.A, model.D @ model.D.T)
        expected = np.array([[0.5, 0.2], [0.2, 0.125]])
        assert np.max(np.abs(S - expected)) < 1e-10

    def test_matches_integral_formula(self):
        """S = int_0^inf e^{As} Q e^{A^T s} ds by quadrature, 1e-6."""
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = random_stable_lg(rng, p_max=3)
            Q = model.D @ model.D.T
            margin = -float(np.max(np.linalg.eigvals(model.A).real))
            T = 40.0 / margin
            integral, _ = quad_vec(
                lambda s: expm(model.A * s) @ Q @ expm(model.A.T * s), 0.0, T
            )
            S = lyapunov_solve(model.A, Q)
            assert np.max(np.abs(S - integral)) < 1e-6

    def test_unstable_rejected(self):
        with pytest.raises(NotStable):
            lyapunov_solve([[1.0]], [[1.0]])


class TestTransferEval:
    def test_benchmark_zero_location(self):
        assert abs(transfer_eval(benchmark(), 2.0)[0, 0]) < 1e-14

    def test_benchmark_at_origin(self):
        # (0+1)^-1 - 2 (0+4)^-1 = 1/2.
        assert transfer_eval(benchmark(), 0.0)[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_identity_system(self):
        model = LinearGaussianModel(-np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(transfer_eval(model, 1.0), 0.5 * np.eye(2), atol=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(SingularShift):
            transfer_eval(benchmark(), -1.0)


class TestTransmissionZeros:
    def test_benchmark_single_right_zero(self):
        report = transmission_zeros(benchmark())
        assert len(report.zeros) == 1
        zero = report.zeros[0]
        assert abs(zero.value - 2.0) < 1e-8
        assert zero.classification == OPEN_RIGHT
        assert zero.multiplicity == 1
        assert zero.sigma_min < CERT_ACCEPT * report.scale
        assert report.normal_rank == 1
        assert not report.structural_fail

    def test_left_zero_variant(self):
        report = transmission_zeros(benchmark(H=(1.0, 2.0)))
        assert len(report.zeros) == 1
        assert abs(report.zeros[0].value - (-2.0)) < 1e-8
        assert report.zeros[0].classification == LEFT

    def test_boundary_zero_variant(self):
        report = transmission_zeros(benchmark(H=(1.0, -4.0)))
        assert len(report.zeros) == 1
        assert abs(report.zeros[0].value) < 1e-8
        assert report.zeros[0].classification == BOUNDARY

    def test_no_finite_zeros(self):
        """Relative degree 2: constant numerator, hence no finite zeros."""
        model = LinearGaussianModel(
            np.array([[-1.0, 1.0], [0.0, -2.0]]),
            np.array([[0.0], [1.0]]),
            np.array([[1.0, 0.0]]),
        )
        assert transmission_zeros(model).zeros == []

    def test_non_minimal_realization_refused(self):
        """An unobservable mode shows up as a pencil candidate on an
        eigenvalue of A, where no certification is possible."""
        from maxacc.errors import IllConditionedPencil

        with pytest.raises(IllConditionedPencil):
            transmission_zeros(benchmark(H=(1.0, 0.0)))

    @pytest.mark.parametrize(
        "sigma,omega,expected_class",
        [(-1.0, 2.0, LEFT), (-0.3, 0.7, LEFT), (0.5, 1.5, OPEN_RIGHT)],
    )
    def test_constructed_complex_pair(self, sigma, omega, expected_class):
        """Pick partial-fraction weights over poles -1,-2,-3 so the numerator
        becomes (s - sigma)^2 + omega^2, i.e. zeros at sigma +- i omega."""
        poles = np.array([1.0, 2.0, 3.0])
        # Row i: coefficient of s^i in prod_{j != k}(s + a_j), per column k.
        coeff = np.array(
            [[np.poly([-a for a in np.delete(poles, k)])[::-1][i] for k in range(3)]
             for i in range(3)]
        )
        target = np.array([sigma**2 + omega**2, -2.0 * sigma, 1.0])
        c = np.linalg.solve(coeff, target)
        model = LinearGaussianModel(np.diag(-poles), np.ones((3, 1)), c[None, :])
        report = transmission_zeros(model)
        values = sorted((z.value for z in report.zeros), key=lambda z: z.imag)
        assert len(values) == 2
        assert abs(values[0] - complex(sigma, -omega)) < 1e-8
        assert abs(values[1] - complex(sigma, omega)) < 1e-8
        assert all(z.classification == expected_class for z in report.zeros)

    def test_conjugate_symmetry_random(self):
        """Real data: any complex zero must come with its conjugate."""
        rng = np.random.default_rng(99)
        for _ in range(30):
            model = random_stable_lg(rng, p_max=4)
            values = [z.value for z in transmission_zeros(model).zeros]
            for z in values:
                if z.imag > 1e-8:
                    assert any(
                        abs(w - z.conjugate()) < 1e-6 * max(1.0, abs(z)) for w in values
                    )

    def test_off_zero_points_not_certified(self):
        """sigma_min stays above the reject threshold away from the zero set."""
        model = benchmark()
        report = transmission_zeros(model)
        special = [z.value for z in report.zeros] + list(np.linalg.eigvals(model.A))
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            lam = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if min(abs(lam - s) for s in special) < 0.5:
                continue
            s_min = np.linalg.svd(transfer_eval(model, lam), compute_uv=False)[-1]
            assert s_min > CERT_REJECT * report.scale
            checked += 1

    def test_tall_system_with_common_zero(self):
        """Both output channels vanish at 2; the compression search finds it."""
        model = LinearGaussianModel(
            np.diag([-1.0, -4.0, -3.0]),
            np.array([[1.0], [1.0], [1.0]]),
            np.array([[1.0, -2.0, 0.0], [0.0, 6.0, -5.0]]),
        )
        report = transmission_zeros(model)
        assert len(report.zeros) == 1
        assert abs(report.zeros[0].value - 2.0) < 1e-6
        assert report.zeros[0].classification == OPEN_RIGHT
        assert any("tall" in note for note in report.notes)

    def test_tall_system_without_common_zero(self):
        model = LinearGaussianModel(
            np.diag([-1.0, -4.0, -3.0]),
            np.array([[1.0], [1.0], [1.0]]),
            np.array([[1.0, -2.0, 0.0], [0.0, 6.0, -4.0]]),
        )
        assert transmission_zeros(model).zeros == []

    def test_wide_system_structurally_fails(self):
        model = LinearGaussianModel(-np.eye(2), np.eye(2), np.array([[1.0, 0.0]]))
        report = transmission_zeros(model)
        assert report.structural_fail
        assert report.zeros == []
        assert any("never be independent" in note for note in report.notes)

    def test_degenerate_normal_rank_structurally_fails(self):
        """Proportional transfer columns: dependent at every lambda."""
        model = LinearGaussianModel(
            np.diag([-1.0, -2.0, -3.0]),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]]),
        )
        report = transmission_zeros(model)
        assert report.structural_fail
        assert report.normal_rank == 1

    def test_unstable_drift_rejected(self):
        with pytest.raises(NotStable):
            transmission_zeros(LinearGaussianModel([[1.0]], [[1.0]], [[1.0]]))

    def test_all_zeros_at_infinity(self):
        """det(HD) = 0 with full normal rank: the Rosenbrock determinant is
        constant in lambda, so every pencil eigenvalue is infinite and the
        zero list must stay empty."""
        model = LinearGaussianModel(
            np.diag([-1.0, -2.0, -3.0]),
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]),
            np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        )
        report = transmission_zeros(model)
        assert report.zeros == []
        assert report.normal_rank == 2
        assert not report.structural_fail
        assert ks_check(model).maximal_accuracy is True

    def test_near_infinite_candidates_rejected(self):
        """Square invertible H and D leave G invertible off the spectrum, so
        there are no finite zeros; QZ still emits ~1e16 leftovers of the
        infinite eigenvalues, which must not be certified."""
        model = LinearGaussianModel(
            np.array([[0.57547719, 1.03762966], [-0.87932768, -1.19128792]]),
            np.array([[0.64363682, -1.48152654], [-0.48726302, 0.30619579]]),
            np.array([[0.2310243, 0.08335899], [-0.25688952, -0.79934646]]),
        )
        report = transmission_zeros(model)
        assert report.zeros == []
        assert any("zero at infinity" in note for note in report.notes)
        assert ks_check(model).maximal_accuracy is True


class TestKsCheck:
    def test_benchmark_fails(self):
        verdict = ks_check(benchmark())
        assert verdict.kind == "linear_gaussian"
        assert verdict.maximal_accuracy is False
        assert len(verdict.zero_report.open_right()) == 1

    def test_left_variant_passes(self):
        assert ks_check(benchmark(H=(1.0, 2.0))).maximal_accuracy is True

    def test_boundary_zero_does_not_fail(self):
        assert ks_check(benchmark(H=(1.0, -4.0))).maximal_accuracy is True

    def test_wide_system_fails(self):
        model = LinearGaussianModel(-np.eye(2), np.eye(2), np.array([[1.0, 0.0]]))
        verdict = ks_check(model)
        assert verdict.maximal_accuracy is False
        assert verdict.zero_report.structural_fail

    def test_unstable_model_reduced_first(self):
        verdict = ks_check(LinearGaussianModel([[1.0]], [[1.0]], [[1.0]]))
        assert verdict.maximal_accuracy is True
        assert any("output injection" in note for note in verdict.notes)


class TestDetectabilityGain:
    def test_stable_matrix_gets_zero_gain(self):
        K = detectability_gain(np.array([[-1.0]]), np.array([[1.0]]))
        assert np.array_equal(K, np.zeros((1, 1)))

    def test_scalar_unstable(self):
        K = detectability_gain(np.array([[1.0]]), np.array([[1.0]]))
        assert 1.0 - K[0, 0] < 0.0

    def test_double_integrator(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0]])
        K = detectability_gain(A, H, margin=1e-6)
        eigs = np.linalg.eigvals(A - K @ H)
        assert np.max(eigs.real) < -1e-6 * (1 - 1e-9)

    def test_undetectable_pair_rejected(self):
        with pytest.raises(NotDetectable):
            detectability_gain(np.diag([1.0, 2.0]), np.array([[1.0, 0.0]]))

    def test_weights_give_distinct_gains(self):
        A = np.array([[1.0, 0.5], [0.0, 0.8]])
        H = np.array([[1.0, 1.0]])
        K1 = detectability_gain(A, H, weight=1.0)
        K2 = detectability_gain(A, H, weight=7.0)
        assert not np.allclose(K1, K2)
        for K in (K1, K2):
            assert is_stable(A - K @ H)


class TestReduceUnstable:
    def test_stable_model_unchanged(self):
        model = benchmark()
        assert reduce_unstable(model) is model

    def test_unstable_scalar_reduced(self):
        model = LinearGaussianModel([[1.0]], [[1.0]], [[1.0]])
        reduced = reduce_unstable(model)
        assert is_stable(reduced.A)
        assert np.array_equal(reduced.D, model.D)
        assert np.array_equal(reduced.H, model.H)

    def test_explicit_gain_applied(self):
        model = LinearGaussianModel([[1.0]], [[1.0]], [[1.0]])
        reduced = reduce_unstable(model, gain=np.array([[3.0]]))
        assert reduced.A[0, 0] == pytest.approx(-2.0)

    def test_non_stabilizing_gain_rejected(self):
        model = LinearGaussianModel([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(NotStable):
            reduce_unstable(model, gain=np.array([[0.5]]))

    def test_wrong_gain_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            reduce_unstable(benchmark(), gain=np.zeros((1, 1)))

    def test_verdict_invariant_for_stable_models_any_gain(self):
        """K = 0 versus a forced nonzero stabilizing K: same answer."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_stable_lg(rng, p_max=3)
            margin = -float(np.max(np.linalg.eigvals(model.A).real)) + 0.5
            K = detectability_gain(model.A, model.H, margin=margin)
            assert np.any(K != 0.0)
            plain = ks_check(model)
            injected = ks_check(reduce_unstable(model, gain=K))
            assert plain.maximal_accuracy == injected.maximal_accuracy


class TestRiccati:
    def test_scalar_closed_form(self):
        a, dv, hv, kappa = 0.7, 1.3, 0.9, 0.05
        model = LinearGaussianModel([[-a]], [[dv]], [[hv]])
        sol = riccati_stationary(model, kappa)
        expected = kappa**2 * (-a + np.sqrt(a**2 + dv**2 * hv**2 / kappa**2)) / hv**2
        assert abs(sol.P[0, 0] - expected) < 1e-10

    def test_vanishing_observation_limit_is_lyapunov(self):
        model = benchmark()
        weak = LinearGaussianModel(model.A, model.D, 1e-8 * model.H)
        sol = riccati_stationary(weak, kappa=1.0)
        S = lyapunov_solve(model.A, model.D @ model.D.T)
        assert np.max(np.abs(sol.P - S)) / np.max(np.abs(S)) < 1e-6

    def test_large_kappa_approaches_lyapunov(self):
        model = benchmark()
        sol = riccati_stationary(model, kappa=1e3)
        S = lyapunov_solve(model.A, model.D @ model.D.T)
        assert np.linalg.norm(sol.P - S) / np.linalg.norm(S) < 1e-3

    def test_monotone_in_kappa(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_stable_lg(rng, p_max=4)
            P_hi = riccati_stationary(model, 0.3).P
            P_lo = riccati_stationary(model, 0.1, warm=P_hi).P
            assert np.min(np.linalg.eigvalsh(P_hi - P_lo)) > -1e-9

    def test_solution_is_psd_with_small_residual(self):
        model = benchmark()
        for kappa in (1.0, 1e-2, 1e-4):
            sol = riccati_stationary(model, kappa)
            assert np.min(np.linalg.eigvalsh(sol.P)) >= -1e-10
            assert sol.trace == pytest.approx(float(np.trace(sol.P)))

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            riccati_stationary(benchmark(), 0.0)


class TestRiccatiPaths:
    """Models whose direct Schur solve fails in scipy's ordqz ("Reordering ... failed")."""

    @pytest.mark.parametrize("seed", [29, 44, 230, 244, 269])
    def test_reordering_failure_falls_back_to_the_ladder(self, seed):
        model = random_stable_lg(np.random.default_rng(seed), p_max=6)
        cold = riccati_stationary(model, 1e-6)
        P = None
        for kappa in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 3e-6, 1e-6):
            P = riccati_stationary(model, kappa, warm=P).P
        assert cold.trace == pytest.approx(float(np.trace(P)), rel=1e-7)

    def test_reordering_failure_pinned_value(self):
        model = random_stable_lg(np.random.default_rng(29), p_max=6)
        assert riccati_stationary(model, 1e-6).trace == pytest.approx(1.8688919e-6, rel=1e-6)

    def test_lost_branch_is_no_stabilizing_solution(self):
        model = random_stable_lg(np.random.default_rng(32), p_max=6)
        with pytest.raises(NoStabilizingSolution):
            riccati_stationary(model, 1e-8)

    def test_direct_value_error_enters_the_ladder(self, monkeypatch):
        calls = []
        solve = lingauss.sla.solve_continuous_are

        def fail_first(*args):
            calls.append(args[3][0, 0])
            if len(calls) == 1:
                raise ValueError("Reordering of (A, B) failed")
            return solve(*args)

        expected = riccati_stationary(benchmark(), 1e-3).trace
        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", fail_first)
        assert riccati_stationary(benchmark(), 1e-3).trace == pytest.approx(expected, rel=1e-9)
        assert calls == [1e-6, 1.0]  # the direct solve, then the ladder's first rung

    def test_first_rung_value_error_is_no_stabilizing_solution(self, monkeypatch):
        def fail(*args):
            raise ValueError("Reordering of (A, B) failed")

        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", fail)
        with pytest.raises(NoStabilizingSolution, match="continuation start kappa=1"):
            riccati_stationary(benchmark(), 1e-3)


class TestLgSweep:
    def test_benchmark_plateaus_consistently(self):
        result = kappa_sweep_lg(benchmark(), [0.1, 0.01, 0.001, 0.0001])
        assert result.verdict_reference.maximal_accuracy is False
        assert result.trend == "plateau"
        assert result.flag == "CONSISTENT"
        assert all(r.std_error is None for r in result.rows)

    def test_minimum_phase_variant_decays_consistently(self):
        result = kappa_sweep_lg(benchmark(H=(1.0, 2.0)), [0.1, 0.01, 0.001, 0.0001])
        assert result.verdict_reference.maximal_accuracy is True
        assert result.trend == "decays"
        assert result.flag == "CONSISTENT"

    def test_fully_observed_error_scales_linearly(self):
        """A = -I, D = H = I: per-mode closed form gives trace ~ 2 kappa."""
        model = LinearGaussianModel(-np.eye(2), np.eye(2), np.eye(2))
        result = kappa_sweep_lg(model, [0.1, 0.01, 0.001])
        assert result.flag == "CONSISTENT"
        last = result.rows[-1]
        assert 1.5 < last.estimate / last.kappa < 2.5

    def test_failing_row_stays_in_its_row(self, monkeypatch):
        def fail_at(model, kappa, warm=None):
            if kappa == 0.01:
                raise np.linalg.LinAlgError("singular at kappa 0.01")
            return riccati_stationary(model, kappa, warm=warm)

        monkeypatch.setattr("maxacc.lingauss.riccati_stationary", fail_at)
        result = kappa_sweep_lg(benchmark(), [0.1, 0.01, 0.001])
        status = {r.kappa: r.status for r in result.rows}
        assert status[0.01].startswith("error: LinAlgError")
        assert status[0.1] == status[0.001] == "ok"

    def test_csv_has_empty_simulation_columns(self):
        result = kappa_sweep_lg(benchmark(), [0.1, 0.01])
        for line in result.to_csv().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == ""      # no std_error for exact rows
            assert cells[3] == cells[4] == cells[5] == cells[6] == ""
