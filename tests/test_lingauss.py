"""Linear-Gaussian analysis: structure checks, zeros, Riccati sweeps."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import block_diag, expm

from conftest import random_stable_lg, random_unstable_lg
from maxacc import (
    LinearGaussianModel,
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
from oracles import care_gain, pbh_flags


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
        with pytest.raises(NotDetectableOrStabilizable):
            LinearGaussianModel(
                np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]])
            )

    @pytest.mark.parametrize("draw", [random_stable_lg, random_unstable_lg])
    def test_construction_records_eigs_and_stability(self, draw):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = draw(rng)
            np.testing.assert_array_equal(model.eigs, np.linalg.eigvals(model.A))
            assert model.stable == is_stable(model.A)

    def test_built_model_is_not_validated_again(self, monkeypatch):
        """A model that exists is valid; the analyses downstream do not re-check it."""
        model = benchmark()
        calls = []
        original = lingauss.validate_model
        monkeypatch.setattr(lingauss, "validate_model", lambda m: calls.append(m) or original(m))
        ks_check(model)
        riccati_stationary(model, 0.1)
        kappa_sweep_lg(model, [0.1, 0.01, 0.001, 0.0001])
        assert calls == []
        # The spy sees construction, which looks the name up in lingauss.
        LinearGaussianModel(model.A, model.D, model.H)
        assert len(calls) == 1

    @pytest.mark.parametrize("draw", [random_stable_lg, random_unstable_lg])
    def test_building_a_model_decomposes_a_once(self, monkeypatch, draw):
        """The PBH tests read model.eigs; only construction calls eigvals."""
        model = draw(np.random.default_rng(7))
        calls = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(M) or original(M))
        LinearGaussianModel(model.A, model.D, model.H)
        assert len(calls) == 1

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
        assert report.zeros[0].multiplicity == 1
        assert any("tall" in note for note in report.notes)

    def test_tall_system_with_double_zero(self):
        """Both channels carry (s + 1/2)^2; each compression finds it twice, so it is counted twice, not four times."""
        model = LinearGaussianModel(
            np.diag([-1.0, -2.0, -4.0, -8.0]),
            np.ones((4, 1)),
            np.array([[8.0, -126.0, 343.0, -225.0], [32.0, -378.0, 343.0, 675.0]]),
        )
        report = transmission_zeros(model)
        assert len(report.zeros) == 1
        assert abs(report.zeros[0].value + 0.5) < 1e-6
        assert report.zeros[0].classification == LEFT
        assert report.zeros[0].multiplicity == 2

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


class TestPbhForms:
    """validate_model's flags against the stacked-form PBH oracle."""

    @staticmethod
    def modal(rng, reals, hide_d, hide_h):
        """p = 4 model with eigenvalue pairs reals[k] +- i w_k; block k hidden from D or H."""
        blocks = [np.array([[a, w], [-w, a]]) for a, w in zip(reals, rng.uniform(0.5, 2.0, 2))]
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        T = Q @ np.diag(rng.uniform(0.5, 2.0, 4))
        B, C = rng.standard_normal((4, 1)), rng.standard_normal((1, 4))
        if hide_d is not None:
            B[2 * hide_d:2 * hide_d + 2] = 0.0
        if hide_h is not None:
            C[:, 2 * hide_h:2 * hide_h + 2] = 0.0
        Ti = np.linalg.inv(T)
        return T @ block_diag(*blocks) @ Ti, T @ B, C @ Ti

    def test_flags_agree_on_complex_modes(self):
        """-1e-10 is stable yet inside the PBH band, so a built model can carry a False flag."""
        rng = np.random.default_rng(29)
        seen = set()
        for reals in ((-1e-10, -0.5), (0.7, -0.5), (0.7, -1e-10)):
            for hide_d in (None, 0, 1):
                for hide_h in (None, 0, 1):
                    A, D, H = self.modal(rng, reals, hide_d, hide_h)
                    expected = pbh_flags(A, D, H)
                    try:
                        flags = validate_model(LinearGaussianModel(A, D, H))
                    except NotDetectableOrStabilizable:
                        assert np.max(np.linalg.eigvals(A).real) >= 0
                        assert not (expected["stabilizable"] and expected["detectable"])
                        seen.add("rejected")
                        continue
                    assert {k: flags[k] for k in expected} == expected
                    seen.update(k for k, v in expected.items() if not v)
        assert seen == {"rejected", "stabilizable", "detectable"}

    @pytest.mark.parametrize(
        "A, D, H, failing",
        [
            (np.diag([1.0, 2.0]), [[1.0], [1.0]], [[1.0, 0.0]], "detectable"),
            (np.diag([1.0, 2.0]), [[1.0], [0.0]], [[1.0, 1.0]], "stabilizable"),
            (block_diag([[0.5, 1.0], [-1.0, 0.5]], [[-1.0]]), [[1.0], [1.0], [1.0]],
             [[0.0, 0.0, 1.0]], "detectable"),
        ],
    )
    def test_hand_built_pairs(self, A, D, H, failing):
        A, D, H = np.asarray(A), np.asarray(D), np.asarray(H)
        expected = pbh_flags(A, D, H)
        assert [k for k, v in expected.items() if not v] == [failing]
        eigs = np.linalg.eigvals(A)
        assert lingauss._pbh_rank_ok(A, eigs, D) == expected["stabilizable"]
        assert lingauss._pbh_rank_ok(A.T, eigs, H.T) == expected["detectable"]
        with pytest.raises(NotDetectableOrStabilizable):
            LinearGaussianModel(A, D, H)


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

    def test_double_integrator_meets_the_margin(self):
        model = LinearGaussianModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        reduced = reduce_unstable(model)
        eigs = np.linalg.eigvals(reduced.A)
        assert np.max(eigs.real) < -lingauss.GAIN_MARGIN * (1 - 1e-9)

    def test_computed_gain_checks_a_minus_kh_once(self, monkeypatch):
        """The reduced model's own eigs are the only eigenvalues computed."""
        model = LinearGaussianModel(np.diag([1.0, -4.0]), [[1.0], [1.0]], [[1.0, -2.0]])
        seen = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: seen.append(M) or original(M))
        reduced = reduce_unstable(model)
        assert len(seen) == 1
        assert np.array_equal(seen[0], reduced.A)

    def test_failed_riccati_solve_means_not_detectable(self, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("no stabilizing solution")

        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", fail)
        with pytest.raises(NotDetectable, match="^dual Riccati construction failed: no stabilizing"):
            reduce_unstable(LinearGaussianModel([[1.0]], [[1.0]], [[1.0]]))

    def test_gain_missing_the_margin_is_refused(self, monkeypatch):
        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", lambda *args: np.zeros((1, 1)))
        with pytest.raises(NotDetectable, match="^constructed gain misses the stability margin$"):
            reduce_unstable(LinearGaussianModel([[1.0]], [[1.0]], [[1.0]]))

    def test_verdict_invariant_for_stable_models_any_gain(self):
        """K = 0 versus a forced nonzero stabilizing K: same answer."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_stable_lg(rng, p_max=3)
            margin = -float(np.max(np.linalg.eigvals(model.A).real)) + 0.5
            K = care_gain(model.A, model.H, 1.0, margin)
            assert np.any(K != 0.0)
            plain = ks_check(model)
            injected = ks_check(LinearGaussianModel(model.A - K @ model.H, model.D, model.H))
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

    @staticmethod
    def count_care(monkeypatch) -> list:
        """Record the noise weight r of every CARE call riccati_stationary makes."""
        calls = []
        solve = lingauss.sla.solve_continuous_are

        def counting(*args):
            calls.append(args[3][0, 0])
            return solve(*args)

        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", counting)
        return calls

    @pytest.mark.parametrize("seed", [3, 10, 28])
    def test_ladder_rescues_cold_solves_at_1e_8(self, monkeypatch, seed):
        model = random_stable_lg(np.random.default_rng(seed), p_max=6)
        calls = self.count_care(monkeypatch)
        cold = riccati_stationary(model, 1e-8)
        assert len(calls) >= 2  # the direct solve failed; the ladder's first rung solved
        P = None
        for kappa in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            P = riccati_stationary(model, kappa, warm=P).P
        assert cold.trace == pytest.approx(float(np.trace(P)), rel=1e-7)

    def test_non_stabilizing_warm_start_falls_through_to_the_direct_solve(self, monkeypatch):
        cold = riccati_stationary(benchmark(), 1e-3)
        calls = self.count_care(monkeypatch)
        # K = P H^T / r with P = -I makes A - K H = A + H^T H / r unstable.
        sol = riccati_stationary(benchmark(), 1e-3, warm=-np.eye(2))
        assert calls == [1e-6]
        assert np.array_equal(sol.P, cold.P)

    def test_every_start_failing_raises_the_last_starts_failure(self, monkeypatch):
        model = benchmark()
        solve = lingauss.sla.solve_continuous_are

        def fail_direct(*args):
            if args[3][0, 0] == 1e-6:
                raise ValueError("Reordering of (A, B) failed")
            return solve(*args)

        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", fail_direct)
        ladder = riccati_stationary(model, 1e-3).P
        res = lingauss._riccati_residual(model.A, model.D @ model.D.T, model.H, 1e-6, ladder)
        monkeypatch.setattr(lingauss.sla, "solve_continuous_are", solve)

        monkeypatch.setattr(lingauss, "RICCATI_RESIDUAL", 0.0)
        calls = self.count_care(monkeypatch)
        message = rf"^Riccati residual {res:.2e} exceeds 0 at kappa=0.001$"
        with pytest.raises(NoStabilizingSolution, match=message):
            riccati_stationary(model, 1e-3, warm=np.zeros((2, 2)))
        assert calls == [1e-6, 1.0]  # warm, then the direct solve, then the ladder


class TestLgSweep:
    def test_benchmark_plateaus_consistently(self):
        result = kappa_sweep_lg(benchmark(), [0.1, 0.01, 0.001, 0.0001])
        assert result.verdict.maximal_accuracy is False
        assert result.trend == "plateau"
        assert result.flag == "CONSISTENT"
        assert all(r.std_error is None for r in result.rows)

    def test_minimum_phase_variant_decays_consistently(self):
        result = kappa_sweep_lg(benchmark(H=(1.0, 2.0)), [0.1, 0.01, 0.001, 0.0001])
        assert result.verdict.maximal_accuracy is True
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
