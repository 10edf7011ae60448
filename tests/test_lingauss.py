"""Linear-Gaussian analysis: structure checks, zeros, Riccati sweeps."""

from __future__ import annotations

import math
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
    IllConditionedPencil,
    InvalidInput,
    NoStabilizingSolution,
    NotDetectable,
    NotDetectableOrStabilizable,
    NotStable,
    RankDeficientDorH,
    SingularShift,
)
from maxacc.lingauss import CERT_ACCEPT, CERT_REJECT, is_stable
from maxacc.modelfile import parse_model_file
from maxacc.verdicts import BOUNDARY, LEFT, OPEN_RIGHT
from oracles import care_gain, ks_limit_trace, pbh_flags, relative_degree

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def benchmark(H=(1.0, -2.0)) -> LinearGaussianModel:
    """Two-pole single-output system; the default H has a right-halfplane zero."""
    return LinearGaussianModel(
        A=np.diag([-1.0, -4.0]), D=np.array([[1.0], [1.0]]), H=np.array([list(H)])
    )


def tall_common_zero() -> LinearGaussianModel:
    """Both output channels vanish at 2 (the model of test_tall_system_with_common_zero)."""
    return LinearGaussianModel(
        np.diag([-1.0, -4.0, -3.0]),
        np.array([[1.0], [1.0], [1.0]]),
        np.array([[1.0, -2.0, 0.0], [0.0, 6.0, -5.0]]),
    )


def planted_tall_models(count: int = 40) -> list[tuple[LinearGaussianModel, float]]:
    """Seeded tall single-input models, each with one planted real zero z.

    A = diag(a) is stable, D = ones and 2 <= n <= p - 1. Channel k of G is
    sum_j H_kj / (lam - a_j), so projecting every row of H off the vector
    1 / (z - a) makes each channel vanish at z. Even-numbered models plant z
    in the right half plane, odd-numbered ones in the left.
    """
    rng = np.random.default_rng(2024)
    models = []
    for k in range(count):
        p = int(rng.integers(3, 7))
        n = int(rng.integers(2, p))
        a = -rng.uniform(0.5, 4.0, p)
        z = float(rng.uniform(0.5, 3.0)) * (1.0 if k % 2 == 0 else -1.0)
        v = 1.0 / (z - a)
        H = rng.standard_normal((n, p))
        H -= np.outer(H @ v, v) / (v @ v)
        models.append((LinearGaussianModel(np.diag(a), np.ones((p, 1)), H), z))
    return models


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

    @pytest.mark.parametrize("name, bad", [("A", np.nan), ("D", np.inf), ("H", -np.inf)])
    def test_non_finite_matrix_is_an_input_error(self, name, bad):
        """Named as bad input (exit 1), not a LinAlgError or a rank failure."""
        mats = {"A": np.diag([-1.0, -2.0]), "D": np.array([[1.0], [1.0]]), "H": np.array([[1.0, -2.0]])}
        mats[name][0, 0] = bad
        with pytest.raises(InvalidInput, match=rf"^{name} has non-finite entries$") as info:
            LinearGaussianModel(**mats)
        assert type(info.value) is InvalidInput

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

    @pytest.mark.parametrize("D, H", [(np.zeros((2, 0)), [[1.0, -2.0]]), ([[1.0], [1.0]], np.zeros((0, 2)))],
                             ids=["D-without-columns", "H-without-rows"])
    def test_empty_d_or_h_rejected(self, D, H):
        """m = 0 or n = 0 is refused when the model is built, so no analysis sees an
        empty D or H (the zero search and the Riccati sweep would fail in numpy or scipy)."""
        with pytest.raises(DimensionMismatch, match=r"^need 1 <= m <= p and 1 <= n <= p, got p=2"):
            LinearGaussianModel(np.diag([-1.0, -4.0]), D, H)


@st.composite
def square_matrices(draw) -> np.ndarray:
    """A real p x p matrix, p <= 6, as drawn or shifted to put its rightmost
    eigenvalue (as np.linalg.eigvals reads it) 1e-9 or 1e-6 off the axis."""
    p = draw(st.integers(1, 6))
    elements = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    M = draw(arrays(np.float64, (p, p), elements=elements))
    offset = draw(st.sampled_from([None, -1e-6, -1e-9, 1e-9, 1e-6]))
    if offset is not None:
        M = M - (float(np.max(np.linalg.eigvals(M).real)) - offset) * np.eye(p)
    return M


class TestIsStable:
    """is_stable reads LAPACK geev directly; it must decide as numpy's eigvals does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(square_matrices())
    def test_agrees_with_numpy_eigvals(self, A):
        assert is_stable(A) == bool(np.max(np.linalg.eigvals(A).real) < 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_raises_numpys_error(self, bad):
        A = np.array([[-1.0, 0.0], [bad, -2.0]])
        with pytest.raises(np.linalg.LinAlgError) as numpy_error:
            np.linalg.eigvals(A)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            is_stable(A)
        assert str(ours.value) == str(numpy_error.value) == "Array must not contain infs or NaNs"

    def test_unconverged_eigenvalues_raise_numpys_error(self, monkeypatch):
        def unconverged(A, compute_vl, compute_vr):
            return np.zeros(2), np.zeros(2), None, None, 1

        monkeypatch.setattr(lingauss.sla, "lapack", types.SimpleNamespace(dgeev=unconverged))
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            is_stable(-np.eye(2))


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

    def test_unconverged_solve_is_not_stable(self, monkeypatch):
        """A solve whose refined residual stays large is refused, not returned."""
        monkeypatch.setattr(lingauss.sla, "solve_continuous_lyapunov", lambda a, q: np.zeros_like(q))
        with pytest.raises(NotStable, match=r"^Lyapunov residual 1\.41e\+00 did not converge$"):
            lyapunov_solve(-np.eye(2), np.eye(2))


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

    def test_array_of_points_stacks_the_single_values(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = random_stable_lg(rng, p_max=6)
            radius = 2.0 * (1.0 + float(np.max(np.abs(model.eigs))))
            points = [radius + 0j, radius * 1j, radius * (0.6 + 0.8j), 0.5 * radius * (1 + 1j)]
            points += list(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            stacked = transfer_eval(model, np.array(points))
            assert stacked.shape == (len(points), model.n, model.m)
            assert np.array_equal(stacked, np.stack([transfer_eval(model, z) for z in points]))

    def test_a_pole_among_the_points_is_named(self):
        points = np.array([1.0 + 0j, 0.5j, -4.0 + 0j, 2.0 + 0j])
        with pytest.raises(SingularShift, match=re.escape(f"lambda = {points[2]} is an eigenvalue")):
            transfer_eval(benchmark(), points)


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
        """Both channels carry (s + 1/2)^2; the compressed pencil finds it twice, so it is one zero of multiplicity 2."""
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

    def test_candidate_in_the_certification_band_is_undecided(self, monkeypatch):
        """A candidate whose sigma_min/scale lies between the two thresholds is neither
        certified nor dropped. The zero at 2 of ks_example reads 0, inside [0, 1]."""
        monkeypatch.setattr(lingauss, "CERT_ACCEPT", 0.0)
        monkeypatch.setattr(lingauss, "CERT_REJECT", 1.0)
        model = parse_model_file(MODELS_DIR / "ks_example.json").model
        with pytest.raises(IllConditionedPencil,
                           match=r"^candidate .*: sigma_min/scale = .* falls between the accept \(0\) "
                                 r"and reject \(1\) thresholds$"):
            transmission_zeros(model)

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


class TestTallCompression:
    """A tall system's zeros come from one random row compression M H: every
    zero of G is a zero of M G, and certification on G drops the rest."""

    def test_double_zero_counted_by_its_multiplicity(self):
        """Both channels carry (s - 2)^2. The double root splits by about
        6e-7 in the pencil, beyond the 1e-7 cluster tolerance, so it is still
        reported as two simple zeros near 2 (an open defect); what is pinned
        is that their multiplicities add up to 2, the zero's true order."""
        model = LinearGaussianModel(
            np.diag([-1.0, -2.0, -3.0, -4.0]),
            np.ones((4, 1)),
            np.array([[1.5, -8.0, 12.5, -6.0], [-1.5, 16.0, -37.5, 24.0]]),
        )
        zeros = transmission_zeros(model).zeros
        assert zeros
        assert all(z.classification == OPEN_RIGHT for z in zeros)
        assert all(abs(z.value - 2.0) < 1e-6 for z in zeros)
        assert sum(z.multiplicity for z in zeros) == 2

    @pytest.mark.parametrize(
        "model", [benchmark(), tall_common_zero()], ids=["square", "tall"]
    )
    def test_one_pencil_per_search(self, monkeypatch, model):
        pencil = lingauss._pencil_candidates
        calls = []

        def counting(A, D, H):
            calls.append(H.shape)
            return pencil(A, D, H)

        monkeypatch.setattr(lingauss, "_pencil_candidates", counting)
        transmission_zeros(model)
        assert calls == [(model.m, model.p)]

    def test_report_does_not_depend_on_the_draw(self, monkeypatch):
        models = planted_tall_models()
        seeds = (lingauss.COMPRESSION_SEED, 1, 2, 3, 4)
        reports = {}
        for seed in seeds:
            monkeypatch.setattr(lingauss, "COMPRESSION_SEED", seed)
            reports[seed] = [transmission_zeros(model).zeros for model, _ in models]
        first = reports[seeds[0]]
        for (_, planted), zeros in zip(models, first):
            assert len(zeros) == 1
            assert abs(zeros[0].value - planted) < 1e-6 * abs(planted)
            assert zeros[0].classification == (OPEN_RIGHT if planted > 0 else LEFT)
        for seed, other in reports.items():
            for zeros, again in zip(first, other):
                assert len(again) == len(zeros), seed
                for z, w in zip(zeros, again):
                    assert (w.classification, w.multiplicity) == (z.classification, z.multiplicity)
                    assert abs(w.value - z.value) <= 1e-6 * abs(z.value)


class TestKsLimitOracle:
    """The Kwakernaak-Sivan limit trace against the Riccati trace at kappa = 1e-5."""

    @staticmethod
    def limit_and_riccati(model, zeros):
        oracle = ks_limit_trace(model.A, model.D, model.H, zeros)
        return oracle, riccati_stationary(model, 1e-5).trace

    def test_ks_example(self):
        model = parse_model_file(MODELS_DIR / "ks_example.json").model
        oracle, trace = self.limit_and_riccati(model, [2.0])
        assert oracle == pytest.approx(5 / 9, rel=1e-12)
        assert trace == pytest.approx(oracle, rel=1e-5)

    def test_tall_common_zero(self):
        oracle, trace = self.limit_and_riccati(tall_common_zero(), [2.0])
        assert oracle == pytest.approx(0.715556, rel=1e-6)
        assert trace == pytest.approx(oracle, rel=1e-5)

    def test_planted_right_zeros(self):
        for model, planted in planted_tall_models()[::2]:
            oracle, trace = self.limit_and_riccati(model, [planted])
            assert trace == pytest.approx(oracle, rel=1e-3)

    def test_no_right_zero_error_vanishes(self):
        models = [m for m, _ in planted_tall_models()[1::2]] + [benchmark(H=(1.0, 2.0))]
        for model in models:
            zeros = [z.value for z in transmission_zeros(model).zeros]
            oracle, trace = self.limit_and_riccati(model, zeros)
            assert oracle == 0.0
            base = float(np.trace(lyapunov_solve(model.A, model.D @ model.D.T)))
            assert trace < 1e-3 * base

    def test_multi_input_refused(self):
        with pytest.raises(ValueError, match="single-input"):
            ks_limit_trace(-np.eye(2), np.eye(2), np.eye(2), [])


def companion_r3() -> LinearGaussianModel:
    """Poles -1, -2 and -3 in companion form, D = e_3 and H = e_1: r = 3, no finite zero."""
    A = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]]
    return LinearGaussianModel(A, [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]])


class TestRelativeDegree:
    """The Riccati trace of a maximally accurate model falls like kappa^(1/r)."""

    CASES = {
        1: (lambda: parse_model_file(MODELS_DIR / "ks_minimum_phase.json").model, (1e-6, 1e-7)),
        2: (lambda: LinearGaussianModel([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[1.0, 0.0]]),
            (1e-5, 1e-6)),
        3: (companion_r3, (1e-7, 1e-8)),
    }

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_oracle(self, r):
        model = self.CASES[r][0]()
        assert relative_degree(model.A, model.D, model.H) == r

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_trace_falls_like_kappa_to_the_one_over_r(self, r):
        make, (k_hi, k_lo) = self.CASES[r]
        model = make()
        assert ks_check(model).maximal_accuracy
        slope = math.log10(
            riccati_stationary(model, k_hi).trace / riccati_stationary(model, k_lo).trace
        ) / math.log10(k_hi / k_lo)
        assert slope == pytest.approx(1 / r, abs=0.05)

    def test_multi_channel_refused(self):
        with pytest.raises(ValueError, match="single-input, single-output"):
            relative_degree(-np.eye(2), np.eye(2)[:, :1], np.eye(2))
        with pytest.raises(ValueError, match="single-input, single-output"):
            relative_degree(-np.eye(2), np.eye(2), np.eye(2)[:1])


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

    def test_indefinite_solution_fails_every_start_and_its_row(self, monkeypatch):
        """A walk that ends on an indefinite P fails its start even at residual 0;
        when every start does, the sweep row records the failure."""
        monkeypatch.setattr(lingauss, "_kleinman", lambda A, Q, H, r, P: (-1e-3 * np.eye(len(A)), 0.0))
        with pytest.raises(NoStabilizingSolution, match=r"^Riccati solution indefinite at kappa=0\.1$"):
            riccati_stationary(benchmark(), 0.1)
        rows = kappa_sweep_lg(benchmark(), [0.1, 0.01]).rows
        assert [r.status for r in rows] == [
            f"error: NoStabilizingSolution: Riccati solution indefinite at kappa={k}" for k in (0.1, 0.01)
        ]

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

    def test_perturbed_lyapunov_solve_fails_its_row(self):
        """At kappa 1e-12 every start of the relative-degree-2 model reaches a closed loop
        whose Lyapunov equation scipy solves only after perturbing it, with a RuntimeWarning.
        That ends the walk, so under warnings-as-errors the row fails in its row; the rows
        above it run no such solve and keep their traces."""
        model = LinearGaussianModel([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        result = kappa_sweep_lg(model, [1e-8, 1e-10, 1e-12])
        assert [r.estimate for r in result.rows[:2]] == pytest.approx([1.413613722412823e-4, 1.4141537905772725e-5],
                                                                     rel=1e-12, abs=0.0)
        assert result.rows[2].status.startswith("error: NoStabilizingSolution")
        assert result.flag == "UNDECIDED"

    @pytest.mark.parametrize("message, ends_walk", [
        (lingauss.PERTURBED_LYAPUNOV + ". Perturbed the equation.", True),
        ("overflow encountered in matmul", False),
    ])
    def test_only_scipys_perturbation_warning_ends_the_walk(self, monkeypatch, message, ends_walk):
        """Under warnings-as-errors a RuntimeWarning other than scipy's perturbation
        warning goes on to the caller instead of ending the walk as a failure."""
        def warn(a, q):
            warnings.warn(message, RuntimeWarning)

        monkeypatch.setattr(lingauss.sla, "solve_continuous_lyapunov", warn)
        A, Q, H = -np.eye(2), np.eye(2), np.array([[1.0, 0.0]])
        if ends_walk:
            assert lingauss._kleinman(A, Q, H, 1.0, np.eye(2)) is None
        else:
            with pytest.raises(RuntimeWarning, match="overflow"):
                lingauss._kleinman(A, Q, H, 1.0, np.eye(2))

    def test_unstable_closed_loop_after_the_start_fails_the_walk(self, monkeypatch):
        """A closed loop that is not stable fails the walk at any step, as a perturbed
        Lyapunov solve does: the walk returns None, not the iterate before it."""
        stable = iter([True, False])
        monkeypatch.setattr(lingauss, "is_stable", lambda A: next(stable))
        A, Q, H = -np.eye(2), np.eye(2), np.array([[1.0, 0.0]])
        assert lingauss._kleinman(A, Q, H, 1.0, np.eye(2)) is None

    def test_csv_has_empty_simulation_columns(self):
        result = kappa_sweep_lg(benchmark(), [0.1, 0.01])
        for line in result.to_csv().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == ""      # no std_error for exact rows
            assert cells[3] == cells[4] == cells[5] == cells[6] == ""
