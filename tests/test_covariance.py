import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import gamma, kv

from fieldalign.covariance import (
    GAUSSIAN,
    MATERN,
    CovarianceModel,
    KernelDomainError,
    SingularGramError,
    empirical_semivariogram,
    gram_cholesky,
    gram_matrix,
    kernel_evaluator,
    kernel_value,
    modified_bessel_k,
)
from fieldalign.geometry import MarkedPointSet
from fieldalign.simulation import grid_coords_2d

# frozen with mpmath (30 digits): besselk(1/2, 1), besselk(1, 2)
K_HALF_AT_1 = 0.461068504447894558
K_ONE_AT_2 = 0.139865881816522427


class TestModifiedBesselK:
    def test_half_integer_closed_form(self):
        assert abs(modified_bessel_k(0.5, 1.0) - K_HALF_AT_1) < 1e-12
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        for x in (0.2, 1.7, 8.0):
            expect = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
            assert abs(modified_bessel_k(0.5, x) - expect) < 1e-14

    def test_three_halves_recurrence(self):
        # K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x),
        # K_{5/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 3/x + 3/x^2)
        for nu, poly in ((1.5, lambda x: 1 + 1 / x), (2.5, lambda x: 1 + 3 / x + 3 / x**2)):
            for x in (0.5, 2.0, 5.0):
                expect = np.sqrt(np.pi / (2 * x)) * np.exp(-x) * poly(x)
                assert abs(modified_bessel_k(nu, x) - expect) < 1e-13

    def test_integer_order_table_value(self):
        assert abs(modified_bessel_k(1.0, 2.0) - K_ONE_AT_2) < 1e-10

    def test_divergence_at_zero(self):
        xs = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
        vals = modified_bessel_k(1.0, xs)
        assert np.all(np.diff(vals) < 0)
        assert vals[0] > 1e3

    def test_domain_error(self):
        with pytest.raises(KernelDomainError):
            modified_bessel_k(1.0, 0.0)
        with pytest.raises(KernelDomainError):
            modified_bessel_k(1.0, -1.0)


class TestKernelValue:
    def test_gaussian_at_zero(self):
        model = CovarianceModel(GAUSSIAN, rho=3.7)
        assert kernel_value(model, 0.0) == 1.0

    def test_matern_at_zero_exact(self):
        model = CovarianceModel(MATERN, rho=0.2, nu=1.0)
        assert kernel_value(model, 0.0) == 1.0

    def test_matern_half_equals_exponential(self):
        model = CovarianceModel(MATERN, rho=np.sqrt(2.0), nu=0.5)
        assert abs(kernel_value(model, 1.0) - np.exp(-1.0)) < 1e-14

    def test_matern_nu1_bessel_oracle(self):
        # 2D benchmark kernel: nu = 1, rho = 0.2 at distance 0.2 -> 2 K_1(2)
        model = CovarianceModel(MATERN, rho=0.2, nu=1.0)
        assert abs(kernel_value(model, 0.2) - 2.0 * K_ONE_AT_2) < 1e-10

    def test_matern_half_closed_form_over_range(self):
        rho = 0.7
        model = CovarianceModel(MATERN, rho=rho, nu=0.5)
        d = np.linspace(0.0, 10 * rho, 200)
        expect = np.exp(-np.sqrt(2.0) * d / rho)
        assert np.max(np.abs(kernel_value(model, d) - expect)) < 1e-10

    def test_gaussian_formula(self):
        model = CovarianceModel(GAUSSIAN, rho=2.0)
        d = np.array([0.0, 1.0, 2.0, 5.0])
        assert np.allclose(kernel_value(model, d), np.exp(-(d**2) / 4.0), atol=1e-15)

    def test_matern_limit_is_gaussian(self):
        rho = 1.3
        matern = CovarianceModel(MATERN, rho=rho, nu=50.0)
        gauss = CovarianceModel(GAUSSIAN, rho=rho)
        d = np.linspace(0.0, 3 * rho, 50)
        assert np.max(np.abs(kernel_value(matern, d) - kernel_value(gauss, d))) < 1e-2

    def test_monotone_decreasing(self):
        for model in (
            CovarianceModel(GAUSSIAN, rho=1.0),
            CovarianceModel(MATERN, rho=1.0, nu=0.5),
            CovarianceModel(MATERN, rho=1.0, nu=2.0),
        ):
            d = np.linspace(0.0, 5.0, 100)
            v = kernel_value(model, d)
            assert np.all(np.diff(v) < 0)
            assert np.all(v > 0) and np.all(v <= 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(KernelDomainError):
            kernel_value(CovarianceModel(GAUSSIAN, rho=1.0), -0.1)

    def test_evaluator_closed_forms(self):
        # a = 2 sqrt(nu) d / rho; half-integer orders have elementary forms
        rho = 0.9
        d = np.random.default_rng(0).uniform(0, 4, (6, 6))
        d[0, 0] = 0.0
        for nu, form in (
            (0.5, lambda a: np.exp(-a)),
            (1.5, lambda a: (1.0 + a) * np.exp(-a)),
            (2.5, lambda a: (1.0 + a + a * a / 3.0) * np.exp(-a)),
        ):
            a = 2.0 * np.sqrt(nu) * d / rho
            got = kernel_evaluator(CovarianceModel(MATERN, rho=rho, nu=nu))(d)
            np.testing.assert_allclose(got, form(a), rtol=1e-13, atol=1e-15)
        got = kernel_evaluator(CovarianceModel(GAUSSIAN, rho=1.4))(d)
        np.testing.assert_allclose(got, np.exp(-((d / 1.4) ** 2)), rtol=1e-14, atol=0)

    def test_evaluator_general_order_against_scipy_kv(self):
        nu, rho = 0.8, 1.3
        d = np.linspace(0.0, 5.0, 41)
        a = 2.0 * np.sqrt(nu) * d[1:] / rho
        expect = np.concatenate(
            [[1.0], a**nu * kv(nu, a) / (2.0 ** (nu - 1.0) * gamma(nu))]
        )
        got = kernel_evaluator(CovarianceModel(MATERN, rho=rho, nu=nu))(d)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-300)
        assert got[0] == 1.0

    def test_general_order_repeated_distances_match_one_by_one(self):
        # K_nu is called once per distinct distance; each entry must equal
        # the value of that distance evaluated on its own
        ev = kernel_evaluator(CovarianceModel(MATERN, rho=0.2, nu=1.0))
        pts = grid_coords_2d(7)
        d = cdist(pts, pts)
        one_by_one = np.array([ev(np.array([x]))[0] for x in d.ravel()]).reshape(d.shape)
        assert np.array_equal(ev(d), one_by_one)

    def test_validated_value_keeps_shape(self):
        model = CovarianceModel(MATERN, rho=0.9, nu=1.0)
        assert isinstance(kernel_value(model, 0.3), float)
        assert kernel_value(model, [[0.0, 0.3]]).shape == (1, 2)
        with pytest.raises(KernelDomainError):
            kernel_value(model, [0.1, np.inf])
        with pytest.raises(KernelDomainError):
            kernel_value(model, np.nan)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CovarianceModel(MATERN, rho=1.0)  # missing nu
        with pytest.raises(ValueError):
            CovarianceModel(GAUSSIAN, rho=-1.0)
        with pytest.raises(ValueError):
            CovarianceModel("triangle", rho=1.0)


class TestGramMatrix:
    def test_single_point(self):
        model = CovarianceModel(GAUSSIAN, rho=1.0)
        g = gram_matrix(model, [[0.0, 0.0]])
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0

    def test_two_points_known_value(self):
        # distance chosen so sigma(h) = 0.5 for the Gaussian kernel
        rho = 1.0
        d = np.sqrt(np.log(2.0)) * rho
        model = CovarianceModel(GAUSSIAN, rho=rho)
        g = gram_matrix(model, [[0.0, 0.0], [d, 0.0]])
        assert np.allclose(g, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_coincident_points_singular(self):
        # an indefinite matrix defeats the whole jitter ladder; the error
        # names the closest (here coincident) pair
        model = CovarianceModel(GAUSSIAN, rho=1.0)
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularGramError) as err:
            gram_cholesky(model, [[0.0, 0.0], [0.0, 0.0]], gram=indefinite)
        assert "0" in str(err.value) and "1" in str(err.value)

    def test_jitter_escalation_recovers(self):
        model = CovarianceModel(GAUSSIAN, rho=1.0)
        pts = [[0.0, 0.0], [1e-9, 0.0], [0.5, 0.5]]
        chol, used = gram_cholesky(model, pts)
        assert used > 0
        g = chol @ chol.T
        assert np.allclose(g, gram_matrix(model, pts) + used * np.eye(3), atol=1e-10)

    @pytest.mark.parametrize(
        "model, pts, jitter",
        [
            (CovarianceModel(MATERN, rho=0.2, nu=1.0), grid_coords_2d(), 0.0),
            *[
                (CovarianceModel(MATERN, rho=0.4, nu=nu), pts, 0.0)
                for nu in (0.5, 1.5, 0.8)
                for pts in (
                    np.random.default_rng(5).uniform(0, 1, (40, 2)),
                    np.random.default_rng(6).uniform(0, 1, (30, 3)),
                )
            ],
            (CovarianceModel(GAUSSIAN, rho=0.4), np.random.default_rng(7).uniform(0, 1, (40, 2)), 0.0),
            (CovarianceModel(GAUSSIAN, rho=0.4), np.random.default_rng(8).uniform(0, 1, (30, 3)), 0.0),
            (CovarianceModel(MATERN, rho=0.4, nu=0.8), [[0.3, 0.7]], 0.0),
            (CovarianceModel(MATERN, rho=0.4, nu=0.8), [[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]], 0.0),
            (CovarianceModel(MATERN, rho=0.4, nu=1.5), np.random.default_rng(9).uniform(0, 1, (20, 2)), 1e-8),
        ],
    )
    def test_equals_kernel_on_full_distance_matrix(self, model, pts, jitter):
        # the condensed evaluation is bit-identical to the plain one, also
        # under the diagonal shift gram_cholesky adds
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eye = np.eye(pts.shape[0])
        expect = kernel_value(model, cdist(pts, pts)) + jitter * eye
        assert np.array_equal(gram_matrix(model, pts) + jitter * eye, expect)

    def test_positive_definite_random_configs(self):
        rng = np.random.default_rng(11)
        model = CovarianceModel(MATERN, rho=0.4, nu=0.5)
        for _ in range(20):
            k = rng.integers(2, 21)
            m = rng.choice([2, 3])
            pts = rng.uniform(0, 1, (k, m))
            g = gram_matrix(model, pts)
            assert np.linalg.eigvalsh(g).min() > 0


class TestSemivariogram:
    def test_constant_marks(self):
        ps = MarkedPointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [2.0, 2.0, 2.0])
        out = empirical_semivariogram([ps], bin_width=0.5)
        assert all(v == 0.0 for _, v, _ in out)

    def test_two_point_value(self):
        ps = MarkedPointSet([[0.0, 0.0], [1.0, 0.0]], [0.0, 2.0])
        out = empirical_semivariogram([ps], bin_width=0.5)
        assert len(out) == 1
        lag, gamma, count = out[0]
        assert gamma == 2.0
        assert count == 1

    def test_pooling_doubles_counts(self):
        ps = MarkedPointSet([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], [0.0, 1.0, -1.0])
        one = empirical_semivariogram([ps], bin_width=1.0)
        two = empirical_semivariogram([ps, ps], bin_width=1.0)
        assert len(one) == len(two)
        for (l1, v1, c1), (l2, v2, c2) in zip(one, two):
            assert l1 == l2 and abs(v1 - v2) < 1e-15 and c2 == 2 * c1

    def test_needs_pairs(self):
        ps = MarkedPointSet([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            empirical_semivariogram([ps], bin_width=1.0)
