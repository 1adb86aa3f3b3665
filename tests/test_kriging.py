import numpy as np
import pytest

from fieldalign.covariance import (
    GAUSSIAN,
    MATERN,
    CovarianceModel,
    SingularGramError,
    gram_matrix,
)
from fieldalign.geometry import MarkedPointSet, RigidTransform, wrap_angles
from fieldalign.kriging import (
    DegenerateFieldError,
    EmptyFieldError,
    PredictedField,
    build_field,
    kriging_solve,
)

MODEL = CovarianceModel(MATERN, rho=0.3, nu=0.5)


def random_set(rng, k=8, m=2):
    return MarkedPointSet(rng.uniform(0, 1, (k, m)), rng.standard_normal(k))


def solve_with_gram(z, gram):
    """kriging_solve on a given Gram matrix (the coordinates then only
    size the jitter ladder and name the closest pair)."""
    coords = np.arange(len(z), dtype=float)[:, None]
    return kriging_solve(MODEL, coords, np.asarray(z, dtype=float), gram=np.asarray(gram))


class TestKrigingWeights:
    def test_identity_gram(self):
        z = np.array([1.0, -2.0, 0.5])
        jitter, w, norm_sq, inv = solve_with_gram(z, np.eye(3))
        assert np.allclose(w, z) and jitter == 0.0 and inv is None
        assert abs(norm_sq - z @ z) < 1e-14

    def test_two_by_two_hand_solve(self):
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        _, w, _, _ = solve_with_gram([1.0, 1.0], gram)
        assert np.allclose(w, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_single_point(self):
        _, w, norm_sq, _ = solve_with_gram([5.0], [[1.0]])
        assert np.allclose(w, [5.0]) and norm_sq == 25.0

    def test_singular_gram_raises(self):
        # indefinite: no rung of the jitter ladder makes it factorizable
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularGramError):
            solve_with_gram([1.0, 1.0], gram)
        with pytest.raises(DegenerateFieldError):
            solve_with_gram([0.0, 0.0], np.eye(2))

    def test_residual_norm(self):
        rng = np.random.default_rng(0)

        pts = rng.uniform(0, 1, (15, 3))
        gram = gram_matrix(MODEL, pts)
        z = rng.standard_normal(15)
        _, w, _, _ = kriging_solve(MODEL, pts, z)
        resid = np.max(np.abs(gram @ w - z))
        assert resid < 1e-8 * np.max(np.abs(z))
        # a precomputed Gram matrix gives the same solve bit for bit
        _, w_cached, _, _ = kriging_solve(MODEL, pts, z, gram=gram)
        assert np.array_equal(w, w_cached)


class TestBuildField:
    def test_full_mask_equals_default(self):
        rng = np.random.default_rng(1)
        ps = random_set(rng)
        f1 = build_field(ps, model=MODEL)
        f2 = build_field(ps, mask=np.ones(ps.k, dtype=bool), model=MODEL)
        assert np.allclose(f1.weights, f2.weights)
        assert f1.norm == f2.norm

    def test_all_masked_error(self):
        rng = np.random.default_rng(2)
        ps = random_set(rng)
        with pytest.raises(EmptyFieldError):
            build_field(ps, mask=np.zeros(ps.k, dtype=bool), model=MODEL)

    def test_single_point_norm_is_abs_mark(self):
        for c in (3.0, -0.25):
            ps = MarkedPointSet([[0.0, 0.0]], [c])
            f = build_field(ps, model=MODEL)
            assert abs(f.norm - abs(c)) < 1e-12

    def test_degenerate_zero_marks(self):
        ps = MarkedPointSet([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0])
        with pytest.raises(DegenerateFieldError):
            build_field(ps, model=MODEL)

    def test_far_away_zero_mark_point_masked_no_effect(self):
        rng = np.random.default_rng(3)
        base = random_set(rng, k=6)
        far_coord = np.array([[20 * MODEL.rho + 5, 0.0]])
        coords = np.vstack([base.coords, far_coord])
        marks = np.concatenate([base.marks, [0.0]])
        ps = MarkedPointSet(coords, marks)
        mask_with = np.ones(7, dtype=bool)
        mask_without = mask_with.copy()
        mask_without[6] = False
        f_with = build_field(ps, mask=mask_with, model=MODEL)
        f_without = build_field(ps, mask=mask_without, model=MODEL)
        probe = rng.uniform(0, 1, (12, 2))
        assert np.max(np.abs(f_with.predict(probe) - f_without.predict(probe))) < 1e-6

    def test_weight_recomputation_idempotent(self):
        rng = np.random.default_rng(4)
        ps = random_set(rng, k=10)
        mask = np.ones(10, dtype=bool)
        mask[[2, 7]] = False
        f1 = build_field(ps, mask=mask, model=MODEL)
        f2 = build_field(ps, mask=mask, model=MODEL)
        assert np.max(np.abs(f1.weights - f2.weights)) < 1e-10


class TestPrediction:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(2, 15))
            m = int(rng.choice([2, 3]))
            ps = random_set(rng, k=k, m=m)
            f = build_field(ps, model=MODEL)
            for i in range(k):
                assert abs(f.predict(ps.coords[i]) - ps.marks[i]) < 1e-8

    def test_single_source_one_term(self):
        # weight 2 at the origin; sigma = e^{-1} at distance rho/sqrt(2)... use
        # the Gaussian kernel where sigma(d) = exp(-d^2/rho^2) = e^{-1} at d = rho
        model = CovarianceModel(GAUSSIAN, rho=0.8)
        ps = MarkedPointSet([[0.0, 0.0]], [2.0])
        f = build_field(ps, model=model)
        # single-point field: weight = mark / sigma(0) = 2
        assert abs(f.weights[0] - 2.0) < 1e-14
        val = f.predict(np.array([0.8, 0.0]))
        assert abs(val - 2.0 * np.exp(-1.0)) < 1e-12

    def test_predict_batch_matches_single_points(self):
        rng = np.random.default_rng(6)
        ps = random_set(rng)
        f = build_field(ps, model=MODEL)
        pts = rng.uniform(0, 1, (5, 2))
        batch = f.predict(pts)
        singles = np.array([f.predict(p) for p in pts])
        assert np.allclose(batch, singles, atol=1e-14)


class TestNormInvariance:
    def test_rigid_invariance_of_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ps = random_set(rng, k=9, m=3)
            t = RigidTransform(
                wrap_angles(rng.uniform(-np.pi, np.pi, 3)), rng.normal(size=3)
            )
            f0 = build_field(ps, model=MODEL)
            f1 = build_field(ps.with_coords(t.apply(ps.coords)), model=MODEL)
            assert abs(f0.norm - f1.norm) < 1e-10

    def test_transformed_field_predicts_at_moved_sources(self):
        rng = np.random.default_rng(9)
        ps = random_set(rng, k=6, m=3)
        t = RigidTransform(wrap_angles(rng.uniform(-3, 3, 3)), rng.normal(size=3))
        f = build_field(ps, model=MODEL).transformed(t)
        moved = t.apply(ps.coords)
        for i in range(ps.k):
            assert abs(f.predict(moved[i]) - ps.marks[i]) < 1e-8

    def test_norm_squared_equals_weight_form(self):
        rng = np.random.default_rng(10)
        ps = random_set(rng, k=7)
        f = build_field(ps, model=MODEL)
        gram = gram_matrix(MODEL, ps.coords)
        assert abs(f.norm**2 - float(f.weights @ gram @ f.weights)) < 1e-9
