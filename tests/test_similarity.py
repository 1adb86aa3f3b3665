import numpy as np
import pytest

from fieldalign.covariance import GAUSSIAN, MATERN, CovarianceModel
from fieldalign.geometry import (
    MarkedPointSet,
    RigidTransform,
    apply_transform,
    recover_euler,
    wrap_angles,
)
from fieldalign.kriging import build_field
from fieldalign.similarity import (
    ModelMismatchError,
    combined_carbo,
    dissimilarity_from_similarity,
    partial_carbo,
    rkhs_inner,
)

MODEL = CovarianceModel(MATERN, rho=0.4, nu=0.5)


def random_masked_field(rng, k=9, m=2, model=MODEL):
    ps = MarkedPointSet(rng.uniform(0, 1, (k, m)), rng.standard_normal(k))
    mask = rng.random(k) < 0.7
    if not mask.any():
        mask[0] = True
    return ps, build_field(ps, mask=mask, model=model)


def brute_force_inner(field_a, field_b, transform_b=None):
    from fieldalign.covariance import kernel_value

    coords_b = field_b.active_coords
    if transform_b is not None:
        coords_b = apply_transform(transform_b, coords_b)
    total = 0.0
    for wi, xi in zip(field_a.weights, field_a.active_coords):
        for wj, xj in zip(field_b.weights, coords_b):
            total += wi * wj * kernel_value(field_a.model, np.linalg.norm(xi - xj))
    return total


class TestRkhsInner:
    def test_self_inner_is_norm_squared(self):
        rng = np.random.default_rng(0)
        _, f = random_masked_field(rng)
        assert abs(rkhs_inner(f, f) - f.norm**2) < 1e-12

    def test_single_point_fields(self):
        model = CovarianceModel(GAUSSIAN, rho=1.0)
        a = build_field(MarkedPointSet([[0.0, 0.0]], [2.0]), model=model)
        b = build_field(MarkedPointSet([[1.0, 0.0]], [3.0]), model=model)
        # separation 1 = rho so sigma = e^{-1}; single-term sum 2*3*e^{-1}
        assert abs(rkhs_inner(a, b) - 6.0 * np.exp(-1.0)) < 1e-12

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, fa = random_masked_field(rng)
            _, fb = random_masked_field(rng)
            t = RigidTransform(
                wrap_angles(rng.uniform(-np.pi, np.pi, 1)), rng.normal(size=2)
            )
            assert abs(rkhs_inner(fa, fb, t) - brute_force_inner(fa, fb, t)) < 1e-10

    def test_model_mismatch(self):
        rng = np.random.default_rng(2)
        _, fa = random_masked_field(rng)
        _, fb = random_masked_field(rng, model=CovarianceModel(GAUSSIAN, rho=0.4))
        with pytest.raises(ModelMismatchError):
            rkhs_inner(fa, fb)


class TestPartialCarbo:
    def test_self_similarity_one(self):
        rng = np.random.default_rng(3)
        _, f = random_masked_field(rng)
        score = partial_carbo(f, f)
        assert abs(score.similarity - 1.0) < 1e-12
        assert score.dissimilarity < 1e-12

    def test_negated_marks_give_minus_one(self):
        rng = np.random.default_rng(4)
        ps, f = random_masked_field(rng)
        neg = MarkedPointSet(ps.coords, -ps.marks)
        fneg = build_field(neg, mask=f.mask, model=MODEL)
        score = partial_carbo(f, fneg)
        assert abs(score.similarity + 1.0) < 1e-12
        # rounding may leave similarity a hair above -1; the dissimilarity
        # must still blow up, and hits +inf exactly at -1
        assert score.dissimilarity > 1e10
        assert dissimilarity_from_similarity(-1.0) == np.inf

    def test_dissimilarity_formula(self):
        assert abs(dissimilarity_from_similarity(0.5) - 1.0 / 3.0) < 1e-15
        assert dissimilarity_from_similarity(1.0) == 0.0
        assert dissimilarity_from_similarity(-1.0) == np.inf

    def test_dissimilarity_decreasing_in_similarity(self):
        s = np.linspace(-0.999, 1.0, 200)
        d = [dissimilarity_from_similarity(v) for v in s]
        assert all(d[i] > d[i + 1] for i in range(len(d) - 1))

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            _, fa = random_masked_field(rng)
            _, fb = random_masked_field(rng)
            t = RigidTransform(
                wrap_angles(rng.uniform(-np.pi, np.pi, 1)), rng.normal(size=2)
            )
            score = partial_carbo(fa, fb, t)
            assert -1.0 <= score.similarity <= 1.0
            assert abs(score.similarity - score.inner / (score.norm_a * score.norm_b)) < 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        ps_a, fa = random_masked_field(rng)
        ps_b, fb = random_masked_field(rng)
        base = partial_carbo(fa, fb).similarity
        for c in (2.5, 0.1):
            scaled = build_field(
                MarkedPointSet(ps_b.coords, c * ps_b.marks), mask=fb.mask, model=MODEL
            )
            assert abs(partial_carbo(fa, scaled).similarity - base) < 1e-12
        flipped = build_field(
            MarkedPointSet(ps_b.coords, -3.0 * ps_b.marks), mask=fb.mask, model=MODEL
        )
        assert abs(partial_carbo(fa, flipped).similarity + base) < 1e-12

    def test_symmetry_under_inverse_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            _, fa = random_masked_field(rng, m=3)
            _, fb = random_masked_field(rng, m=3)
            t = RigidTransform(
                wrap_angles(rng.uniform(-np.pi, np.pi, 3)), rng.normal(size=3)
            )
            s1 = partial_carbo(fa, fb, t).similarity
            s2 = partial_carbo(fb, fa, t.inverse()).similarity
            assert abs(s1 - s2) < 1e-10

    def test_joint_rigid_invariance(self):
        rng = np.random.default_rng(8)
        ps_a, fa = random_masked_field(rng, m=3)
        ps_b, fb = random_masked_field(rng, m=3)
        t = RigidTransform(wrap_angles(rng.uniform(-3, 3, 3)), rng.normal(size=3))
        base = partial_carbo(fa, fb, t).similarity
        # apply a common rigid motion R to both sets and conjugate the
        # relative transform: Phi' = R o Phi o R^{-1}
        r = RigidTransform(wrap_angles(rng.uniform(-3, 3, 3)), rng.normal(size=3))
        fa2 = build_field(
            ps_a.with_coords(r.apply(ps_a.coords)), mask=fa.mask, model=MODEL
        )
        fb2 = build_field(
            ps_b.with_coords(r.apply(ps_b.coords)), mask=fb.mask, model=MODEL
        )
        t2 = r.compose(t).compose(r.inverse())
        moved = partial_carbo(fa2, fb2, t2).similarity
        assert abs(base - moved) < 1e-9


class TestCombinedCarbo:
    def test_endpoints(self):
        assert combined_carbo(0.2, 0.4, 1.0) == 0.2
        assert combined_carbo(0.2, 0.4, 0.0) == 0.4

    def test_midpoint(self):
        assert abs(combined_carbo(0.2, 0.4, 0.5) - 0.3) < 1e-15

    def test_zero_weight_skips_infinite_channel(self):
        assert combined_carbo(np.inf, 0.1, 0.0) == 0.1
        assert combined_carbo(0.1, np.inf, 1.0) == 0.1

    def test_weight_domain(self):
        with pytest.raises(ValueError):
            combined_carbo(0.2, 0.2, 1.5)


class TestL2QuadratureOracle:
    """For the Gaussian kernel the L2 Carbo index has a closed form; a grid
    quadrature cross-checks it, and the RKHS Carbo index of the same fields
    must agree with the L2 index evaluated at range rho*sqrt(2) (Gaussian
    product identity) and share its order of magnitude."""

    def test_l2_vs_rkhs_orders_of_magnitude(self):
        rng = np.random.default_rng(9)
        model = CovarianceModel(GAUSSIAN, rho=0.5)
        ps_a = MarkedPointSet(rng.uniform(0.3, 0.7, (4, 2)), rng.standard_normal(4) + 1.0)
        ps_b = MarkedPointSet(rng.uniform(0.3, 0.7, (4, 2)), rng.standard_normal(4) + 1.0)
        fa = build_field(ps_a, model=model)
        fb = build_field(ps_b, model=model)

        xs = np.linspace(-2.0, 3.0, 181)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        grid = np.column_stack([xx.ravel(), yy.ravel()])
        va = fa.predict(grid)
        vb = fb.predict(grid)
        l2 = float(va @ vb) / np.sqrt(float(va @ va) * float(vb @ vb))

        # Gaussian product identity: the L2 inner product of the kriged
        # fields equals the original weights contracted against the kernel
        # at range rho * sqrt(2) (up to a common constant that cancels)
        from fieldalign.covariance import kernel_cross

        wide = CovarianceModel(GAUSSIAN, rho=0.5 * np.sqrt(2.0))
        kab = fa.weights @ kernel_cross(wide, fa.active_coords, fb.active_coords) @ fb.weights
        kaa = fa.weights @ kernel_cross(wide, fa.active_coords, fa.active_coords) @ fa.weights
        kbb = fb.weights @ kernel_cross(wide, fb.active_coords, fb.active_coords) @ fb.weights
        l2_closed = float(kab / np.sqrt(kaa * kbb))
        assert abs(l2 - l2_closed) < 0.01

        rkhs = partial_carbo(fa, fb).similarity
        assert np.sign(rkhs) == np.sign(l2)
        assert 0.2 < abs(rkhs) / abs(l2) < 5.0
