import numpy as np
import pytest

from fieldalign.geometry import (
    AngleDomainError,
    DimensionError,
    MarkedPointSet,
    RigidTransform,
    apply_transform,
    euler_in_domain,
    euler_prior_log_density,
    principal_axes_transform,
    random_rotation,
    recover_euler,
    rmsd,
    rotation_matrix,
    wrap_angles,
)


class TestMarkedPointSet:
    def test_basic_construction(self):
        ps = MarkedPointSet([[0.0, 0.0], [1.0, 0.0]], [1.0, -2.0])
        assert ps.k == 2
        assert ps.dimension == 2

    def test_marks_length_mismatch(self):
        with pytest.raises(DimensionError):
            MarkedPointSet([[0.0, 0.0]], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MarkedPointSet([[0.0, np.nan]], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            MarkedPointSet(np.zeros((0, 2)), [])

    def test_immutable(self):
        ps = MarkedPointSet([[0.0, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0


class TestRotationMatrix:
    def test_zero_angles_identity(self):
        assert np.allclose(rotation_matrix([0.0, 0.0, 0.0]), np.eye(3))

    def test_printed_product_quarter_turn(self):
        # substitute theta = (pi/2, 0, 0) into the triple product by hand
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(rotation_matrix([np.pi / 2, 0.0, 0.0]), expected, atol=1e-15)

    def test_planar_half_turn(self):
        assert np.allclose(rotation_matrix([np.pi]), [[-1.0, 0.0], [0.0, -1.0]], atol=1e-12)

    def test_composition_order(self):
        # theta3-factor . theta2-factor . theta1-factor
        t1, t2, t3 = 0.3, 0.4, 0.5
        rz1 = rotation_matrix([t1, 0.0, 0.0])
        rz3 = rotation_matrix([t3, 0.0, 0.0])
        rx2 = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(t2), np.sin(t2)],
                [0.0, -np.sin(t2), np.cos(t2)],
            ]
        )
        assert np.allclose(rotation_matrix([t1, t2, t3]), rz3 @ rx2 @ rz1, atol=1e-14)

    def test_special_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            e = rng.uniform(-np.pi, np.pi, 3)
            g = rotation_matrix(e)
            assert np.allclose(g.T @ g, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(g) - 1.0) < 1e-12

    def test_out_of_domain_errors(self):
        with pytest.raises(AngleDomainError):
            rotation_matrix([7.0, 0.0, 0.0])

    def test_round_trip_through_angles(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_rotation(rng, 3)
            e = recover_euler(g)
            assert np.allclose(rotation_matrix(e), g, atol=1e-10)

    def test_round_trip_2d(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_rotation(rng, 2)
            assert np.allclose(rotation_matrix(recover_euler(g)), g, atol=1e-12)

    def test_recover_gimbal(self):
        g = rotation_matrix([0.7, 0.0, 0.0])
        assert np.allclose(rotation_matrix(recover_euler(g)), g, atol=1e-12)


class TestApplyTransform:
    def test_identity(self):
        pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        t = RigidTransform.identity(3)
        assert np.allclose(apply_transform(t, pts), pts)

    def test_pure_translation(self):
        t = RigidTransform([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert np.allclose(apply_transform(t, [0.0, 0.0, 0.0]), [1.0, 2.0, 3.0])

    def test_isometry(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = RigidTransform(
                wrap_angles(rng.uniform(-np.pi, np.pi, 3)), rng.normal(size=3)
            )
            x, y = rng.normal(size=(2, 3))
            d0 = np.linalg.norm(x - y)
            d1 = np.linalg.norm(apply_transform(t, x) - apply_transform(t, y))
            assert abs(d0 - d1) < 1e-12

    def test_dimension_mismatch(self):
        t = RigidTransform.identity(3)
        with pytest.raises(DimensionError):
            apply_transform(t, np.zeros((2, 2)))

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(5)
        a = RigidTransform(wrap_angles(rng.uniform(-3, 3, 3)), rng.normal(size=3))
        b = RigidTransform(wrap_angles(rng.uniform(-3, 3, 3)), rng.normal(size=3))
        x = rng.normal(size=(4, 3))
        assert np.allclose(a.apply(b.apply(x)), a.compose(b).apply(x), atol=1e-12)
        assert np.allclose(a.inverse().apply(a.apply(x)), x, atol=1e-12)


class TestEulerPrior:
    def test_flat_center(self):
        assert euler_prior_log_density([0.1, 0.0, -0.3]) == 0.0

    def test_cos_value(self):
        assert abs(euler_prior_log_density([0.0, np.pi / 3, 0.0]) - np.log(0.5)) < 1e-12

    def test_singularity(self):
        assert euler_prior_log_density([0.0, -np.pi / 2, 0.0]) == -np.inf

    def test_2d_flat(self):
        assert euler_prior_log_density([1.2]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 3.5])
    def test_angles_outside_domain_raise(self, bad):
        assert not euler_in_domain([0.0, bad, 0.0])
        with pytest.raises(AngleDomainError):
            euler_prior_log_density([0.0, bad, 0.0])
        with pytest.raises(AngleDomainError):
            rotation_matrix([bad])


class TestRmsd:
    def test_zero_for_equal(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert rmsd(a, a) == 0.0

    def test_three_four_five(self):
        assert abs(rmsd([[0.0, 0.0]], [[3.0, 4.0]]) - 5.0) < 1e-12

    def test_two_row_offsets(self):
        a = np.zeros((2, 2))
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert abs(rmsd(a, b) - 1.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            rmsd(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_zero_under_identity_transform(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 3))
        assert rmsd(a, apply_transform(RigidTransform.identity(3), a)) == 0.0


class TestRandomRotation:
    def test_haar_samples_are_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            q = random_rotation(rng, 3)
            assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(q) - 1.0) < 1e-12


class TestPrincipalAxes:
    def test_axes_sorted_and_centered(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3)) * np.array([5.0, 2.0, 0.5])
        pts += rng.normal(size=3)
        t = principal_axes_transform(pts)
        moved = apply_transform(t, pts)
        assert np.allclose(moved.mean(axis=0), 0.0, atol=1e-10)
        var = moved.var(axis=0)
        assert var[0] >= var[1] >= var[2]
        assert abs(np.linalg.det(t.matrix) - 1.0) < 1e-10
