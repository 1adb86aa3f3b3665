"""Marked point sets and rigid-body transforms with Euler-angle rotations.

Rotations use the z-x-z factorization Gamma(theta) = Rz(theta3) Rx(theta2)
Rz(theta1) in three dimensions and the standard counterclockwise rotation in
two dimensions.  Angles are stored in radians and wrapped to [-pi, pi);
degree conversion happens at the CLI boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# |cos(theta2)| below this counts as the theta2 = +-pi/2 singularity (a few
# ulps around the representable pi/2); the prior density there is zero.
_GIMBAL_EPS = 1e-15


class DimensionError(ValueError):
    """Array shapes or spatial dimensions do not agree."""


class AngleDomainError(ValueError):
    """Euler angles outside the accepted [-pi, pi] domain."""


def n_euler_angles(dimension: int) -> int:
    """Number of rotation angles in dimension m: m(m-1)/2."""
    return dimension * (dimension - 1) // 2


def wrap_angles(euler) -> np.ndarray:
    """Wrap angles into [-pi, pi)."""
    e = np.atleast_1d(np.asarray(euler, dtype=float))
    return (e + np.pi) % TWO_PI - np.pi


def euler_in_domain(euler) -> bool:
    """True when every angle lies in [-pi, pi] (NaN never does)."""
    return all(abs(a) <= math.pi for a in np.asarray(euler, dtype=float).ravel().tolist())


def _domain_angles(euler) -> list[float]:
    """The angles as a list of floats; AngleDomainError unless each lies
    in [-pi, pi]."""
    e = np.atleast_1d(np.asarray(euler, dtype=float))
    if not euler_in_domain(e):
        raise AngleDomainError(f"angles {e} outside [-pi, pi]")
    return e.tolist()


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MarkedPointSet:
    """Point coordinates in R^m with one scalar mark per point.

    coords: (k, m) array, m in {2, 3}; marks: (k,) array; labels: optional
    per-point identifiers (element symbols in the molecular application).
    """

    coords: np.ndarray
    marks: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        marks = np.asarray(self.marks, dtype=float).ravel()
        if coords.ndim != 2:
            raise DimensionError(f"coords must be 2-d, got shape {coords.shape}")
        k, m = coords.shape
        if m not in (2, 3):
            raise DimensionError(f"dimension must be 2 or 3, got {m}")
        if k < 1:
            raise ValueError("a marked point set needs at least one point")
        if marks.shape[0] != k:
            raise DimensionError(
                f"marks length {marks.shape[0]} does not match {k} points"
            )
        if not np.all(np.isfinite(coords)) or not np.all(np.isfinite(marks)):
            raise ValueError("coordinates and marks must be finite")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != k:
                raise DimensionError("labels length does not match point count")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "marks", _readonly(marks))

    @property
    def k(self) -> int:
        return self.coords.shape[0]

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def with_coords(self, coords) -> "MarkedPointSet":
        return MarkedPointSet(coords, self.marks, self.labels)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation (Euler angles, radians) plus translation acting on R^m."""

    euler: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        euler = np.atleast_1d(np.asarray(self.euler, dtype=float))
        translation = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if translation.ndim != 1 or translation.shape[0] not in (2, 3):
            raise DimensionError("translation must have length 2 or 3")
        m = translation.shape[0]
        if euler.shape != (n_euler_angles(m),):
            raise DimensionError(
                f"expected {n_euler_angles(m)} angles for dimension {m}, "
                f"got {euler.shape[0]}"
            )
        _domain_angles(euler)
        if not np.all(np.isfinite(translation)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "euler", _readonly(euler))
        object.__setattr__(self, "translation", _readonly(translation))

    @classmethod
    def identity(cls, dimension: int) -> "RigidTransform":
        return cls(np.zeros(n_euler_angles(dimension)), np.zeros(dimension))

    @classmethod
    def from_matrix(cls, matrix, translation) -> "RigidTransform":
        return cls(recover_euler(matrix), translation)

    @property
    def dimension(self) -> int:
        return self.translation.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return rotation_matrix(self.euler)

    def apply(self, points) -> np.ndarray:
        return apply_transform(self, points)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equivalent to applying `other` first, then self."""
        q = self.matrix
        r = other.matrix
        return RigidTransform.from_matrix(q @ r, q @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        q = self.matrix.T
        return RigidTransform.from_matrix(q, -q @ self.translation)


def rotation_matrix(euler) -> np.ndarray:
    """Rotation matrix for the given Euler angles.

    m=3 uses Gamma = Rz(theta3) Rx(theta2) Rz(theta1); m=2 is the standard
    planar rotation.  Angles outside [-pi, pi] raise AngleDomainError.
    """
    t = _domain_angles(euler)
    if len(t) == 1:
        c, s = math.cos(t[0]), math.sin(t[0])
        return np.array([[c, -s], [s, c]])
    if len(t) == 3:
        c1, s1 = math.cos(t[0]), math.sin(t[0])
        c2, s2 = math.cos(t[1]), math.sin(t[1])
        c3, s3 = math.cos(t[2]), math.sin(t[2])
        rz1 = np.array([c1, s1, 0.0, -s1, c1, 0.0, 0.0, 0.0, 1.0]).reshape(3, 3)
        rx2 = np.array([1.0, 0.0, 0.0, 0.0, c2, s2, 0.0, -s2, c2]).reshape(3, 3)
        rz3 = np.array([c3, s3, 0.0, -s3, c3, 0.0, 0.0, 0.0, 1.0]).reshape(3, 3)
        return rz3 @ rx2 @ rz1
    raise DimensionError(f"expected 1 or 3 Euler angles, got {len(t)}")


def recover_euler(matrix) -> np.ndarray:
    """Euler angles reproducing the given rotation matrix.

    The z-x-z parametrization is two-to-one, so the returned triple is a
    canonical representative (theta2 in [0, pi]); rebuilding the matrix from
    it reproduces the input.  Matrix entries are clamped to [-1, 1] before
    inverse trigonometry.
    """
    r = np.asarray(matrix, dtype=float)
    if r.shape == (2, 2):
        return wrap_angles([np.arctan2(r[1, 0], r[0, 0])])
    if r.shape != (3, 3):
        raise DimensionError(f"expected a 2x2 or 3x3 matrix, got {r.shape}")
    c2 = float(np.clip(r[2, 2], -1.0, 1.0))
    s2 = float(np.hypot(r[0, 2], r[1, 2]))
    theta2 = np.arctan2(s2, c2)
    if s2 > 1e-12:
        theta3 = np.arctan2(r[0, 2], r[1, 2])
        theta1 = np.arctan2(r[2, 0], -r[2, 1])
    else:
        # Gimbal cases theta2 in {0, pi}: only theta1 + theta3 (or the
        # difference) is determined; put everything into theta1.
        theta3 = 0.0
        theta1 = np.arctan2(np.clip(r[0, 1], -1.0, 1.0), np.clip(r[0, 0], -1.0, 1.0))
    return wrap_angles([theta1, theta2, theta3])


def apply_transform(transform: RigidTransform, points) -> np.ndarray:
    """Map each row x of `points` to Gamma x + gamma."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != transform.dimension:
        raise DimensionError(
            f"points have dimension {pts.shape[1]}, transform {transform.dimension}"
        )
    out = pts @ transform.matrix.T + transform.translation
    return out[0] if single else out


def euler_prior_log_density(euler) -> float:
    """Unnormalized log density of the uniform-rotation prior.

    m=2 is flat (returns 0); m=3 returns log|cos(theta2)|, which reduces to
    log cos(theta2) for theta2 in (-pi/2, pi/2) and is -inf at the
    theta2 = +-pi/2 singularities.
    """
    t = _domain_angles(euler)
    if len(t) == 1:
        return 0.0
    if len(t) == 3:
        c = abs(math.cos(t[1]))
        return math.log(c) if c >= _GIMBAL_EPS else -np.inf
    raise DimensionError(f"expected 1 or 3 Euler angles, got {len(t)}")


def rmsd(a, b) -> float:
    """Root mean square deviation between matching rows of a and b."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def random_rotation(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Rotation matrix drawn uniformly (Haar) from SO(m)."""
    if dimension == 2:
        return rotation_matrix([rng.uniform(-np.pi, np.pi)])
    if dimension != 3:
        raise DimensionError("only dimensions 2 and 3 are supported")
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def principal_axes_transform(coords) -> RigidTransform:
    """Rigid transform mapping a point cloud onto its principal axes.

    The centroid goes to the origin and the coordinate-covariance
    eigenvectors map to the coordinate axes with eigenvalues descending.
    Axis signs are chosen to make each axis's coordinate skewness
    nonnegative; if that choice has determinant -1, the axis with the
    smallest absolute skewness is flipped back to stay inside SO(m).
    """
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    m = pts.shape[1]
    center = pts.mean(axis=0)
    x = pts - center
    cov = x.T @ x / pts.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    rot = eigvecs[:, ::-1].T  # rows = eigenvectors, eigenvalues descending
    proj = x @ rot.T
    skew = np.mean(proj**3, axis=0)
    signs = np.where(skew < 0, -1.0, 1.0)
    rot = rot * signs[:, None]
    if np.linalg.det(rot) < 0:
        j = int(np.argmin(np.abs(skew)))
        rot[j] = -rot[j]
    return RigidTransform.from_matrix(rot, -rot @ center)
