"""Simple kriging: weight computation, masked field prediction, RKHS norms.

A predicted field is Zhat(x) = sum over unmasked points i of
w_i sigma(x_i - x) with weights solving Sigma w = z on the unmasked
sub-Gram.  The squared RKHS norm is w' Sigma w = w' z, cached at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .covariance import CovarianceModel, gram_cholesky, kernel_cross
from .geometry import MarkedPointSet, RigidTransform, apply_transform


class EmptyFieldError(ValueError):
    """Every point is masked out; the predicted field is undefined."""


class DegenerateFieldError(ValueError):
    """The masked field has zero RKHS norm (all effective marks zero)."""


# squared RKHS norms at or below this count as zero
_NORM_SQ_FLOOR = 1e-300
# matrix entries per triangular solve; OpenBLAS solves blocks up to about this
# size on the calling thread.  Larger solves wake its helper threads, which
# then spin between the frequent rebuilds and take the cores of concurrent
# chains (two pool workers on two cores ran at half speed).
_SOLVE_BLOCK_ENTRIES = 1000


def solve_weights(gram_chol_lower: np.ndarray, marks) -> np.ndarray:
    """Solve Sigma w = z given the lower Cholesky factor of Sigma; marks may
    hold several right-hand sides as columns.  LAPACK dpotrs solves a
    Fortran-ordered copy in place, at most _SOLVE_BLOCK_ENTRIES entries per
    call; each column is contiguous, so w'z sums as on a plain vector."""
    x = np.array(marks, dtype=float, order="F")
    cols = x.reshape(x.shape[0], -1, order="F")  # a view, (n,) -> (n, 1)
    chol = np.asfortranarray(gram_chol_lower)
    step = max(1, _SOLVE_BLOCK_ENTRIES // x.shape[0])
    for i in range(0, cols.shape[1], step):
        dpotrs(chol, cols[:, i:i + step], lower=1, overwrite_b=1)
    return x


def kriging_solve(
    model: CovarianceModel,
    coords,
    marks,
    gram: np.ndarray | None = None,
    inverse: bool = False,
) -> tuple[float, np.ndarray, float, np.ndarray | None]:
    """Solve Sigma w = z on the given points (optionally from their
    precomputed jitter-free Gram matrix): returns the jitter Sigma needed,
    w, the squared RKHS norm w'z and, with inverse=True, Sigma^-1 from the
    same solve on [z | I] (else None)."""
    chol, jitter = gram_cholesky(model, coords, gram=gram)
    z = np.asarray(marks, dtype=float)
    if inverse:
        rhs = np.eye(z.shape[0], z.shape[0] + 1, 1)
        rhs[:, 0] = z
        x = solve_weights(chol, rhs)
        weights, inv = x[:, 0], x[:, 1:]
    else:
        weights, inv = solve_weights(chol, z), None
    norm_sq = float(weights @ z)
    if norm_sq <= _NORM_SQ_FLOOR:
        raise DegenerateFieldError("masked field has zero RKHS norm")
    return jitter, weights, norm_sq, inv


def kernel_sum(model: CovarianceModel, centers, coeffs, x) -> float | np.ndarray:
    """sum_l coeffs_l sigma(||centers_l - x||) at one point (m,) or at each
    row of a batch (n, m): the evaluator of kriged and mean fields."""
    pts = np.asarray(x, dtype=float)
    out = kernel_cross(model, np.atleast_2d(pts), centers) @ coeffs
    return float(out[0]) if pts.ndim == 1 else out


@dataclass(frozen=True, eq=False)
class PredictedField:
    """Kriged (masked) prediction of the reference field from one point set.

    source_coords holds all k source positions (post-transform); weights has
    one entry per unmasked point; norm is the RKHS norm of the masked field.
    Instances are immutable and safe to share across threads.
    """

    source_coords: np.ndarray
    mask: np.ndarray
    weights: np.ndarray
    model: CovarianceModel
    norm: float

    def __post_init__(self):
        for name in ("source_coords", "mask", "weights"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def active_coords(self) -> np.ndarray:
        return self.source_coords[self.mask]

    @property
    def normalized_weights(self) -> np.ndarray:
        return self.weights / self.norm

    def predict(self, x) -> float | np.ndarray:
        """Evaluate the field at one point (m,) or a batch (n, m)."""
        return kernel_sum(self.model, self.active_coords, self.weights, x)

    def transformed(self, transform: RigidTransform) -> "PredictedField":
        """Same field with rigidly moved sources; weights and norm carry over
        unchanged because the kernel is isotropic."""
        return PredictedField(
            apply_transform(transform, self.source_coords),
            self.mask,
            self.weights,
            self.model,
            self.norm,
        )


def build_field(
    points: MarkedPointSet,
    mask=None,
    model: CovarianceModel | None = None,
) -> PredictedField:
    """Krige a (masked) point set into a PredictedField (zero-mean simple
    kriging); mask entries select contributing points (default: all)."""
    if model is None:
        raise ValueError("a CovarianceModel is required")
    if mask is None:
        mask = np.ones(points.k, dtype=bool)
    mask = np.asarray(mask).astype(bool)
    if mask.shape != (points.k,):
        raise ValueError("mask length must equal the number of points")
    if not mask.any():
        raise EmptyFieldError("all points are masked out")
    _, weights, norm_sq, _ = kriging_solve(model, points.coords[mask], points.marks[mask])
    return PredictedField(points.coords, mask, weights, model, float(np.sqrt(norm_sq)))
