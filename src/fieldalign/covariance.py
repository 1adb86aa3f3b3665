"""Isotropic positive-definite kernels used both as field covariances and as
reproducing kernels.

Two families are supported: the Matern covariance in the range/smoothness
parametrization sigma(d) = (2 sqrt(nu) d / rho)^nu K_nu(2 sqrt(nu) d / rho)
/ (2^(nu-1) Gamma(nu)), and its nu -> infinity limit, the Gaussian kernel
exp(-d^2 / rho^2).  Both satisfy sigma(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.special import kv

MATERN = "matern"
GAUSSIAN = "gaussian"

_HALF_INT_TOL = 1e-12
# diagonal shifts gram_cholesky tries in turn
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


class KernelDomainError(ValueError):
    """Invalid kernel argument (negative distance or nonpositive Bessel x)."""


class SingularGramError(RuntimeError):
    """Gram matrix not factorizable even after jitter escalation."""


@dataclass(frozen=True)
class CovarianceModel:
    """Isotropic kernel specification: kind, range rho, smoothness nu."""

    kind: str
    rho: float
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in (MATERN, GAUSSIAN):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be a positive finite real")
        if self.kind == MATERN:
            if self.nu is None or not (np.isfinite(self.nu) and self.nu > 0):
                raise ValueError("Matern kernels need a positive smoothness nu")
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for Matern kernels")

    def with_rho(self, rho: float) -> "CovarianceModel":
        return replace(self, rho=float(rho))


def modified_bessel_k(nu: float, x) -> float | np.ndarray:
    """Modified Bessel function of the third kind K_nu(x), x > 0, by scipy's
    `kv` (Amos's algorithm)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise KernelDomainError("modified_bessel_k needs x > 0")
    if nu <= 0:
        raise KernelDomainError("modified_bessel_k needs nu > 0")
    out = kv(nu, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def kernel_value(model: CovarianceModel, distance) -> float | np.ndarray:
    """Kernel value sigma(d) in (0, 1], with sigma(0) = 1 exactly."""
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise KernelDomainError("distances must be finite and nonnegative")
    out = kernel_evaluator(model)(np.atleast_1d(d))
    return float(out[0]) if d.ndim == 0 else out.reshape(d.shape)


def kernel_evaluator(model: CovarianceModel):
    """Vectorized sigma(d) evaluator without argument validation.

    The one kernel implementation: kernel_value validates its distances
    and calls it, and hot loops over cdist outputs (finite and nonnegative
    by construction) call it directly.  It evaluates elementwise, except that
    the general Matern calls K_nu once per distinct positive distance.
    """
    rho = model.rho
    if model.kind == GAUSSIAN:
        inv = 1.0 / (rho * rho)

        def gaussian(d):
            return np.exp(-inv * d * d)

        return gaussian
    nu = float(model.nu)
    if abs(nu - 0.5) < _HALF_INT_TOL:
        c = -np.sqrt(2.0) / rho

        def exponential(d):
            return np.exp(c * d)

        return exponential
    scale = 2.0 * np.sqrt(nu) / rho
    denom = 2.0 ** (nu - 1.0) * math.gamma(nu)

    def general(d):
        a = scale * np.asarray(d, dtype=float)
        out = np.ones_like(a)
        pos = a > 0
        if np.any(pos):
            ap, inverse = np.unique(a[pos], return_inverse=True)
            out[pos] = (ap**nu * modified_bessel_k(nu, ap) / denom)[inverse]
        return out

    return general


def kernel_cross(model: CovarianceModel, coords_a, coords_b) -> np.ndarray:
    """Kernel matrix sigma(||x_i - y_j||) between two coordinate blocks."""
    return kernel_value(model, cdist(np.atleast_2d(coords_a), np.atleast_2d(coords_b)))


def gram_matrix(model: CovarianceModel, coords) -> np.ndarray:
    """Gram matrix Sigma_ij = sigma(||x_i - x_j||); sigma is evaluated once
    per pair i < j, on pdist(coords), and sigma(0) = 1."""
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    g = squareform(kernel_value(model, pdist(pts)), checks=False)
    np.fill_diagonal(g, 1.0)
    return g


def _closest_pair(coords) -> tuple[int, int, float]:
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    d = pdist(pts)
    flat = int(np.argmin(d))
    ii, jj = np.triu_indices(pts.shape[0], 1)  # condensed (pdist) order
    return int(ii[flat]), int(jj[flat]), float(d[flat])


def gram_cholesky(
    model: CovarianceModel,
    coords,
    gram: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the Gram matrix and the jitter it needed.

    Factors the plain matrix first and, on failure, walks the jitter ladder
    1e-12, 1e-10, 1e-8 before raising SingularGramError naming the closest
    point pair.  A precomputed jitter-free Gram matrix may be passed to skip
    the kernel evaluation.
    """
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    base = gram_matrix(model, pts) if gram is None else gram
    for j in JITTER_LADDER:
        try:
            g = base + j * np.eye(pts.shape[0]) if j else base
            return np.linalg.cholesky(g), j
        except np.linalg.LinAlgError:
            continue
    if pts.shape[0] >= 2:
        i, jdx, dist = _closest_pair(pts)
        raise SingularGramError(
            f"Gram matrix is singular even with jitter {JITTER_LADDER[-1]:g}; "
            f"closest points {i} and {jdx} at distance {dist:g}"
        )
    raise SingularGramError("Gram matrix is singular")


def empirical_semivariogram(
    point_sets, bin_width: float
) -> list[tuple[float, float, int]]:
    """Pooled empirical semivariogram over one or more marked point sets.

    Classical estimator: for each distance bin, half the mean squared mark
    difference over all within-set point pairs falling in the bin, pooled
    across sets.  Empty bins are omitted.  Returns (bin center, semivariance,
    pair count) triples sorted by lag.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    usable = 0
    for ps in point_sets:
        if ps.k < 2:
            continue
        usable += 1
        d = pdist(ps.coords)
        z = ps.marks
        k = ps.k
        ii, jj = np.triu_indices(k, 1)
        sq = (z[ii] - z[jj]) ** 2
        bins = np.floor(d / bin_width).astype(int)
        for b in np.unique(bins):
            sel = bins == b
            sums[b] = sums.get(b, 0.0) + float(sq[sel].sum())
            counts[b] = counts.get(b, 0) + int(sel.sum())
    if usable == 0:
        raise ValueError("need at least one point set with two or more points")
    return [
        ((b + 0.5) * bin_width, 0.5 * sums[b] / counts[b], counts[b])
        for b in sorted(sums)
    ]
