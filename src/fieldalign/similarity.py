"""RKHS inner products and the Kernel Carbo similarity/dissimilarity scores.

The similarity between two kriged fields is their RKHS inner product divided
by the product of their norms (a cosine, so it lies in [-1, 1]); the
dissimilarity transform (1 - C) / (1 + C) maps it to [0, inf].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import kernel_cross
from .geometry import RigidTransform, apply_transform
from .kriging import PredictedField


class ModelMismatchError(ValueError):
    """The two fields were built with different kernel models."""


def dissimilarity_from_similarity(similarity: float) -> float:
    """Map a similarity in [-1, 1] to [0, inf] via (1 - C) / (1 + C)."""
    if similarity <= -1.0:
        return np.inf
    return (1.0 - similarity) / (1.0 + similarity)


def similarity_from_dissimilarity(dissimilarity: float) -> float:
    """Inverse of the dissimilarity transform (the map is an involution)."""
    if not np.isfinite(dissimilarity):
        return -1.0
    return (1.0 - dissimilarity) / (1.0 + dissimilarity)


@dataclass(frozen=True)
class CarboScore:
    """Raw inner product, field norms, and the derived (dis)similarity."""

    inner: float
    norm_a: float
    norm_b: float
    similarity: float
    dissimilarity: float

    @classmethod
    def from_inner(cls, inner: float, norm_a: float, norm_b: float) -> "CarboScore":
        sim = float(np.clip(inner / (norm_a * norm_b), -1.0, 1.0))
        return cls(inner, norm_a, norm_b, sim, dissimilarity_from_similarity(sim))

    @classmethod
    def from_dissimilarity(cls, dissimilarity: float) -> "CarboScore":
        """Score carrying only a combined dissimilarity (multi-channel runs);
        the raw inner product and norms are not meaningful there."""
        sim = similarity_from_dissimilarity(dissimilarity)
        return cls(np.nan, np.nan, np.nan, sim, dissimilarity)


def rkhs_inner(
    field_a: PredictedField,
    field_b: PredictedField,
    transform_b: RigidTransform | None = None,
) -> float:
    """RKHS inner product of two fields with field_b rigidly transformed.

    Evaluates the double sum over unmasked pairs of
    w_i^A w_j^B sigma(||x_i^A - Phi(x_j^B)||); no numerical integration.
    """
    if field_a.model != field_b.model:
        raise ModelMismatchError(
            f"kernel models differ: {field_a.model} vs {field_b.model}"
        )
    coords_b = field_b.active_coords
    if transform_b is not None:
        coords_b = apply_transform(transform_b, coords_b)
    k = kernel_cross(field_a.model, field_a.active_coords, coords_b)
    return float(field_a.weights @ k @ field_b.weights)


def partial_carbo(
    field_a: PredictedField,
    field_b: PredictedField,
    transform_b: RigidTransform | None = None,
) -> CarboScore:
    """Partial Kernel Carbo score of two masked fields in relative position
    transform_b (similarity in [-1, 1] by Cauchy-Schwarz)."""
    inner = rkhs_inner(field_a, field_b, transform_b)
    return CarboScore.from_inner(inner, field_a.norm, field_b.norm)


def combined_carbo(dissimilarity_q: float, dissimilarity_s: float, weight_q: float) -> float:
    """Weighted combination of two channel dissimilarities.

    Returns weight_q * D_Q + (1 - weight_q) * D_S; a zero-weight channel is
    skipped entirely so an infinite dissimilarity there cannot leak in.
    """
    if not 0.0 <= weight_q <= 1.0:
        raise ValueError("weight_q must lie in [0, 1]")
    total = 0.0
    if weight_q > 0.0:
        total += weight_q * dissimilarity_q
    if weight_q < 1.0:
        total += (1.0 - weight_q) * dissimilarity_s
    return total
