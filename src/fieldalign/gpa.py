"""Stochastic field GPA: simultaneous alignment of n marked point sets.

Each set is kriged into a normalized field (unit RKHS norm); the multiple
Carbo criterion sums the pairwise inner products of these fields at the
current transforms.  Optimization proceeds by repeated leave-one-out
superpositions: each set in turn is aligned, by a short high-precision MCMC
chain, onto the normalized mean field of the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceModel
from .geometry import RigidTransform
from .kriging import PredictedField, build_field, kernel_sum
from .mcmc import (
    AlignmentResult,
    Hyperparameters,
    InitSpec,
    run_pairwise_alignment,
    run_reference_alignment,
)
from .similarity import partial_carbo


@dataclass(frozen=True, eq=False)
class MeanField:
    """Scaled sum of normalized member fields at fixed transforms.

    Evaluation at x is scale * sum_j sum_l w~_l^j sigma(||T_j(x_l^j) - x||)
    over the included sets j and their unmasked points l.
    """

    component_coords: tuple[np.ndarray, ...]
    component_coeffs: tuple[np.ndarray, ...]
    model: CovarianceModel
    scale: float

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        coords = np.vstack(self.component_coords)
        coeffs = np.concatenate(
            [self.scale * c for c in self.component_coeffs]
        )
        return coords, coeffs

    def evaluate(self, x) -> float | np.ndarray:
        return kernel_sum(self.model, *self.stacked(), x)


@dataclass(eq=False)
class GpaState:
    """Transforms, masks and criterion value of a multiple superposition."""

    transforms: list[RigidTransform]
    masks: list[np.ndarray]
    multi_carbo: float
    iteration: int
    converged: bool
    criterion_history: list[float]


@dataclass(frozen=True)
class GpaConfig:
    """Step-1 pairwise profile, inner-chain profile and loop controls."""

    step1_hyper: Hyperparameters
    step1_init: InitSpec
    refine_hyper: Hyperparameters
    tol: float = 1e-4
    max_passes: int = 50

    def __post_init__(self):
        if self.max_passes < 1:
            raise ValueError("at least one leave-one-out pass is required")
        if not self.tol >= 0:  # NaN too; inf stops after one pass
            raise ValueError("tol must be nonnegative")


def _placed_field(points, transform, mask, model: CovarianceModel) -> PredictedField:
    """Kriged field of a masked set, moved by its transform."""
    return build_field(points, mask=mask, model=model).transformed(transform)


def _placed_fields(sets, transforms, masks, model: CovarianceModel) -> list[PredictedField]:
    if len(sets) < 2:
        raise ValueError("multiple alignment needs at least two sets")
    return [_placed_field(*args, model) for args in zip(sets, transforms, masks)]


def _multi_carbo(fields) -> float:
    total = 0.0
    for a, b in itertools.combinations(fields, 2):
        total += partial_carbo(a, b).similarity
    return total


def multi_carbo(sets, transforms, masks, model: CovarianceModel) -> float:
    """Goodness of fit of a multiple superposition: the sum over unordered
    pairs of normalized-field inner products at the current transforms."""
    return _multi_carbo(_placed_fields(sets, transforms, masks, model))


def leave_one_out_similarity(
    i: int, sets, transforms, masks, model: CovarianceModel
) -> float:
    """Inner product of the i-th normalized field with the normalized mean
    field of the others; summing over i recovers 2 C / (n - 1)."""
    fields = _placed_fields(sets, transforms, masks, model)
    total = 0.0
    for j, field in enumerate(fields):
        if j != i:
            total += partial_carbo(fields[i], field).similarity
    return total / (len(fields) - 1)


def _mean_field(fields) -> MeanField:
    return MeanField(
        tuple(f.active_coords for f in fields),
        tuple(f.normalized_weights for f in fields),
        fields[0].model,
        scale=1.0 / len(fields),
    )


def mean_field_excluding(i: int, fields) -> MeanField:
    """Normalized mean field over all placed fields but the i-th."""
    return _mean_field([f for j, f in enumerate(fields) if j != i])


def group_mean_field(
    sets, transforms, masks, model: CovarianceModel, group_indices
) -> MeanField:
    """Mean of the normalized member fields of a group at fixed transforms."""
    indices = list(group_indices)
    if not indices:
        raise ValueError("the group must contain at least one set")
    return _mean_field(
        [_placed_field(sets[j], transforms[j], masks[j], model) for j in indices]
    )


def run_field_gpa(
    sets,
    model: CovarianceModel,
    config: GpaConfig,
    rng_seed,
) -> tuple[GpaState, list[AlignmentResult]]:
    """Stochastic field GPA.

    Step 1 superimposes every set pairwise onto the smallest one (by point
    count, ties broken by input order).  Each subsequent pass runs one
    short high-precision chain per set against the leave-one-out normalized
    mean field, then recomputes the multiple Carbo index; the loop stops
    when the absolute improvement drops to `tol` or `max_passes` is hit.
    """
    n = len(sets)
    if n < 2:
        raise ValueError("multiple alignment needs at least two sets")
    m = sets[0].dimension
    seeds = np.random.SeedSequence(rng_seed).spawn(n - 1 + config.max_passes * n)
    seed_iter = iter(seeds)

    ref = min(range(n), key=lambda i: (sets[i].k, i))
    transforms: list[RigidTransform] = [RigidTransform.identity(m) for _ in range(n)]
    masks: list[np.ndarray] = [np.ones(s.k, dtype=bool) for s in sets]
    for j in range(n):
        if j == ref:
            continue
        res = run_pairwise_alignment(
            sets[ref], sets[j], model, config.step1_hyper, config.step1_init,
            next(seed_iter),
        )
        transforms[j] = res.map_state.transform
        masks[j] = res.map_state.mask_b.copy()

    # placed fields, each rebuilt when its set moves
    fields = _placed_fields(sets, transforms, masks, model)
    criterion = _multi_carbo(fields)
    history = [criterion]
    results: list[AlignmentResult] = [None] * n  # type: ignore[list-item]
    passes = 0
    converged = False
    while passes < config.max_passes:
        passes += 1
        for i in range(n):
            mf = mean_field_excluding(i, fields)
            ref_coords, ref_coeffs = mf.stacked()
            res = run_reference_alignment(
                ref_coords,
                ref_coeffs,
                sets[i],
                model,
                config.refine_hyper,
                transforms[i],
                masks[i],
                next(seed_iter),
            )
            transforms[i] = res.map_state.transform
            masks[i] = res.map_state.mask_b.copy()
            fields[i] = _placed_field(sets[i], transforms[i], masks[i], model)
            results[i] = res
        updated = _multi_carbo(fields)
        improvement = abs(updated - criterion)
        criterion = updated
        history.append(criterion)
        if improvement <= config.tol:
            converged = True
            break
    state = GpaState(
        transforms=transforms,
        masks=masks,
        multi_carbo=criterion,
        iteration=passes,
        converged=converged,
        criterion_history=history,
    )
    return state, results
