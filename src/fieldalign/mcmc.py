"""Bayesian pairwise alignment by Gibbs-within-Metropolis sampling.

The posterior over (rotation, translation, masks, precision) combines an
exponential (or half-normal) likelihood in the Kernel Carbo dissimilarity, a
Gamma prior on the precision, the mask penalty/interaction prior and the
rotation prior.  One sweep updates, in order: the rotation block, the
translation block, the precision (Gibbs), the mask of set A and the mask of
set B.  Dynamic range/weight schedules, periodic escape proposals and
threshold-triggered restarts are layered on top.

Mask flips update the kriging state incrementally.  Point coordinates within
a set never move, so each channel caches the full Gram matrix of each set
(recomputed only when the kernel range changes) and keeps, per set, weights
padded to full length (zero at masked points) together with the padded
inverse P of the active Gram block.  Removing point j gives the weights
w - P[:, j] w_j / P_jj in O(k); adding it uses v = P g_j and the Schur
complement s = 1 - g_j'v in O(k^2).  Only an accepted flip updates P, by a
symmetric rank-1 term.  The Carbo inner product of a proposal is one dot
product with the cached cross product of the other set's coefficients.
A full refactorization runs when a state is installed, when the kernel
range changes, after every _REBUILD_PERIOD accepted flips of a set (to bound
rounding drift) and for a flip whose pivot is not safely positive: a Cholesky
factorization, then LAPACK dpotrs on [z | I] gives w and P in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .analysis import write_table
from .covariance import CovarianceModel, kernel_evaluator
from .geometry import (
    MarkedPointSet,
    RigidTransform,
    euler_prior_log_density,
    n_euler_angles,
    random_rotation,
    recover_euler,
    rotation_matrix,
    wrap_angles,
)
from .kriging import _NORM_SQ_FLOOR, DegenerateFieldError, EmptyFieldError, kriging_solve
from .similarity import (
    CarboScore,
    combined_carbo,
    dissimilarity_from_similarity,
    similarity_from_dissimilarity,
)

EXPONENTIAL = "exponential"
HALF_NORMAL = "half_normal"

# accepted flips of one point set between full refactorizations (bounds the
# drift of the rank-1 updates)
_REBUILD_PERIOD = 64
# relative pivot below which a flip is refactorized instead of updated
_SCHUR_FLOOR = 1e-6
_LOG2 = math.log(2.0)


class ConfigurationError(ValueError):
    """Inconsistent sampler configuration."""


@dataclass(frozen=True)
class LinearSchedule:
    """Linear interpolation from start to end over the first n_iterations,
    constant at end afterwards."""

    start: float
    end: float
    n_iterations: int

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("schedule length must be at least 1")

    def value(self, iteration: int) -> float:
        if iteration >= self.n_iterations:
            return self.end
        frac = iteration / self.n_iterations
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class Hyperparameters:
    """Priors, proposal scales, schedules and run-length settings."""

    alpha: float
    beta: float
    proposal_sd_rotation: float  # radians
    proposal_sd_translation: float
    n_iterations: int
    zeta: float = 1.0
    zeta_i: float = 1.0
    neighbor_delta: float | None = None
    escape_period: int | None = 125
    escape_scale: float = 10.0
    restart_threshold: float | None = None
    restart_check_iter: int | None = None
    max_restarts: int = 0
    burn_in: int | None = None  # default: 20% of n_iterations
    thin: int = 20
    likelihood_kind: str = EXPONENTIAL
    range_schedule: LinearSchedule | None = None
    weight_schedule: LinearSchedule | None = None
    weight_q: float = 0.5
    update_masks: bool = True
    update_tau: bool = True
    tau_init: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0
                and math.isfinite(self.beta) and self.beta > 0):
            raise ConfigurationError("alpha and beta must be positive and finite")
        if not (math.isfinite(self.zeta) and self.zeta >= 0
                and math.isfinite(self.zeta_i) and self.zeta_i >= 0):
            raise ConfigurationError("zeta and zeta_i must be nonnegative and finite")
        for sd in (self.proposal_sd_rotation, self.proposal_sd_translation):
            if not (math.isfinite(sd) and sd >= 0):
                raise ConfigurationError("proposal SDs must be nonnegative and finite")
        if not (math.isfinite(self.escape_scale) and self.escape_scale > 0):
            raise ConfigurationError("escape_scale must be positive and finite")
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be nonnegative")
        if not (self.neighbor_delta is None or 0 <= self.neighbor_delta < math.inf):
            raise ConfigurationError("neighbor_delta must be nonnegative and finite")
        if not (self.escape_period is None or self.escape_period >= 1):
            raise ConfigurationError("escape_period must be at least 1")
        if self.n_iterations < 1:
            raise ConfigurationError("n_iterations must be positive")
        if self.burn_in is not None and not 0 <= self.burn_in < self.n_iterations:
            raise ConfigurationError("burn_in must lie in [0, n_iterations)")
        if self.thin < 1:
            raise ConfigurationError("thin must be at least 1")
        if self.likelihood_kind not in (EXPONENTIAL, HALF_NORMAL):
            raise ConfigurationError(f"unknown likelihood {self.likelihood_kind!r}")
        if not 0.0 <= self.weight_q <= 1.0:
            raise ConfigurationError("weight_q must lie in [0, 1]")
        if (self.restart_check_iter is None) != (self.restart_threshold is None):
            raise ConfigurationError(
                "restart_check_iter and restart_threshold go together"
            )
        if self.restart_threshold is not None and not math.isfinite(self.restart_threshold):
            raise ConfigurationError("restart_threshold must be finite")
        if not self.update_tau and self.tau_init is None:
            raise ConfigurationError("fixed-tau runs need tau_init")

    @property
    def effective_burn_in(self) -> int:
        return self.burn_in if self.burn_in is not None else self.n_iterations // 5

    @property
    def settle_iteration(self) -> int:
        settle = 0
        for sched in (self.range_schedule, self.weight_schedule):
            if sched is not None:
                settle = max(settle, sched.n_iterations)
        return settle


@dataclass(frozen=True)
class InitSpec:
    """Distribution of chain starting states (also used for restarts)."""

    rotation_range: float = np.pi  # radians, per-angle U[-r, r]
    translation_range: float = 0.0  # per-axis U[-r, r]
    haar_rotation: bool = False
    mask_p: float = 0.5

    def __post_init__(self):
        for r in (self.rotation_range, self.translation_range):
            if not (math.isfinite(r) and r >= 0):
                raise ConfigurationError("initial ranges must be nonnegative and finite")
        if not 0.0 <= self.mask_p <= 1.0:
            raise ConfigurationError("mask_p must lie in [0, 1]")

    def sample_transform(self, rng: np.random.Generator, dimension: int) -> RigidTransform:
        if self.haar_rotation:
            euler = recover_euler(random_rotation(rng, dimension))
        else:
            r = self.rotation_range
            euler = wrap_angles(rng.uniform(-r, r, n_euler_angles(dimension)))
        translation = rng.uniform(
            -self.translation_range, self.translation_range, dimension
        )
        return RigidTransform(euler, translation)

    def sample_mask(self, rng: np.random.Generator, k: int) -> np.ndarray:
        if self.mask_p >= 1.0:
            return np.ones(k, dtype=bool)
        mask = rng.random(k) < self.mask_p
        if not mask.any():
            mask[rng.integers(k)] = True
        return mask


@dataclass(frozen=True, eq=False)
class ChainState:
    """One full parameter state together with its scores and log posterior."""

    transform: RigidTransform
    mask_a: np.ndarray | None
    mask_b: np.ndarray
    tau: float
    carbo: CarboScore
    log_posterior: float
    iteration: int = 0

    @property
    def n_unmasked_a(self) -> int:
        return int(self.mask_a.sum()) if self.mask_a is not None else 0

    @property
    def n_unmasked_b(self) -> int:
        return int(self.mask_b.sum())


@dataclass(eq=False)
class AlignmentResult:
    """MAP/final states, plug-in distances, traces and diagnostics."""

    map_state: ChainState
    final_state: ChainState
    plug_in_distance: float
    plug_in_distance_mean: float
    mean_transform: RigidTransform
    mean_mask_a: np.ndarray | None
    mean_mask_b: np.ndarray
    mask_inclusion_means_a: np.ndarray | None
    mask_inclusion_means_b: np.ndarray
    mean_tau: float
    traces: np.ndarray
    trace_columns: tuple[str, ...]
    acceptance_rates: dict[str, float]
    n_restarts: int
    failed: bool
    n_iterations: int


def log_likelihood(carbo_dissimilarity: float, tau: float, kind: str = EXPONENTIAL) -> float:
    """Log likelihood of the observed pair given dissimilarity D and
    precision tau: log(tau) - tau D (exponential) or log(tau)/2 - tau D^2
    (half-normal).  Infinite D gives -inf."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not math.isfinite(carbo_dissimilarity):
        return -np.inf
    if carbo_dissimilarity < 0:
        raise ValueError("dissimilarity must be nonnegative")
    if kind == EXPONENTIAL:
        return math.log(tau) - tau * carbo_dissimilarity
    if kind == HALF_NORMAL:
        return 0.5 * math.log(tau) - tau * carbo_dissimilarity**2
    raise ConfigurationError(f"unknown likelihood {kind!r}")


def log_tau_prior(tau: float, alpha: float, beta: float) -> float:
    """Unnormalized Gamma(alpha, beta) log prior density of tau."""
    return (alpha - 1.0) * math.log(tau) - beta * tau


def _pow_log(base: float, exponent: float) -> float:
    # log(base ** exponent) under the 0^0 = 1 convention
    if exponent == 0:
        return 0.0
    if base == 0.0:
        return -np.inf
    return exponent * math.log(base)


def _logaddexp(x: float, y: float) -> float:
    # np.logaddexp of two floats by numpy's own formula (npy_logaddexp)
    if x == y:
        return x + _LOG2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp  # NaN


def _mask_log_prior_exponents(zeta: float, zeta_i: float, total: float, boundary: float) -> float:
    return _logaddexp(_pow_log(zeta, total), _pow_log(zeta_i, boundary))


def neighbor_pairs(coords, delta: float) -> np.ndarray:
    """Index pairs (i, j), i < j, with ||x_i - x_j|| < delta."""
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    d = cdist(pts, pts)
    ii, jj = np.where(np.triu(d < delta, 1))
    return np.column_stack([ii, jj])


def _boundary_count(mask: np.ndarray, pairs: np.ndarray) -> int:
    if pairs.size == 0:
        return 0
    return int(np.sum(mask[pairs[:, 0]] != mask[pairs[:, 1]]))


def mask_log_prior(
    mask_a,
    mask_b,
    coords_a,
    coords_b,
    zeta: float,
    zeta_i: float,
    neighbor_delta: float,
) -> float:
    """Log of zeta^(total unmasked) + zeta_i^(neighbor disagreement count).

    Neighbors are point pairs closer than neighbor_delta within each set.
    Either mask may be None (its terms drop out), which is used when one
    side of the alignment is a frozen reference field.
    """
    total = 0.0
    boundary = 0.0
    for mask, coords in ((mask_a, coords_a), (mask_b, coords_b)):
        if mask is None:
            continue
        mask = np.asarray(mask).astype(bool)
        total += float(mask.sum())
        if zeta_i != 1.0:
            boundary += _boundary_count(mask, neighbor_pairs(coords, neighbor_delta))
    return _mask_log_prior_exponents(zeta, zeta_i, total, boundary)


def gibbs_update_tau(
    carbo_dissimilarity: float,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
    kind: str = EXPONENTIAL,
) -> float | None:
    """Draw the precision from its full conditional.

    Exponential likelihood gives Gamma(alpha + 1, D + beta); half-normal
    gives Gamma(alpha + 1/2, D^2 + beta).  Returns None (no update) for
    infinite D.
    """
    if not np.isfinite(carbo_dissimilarity):
        return None
    if kind == EXPONENTIAL:
        shape = alpha + 1.0
        rate = carbo_dissimilarity + beta
    elif kind == HALF_NORMAL:
        shape = alpha + 0.5
        rate = carbo_dissimilarity**2 + beta
    else:
        raise ConfigurationError(f"unknown likelihood {kind!r}")
    return float(rng.gamma(shape, 1.0 / rate))


@dataclass(slots=True, eq=False)
class _Kriged:
    """Padded kriging state of one masked point set in one channel.

    w holds the weights (zero at masked points), inv the inverse of the
    active Gram block (zero rows and columns at masked points) and norm the
    RKHS norm sqrt(w'z).  jitter is the diagonal shift the factorization
    needed; rank-1 updates keep it.  A state returned by `flipped` shares
    inv with its parent and carries the rank-1 term in `pending` until
    `settle` applies it in place.
    """

    w: np.ndarray
    inv: np.ndarray
    norm: float
    jitter: float
    pending: tuple | None = None

    def flipped(self, gram, marks, j: int, adding: bool) -> "_Kriged | None":
        """State after flipping point j: O(k) for a removal, O(k^2) for an
        addition.  None when the pivot (the removed point's inverse diagonal
        or the added point's Schur complement) is not safely positive."""
        if adding:
            g = gram[j]
            u = self.inv @ g
            diag = gram[j, j] + self.jitter
            s = diag - g @ u
            if not s > _SCHUR_FLOOR * diag:
                return None
            u[j] = -1.0
            w = self.w - u * ((marks[j] - g @ self.w) / s)
            c = 1.0 / s
        else:
            u = self.inv[j].copy()
            if not u[j] > 0.0:
                return None
            w = self.w - u * (self.w[j] / u[j])
            w[j] = 0.0
            c = -1.0 / u[j]
        norm_sq = float(w @ marks)
        if norm_sq <= _NORM_SQ_FLOOR:
            raise DegenerateFieldError("masked field has zero RKHS norm")
        return _Kriged(w, self.inv, math.sqrt(norm_sq), self.jitter, (j, u, c, adding))

    def settle(self):
        """Apply the pending update inv += c u u' (the parent state is
        discarded, so inv is updated in place)."""
        if self.pending is None:
            return
        j, u, c, adding = self.pending
        self.inv += c * np.outer(u, u)
        if not adding:
            self.inv[j] = 0.0
            self.inv[:, j] = 0.0
        self.pending = None


def _factor_side(model: CovarianceModel, coords, gram, marks, mask) -> _Kriged:
    """Full kriging solve of a masked set from its cached full Gram matrix;
    raises DegenerateFieldError when the RKHS norm vanishes.  inv is
    scattered into a C-ordered matrix: a matrix-vector product sums in
    another order on a Fortran-ordered one."""
    act = np.flatnonzero(mask)
    block = np.ix_(act, act)
    jitter, w_act, norm_sq, inv_act = kriging_solve(
        model, coords[act], marks[act], gram=gram[block], inverse=True
    )
    k = mask.shape[0]
    w = np.zeros(k)
    w[act] = w_act
    inv = np.zeros((k, k))
    inv[block] = 0.5 * (inv_act + inv_act.T)
    return _Kriged(w, inv, math.sqrt(norm_sq), jitter)


class _Channel:
    """Per-channel kernel, marks, cached Gram matrices, kriging states and
    cross terms.  Per-side entries are keyed "a" and "b"; proj["a"] =
    kcross coeff_b and proj["b"] = coeff_a' kcross, so a proposal on one
    side scores its new coefficients against proj of that side."""

    __slots__ = (
        "base_model",
        "model",
        "kernel_fn",
        "marks",
        "gram",
        "kriged",
        "coeff",
        "kcross",
        "proj",
        "inner",
        "similarity",
    )

    def __init__(self, model: CovarianceModel, marks_a, marks_b, ref_coeffs=None):
        self.base_model = model
        self.model = None
        self.marks = {
            "a": None if marks_a is None else np.asarray(marks_a, dtype=float),
            "b": np.asarray(marks_b, dtype=float),
        }
        self.kriged = {"a": None, "b": None}
        self.coeff = {
            "a": None if ref_coeffs is None else np.asarray(ref_coeffs, dtype=float),
            "b": None,
        }
        self.proj = {}

    def set_model(self, model: CovarianceModel, dists: dict):
        """Switch the kernel, recomputing the cached Gram matrices of the
        given within-set distances only when the model changes."""
        if model == self.model:
            return
        self.model = model
        self.kernel_fn = kernel_evaluator(model)
        self.gram = {side: self.kernel_fn(d) for side, d in dists.items()}


class PairEngine:
    """Mutable sampling engine for one alignment problem.

    The reference side is either a second marked point set (pairwise mode,
    both masks updated) or a frozen linear combination of kernel bumps
    (mean-field mode used by field GPA, where only the movable mask exists).
    Channel order is (charge, steric) in two-channel runs; the dynamic
    weight applies to the first channel.
    """

    def __init__(
        self,
        coords_a: np.ndarray,
        coords_b: np.ndarray,
        channels: list[_Channel],
        hyper: Hyperparameters,
        field_mode: bool,
    ):
        self.coords_a = np.asarray(coords_a, dtype=float)
        self.coords_b = np.asarray(coords_b, dtype=float)
        self.channels = channels
        self.hyper = hyper
        self.field_mode = field_mode
        self.m = self.coords_b.shape[1]
        if self.coords_a.shape[1] != self.m:
            raise ConfigurationError("point sets live in different dimensions")
        if len(channels) == 2 and hyper.range_schedule is not None:
            raise ConfigurationError(
                "the dynamic range schedule only supports a single channel"
            )
        if len(channels) == 1 and hyper.weight_schedule is not None:
            raise ConfigurationError(
                "the dynamic weight schedule needs two mark channels"
            )
        if field_mode and hyper.range_schedule is not None:
            raise ConfigurationError(
                "the dynamic range schedule is unavailable against a frozen field"
            )
        delta = hyper.neighbor_delta
        if delta is None:
            delta = 2.0 * min(ch.base_model.rho for ch in channels)
        self.neighbor_delta = delta
        if hyper.zeta_i != 1.0:
            self._pairs_a = (
                None if field_mode else neighbor_pairs(self.coords_a, delta)
            )
            self._pairs_b = neighbor_pairs(self.coords_b, delta)
        else:
            self._pairs_a = None
            self._pairs_b = np.empty((0, 2), dtype=int)
        # current state
        self.euler = np.zeros(n_euler_angles(self.m))
        self.translation = np.zeros(self.m)
        self._rot_b = self.coords_b  # B rotated by the current matrix
        self.mask_a: np.ndarray | None = None
        self.mask_b: np.ndarray | None = None
        self.tau = 1.0
        self.weight_q = hyper.weight_q
        self.rho_current = channels[0].base_model.rho
        self.dissimilarity = np.inf
        self.log_lik = -np.inf
        self.lp_mask = 0.0
        self.lp_euler = 0.0
        self.lp_tau = 0.0
        self.log_posterior = -np.inf
        self.counters: dict[str, list[int]] = {}
        # within-set distances never change; accepted flips per side since
        # that side was last refactorized
        self._dist = {"b": cdist(self.coords_b, self.coords_b)}
        if not field_mode:
            self._dist["a"] = cdist(self.coords_a, self.coords_a)
        self._dcross = None  # A to moved B distances, shared by the channels
        for ch in channels:
            ch.set_model(ch.base_model, self._dist)
        self._flips = {"a": 0, "b": 0}
        self._n_on = {"a": 0, "b": 0}  # unmasked points per side

    # -- construction ----------------------------------------------------

    @classmethod
    def for_pair(cls, set_a, set_b, models, hyper: Hyperparameters) -> "PairEngine":
        sets_a = (set_a,) if isinstance(set_a, MarkedPointSet) else tuple(set_a)
        sets_b = (set_b,) if isinstance(set_b, MarkedPointSet) else tuple(set_b)
        models = (models,) if isinstance(models, CovarianceModel) else tuple(models)
        if not len(sets_a) == len(sets_b) == len(models):
            raise ConfigurationError(
                "channel counts of set_a, set_b and models must match"
            )
        if len(sets_a) not in (1, 2):
            raise ConfigurationError("one or two mark channels are supported")
        coords_a = sets_a[0].coords
        coords_b = sets_b[0].coords
        for s in sets_a[1:]:
            if not np.array_equal(s.coords, coords_a):
                raise ConfigurationError("channels of set A must share coordinates")
        for s in sets_b[1:]:
            if not np.array_equal(s.coords, coords_b):
                raise ConfigurationError("channels of set B must share coordinates")
        channels = [
            _Channel(model, sa.marks, sb.marks)
            for model, sa, sb in zip(models, sets_a, sets_b)
        ]
        return cls(coords_a, coords_b, channels, hyper, field_mode=False)

    @classmethod
    def for_reference_field(
        cls,
        ref_coords,
        ref_coeffs,
        movable: MarkedPointSet,
        model: CovarianceModel,
        hyper: Hyperparameters,
    ) -> "PairEngine":
        channel = _Channel(model, None, movable.marks, ref_coeffs=ref_coeffs)
        return cls(
            np.asarray(ref_coords, dtype=float),
            movable.coords,
            [channel],
            hyper,
            field_mode=True,
        )

    # -- internal recomputation ------------------------------------------

    def _similarity(self, coeff: np.ndarray, proj: np.ndarray):
        # Carbo inner product of padded coefficients with a cached cross
        # product; masked entries are zero, so no gathers are needed
        inner = float(coeff @ proj)
        return inner, min(max(inner, -1.0), 1.0)

    def _cross_terms(self, dcross: np.ndarray) -> tuple[list[tuple], list[float]]:
        """At the given A-to-moved-B distances: per channel the cross kernel,
        proj["a"] = kcross coeff_b and the Carbo inner product, and the
        channels' Carbo similarities."""
        cross, sims = [], []
        for ch in self.channels:
            kcross = ch.kernel_fn(dcross)
            proj_a = kcross @ ch.coeff["b"]
            inner, sim = self._similarity(ch.coeff["a"], proj_a)
            cross.append((kcross, proj_a, inner))
            sims.append(sim)
        return cross, sims

    def _install_cross(self, dcross: np.ndarray, cross: list[tuple], sims: list[float]):
        self._dcross = dcross
        for ch, (kcross, proj_a, inner), sim in zip(self.channels, cross, sims):
            ch.kcross = kcross
            ch.proj["a"] = proj_a
            ch.proj["b"] = ch.coeff["a"] @ kcross
            ch.inner, ch.similarity = inner, sim

    def _rebuild(self, sides=("a", "b")):
        """Refactorize the named sides of every channel from its cached Gram
        matrices, then recompute the cross terms at the cached cross
        distances."""
        for ch in self.channels:
            for side, coords, mask in (
                ("a", self.coords_a, self.mask_a),
                ("b", self.coords_b, self.mask_b),
            ):
                if side in sides and mask is not None:
                    kriged = _factor_side(
                        ch.model, coords, ch.gram[side], ch.marks[side], mask
                    )
                    ch.kriged[side] = kriged
                    ch.coeff[side] = kriged.w / kriged.norm
                    self._flips[side] = 0
        self._install_cross(self._dcross, *self._cross_terms(self._dcross))

    def _combined(self, sims: list[float]) -> float:
        if len(sims) == 1:
            return dissimilarity_from_similarity(sims[0])
        return combined_carbo(
            dissimilarity_from_similarity(sims[0]),
            dissimilarity_from_similarity(sims[1]),
            self.weight_q,
        )

    def _mask_prior_value(self, mask_a, mask_b, total: int) -> float:
        """Log mask prior given the masks and their total unmasked count."""
        boundary = 0.0
        if self.hyper.zeta_i != 1.0:
            boundary = _boundary_count(mask_b, self._pairs_b)
            if mask_a is not None and self._pairs_a is not None:
                boundary += _boundary_count(mask_a, self._pairs_a)
        return _mask_log_prior_exponents(
            self.hyper.zeta, self.hyper.zeta_i, float(total), boundary
        )

    def _sum_log_posterior(self):
        self.log_posterior = self.log_lik + self.lp_tau + self.lp_mask + self.lp_euler

    def _refresh_scalars(self):
        sims = [ch.similarity for ch in self.channels]
        self.dissimilarity = self._combined(sims)
        self.log_lik = log_likelihood(
            self.dissimilarity, self.tau, self.hyper.likelihood_kind
        )
        self.lp_tau = log_tau_prior(self.tau, self.hyper.alpha, self.hyper.beta)
        self._sum_log_posterior()

    # -- state installation ----------------------------------------------

    def _set_pose(self, transform: RigidTransform):
        self.euler = wrap_angles(transform.euler)
        self.translation = np.array(transform.translation, dtype=float)
        self.lp_euler = euler_prior_log_density(self.euler)
        self._rot_b = self.coords_b @ transform.matrix.T
        self._dcross = cdist(self.coords_a, self._rot_b + self.translation)

    def _use_rho(self, rho: float):
        self.rho_current = rho
        for ch in self.channels:
            ch.set_model(ch.base_model.with_rho(rho), self._dist)

    def install_state(
        self,
        transform: RigidTransform,
        mask_a,
        mask_b,
        tau: float | None,
        rng: np.random.Generator | None = None,
    ):
        """Full recompute of every cached quantity from the given state.

        tau=None draws the precision from its full conditional at the
        initial dissimilarity (requires rng).
        """
        self._set_pose(transform)
        if self.field_mode:
            self.mask_a = None
        else:
            if mask_a is None:
                mask_a = np.ones(self.coords_a.shape[0], dtype=bool)
            self.mask_a = np.array(mask_a, dtype=bool)
            if not self.mask_a.any():
                raise EmptyFieldError("mask of set A is empty")
        self.mask_b = np.array(mask_b, dtype=bool)
        if not self.mask_b.any():
            raise EmptyFieldError("mask of set B is empty")
        self._rebuild()
        self._n_on = {
            "a": 0 if self.mask_a is None else int(self.mask_a.sum()),
            "b": int(self.mask_b.sum()),
        }
        self.lp_mask = self._mask_prior_value(
            self.mask_a, self.mask_b, self._n_on["a"] + self._n_on["b"]
        )
        if tau is None:
            if rng is None:
                raise ConfigurationError("drawing the initial tau requires an rng")
            sims = [ch.similarity for ch in self.channels]
            d0 = self._combined(sims)
            drawn = gibbs_update_tau(
                d0,
                self.hyper.alpha,
                self.hyper.beta,
                rng,
                self.hyper.likelihood_kind,
            )
            self.tau = drawn if drawn is not None else self.hyper.alpha / self.hyper.beta
        else:
            self.tau = float(tau)
        self._refresh_scalars()

    def set_rho(self, rho: float):
        """Move every channel to a new kernel range and rebuild all caches."""
        if rho == self.rho_current:
            return
        self._use_rho(rho)
        self._rebuild()
        self._refresh_scalars()

    def prepare_attempt(self):
        """Reset schedule-driven quantities to their iteration-1 values so a
        fresh (re)start is installed under the right kernel range and
        channel weight."""
        h = self.hyper
        if h.range_schedule is not None:
            self._use_rho(h.range_schedule.value(1))
        if h.weight_schedule is not None:
            self.weight_q = h.weight_schedule.value(1)
        self.counters = {}

    def set_transform(self, transform: RigidTransform):
        """Install a new rigid transform (cross terms only)."""
        self._set_pose(transform)
        self._rebuild(sides=())
        self._refresh_scalars()

    def begin_iteration(self, iteration: int):
        """Apply the range and weight schedules for this iteration."""
        h = self.hyper
        if h.range_schedule is not None:
            self.set_rho(h.range_schedule.value(iteration))
        if h.weight_schedule is not None:
            wq = h.weight_schedule.value(iteration)
            if wq != self.weight_q:
                self.weight_q = wq
                self._refresh_scalars()

    # -- MH blocks ---------------------------------------------------------

    def _count(self, block: str, accepted: bool):
        c = self.counters.setdefault(block, [0, 0])
        c[1] += 1
        c[0] += int(accepted)

    def _accept(self, rng: np.random.Generator, delta: float) -> bool:
        # symmetric proposals: accept with min(1, exp(delta))
        if delta == -np.inf:
            rng.random()
            return False
        if self.log_lik == -np.inf and delta == np.inf:
            rng.random()
            return True
        return math.log(rng.random()) < delta

    def _metropolis(
        self, rng: np.random.Generator, block: str, sims_new: list[float],
        lp_new: float, lp_old: float,
    ) -> bool:
        """Accept or reject a proposal with the given channel similarities
        whose prior term moves from lp_old to lp_new, and count it.  An
        accepted proposal's D and log likelihood are installed here; the
        caller installs the rest and then sums the log posterior."""
        d_new = self._combined(sims_new)
        ll_new = log_likelihood(d_new, self.tau, self.hyper.likelihood_kind)
        delta = (ll_new + lp_new) - (self.log_lik + lp_old)
        if math.isnan(delta):  # both -inf
            delta = -np.inf
        accepted = self._accept(rng, delta)
        if accepted:
            self.dissimilarity = d_new
            self.log_lik = ll_new
        self._count(block, accepted)
        return accepted

    def step_rigid(self, rng: np.random.Generator, block: str, scale: float = 1.0) -> bool:
        """Gaussian random-walk proposal on all rotation angles or all
        translation entries (one block)."""
        if block == "rotation":
            step = rng.standard_normal(self.euler.shape[0])
            euler = wrap_angles(self.euler + self.hyper.proposal_sd_rotation * scale * step)
            translation = self.translation
            lp_euler = euler_prior_log_density(euler)
            rot_b = self.coords_b @ rotation_matrix(euler).T
        elif block == "translation":
            step = rng.standard_normal(self.m)
            euler, lp_euler, rot_b = self.euler, self.lp_euler, self._rot_b
            translation = self.translation + self.hyper.proposal_sd_translation * scale * step
        else:
            raise ValueError(f"unknown rigid block {block!r}")
        dcross = cdist(self.coords_a, rot_b + translation)
        cross, sims = self._cross_terms(dcross)
        if not self._metropolis(rng, block, sims, lp_euler, self.lp_euler):
            return False
        self.euler, self.translation, self._rot_b = euler, translation, rot_b
        self.lp_euler = lp_euler
        self._install_cross(dcross, cross, sims)
        self._sum_log_posterior()
        return True

    def step_tau(self, rng: np.random.Generator) -> bool:
        drawn = gibbs_update_tau(
            self.dissimilarity,
            self.hyper.alpha,
            self.hyper.beta,
            rng,
            self.hyper.likelihood_kind,
        )
        if drawn is None:
            return False
        self.tau = drawn
        self._refresh_scalars()
        return True

    def step_mask(self, rng: np.random.Generator, side: str) -> bool:
        """Single-entry flip proposal on one mask; flips emptying the mask
        are rejected outright."""
        if side == "a":
            if self.field_mode:
                raise ConfigurationError("the reference field has no mask")
            mask, coords = self.mask_a, self.coords_a
        elif side == "b":
            mask, coords = self.mask_b, self.coords_b
        else:
            raise ValueError(f"unknown mask side {side!r}")
        block = f"mask_{side}"
        idx = int(rng.integers(mask.shape[0]))
        adding = not mask[idx]
        n_on = self._n_on[side] + (1 if adding else -1)
        if n_on == 0:
            self._count(block, False)
            return False
        mask_new = mask.copy()
        mask_new[idx] = adding
        flipped, sims = [], []
        try:
            for ch in self.channels:
                kriged = ch.kriged[side].flipped(ch.gram[side], ch.marks[side], idx, adding)
                if kriged is None:
                    kriged = _factor_side(
                        ch.model, coords, ch.gram[side], ch.marks[side], mask_new
                    )
                coeff = kriged.w / kriged.norm
                inner, sim = self._similarity(coeff, ch.proj[side])
                flipped.append((kriged, coeff, inner))
                sims.append(sim)
        except DegenerateFieldError:
            self._count(block, False)
            return False
        total = n_on + self._n_on["b" if side == "a" else "a"]
        if side == "a":
            lp_mask = self._mask_prior_value(mask_new, self.mask_b, total)
        else:
            lp_mask = self._mask_prior_value(self.mask_a, mask_new, total)
        if not self._metropolis(rng, block, sims, lp_mask, self.lp_mask):
            return False
        if side == "a":
            self.mask_a = mask_new
        else:
            self.mask_b = mask_new
        for ch, (kriged, coeff, inner), sim in zip(self.channels, flipped, sims):
            kriged.settle()
            ch.kriged[side] = kriged
            ch.coeff[side] = coeff
            if side == "a":
                ch.proj["b"] = coeff @ ch.kcross
            else:
                ch.proj["a"] = ch.kcross @ coeff
            ch.inner, ch.similarity = inner, sim
        self.lp_mask = lp_mask
        self._sum_log_posterior()
        self._n_on[side] = n_on
        self._flips[side] += 1
        if self._flips[side] >= _REBUILD_PERIOD:
            self._rebuild(sides=(side,))
            self._refresh_scalars()
        return True

    # -- snapshots ---------------------------------------------------------

    def _channel_score(self, ch: _Channel) -> CarboScore:
        if self.field_mode:
            return CarboScore.from_inner(ch.inner, 1.0, 1.0)
        norm_a, norm_b = ch.kriged["a"].norm, ch.kriged["b"].norm
        return CarboScore.from_inner(ch.inner * norm_a * norm_b, norm_a, norm_b)

    def snapshot(self, iteration: int = 0) -> ChainState:
        if len(self.channels) == 1:
            carbo = self._channel_score(self.channels[0])
        else:
            carbo = CarboScore.from_dissimilarity(self.dissimilarity)
        transform = RigidTransform(self.euler.copy(), self.translation.copy())
        return ChainState(
            transform=transform,
            mask_a=None if self.mask_a is None else self.mask_a.copy(),
            mask_b=self.mask_b.copy(),
            tau=self.tau,
            carbo=carbo,
            log_posterior=self.log_posterior,
            iteration=iteration,
        )

    def acceptance_rates(self) -> dict[str, float]:
        return {
            block: (acc / prop if prop else np.nan)
            for block, (acc, prop) in sorted(self.counters.items())
        }


def _trace_columns(m: int) -> tuple[str, ...]:
    names = ["iteration"]
    names += [f"theta_{i + 1}" for i in range(n_euler_angles(m))]
    names += [f"gamma_{i + 1}" for i in range(m)]
    names += [
        "tau",
        "carbo_similarity",
        "carbo_dissimilarity",
        "n_unmasked_a",
        "n_unmasked_b",
        "log_posterior",
    ]
    return tuple(names)


class _RunAccumulators:
    """Per-attempt trace rows, MAP tracking and posterior-mean sums."""

    def __init__(self, engine: PairEngine):
        self.engine = engine
        self.rows: list[list[float]] = []
        self.best: ChainState | None = None
        self.n_angles = engine.euler.shape[0]
        self.sin_sum = np.zeros(self.n_angles)
        self.cos_sum = np.zeros(self.n_angles)
        self.translation_sum = np.zeros(engine.m)
        self.tau_sum = 0.0
        self.incl_a = (
            None
            if engine.mask_a is None
            else np.zeros(engine.coords_a.shape[0])
        )
        self.incl_b = np.zeros(engine.coords_b.shape[0])
        self.n_acc = 0
        self.failed = False

    def record(self, iteration: int, eligible: bool, thin: int):
        eng = self.engine
        if eligible:
            self.n_acc += 1
            self.sin_sum += np.sin(eng.euler)
            self.cos_sum += np.cos(eng.euler)
            self.translation_sum += eng.translation
            self.tau_sum += eng.tau
            if self.incl_a is not None:
                self.incl_a += eng.mask_a
            self.incl_b += eng.mask_b
            if self.best is None or eng.log_posterior > self.best.log_posterior:
                self.best = eng.snapshot(iteration)
        if iteration % thin == 0:
            sim = (
                eng.channels[0].similarity
                if len(eng.channels) == 1
                else similarity_from_dissimilarity(eng.dissimilarity)
            )
            row = [float(iteration)]
            row += list(eng.euler)
            row += list(eng.translation)
            row += [
                eng.tau,
                sim,
                eng.dissimilarity,
                float(0 if eng.mask_a is None else eng.mask_a.sum()),
                float(eng.mask_b.sum()),
                eng.log_posterior,
            ]
            self.rows.append(row)


def _mean_mask(freq: np.ndarray) -> np.ndarray:
    mask = freq >= 0.5
    if not mask.any():
        mask[int(np.argmax(freq))] = True
    return mask


def _run_attempt(
    engine: PairEngine, hyper: Hyperparameters, rng, start, map_from: int, can_restart: bool
) -> _RunAccumulators | None:
    """Install a start state with start(rng), sweep to n_iterations and
    record; None when the restart check fails and can_restart."""
    engine.prepare_attempt()
    start(rng)
    acc = _RunAccumulators(engine)
    for i in range(1, hyper.n_iterations + 1):
        engine.begin_iteration(i)
        scale = 1.0
        if hyper.escape_period and i % hyper.escape_period == 0:
            scale = hyper.escape_scale
        engine.step_rigid(rng, "rotation", scale)
        engine.step_rigid(rng, "translation", scale)
        if hyper.update_tau:
            engine.step_tau(rng)
        if hyper.update_masks:
            if not engine.field_mode:
                engine.step_mask(rng, "a")
            engine.step_mask(rng, "b")
        acc.record(i, i > map_from, hyper.thin)
        if (
            hyper.restart_check_iter is not None
            and i == hyper.restart_check_iter
            and engine.dissimilarity > hyper.restart_threshold
        ):
            if can_restart:
                return None
            acc.failed = True
    return acc


def _run_chain(
    engine: PairEngine, hyper: Hyperparameters, rng: np.random.Generator, start
) -> AlignmentResult:
    """Attempts until one passes its restart check or the restarts run out,
    then the MAP, posterior means and plug-in distances of the last one."""
    n = hyper.n_iterations
    map_from = max(hyper.effective_burn_in, hyper.settle_iteration)
    if map_from >= n:
        raise ConfigurationError(
            "no post-burn-in, post-schedule iterations remain for MAP tracking"
        )
    restarts = 0
    while (acc := _run_attempt(engine, hyper, rng, start, map_from,
                               restarts < hyper.max_restarts)) is None:
        restarts += 1
    # the attempt swept past map_from to n, so acc.best is set and n_acc >= 1
    final_state = engine.snapshot(n)
    n_acc = acc.n_acc
    mean_euler = wrap_angles(np.arctan2(acc.sin_sum / n_acc, acc.cos_sum / n_acc))
    mean_transform = RigidTransform(mean_euler, acc.translation_sum / n_acc)
    mean_tau = acc.tau_sum / n_acc
    incl_a = None if acc.incl_a is None else acc.incl_a / n_acc
    incl_b = acc.incl_b / n_acc
    mean_mask_a = None if incl_a is None else _mean_mask(incl_a)
    mean_mask_b = _mean_mask(incl_b)
    try:
        engine.install_state(mean_transform, mean_mask_a, mean_mask_b, mean_tau)
        plug_in_mean = engine.snapshot().carbo.dissimilarity
    except (DegenerateFieldError, EmptyFieldError):
        plug_in_mean = np.inf
    return AlignmentResult(
        map_state=acc.best,
        final_state=final_state,
        plug_in_distance=acc.best.carbo.dissimilarity,
        plug_in_distance_mean=plug_in_mean,
        mean_transform=mean_transform,
        mean_mask_a=mean_mask_a,
        mean_mask_b=mean_mask_b,
        mask_inclusion_means_a=incl_a,
        mask_inclusion_means_b=incl_b,
        mean_tau=mean_tau,
        traces=np.array(acc.rows, dtype=float),
        trace_columns=_trace_columns(engine.m),
        acceptance_rates=engine.acceptance_rates(),
        n_restarts=restarts,
        failed=acc.failed,
        n_iterations=n,
    )


def run_pairwise_alignment(
    set_a,
    set_b,
    models,
    hyper: Hyperparameters,
    init: InitSpec,
    rng_seed,
) -> AlignmentResult:
    """Align point set B onto point set A by MCMC.

    set_a/set_b are MarkedPointSets (or per-channel sequences sharing
    coordinates) and models the matching CovarianceModel(s).  Restarts,
    escape moves and schedules follow `hyper`; the chain start (and any
    restart) is drawn from `init`.  Identical seeds give identical traces.
    """
    engine = PairEngine.for_pair(set_a, set_b, models, hyper)
    k_a, k_b = engine.coords_a.shape[0], engine.coords_b.shape[0]

    def start(rng):
        for _ in range(100):
            t0 = init.sample_transform(rng, engine.m)
            masks = init.sample_mask(rng, k_a), init.sample_mask(rng, k_b)
            try:
                engine.install_state(t0, *masks, tau=hyper.tau_init, rng=rng)
            except DegenerateFieldError:
                continue
            return
        raise DegenerateFieldError("could not draw a nondegenerate initial mask in 100 tries")

    return _run_chain(engine, hyper, np.random.default_rng(rng_seed), start)


def run_reference_alignment(
    ref_coords,
    ref_coeffs,
    movable: MarkedPointSet,
    model: CovarianceModel,
    hyper: Hyperparameters,
    initial_transform: RigidTransform,
    initial_mask,
    rng,
) -> AlignmentResult:
    """Align a movable set onto a frozen reference field (GPA inner step).

    The chain starts from the supplied transform/mask rather than a random
    draw, and only the movable mask is updated.
    """
    engine = PairEngine.for_reference_field(ref_coords, ref_coeffs, movable, model, hyper)

    def start(rng):
        engine.install_state(initial_transform, None, initial_mask, tau=hyper.tau_init, rng=rng)

    # default_rng returns a Generator unaltered
    return _run_chain(engine, hyper, np.random.default_rng(rng), start)


# -- external formats ------------------------------------------------------


def write_trace(path, result: AlignmentResult, header_lines=()):
    """Delimited trace: one row per thinned iteration.

    Optional header lines are written first as '#' comments (the CLI uses
    them to embed the run configuration and seed).
    """
    write_table(path, result.trace_columns, result.traces, header_lines, sep=",")


def _transform_dict(t: RigidTransform) -> dict:
    return {
        "euler_radians": [float(v) for v in t.euler],
        "euler_degrees": [float(np.degrees(v)) for v in t.euler],
        "translation": [float(v) for v in t.translation],
    }


def _state_dict(s: ChainState) -> dict:
    return {
        "transform": _transform_dict(s.transform),
        "mask_a": None if s.mask_a is None else [int(v) for v in s.mask_a],
        "mask_b": [int(v) for v in s.mask_b],
        "tau": float(s.tau),
        "carbo_similarity": float(s.carbo.similarity),
        "carbo_dissimilarity": float(s.carbo.dissimilarity),
        "log_posterior": float(s.log_posterior),
        "iteration": int(s.iteration),
    }


def result_to_dict(result: AlignmentResult) -> dict:
    return {
        "map_state": _state_dict(result.map_state),
        "final_state": _state_dict(result.final_state),
        "plug_in_distance": float(result.plug_in_distance),
        "plug_in_distance_mean": float(result.plug_in_distance_mean),
        "mean_transform": _transform_dict(result.mean_transform),
        "mean_mask_a": None
        if result.mean_mask_a is None
        else [int(v) for v in result.mean_mask_a],
        "mean_mask_b": [int(v) for v in result.mean_mask_b],
        "mask_inclusion_means_a": None
        if result.mask_inclusion_means_a is None
        else [float(v) for v in result.mask_inclusion_means_a],
        "mask_inclusion_means_b": [float(v) for v in result.mask_inclusion_means_b],
        "mean_tau": float(result.mean_tau),
        "acceptance_rates": {k: float(v) for k, v in result.acceptance_rates.items()},
        "n_restarts": int(result.n_restarts),
        "failed": bool(result.failed),
        "n_iterations": int(result.n_iterations),
    }

