"""Reproducible generators and study drivers for the 2D and 3D alignment
benchmarks.

The 2D protocol samples two marked point sets from one Gaussian random
field realization on a 31x31 unit-square lattice, with grid-neighborhood
nearness, mark noise and uniformly distributed contamination points; the 3D
protocol perturbs a 25-atom reference molecule, draws a joint field at the
combined points, contaminates the last five atoms of each copy, and centers
and uniformly rotates both.  Study drivers replicate the benchmarks and
summarize success rates, unmasked counts and RMSDs.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import write_table
from .covariance import MATERN, CovarianceModel, gram_cholesky
from .geometry import (
    MarkedPointSet,
    apply_transform,
    random_rotation,
    rmsd,
)
from .mcmc import (
    AlignmentResult,
    Hyperparameters,
    InitSpec,
    LinearSchedule,
    run_pairwise_alignment,
)

GRID_N = 31  # 961 candidate locations in the unit square

# Synthetic 25-atom reference block at molecular scale (used when no real
# molecule file is supplied).  Elongated and irregular (no lattice or
# rotational near-symmetries, minimum pair distance 1.4 A) so the rigid
# alignment is well determined, like a real steroid skeleton.
DEFAULT_REFERENCE_COORDS = np.array(
    [
        (3.0599, 1.4623, 2.3901),
        (3.9626, 2.5192, 1.7284),
        (8.1538, 3.2289, 0.1262),
        (10.8986, 4.3675, 2.0079),
        (1.5565, 1.6524, 0.4684),
        (10.8365, 0.5644, 0.8256),
        (3.1923, 0.3293, 0.2296),
        (5.8019, 4.3978, 1.8723),
        (10.1549, 2.4353, 0.0289),
        (1.7969, 2.7540, 2.9149),
        (2.5913, 3.6529, 1.9986),
        (1.7395, 3.0396, 0.3215),
        (9.6574, 4.2774, 0.8418),
        (7.2465, 1.7539, 0.1880),
        (0.2107, 3.3108, 2.4442),
        (4.2517, 4.5252, 0.3440),
        (9.4514, 1.5897, 2.0170),
        (1.1246, 4.5370, 2.7533),
        (2.4154, 2.2989, 1.4507),
        (6.3472, 1.2981, 1.4348),
        (8.6440, 1.6018, 0.4470),
        (5.0844, 0.6915, 2.3738),
        (7.6091, 3.9560, 2.7454),
        (1.3757, 1.3242, 2.3273),
        (8.9809, 0.2046, 2.4804),
    ]
)

_2D_KTRUE = (40, 80)
_2D_FRACTIONS = (0.05, 0.10, 0.15)
_2D_KAPPAS = (1, 4)


class GenerationError(ValueError):
    """The requested simulated data set cannot be generated."""


def sample_grf(model: CovarianceModel, coords, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean Gaussian random field values at `coords`: z = L eps with
    L L' the (jitter-escalated) Gram factorization."""
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    chol, _ = gram_cholesky(model, pts)
    return chol @ rng.standard_normal(pts.shape[0])


def grid_coords_2d(n: int = GRID_N) -> np.ndarray:
    """Regular n x n lattice on the unit square, row-major."""
    side = np.arange(n) / (n - 1)
    xx, yy = np.meshgrid(side, side, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class Sim2DConfig:
    """2D benchmark cell, one of the benchmark's enumerated settings."""

    k_true: int = 80
    contamination_fraction: float = 0.05
    kappa: int = 1
    gen_model: CovarianceModel = CovarianceModel(MATERN, rho=0.2, nu=1.0)
    contamination_bound: float = 7.0
    noise_sd: float = float(np.sqrt(0.02))

    def __post_init__(self):
        if self.k_true not in _2D_KTRUE:
            raise ValueError(f"k_true {self.k_true} not in {_2D_KTRUE}")
        if not any(
            abs(self.contamination_fraction - f) < 1e-12 for f in _2D_FRACTIONS
        ):
            raise ValueError(
                f"contamination fraction {self.contamination_fraction} not in "
                f"{_2D_FRACTIONS}"
            )
        if self.kappa not in _2D_KAPPAS:
            raise ValueError(f"kappa {self.kappa} not in {_2D_KAPPAS}")

    @property
    def k_cont(self) -> int:
        return int(round(self.k_true * self.contamination_fraction))


@dataclass(frozen=True)
class Sim3DConfig:
    """3D benchmark: perturbed copies of a reference molecule's first atoms."""

    n_atoms: int = 25
    n_contaminated: int = 5
    perturbation_sd: float = 0.01
    gen_model: CovarianceModel = CovarianceModel(MATERN, rho=5.0, nu=0.5)
    contamination_sd: float = 3.0
    n_scored_atoms: int = 20


@dataclass(frozen=True, eq=False)
class Sim2DPair:
    set_a: MarkedPointSet
    set_b: MarkedPointSet
    true_mask_a: np.ndarray
    true_mask_b: np.ndarray


@dataclass(frozen=True, eq=False)
class Sim3DPair:
    set_a: MarkedPointSet
    set_b: MarkedPointSet
    truth_b: np.ndarray  # pre-contamination B atom positions in A's final frame


def _neighborhood_union(node_indices, kappa: int, n: int = GRID_N) -> np.ndarray:
    """Sorted flat indices of the union of clipped (2 kappa + 1)^2 boxes
    around grid nodes: those whose box on the zero-padded grid holds a node."""
    seed_grid = np.zeros((n, n), dtype=bool)
    seed_grid.flat[np.asarray(node_indices, dtype=int)] = True
    boxes = sliding_window_view(np.pad(seed_grid, kappa), (2 * kappa + 1,) * 2)
    return np.flatnonzero(boxes.any(axis=(2, 3)))


def generate_pair_2d(
    config: Sim2DConfig,
    rng: np.random.Generator,
    field_values: np.ndarray | None = None,
) -> Sim2DPair:
    """One benchmark pair at its optimal relative position (identity).

    The true part of B samples grid nodes directly; the true part of A
    samples the union of (2 kappa + 1)-boxes around B's nodes.  Both sets
    get mark noise; contamination points (uniform marks on [-c, c]) are
    appended last so the optimal masks are (1...1, 0...0).  A precomputed
    field realization on the grid may be shared across pairs.
    """
    grid = grid_coords_2d()
    n_nodes = grid.shape[0]
    k_true, k_cont = config.k_true, config.k_cont
    z = (
        sample_grf(config.gen_model, grid, rng)
        if field_values is None
        else np.asarray(field_values, dtype=float)
    )
    idx_b = rng.choice(n_nodes, size=k_true, replace=False)
    marks_b_true = z[idx_b] + rng.normal(0.0, config.noise_sd, k_true)
    pool = _neighborhood_union(idx_b, config.kappa)
    idx_a = rng.choice(pool, size=k_true, replace=False)
    marks_a_true = z[idx_a] + rng.normal(0.0, config.noise_sd, k_true)

    def contaminate(exclude):
        remaining = np.setdiff1d(np.arange(n_nodes), exclude)
        idx = rng.choice(remaining, size=k_cont, replace=False)
        marks = rng.uniform(-config.contamination_bound, config.contamination_bound, k_cont)
        return idx, marks

    idx_a_cont, marks_a_cont = contaminate(idx_a)
    idx_b_cont, marks_b_cont = contaminate(idx_b)
    coords_a = grid[np.concatenate([idx_a, idx_a_cont])]
    coords_b = grid[np.concatenate([idx_b, idx_b_cont])]
    set_a = MarkedPointSet(coords_a, np.concatenate([marks_a_true, marks_a_cont]))
    set_b = MarkedPointSet(coords_b, np.concatenate([marks_b_true, marks_b_cont]))
    mask = np.concatenate([np.ones(k_true, dtype=bool), np.zeros(k_cont, dtype=bool)])
    return Sim2DPair(set_a, set_b, mask.copy(), mask.copy())


def _reference_block(reference_coords, n_atoms: int) -> np.ndarray:
    """The first n_atoms atom positions of a reference molecule."""
    ref = np.atleast_2d(np.asarray(reference_coords, dtype=float))
    if ref.shape[0] < n_atoms:
        raise GenerationError(f"reference molecule has {ref.shape[0]} atoms < {n_atoms}")
    return ref[:n_atoms]


def generate_pair_3d(
    config: Sim3DConfig,
    reference_coords,
    rng: np.random.Generator,
) -> Sim3DPair:
    """One 3D benchmark pair: A is the reference block, B a jittered copy;
    marks come from a single field draw at the combined points; the last
    atoms of each copy are contaminated; both are centered and uniformly
    rotated.  truth_b holds B's pre-contamination atoms mapped by A's
    centering and rotation, for RMSD scoring of the first atoms."""
    base = _reference_block(reference_coords, config.n_atoms)
    coords_a = base.copy()
    coords_b = base + rng.normal(0.0, config.perturbation_sd, base.shape)
    coords_b_clean = coords_b.copy()
    z = sample_grf(config.gen_model, np.vstack([coords_a, coords_b]), rng)
    marks_a = z[: config.n_atoms].copy()
    marks_b = z[config.n_atoms :].copy()
    nc = config.n_contaminated
    if nc:
        coords_a[-nc:] += rng.normal(0.0, config.contamination_sd, (nc, 3))
        marks_a[-nc:] += rng.normal(0.0, config.contamination_sd, nc)
        coords_b[-nc:] += rng.normal(0.0, config.contamination_sd, (nc, 3))
        marks_b[-nc:] += rng.normal(0.0, config.contamination_sd, nc)
    center_a = coords_a.mean(axis=0)
    center_b = coords_b.mean(axis=0)
    rot_a = random_rotation(rng, 3)
    rot_b = random_rotation(rng, 3)
    set_a = MarkedPointSet((coords_a - center_a) @ rot_a.T, marks_a)
    set_b = MarkedPointSet((coords_b - center_b) @ rot_b.T, marks_b)
    truth_b = (coords_b_clean - center_a) @ rot_a.T
    return Sim3DPair(set_a, set_b, truth_b)


# -- benchmark hyperparameter profiles ---------------------------------------


def sim2d_hyper(zeta: float, n_iterations: int = 50_000) -> Hyperparameters:
    """2D benchmark sampler settings (matching kernel: exponential)."""
    scale = n_iterations / 50_000
    return Hyperparameters(
        alpha=200.0,
        beta=0.05,
        zeta=zeta,
        zeta_i=1.0,
        proposal_sd_rotation=np.radians(0.75),
        proposal_sd_translation=0.01,
        n_iterations=n_iterations,
        escape_period=125,
        escape_scale=10.0,
        restart_threshold=0.3,
        restart_check_iter=max(2, int(round(7_500 * scale))),
        max_restarts=10,
        range_schedule=LinearSchedule(0.6, 0.2, max(2, int(round(1_000 * scale)))),
        thin=20,
    )


def sim2d_match_model() -> CovarianceModel:
    return CovarianceModel(MATERN, rho=0.2, nu=0.5)


def sim2d_init(setting: int) -> InitSpec:
    if setting == 1:
        return InitSpec(rotation_range=np.radians(20.0), translation_range=0.1)
    if setting == 2:
        return InitSpec(rotation_range=np.radians(60.0), translation_range=0.3)
    raise ValueError("setting must be 1 or 2")


def sim3d_hyper(
    beta: float, zeta: float, n_iterations: int = 2_000, range_iters: int = 500
) -> Hyperparameters:
    """3D benchmark sampler settings.

    The range parameter descends 20 -> 5 over the first `range_iters`
    iterations so the chain has time at the final range before the
    restart check at the halfway point.
    """
    scale = n_iterations / 2_000
    return Hyperparameters(
        alpha=31.0,
        beta=beta,
        zeta=zeta,
        zeta_i=1.0,
        proposal_sd_rotation=np.radians(3.25),
        proposal_sd_translation=0.25,
        n_iterations=n_iterations,
        escape_period=125,
        escape_scale=10.0,
        restart_threshold=0.1,
        restart_check_iter=max(2, int(round(1_000 * scale))),
        max_restarts=30,
        range_schedule=LinearSchedule(20.0, 5.0, max(2, int(round(range_iters * scale)))),
        thin=20,
    )


def sim3d_match_model() -> CovarianceModel:
    return CovarianceModel(MATERN, rho=5.0, nu=0.5)


def sim3d_init() -> InitSpec:
    return InitSpec(haar_rotation=True, translation_range=0.0)


# -- study drivers ------------------------------------------------------------


def _record_tail(res: AlignmentResult, deviation: float) -> dict:
    """The fields every study record ends with: the MAP's RMSD and success,
    restarts, failure and the final state's score and unmasked counts."""
    final = res.final_state
    return {
        "rmsd": deviation,
        "success": bool(deviation <= 0.1),
        "n_restarts": res.n_restarts,
        "failed": res.failed,
        "carbo_final": final.carbo.dissimilarity,
        "unmasked_a_final": final.n_unmasked_a,
        "unmasked_b_final": final.n_unmasked_b,
    }


def _run_2d_case(spec: dict) -> dict:
    config = Sim2DConfig(
        k_true=spec["k_true"],
        contamination_fraction=spec["fraction"],
        kappa=spec["kappa"],
    )
    data_rng = np.random.default_rng(spec["data_seed"])
    pair = generate_pair_2d(config, data_rng, field_values=spec["field"])
    hyper = sim2d_hyper(spec["zeta"], n_iterations=spec["n_iterations"])
    init = sim2d_init(spec["setting"])
    res = run_pairwise_alignment(
        pair.set_a,
        pair.set_b,
        sim2d_match_model(),
        hyper,
        init,
        spec["chain_seed"],
    )
    mapped = apply_transform(res.map_state.transform, pair.set_b.coords)
    return {
        "scenario": f"setting{spec['setting']}",
        "field_index": spec["field_index"],
        "k_true": spec["k_true"],
        "k_cont": config.k_cont,
        "kappa": spec["kappa"],
        "zeta": spec["zeta"],
        "replication": spec["replication"],
        **_record_tail(res, rmsd(pair.set_b.coords, mapped)),
    }


def _run_3d_case(spec: dict) -> dict:
    data_rng = np.random.default_rng(spec["data_seed"])
    config = Sim3DConfig()
    pair = generate_pair_3d(config, spec["reference"], data_rng)
    hyper = sim3d_hyper(spec["beta"], spec["zeta"], n_iterations=spec["n_iterations"])
    res = run_pairwise_alignment(
        pair.set_a,
        pair.set_b,
        sim3d_match_model(),
        hyper,
        sim3d_init(),
        spec["chain_seed"],
    )
    ns = config.n_scored_atoms
    mapped = apply_transform(res.map_state.transform, pair.set_b.coords[:ns])
    return {
        "scenario": "sim3d",
        "beta": spec["beta"],
        "zeta": spec["zeta"],
        "replication": spec["replication"],
        **_record_tail(res, rmsd(pair.truth_b[:ns], mapped)),
    }


def _execute(fn, specs: list, workers: int) -> list:
    """[fn(spec) for spec in specs], fanned out over a process pool of
    `workers` when there is more than one; each spec carries its own seeds,
    so the results do not depend on `workers`."""
    if workers <= 1 or len(specs) <= 1:
        return [fn(s) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, specs, chunksize=1))


def run_success_study(
    scenario: str,
    replications: int = 1,
    hyper_grid=None,
    rng_seed=0,
    workers: int = 1,
    n_iterations: int | None = None,
    n_fields: int = 3,
    cells=None,
    zeta_subsample: bool = False,
    reference_coords=None,
) -> list[dict]:
    """Run a benchmark study and return one record per MCMC run.

    scenario "setting1"/"setting2": the 12 (k_true, fraction, kappa)
    configurations crossed with `n_fields` field realizations and the zeta
    values in hyper_grid (default {10, 50, 90}); zeta_subsample=True takes
    one zeta per pair, cycling, to mirror a single pass over the 36 pairs.
    An explicit `cells` list of (k_true, fraction, kappa) restricts the
    configurations.  scenario "sim3d": hyper_grid lists (beta, zeta) cells,
    each run `replications` times.  Records are deterministic given
    rng_seed, independent of `workers`.
    """
    root = np.random.SeedSequence(rng_seed)
    if scenario in ("setting1", "setting2"):
        setting = 1 if scenario == "setting1" else 2
        zetas = list(hyper_grid) if hyper_grid is not None else [10.0, 50.0, 90.0]
        iters = n_iterations if n_iterations is not None else 50_000
        configs = list(
            itertools.product(_2D_KTRUE, _2D_FRACTIONS, _2D_KAPPAS) if cells is None else cells
        )
        grid = grid_coords_2d()
        gen_model = Sim2DConfig().gen_model
        fields = [
            sample_grf(gen_model, grid, np.random.default_rng(ss))
            for ss in root.spawn(n_fields)
        ]
        data_seeds = root.spawn(n_fields * len(configs) * replications)
        specs = []
        cases = itertools.product(range(n_fields), enumerate(configs), range(replications))
        # one data seed per (field, configuration, replication), shared by its zetas
        for data_seed, (f, (ci, (kt, fr, kp)), rep) in zip(data_seeds, cases):
            zeta_list = (
                [zetas[(f * len(configs) + ci + rep) % len(zetas)]]
                if zeta_subsample
                else zetas
            )
            for zeta in zeta_list:
                specs.append(
                    {
                        "setting": setting,
                        "field_index": f,
                        "field": fields[f],
                        "k_true": kt,
                        "fraction": fr,
                        "kappa": kp,
                        "zeta": zeta,
                        "replication": rep,
                        "n_iterations": iters,
                        "data_seed": data_seed,
                    }
                )
        run_case = _run_2d_case
    elif scenario == "sim3d":
        grid_cells = list(hyper_grid) if hyper_grid is not None else [(0.04, 70.0)]
        iters = n_iterations if n_iterations is not None else 2_000
        ref = _reference_block(
            DEFAULT_REFERENCE_COORDS if reference_coords is None else reference_coords,
            Sim3DConfig.n_atoms,
        )
        # paired design: replication r uses the same generated pair in every
        # (beta, zeta) cell, so hyperparameter comparisons cancel the
        # dataset-difficulty noise
        data_seeds = root.spawn(replications)
        specs = [
            {
                "beta": beta,
                "zeta": zeta,
                "replication": rep,
                "n_iterations": iters,
                "reference": ref,
                "data_seed": data_seeds[rep],
            }
            for beta, zeta in grid_cells
            for rep in range(replications)
        ]
        run_case = _run_3d_case
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    for spec, seed in zip(specs, root.spawn(len(specs))):
        spec["chain_seed"] = seed
    return _execute(run_case, specs, workers)


def aggregate_table1(records: list[dict]) -> dict:
    """Marginal success percentages in the 2D benchmark layout."""

    def pct(rows):
        return 100.0 * np.mean([r["success"] for r in rows]) if rows else np.nan

    zetas = sorted({r["zeta"] for r in records})
    kappas = sorted({r["kappa"] for r in records})
    out = {"all": pct(records), "n_runs": len(records)}
    for z in zetas:
        out[f"zeta={z:g}"] = pct([r for r in records if r["zeta"] == z])
    for k in kappas:
        out[f"kappa={k}"] = pct([r for r in records if r["kappa"] == k])
    out["k_true=80,k_cont=4"] = pct(
        [r for r in records if r["k_true"] == 80 and r["k_cont"] == 4]
    )
    out["k_true=40,k_cont=6"] = pct(
        [r for r in records if r["k_true"] == 40 and r["k_cont"] == 6]
    )
    return out


def aggregate_table2(records: list[dict]) -> list[dict]:
    """Per-(beta, zeta) summary rows for the 3D benchmark.

    Mean/sd columns summarize the runs whose restart budget sufficed;
    exhausted runs are counted in the failures column only (a failed run
    has no 'number of starts needed to be successful').
    """
    cells = sorted({(r["beta"], r["zeta"]) for r in records})
    rows = []
    for beta, zeta in cells:
        sub = [r for r in records if r["beta"] == beta and r["zeta"] == zeta]
        ok = [r for r in sub if not r["failed"]] or sub

        def mean(key):
            return float(np.mean([r[key] for r in ok]))

        def sd(key):
            vals = [r[key] for r in ok]
            return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0

        rows.append(
            {
                "beta": beta,
                "zeta": zeta,
                "n_runs": len(sub),
                "unmasked_a_mean": mean("unmasked_a_final"),
                "unmasked_a_sd": sd("unmasked_a_final"),
                "unmasked_b_mean": mean("unmasked_b_final"),
                "unmasked_b_sd": sd("unmasked_b_final"),
                "rmsd_mean": mean("rmsd"),
                "rmsd_sd": sd("rmsd"),
                "starts_mean": mean("n_restarts"),
                "carbo_mean": mean("carbo_final"),
                "failures": int(sum(r["failed"] for r in sub)),
            }
        )
    return rows


def write_records(path, records: list[dict], header_lines=()):
    """Delimited study output, one row per MCMC run."""
    if not records:
        raise ValueError("no records to write")
    keys = [k for k in records[0] if k != "field"]
    write_table(path, keys, ([r[k] for k in keys] for r in records), header_lines)
