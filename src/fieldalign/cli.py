"""Command-line entry points and run orchestration.

Subcommands: align-pair, align-all, gpa, cluster, tfield, simulate.
Configuration is a flat key-value text file ('key = value', '#' comments)
plus --set key=value overrides; named profiles preload the published
defaults so a bare invocation reproduces the reference protocols.  Every
artifact embeds its effective configuration and master seed.

Exit codes: 0 success, 1 alignment failure, 2 configuration error,
3 IO error, 4 degenerate input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, gpa, mcmc, molio, simulation
from .covariance import (
    MATERN,
    CovarianceModel,
    KernelDomainError,
    SingularGramError,
)
from .geometry import RigidTransform, principal_axes_transform
from .kriging import DegenerateFieldError, EmptyFieldError, build_field
from .mcmc import Hyperparameters, InitSpec, LinearSchedule

STERIC_RHO_DEFAULT = 1.7 / np.sqrt(3.0)
# mark channels by name, as indices into molio's (charge, steric) pair
_CHANNELS = {"charge": (0,), "steric": (1,), "both": (0, 1)}


class ConfigError(ValueError):
    """Bad run configuration (unknown key, missing key, bad value)."""


class CliIOError(OSError):
    """File system problem while reading inputs or writing artifacts."""


# -- configuration schema ----------------------------------------------------

_REQUIRED = object()
# a key whose default is AUTO also accepts the value 'auto'
AUTO = "auto"

_ALIGN_KEYS = {
    "channel": (str, "both"),
    "kernel": (str, "gaussian"),
    "nu": (float, 0.5),
    "rho_charge": (float, 6.35),
    "rho_steric": (float, STERIC_RHO_DEFAULT),
    "alpha": (float, 31.0),
    "beta": (float, 0.04),
    "zeta": (float, 3.0),
    "zeta_interaction": (float, 1.0),
    "neighbor_delta": (float, AUTO),  # auto: twice the smallest range
    "rotation_sd_deg": (float, 3.25),
    "translation_sd": (float, 0.25),
    "iterations": (int, 10_000),
    "burn_in": (int, AUTO),  # auto: 20% of iterations
    "thin": (int, 20),
    "escape_period": (int, 125),
    "escape_scale": (float, 10.0),
    "restart_threshold": (float, 0.3),
    "restart_check": (int, 2_500),
    "max_restarts": (int, 10),
    "weight_initial_iters": (int, 1_500),
    "weight_q": (float, 0.5),
    "likelihood": (str, "exponential"),
    "principal_axes": (bool, True),
    "init_rotation_deg": (float, 90.0),
    "init_translation": (float, 5.0),
    "mask_init_p": (float, 0.5),
    "seed": (int, 0),
}

_SCHEMAS: dict[str, dict] = {
    "align-pair": {
        "molecule_a": (str, _REQUIRED),
        "molecule_b": (str, _REQUIRED),
        **_ALIGN_KEYS,
    },
    "align-all": {
        "molecules": (str, _REQUIRED),
        "retry_budget": (int, 2),
        "workers": (int, 2),
        **_ALIGN_KEYS,
    },
    "gpa": {
        "molecules": (str, _REQUIRED),
        "channel": (str, "steric"),
        "kernel": (str, "gaussian"),
        "nu": (float, 0.5),
        "rho": (float, STERIC_RHO_DEFAULT),
        "step1_alpha": (float, 31.0),
        "step1_beta": (float, 0.04),
        "step1_zeta": (float, 2.0),
        "step1_rotation_sd_deg": (float, 3.25),
        "step1_translation_sd": (float, 0.25),
        "step1_iterations": (int, 10_000),
        "step1_restart_threshold": (float, 0.3),
        "step1_restart_check": (int, 2_500),
        "step1_max_restarts": (int, 10),
        "init_rotation_deg": (float, 90.0),
        "init_translation": (float, 5.0),
        "mask_init_p": (float, 0.5),
        "refine_alpha": (float, 600.0),
        "refine_beta": (float, 0.0001),
        "refine_zeta": (float, 2.0),
        "refine_rotation_sd_deg": (float, 0.03),
        "refine_translation_sd": (float, 0.75),
        "refine_iterations": (int, 500),
        "tol": (float, 0.0001),
        "max_passes": (int, 50),
        "seed": (int, 0),
    },
    "cluster": {
        "distances": (str, _REQUIRED),
    },
    "tfield": {
        "molecules": (str, _REQUIRED),
        "transforms_from": (str, _REQUIRED),
        "group_a": (str, _REQUIRED),
        "group_b": (str, _REQUIRED),
        "channel": (str, "steric"),
        "kernel": (str, "gaussian"),
        "nu": (float, 0.5),
        "rho": (float, STERIC_RHO_DEFAULT),
        "spacing": (float, 0.5),
        "padding": (float, 3.0),
        "offset": (float, 0.001),
        "threshold": (float, 8.0),
    },
    "simulate": {
        "scenario": (str, _REQUIRED),
        "replications": (int, 1),
        "zetas": (str, "10,50,90"),
        "beta_zeta": (str, "0.04:70"),
        "zeta_subsample": (bool, False),
        "iterations": (int, AUTO),  # auto: scenario default
        "n_fields": (int, 3),
        "reference": (str, ""),
        "workers": (int, 2),
        "seed": (int, 0),
    },
}

PROFILES: dict[str, tuple[str, dict]] = {
    "steroid-pairwise": ("align-pair", {}),
    "steroid-gpa": ("gpa", {}),
    "sim2d-setting1": ("simulate", {"scenario": "setting1"}),
    "sim2d-setting2": ("simulate", {"scenario": "setting2"}),
    "sim3d": ("simulate", {"scenario": "sim3d"}),
}


def _parse_value(raw: str, typ):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"expected {typ.__name__}, got {raw!r}") from None


def load_config_file(path) -> dict[str, str]:
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliIOError(str(err)) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_config(subcommand: str, file_values: dict, overrides: dict, profile: str | None):
    schema = _SCHEMAS[subcommand]
    merged: dict[str, str] = {}
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigError(f"unknown profile {profile!r}")
        profile_cmd, profile_values = PROFILES[profile]
        if profile_cmd != subcommand:
            raise ConfigError(
                f"profile {profile!r} belongs to subcommand {profile_cmd!r}"
            )
        merged.update({k: str(v) for k, v in profile_values.items()})
    merged.update(file_values)
    merged.update(overrides)
    config = {}
    for key, raw in merged.items():
        if key not in schema:
            raise ConfigError(f"unknown configuration key {key!r} for {subcommand}")
        typ, default = schema[key]
        auto = default == AUTO and raw.strip().lower() == AUTO
        config[key] = AUTO if auto else _parse_value(raw, typ)
    for key, (_typ, default) in schema.items():
        if key in config:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing required configuration key {key!r}")
        config[key] = default
    return config


# -- shared pieces -------------------------------------------------------------


def _auto_none(value):
    """None (the library default) for 'auto', else the value itself."""
    return None if value == AUTO else value


def _config_values(build):
    """Report a ValueError raised while building a model or sampler settings
    as a configuration error."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    return wrapper


@_config_values
def _kernel_model(kind: str, rho: float, nu: float) -> CovarianceModel:
    return CovarianceModel(kind, rho=rho, nu=nu if kind == MATERN else None)


def _channel_indices(config, single: bool = False) -> tuple[int, ...]:
    """The configured mark channels; 'both' only where two are supported."""
    channel = config["channel"]
    allowed = ("charge", "steric") if single else tuple(_CHANNELS)
    if channel not in allowed:
        raise ConfigError(f"channel must be one of {', '.join(allowed)}, not {channel!r}")
    return _CHANNELS[channel]


@_config_values
def _pair_hyper(config, n_channels: int) -> Hyperparameters:
    weight_schedule = None
    if n_channels == 2 and config["weight_initial_iters"] > 0:
        weight_schedule = LinearSchedule(1.0, 0.0, config["weight_initial_iters"])
    return Hyperparameters(
        alpha=config["alpha"],
        beta=config["beta"],
        zeta=config["zeta"],
        zeta_i=config["zeta_interaction"],
        neighbor_delta=_auto_none(config["neighbor_delta"]),
        proposal_sd_rotation=np.radians(config["rotation_sd_deg"]),
        proposal_sd_translation=config["translation_sd"],
        n_iterations=config["iterations"],
        burn_in=_auto_none(config["burn_in"]),
        thin=config["thin"],
        escape_period=config["escape_period"] or None,
        escape_scale=config["escape_scale"],
        restart_threshold=config["restart_threshold"],
        restart_check_iter=config["restart_check"],
        max_restarts=config["max_restarts"],
        likelihood_kind=config["likelihood"],
        weight_schedule=weight_schedule,
        weight_q=config["weight_q"] if n_channels == 2 else 1.0,
    )


@_config_values
def _pair_init(config) -> InitSpec:
    return InitSpec(
        rotation_range=np.radians(config["init_rotation_deg"]),
        translation_range=config["init_translation"],
        mask_p=config["mask_init_p"],
    )


def _on_principal_axes(mol):
    """Both channels of a molecule moved onto its principal axes."""
    coords = principal_axes_transform(mol[0].coords).apply(mol[0].coords)
    return tuple(ps.with_coords(coords) for ps in mol)


def _align_one_direction(config, mol_a, mol_b, seed):
    """Run one directed alignment of mol_b onto mol_a."""
    if config["principal_axes"]:
        mol_a, mol_b = _on_principal_axes(mol_a), _on_principal_axes(mol_b)
    # both models are built, so a bad range fails whatever the channel
    models = [_kernel_model(config["kernel"], config[key], config["nu"])
              for key in ("rho_charge", "rho_steric")]
    channels = _channel_indices(config)
    hyper = _pair_hyper(config, len(channels))
    result = mcmc.run_pairwise_alignment(
        [mol_a[c] for c in channels], [mol_b[c] for c in channels],
        [models[c] for c in channels], hyper, _pair_init(config), seed,
    )
    return result, mol_b[channels[0]].coords, mol_a[channels[0]].coords


def _align_with_retries(job):
    """Align one directed pair, re-running the chain from the job's next seed
    while it fails; standalone for process pools."""
    config, mol_a, mol_b, seeds = job
    for seed in seeds:
        result = _align_one_direction(config, mol_a, mol_b, seed)[0]
        if not result.failed:
            break
    return result


def _artifact_comments(config: dict) -> list[str]:
    lines = [f"config: {json.dumps(config, sort_keys=True)}"]
    if "seed" in config:
        lines.append(f"seed: {config['seed']}")
    return lines


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_molecules(spec: str) -> list[tuple[str, tuple]]:
    """Molecules from a directory (all *.mol sorted) or a list file."""
    p = Path(spec)
    if p.is_dir():
        paths = sorted(p.glob("*.mol"))
    elif p.is_file() and p.suffix != ".mol":
        # relative entries of a list file name files next to the list
        lines = [line.strip() for line in p.read_text().splitlines()]
        paths = [p.parent / line for line in lines if line]
    else:
        paths = [p]
    if not paths:
        raise CliIOError(f"no molecule files found under {spec}")
    out = []
    seen = {}
    for path in paths:
        if path.stem in seen:
            raise CliIOError(
                f"molecules {seen[path.stem]} and {path} share the name {path.stem!r}"
            )
        seen[path.stem] = path
        out.append((path.stem, molio.parse_molecule_file(path)))
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_align_pair(config, out_dir: Path) -> int:
    mol_a = molio.parse_molecule_file(config["molecule_a"])
    mol_b = molio.parse_molecule_file(config["molecule_b"])
    result, start_b, coords_a = _align_one_direction(config, mol_a, mol_b, config["seed"])
    embed = {"config": config, "seed": config["seed"]}
    comments = _artifact_comments(config)
    _write_json(out_dir / "result.json", {**embed, **mcmc.result_to_dict(result)})
    mcmc.write_trace(out_dir / "trace.csv", result, header_lines=comments)
    mapped = result.map_state.transform.apply(start_b)
    stages = (("A", "start", coords_a), ("A", "map", coords_a), ("B", "start", start_b),
              ("B", "map", mapped))
    rows = [(s, stage, *xyz) for s, stage, coords in stages for xyz in coords]
    analysis.write_table(out_dir / "scatter.csv", ("set", "stage", "x", "y", "z"), rows,
                         comments, sep=",")
    return 1 if result.failed else 0


def cmd_align_all(config, out_dir: Path) -> int:
    molecules = _read_molecules(config["molecules"])
    names = [name for name, _ in molecules]
    n = len(molecules)
    if n < 2:
        raise ConfigError("align-all needs at least two molecules")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    # pair idx runs from seeds[idx], then retries from its own budget slice
    n_pairs, budget = len(pairs), config["retry_budget"]
    if budget < 0:
        raise ConfigError("retry_budget must be nonnegative")
    seeds = np.random.SeedSequence(config["seed"]).spawn(n_pairs * (1 + budget))
    jobs = [
        (config, molecules[i][1], molecules[j][1],
         [seeds[idx], *seeds[n_pairs + idx * budget : n_pairs + (idx + 1) * budget]])
        for idx, (i, j) in enumerate(pairs)
    ]
    outcomes = simulation._execute(_align_with_retries, jobs, max(1, config["workers"]))
    results = dict(zip(pairs, outcomes))
    failed_pairs = [pair for pair in pairs if results[pair].failed]
    embed = {"config": config, "seed": config["seed"],
             "molecules": names,
             "failed_pairs": [[names[i], names[j]] for i, j in failed_pairs]}
    _write_json(out_dir / "align_all.json", embed)
    comments = _artifact_comments(config)
    for kind, attr in (("map", "plug_in_distance"), ("mean", "plug_in_distance_mean")):
        mat = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            forward, backward = results[(i, j)], results[(j, i)]
            mat[i, j] = mat[j, i] = (
                np.nan
                if forward.failed or backward.failed
                else analysis.symmetrize_distances(
                    getattr(forward, attr), getattr(backward, attr)
                )
            )
        analysis.write_matrix(out_dir / f"d{kind}.tsv", names, mat, comments)
    return 1 if failed_pairs else 0


@_config_values
def _gpa_config_to_objects(config):
    model = _kernel_model(config["kernel"], config["rho"], config["nu"])
    step1 = Hyperparameters(
        alpha=config["step1_alpha"],
        beta=config["step1_beta"],
        zeta=config["step1_zeta"],
        proposal_sd_rotation=np.radians(config["step1_rotation_sd_deg"]),
        proposal_sd_translation=config["step1_translation_sd"],
        n_iterations=config["step1_iterations"],
        restart_threshold=config["step1_restart_threshold"],
        restart_check_iter=config["step1_restart_check"],
        max_restarts=config["step1_max_restarts"],
    )
    refine = Hyperparameters(
        alpha=config["refine_alpha"],
        beta=config["refine_beta"],
        zeta=config["refine_zeta"],
        proposal_sd_rotation=np.radians(config["refine_rotation_sd_deg"]),
        proposal_sd_translation=config["refine_translation_sd"],
        n_iterations=config["refine_iterations"],
        escape_period=None,
    )
    return model, gpa.GpaConfig(
        step1_hyper=step1,
        step1_init=_pair_init(config),
        refine_hyper=refine,
        tol=config["tol"],
        max_passes=config["max_passes"],
    )


def cmd_gpa(config, out_dir: Path) -> int:
    molecules = _read_molecules(config["molecules"])
    names = [name for name, _ in molecules]
    if len(molecules) < 2:
        raise ConfigError("gpa needs at least two molecules")
    (channel,) = _channel_indices(config, single=True)
    sets = [mol[channel] for _name, mol in molecules]
    model, gpa_config = _gpa_config_to_objects(config)
    state, results = gpa.run_field_gpa(sets, model, gpa_config, config["seed"])
    payload = {
        "config": config,
        "seed": config["seed"],
        "molecules": names,
        "transforms": [mcmc._transform_dict(t) for t in state.transforms],
        "masks": [[int(v) for v in m] for m in state.masks],
        "multi_carbo": float(state.multi_carbo),
        "criterion_history": [float(c) for c in state.criterion_history],
        "passes": int(state.iteration),
        "converged": bool(state.converged),
    }
    _write_json(out_dir / "gpa.json", payload)
    comments = _artifact_comments(config)
    for name, res in zip(names, results):
        mcmc.write_trace(out_dir / f"gpa_trace_{name}.csv", res, header_lines=comments)
    return 0


def cmd_cluster(config, out_dir: Path) -> int:
    matrix = analysis.DistanceMatrix.load(config["distances"])
    dendrogram = analysis.ward_cluster(matrix)
    dendrogram.save(out_dir / "merges.tsv", header_lines=_artifact_comments(config))
    with open(out_dir / "dendrogram.newick", "w") as fh:
        fh.write(dendrogram.to_newick() + "\n")
    return 0


def _load_gpa_result(path, *keys) -> dict:
    """A gpa.json-like object holding "molecules" and the given keys."""
    with open(path) as fh:
        try:
            result = json.load(fh)
        except json.JSONDecodeError as err:
            raise CliIOError(f"{path}: not a JSON file ({err})") from None
    missing = [k for k in ("molecules", *keys) if not isinstance(result, dict) or k not in result]
    if missing:
        raise CliIOError(f"{path}: no {', '.join(missing)} in the GPA result")
    return result


def _gpa_entries(path, key: str, parse) -> list[tuple[str, object]]:
    """(molecule, parse(entry)) per entry of the "molecules" and `key` lists
    of a gpa.json-like file; a malformed list or entry raises CliIOError."""
    result = _load_gpa_result(path, key)
    names, entries = result["molecules"], result[key]
    try:
        if not (isinstance(names, list) and isinstance(entries, list)
                and 0 < len(names) == len(entries) and all(isinstance(n, str) for n in names)):
            raise ValueError(f"molecules must list one name per {key} entry")
        return [(name, parse(entry)) for name, entry in zip(names, entries)]
    except (KeyError, TypeError, ValueError) as err:
        raise CliIOError(f"{path}: malformed {key}: {err!r}") from None


def _gpa_transform(entry: dict) -> RigidTransform:
    transform = RigidTransform(entry["euler_radians"], entry["translation"])
    if transform.dimension != 3:
        raise ValueError("molecule transforms are three-dimensional")
    return transform


@_config_values
def _tfield_statistics(config, fields_a, fields_b, coords):
    """The grid covering coords, the t-field on it and its regions."""
    grid = analysis.GridSpec.covering(coords, config["spacing"], config["padding"])
    tf = analysis.t_field(fields_a, fields_b, grid, offset_d=config["offset"])
    return grid, tf, analysis.threshold_regions(tf, config["threshold"])


def cmd_tfield(config, out_dir: Path) -> int:
    molecules = dict(_read_molecules(config["molecules"]))
    (channel,) = _channel_indices(config, single=True)
    model = _kernel_model(config["kernel"], config["rho"], config["nu"])
    transforms = dict(_gpa_entries(config["transforms_from"], "transforms", _gpa_transform))

    def group_masks(group_path):
        entries = _gpa_entries(group_path, "masks", lambda mask: np.array(mask, dtype=bool))
        for name, mask in entries:
            if name not in molecules:
                raise ConfigError(f"molecule {name!r} not found in inputs")
            if name not in transforms:
                raise ConfigError(f"molecule {name!r} missing from transforms_from")
            if mask.shape != (molecules[name][channel].k,):
                raise CliIOError(f"{group_path}: the mask of {name!r} does not fit its atoms")
        return entries

    # every entry is checked before the first field is kriged
    groups = [group_masks(config[key]) for key in ("group_a", "group_b")]
    fields_a, fields_b = (
        [
            build_field(molecules[name][channel], mask=mask, model=model)
            .transformed(transforms[name])
            for name, mask in entries
        ]
        for entries in groups
    )
    coords = np.vstack([field.active_coords for field in fields_a + fields_b])
    grid, tf, regions = _tfield_statistics(config, fields_a, fields_b, coords)
    comments = _artifact_comments(config)
    tf.save(out_dir / "tfield.txt", header_lines=comments)
    analysis.write_regions(out_dir / "regions.tsv", regions, grid, header_lines=comments)
    _write_json(
        out_dir / "tfield.json",
        {
            "config": config,
            "grid": {
                "origin": list(grid.origin),
                "spacing": grid.spacing,
                "shape": list(grid.shape),
            },
            "n_nodes": grid.n_nodes,
            "n_regions": len(regions),
        },
    )
    return 0


def cmd_simulate(config, out_dir: Path) -> int:
    scenario = config["scenario"]
    n_iterations = _auto_none(config["iterations"])
    if n_iterations is not None and n_iterations < 1:
        raise ConfigError("iterations must be positive or auto")
    if config["replications"] < 1 or config["n_fields"] < 1:
        raise ConfigError("replications and n_fields must be positive")
    if scenario in ("setting1", "setting2"):
        grid = [_parse_value(z, float) for z in config["zetas"].split(",") if z]
        study = {"n_fields": config["n_fields"], "zeta_subsample": config["zeta_subsample"]}
    elif scenario == "sim3d":
        cells = [cell.partition(":") for cell in config["beta_zeta"].split(",") if cell]
        grid = [(_parse_value(beta, float), _parse_value(zeta, float)) for beta, _, zeta in cells]
        study = {"reference_coords": None}
        if config["reference"]:
            _charge, steric = molio.parse_molecule_file(config["reference"])
            study["reference_coords"] = steric.coords
    else:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if not grid:
        raise ConfigError("the zeta grid (zetas or beta_zeta) is empty")
    records = simulation.run_success_study(
        scenario,
        replications=config["replications"],
        hyper_grid=grid,
        rng_seed=config["seed"],
        workers=max(1, config["workers"]),
        n_iterations=n_iterations,
        **study,
    )
    if scenario == "sim3d":
        summary = {"cells": simulation.aggregate_table2(records)}
    else:
        summary = simulation.aggregate_table1(records)
    simulation.write_records(
        out_dir / "records.tsv", records, header_lines=_artifact_comments(config)
    )
    _write_json(
        out_dir / "summary.json",
        {
            "config": config,
            "seed": config["seed"],
            "summary": summary,
        },
    )
    return 0


_COMMANDS = {
    "align-pair": cmd_align_pair,
    "align-all": cmd_align_all,
    "gpa": cmd_gpa,
    "cluster": cmd_cluster,
    "tfield": cmd_tfield,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldalign",
        description="Bayesian alignment of unlabeled marked point sets via kriged random fields",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key-value configuration file")
        p.add_argument("--profile", help="named default profile")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out-dir", default=".", help="artifact output directory")
        if "workers" in _SCHEMAS[name]:
            p.add_argument("--workers", type=int, help="worker pool size override")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="configuration override (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if getattr(args, "workers", None) is not None:
            overrides["workers"] = str(args.workers)
        config = build_config(args.subcommand, file_values, overrides, args.profile)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.subcommand](config, out_dir)
    except (ConfigError, mcmc.ConfigurationError, KernelDomainError,
            simulation.GenerationError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (molio.MoleculeParseError, analysis.DistanceError, CliIOError, OSError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except (SingularGramError, DegenerateFieldError, EmptyFieldError) as err:
        print(f"degenerate input: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
