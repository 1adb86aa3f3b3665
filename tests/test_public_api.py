"""The package's public surface is pinned: adding or removing a name has
to change this list on purpose."""

import dataclasses
import re
from pathlib import Path

import fieldalign

README = Path(__file__).resolve().parent.parent / "README.md"

SUBMODULES = {"analysis", "covariance", "geometry", "gpa", "kriging", "mcmc", "molio",
              "similarity", "simulation"}

PUBLIC = SUBMODULES | {
    "AlignmentResult", "CarboScore", "ChainState", "CovarianceModel", "DistanceMatrix",
    "GAUSSIAN", "GpaConfig", "GpaState", "GridSpec", "Hyperparameters", "InitSpec",
    "LinearSchedule", "MATERN", "MarkedPointSet", "MeanField", "PairEngine",
    "PredictedField", "RigidTransform", "Sim2DConfig", "Sim3DConfig", "TFieldGrid",
    "apply_transform", "build_field", "combined_carbo", "empirical_semivariogram",
    "euler_prior_log_density", "generate_pair_2d", "generate_pair_3d",
    "gibbs_update_tau", "gram_matrix", "group_mean_field", "kernel_value",
    "leave_one_out_similarity", "log_likelihood", "mask_log_prior", "modified_bessel_k",
    "multi_carbo", "parse_molecule_file", "partial_carbo", "rkhs_inner", "rmsd",
    "rotation_matrix", "run_field_gpa", "run_pairwise_alignment", "run_success_study",
    "sample_grf", "symmetrize_distances", "t_field", "threshold_regions",
    "ward_cluster", "write_molecule_file",
}


def test_all_is_pinned():
    assert set(fieldalign.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(fieldalign, name), name


# every sampler setting; a new knob has to be added here on purpose
HYPERPARAMETER_FIELDS = (
    "alpha", "beta", "proposal_sd_rotation", "proposal_sd_translation", "n_iterations",
    "zeta", "zeta_i", "neighbor_delta", "escape_period", "escape_scale",
    "restart_threshold", "restart_check_iter", "max_restarts", "burn_in", "thin",
    "likelihood_kind", "range_schedule", "weight_schedule", "weight_q", "update_masks",
    "update_tau", "tau_init",
)
INIT_SPEC_FIELDS = ("rotation_range", "translation_range", "haar_rotation", "mask_p")


def test_sampler_settings_are_pinned():
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(fieldalign.Hyperparameters) == HYPERPARAMETER_FIELDS
    assert names(fieldalign.InitSpec) == INIT_SPEC_FIELDS


def test_readme_quick_start_import_resolves():
    text = README.read_text()
    block = re.search(r"^from fieldalign import \(.*?\)$", text, re.M | re.S)
    assert block is not None, "README quick start has no fieldalign import"
    names = [n.strip() for n in block.group(0).split("(", 1)[1].rstrip(")").split(",")]
    names = [n for n in names if n]
    assert names and set(names) <= PUBLIC
    exec(block.group(0), {})
