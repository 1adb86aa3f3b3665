"""Bayesian alignment of unlabeled marked point sets via kriged random
fields, RKHS Kernel Carbo similarity and MCMC inference."""

from .analysis import (
    DistanceMatrix,
    GridSpec,
    TFieldGrid,
    symmetrize_distances,
    t_field,
    threshold_regions,
    ward_cluster,
)
from .covariance import (
    GAUSSIAN,
    MATERN,
    CovarianceModel,
    empirical_semivariogram,
    gram_matrix,
    kernel_value,
    modified_bessel_k,
)
from .geometry import (
    MarkedPointSet,
    RigidTransform,
    apply_transform,
    euler_prior_log_density,
    rmsd,
    rotation_matrix,
)
from .gpa import (
    GpaConfig,
    GpaState,
    MeanField,
    group_mean_field,
    leave_one_out_similarity,
    multi_carbo,
    run_field_gpa,
)
from .kriging import PredictedField, build_field
from .mcmc import (
    AlignmentResult,
    ChainState,
    Hyperparameters,
    InitSpec,
    LinearSchedule,
    PairEngine,
    gibbs_update_tau,
    log_likelihood,
    mask_log_prior,
    run_pairwise_alignment,
)
from .molio import parse_molecule_file, write_molecule_file
from .similarity import CarboScore, combined_carbo, partial_carbo, rkhs_inner
from .simulation import (
    Sim2DConfig,
    Sim3DConfig,
    generate_pair_2d,
    generate_pair_3d,
    run_success_study,
    sample_grf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
