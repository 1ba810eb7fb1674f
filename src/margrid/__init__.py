"""Marginal likelihood surfaces over hyperparameter grids.

Estimate a model's marginal likelihood as a function of a continuous
hyperparameter from independent Monte Carlo samples drawn at finitely
many grid values: reweight the samples into a row-stochastic grid
matrix, read the grid marginals off its stationary vector, and extend
them to the whole domain with the same cached weights.  Variance
diagnostics, a griddy Gibbs baseline, and a sequential rule for placing
new sampling effort round out the toolkit.
"""

from .baselines import (
    GibbsTrace,
    nearest_neighbor_extrapolate,
    run_griddy_chains,
    run_griddy_gibbs,
)
from .design import (
    DesignState,
    incremental_weights,
    optimal_weights,
    pivotal_sample,
    run_design_loop,
)
from .diagnostics import (
    VarianceDiagnostics,
    group_inverse,
    hitting_probabilities,
    pointwise_variance_bound,
    spectral_gap,
    variance_diagnostics,
    weight_ratio_variances,
)
from .emus import (
    EmusEstimate,
    LogWeightCache,
    SampleBank,
    bridge_ratio,
    child_rng,
    compute_log_weights,
    draw_sample_bank,
    estimate_transition_matrix,
    fit_emus,
    stationary_vector,
)
from .errors import (
    DegenerateWeightError,
    GradientUnavailableError,
    GridError,
    MargridError,
    NoOverlapError,
    NotReversibleError,
    ReducibleChainError,
)
from .exact import (
    enumerate_discrete_kernel,
    enumerate_discrete_transition,
    exhaustive_discrete_bank,
    quadrature_optimal_weights,
    quadrature_transition_matrix,
)
from .experiments import (
    ExperimentConfig,
    build_grids,
    build_model,
    exact_reference,
    exact_stationary,
    mean_abs_error,
    normalized_l2_error,
    run_compare,
    run_design_study,
    run_estimate,
    run_rate_study,
)
from .functional import FunctionalEstimate, argmax_on, profile
from .grids import (
    Domain,
    HyperGrid,
    make_regular_grid,
    trapezoid_weights,
)
from .models import (
    DiscreteModel,
    GpRegressionModel,
    Model,
    ToyBimodalModel,
    discrete_table_from_csv,
    gp_dataset_from_csv,
    gp_dataset_to_csv,
    make_synthetic_gp_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Domain", "HyperGrid", "make_regular_grid", "trapezoid_weights",
    "Model", "DiscreteModel", "ToyBimodalModel", "GpRegressionModel",
    "make_synthetic_gp_dataset", "gp_dataset_to_csv", "gp_dataset_from_csv",
    "discrete_table_from_csv",
    "SampleBank", "LogWeightCache", "EmusEstimate", "child_rng",
    "draw_sample_bank", "compute_log_weights", "estimate_transition_matrix",
    "stationary_vector", "fit_emus", "bridge_ratio",
    "hitting_probabilities", "weight_ratio_variances",
    "pointwise_variance_bound", "VarianceDiagnostics", "variance_diagnostics",
    "group_inverse", "spectral_gap",
    "FunctionalEstimate", "profile", "argmax_on",
    "GibbsTrace", "run_griddy_gibbs", "run_griddy_chains", "nearest_neighbor_extrapolate",
    "optimal_weights", "incremental_weights",
    "pivotal_sample", "DesignState", "run_design_loop",
    "enumerate_discrete_transition", "enumerate_discrete_kernel",
    "exhaustive_discrete_bank", "quadrature_transition_matrix",
    "quadrature_optimal_weights",
    "ExperimentConfig", "build_model", "build_grids",
    "mean_abs_error", "normalized_l2_error", "exact_stationary",
    "exact_reference", "run_estimate", "run_compare", "run_rate_study",
    "run_design_study",
    "MargridError", "GridError", "ReducibleChainError", "NoOverlapError",
    "NotReversibleError", "DegenerateWeightError", "GradientUnavailableError",
]
