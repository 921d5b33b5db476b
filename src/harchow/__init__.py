"""Structural-break (Chow) tests robust to heteroscedasticity and
autocorrelation, built on a series long-run variance estimator with
kernel-orthonormalized basis functions, plus the supporting Monte Carlo
machinery."""

__version__ = "0.1.0"

from .autok import (
    PluginModel,
    build_plugin_model,
    fit_var1,
    mse_optimal_k,
    plugin_from_fit,
    score_series,
)
from .bases import (
    BasisSet,
    KernelMatrix,
    break_index,
    fourier_matrix,
    gram_transform,
    kernel_inner,
    kernel_matrix,
    norm_factor,
    phi_tilde_grid,
)
from .chowtest import (
    DEFAULT_VARIANT,
    VARIANTS,
    TestReport,
    TestVariant,
    modified_f,
    modified_t,
    run_test,
    scaled_f,
    scaled_t,
    t_stat,
    wald_stat,
)
from .errors import (
    BreakTooExtreme,
    DegenerateSimulation,
    HarchowError,
    KTooSmall,
    NotPositiveDefinite,
    RegimeTooSmall,
    Unstable,
)
from .fixedlimit import (
    CriticalValueCache,
    LimitSpec,
    SimulatedDistribution,
    critical_value,
    empirical_p,
    simulate_limit,
)
from .longrun import sandwich_variance, series_lrv
from .mcstudy import (
    DgpSpec,
    ExperimentResult,
    k_grid_experiment,
    power_experiment,
    simulate_dgp,
    size_experiment,
)
from .numkit import RngStream, standard_normals
from .regression import (
    BreakHypothesis,
    FitResult,
    RegressionData,
    build_break_design,
    full_break_hypothesis,
    ols_fit,
    partial_out,
)

__all__ = [
    "BasisSet",
    "BreakHypothesis",
    "BreakTooExtreme",
    "CriticalValueCache",
    "DEFAULT_VARIANT",
    "DegenerateSimulation",
    "DgpSpec",
    "ExperimentResult",
    "FitResult",
    "HarchowError",
    "KTooSmall",
    "KernelMatrix",
    "LimitSpec",
    "NotPositiveDefinite",
    "PluginModel",
    "RegimeTooSmall",
    "RegressionData",
    "RngStream",
    "SimulatedDistribution",
    "TestReport",
    "TestVariant",
    "Unstable",
    "VARIANTS",
    "break_index",
    "build_break_design",
    "build_plugin_model",
    "critical_value",
    "empirical_p",
    "fit_var1",
    "fourier_matrix",
    "full_break_hypothesis",
    "gram_transform",
    "k_grid_experiment",
    "kernel_inner",
    "kernel_matrix",
    "modified_f",
    "modified_t",
    "mse_optimal_k",
    "norm_factor",
    "ols_fit",
    "partial_out",
    "phi_tilde_grid",
    "plugin_from_fit",
    "power_experiment",
    "run_test",
    "sandwich_variance",
    "scaled_f",
    "scaled_t",
    "score_series",
    "series_lrv",
    "simulate_dgp",
    "simulate_limit",
    "size_experiment",
    "standard_normals",
    "t_stat",
    "wald_stat",
]
