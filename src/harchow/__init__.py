"""Structural-break (Chow) tests robust to heteroscedasticity and
autocorrelation, built on a series long-run variance estimator with
kernel-orthonormalized basis functions, plus the supporting Monte Carlo
machinery."""

__version__ = "0.1.0"

from .autok import (
    PluginModel,
    fit_var1,
    mse_optimal_k,
    plugin_from_fit,
    score_series,
)
from .bases import (
    BasisSet,
    break_index,
    fourier_matrix,
    norm_factor,
)
from .chowtest import (
    DEFAULT_VARIANT,
    VARIANTS,
    TestReport,
    TestVariant,
    run_test,
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
from .longrun import sandwich_variance
from .mcstudy import (
    DgpSpec,
    ExperimentResult,
    k_grid_experiment,
    power_experiment,
    size_experiment,
)
from .numkit import RngStream
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
    "critical_value",
    "empirical_p",
    "fit_var1",
    "fourier_matrix",
    "full_break_hypothesis",
    "k_grid_experiment",
    "mse_optimal_k",
    "norm_factor",
    "ols_fit",
    "partial_out",
    "plugin_from_fit",
    "power_experiment",
    "run_test",
    "sandwich_variance",
    "score_series",
    "simulate_limit",
    "size_experiment",
    "wald_stat",
]
