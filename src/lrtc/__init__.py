"""Low-rank tensor completion with truncated nuclear norm minimization.

Completes partially observed third-order tensors (location x day x time of
day) by ADMM over truncated singular value thresholding of all three
unfoldings, with the plain nuclear-norm solver as the zero-truncation special
case, plus a benchmark harness for random / non-random missing-data
experiments.
"""

from .errors import (
    CompletionError,
    ConfigError,
    DegenerateProblemError,
    DimensionError,
    InvalidInputError,
    ParseError,
)
from .tensor_ops import fold, frobenius_norm, unfold
from .shrinkage import svt, thin_svd, truncated_svt, truncation_for_mode, weighted_svt
from .solver import SolverConfig, SolverResult, solve, solve_halrtc
from .masks import MissingScenario, generate_nm_mask, generate_rm_mask, scenario_mask
from .metrics import mape, rmse
from .synthetic import synth_lowrank
from .experiments import (
    DEFAULT_THETA_GRID,
    EvaluationReport,
    cross_validate_theta,
    evaluation_mask,
    run_benchmark,
    run_experiment,
    select_best_theta,
)
from .data_io import load_run_config, load_tensor, save_tensor

__version__ = "0.1.0"

__all__ = [
    "CompletionError",
    "ConfigError",
    "DegenerateProblemError",
    "DimensionError",
    "InvalidInputError",
    "ParseError",
    "unfold",
    "fold",
    "frobenius_norm",
    "thin_svd",
    "truncation_for_mode",
    "truncated_svt",
    "svt",
    "weighted_svt",
    "SolverConfig",
    "SolverResult",
    "solve",
    "solve_halrtc",
    "MissingScenario",
    "generate_rm_mask",
    "generate_nm_mask",
    "scenario_mask",
    "mape",
    "rmse",
    "synth_lowrank",
    "DEFAULT_THETA_GRID",
    "EvaluationReport",
    "run_experiment",
    "run_benchmark",
    "cross_validate_theta",
    "select_best_theta",
    "evaluation_mask",
    "load_tensor",
    "save_tensor",
    "load_run_config",
]
