import lrtc

PUBLIC_API = [
    "CompletionError",
    "ConfigError",
    "DEFAULT_THETA_GRID",
    "DegenerateProblemError",
    "DimensionError",
    "EvaluationReport",
    "InvalidInputError",
    "MissingScenario",
    "ParseError",
    "SolverConfig",
    "SolverResult",
    "ThetaScore",
    "cross_validate_theta",
    "evaluation_mask",
    "fold",
    "frobenius_norm",
    "generate_nm_mask",
    "generate_rm_mask",
    "load_run_config",
    "load_tensor",
    "mape",
    "rmse",
    "run_benchmark",
    "run_experiment",
    "save_tensor",
    "scenario_mask",
    "select_best_theta",
    "solve",
    "solve_halrtc",
    "svt",
    "synth_lowrank",
    "thin_svd",
    "truncated_svt",
    "truncation_for_mode",
    "unfold",
    "weighted_svt",
]


def test_public_api_is_pinned_and_resolves():
    assert sorted(lrtc.__all__) == PUBLIC_API
    for name in lrtc.__all__:
        getattr(lrtc, name)
