import argparse
import pathlib

import lrtc
from lrtc import cli

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


SCHEDULE_FLAGS = ["--rho0", "--rho-max", "--rho-mult", "--epsilon", "--max-iter"]
INPUT_FLAGS = ["--input", "--format", "--dims"]

CLI_OPTIONS = {
    "impute": ["-h", "--help", *INPUT_FLAGS, "--theta", *SCHEDULE_FLAGS, "--solver", "--output",
               "--trace-output", "--config"],
    "benchmark": ["-h", "--help", *INPUT_FLAGS, "--synth", "--offset", "--synth-seed", "--pattern",
                  "--rate", "--seed", "--theta", "--solver", "--report", "--jobs", *SCHEDULE_FLAGS,
                  "--config"],
    "cv": ["-h", "--help", *INPUT_FLAGS, "--pattern", "--rate", "--seed", "--grid",
           "--holdout-fraction", *SCHEDULE_FLAGS, "--config"],
    "synth": ["-h", "--help", "--dims", "--rank", "--offset", "--seed", "--ones-factors", "--output",
              "--format"],
}

RUN_CONFIG_KEYS = [
    "dims", "epsilon", "format", "grid", "holdout_fraction", "input", "max_iter", "output",
    "pattern", "rate", "report", "rho0", "rho_max", "rho_mult", "seed", "theta", "trace_output",
]


def _options(parser):
    return [option for action in parser._actions for option in action.option_strings]


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    assert _options(parser) == ["-h", "--help"]
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _options(sub) for name, sub in commands.choices.items()} == CLI_OPTIONS
    assert sorted(cli.CONFIG_KEYS) == RUN_CONFIG_KEYS
    # every config key is the dest of a flag of some subcommand that takes --config
    dests = {
        action.dest
        for sub in commands.choices.values()
        if "--config" in _options(sub)
        for action in sub._actions
    }
    assert set(cli.CONFIG_KEYS) <= dests


def test_environment_surface_is_pinned():
    # LRTC_JOBS is the one environment variable the package reads
    package = pathlib.Path(lrtc.__file__).parent
    reads = [
        line.strip()
        for path in sorted(package.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "environ" in line or "getenv" in line
    ]
    assert reads == ['raw = os.environ.get(JOBS_ENV_VAR, "1")']
    assert cli.JOBS_ENV_VAR == "LRTC_JOBS"
