"""Command-line interface: impute, benchmark, cv, synth.

Exit codes: 0 success (including non-convergence, which only warns on
stderr), 2 usage or file-parse errors, 3 configuration errors, 4 runtime
errors. A run-configuration file (``--config``) supplies defaults for the
flags the command line leaves unset, for the keys that
``data_io.load_run_config`` accepts. ``LRTC_JOBS`` sets the default worker
count for benchmarks.
"""

import argparse
import os
import sys

import numpy as np

from .data_io import FORMATS, load_run_config, load_tensor, save_tensor
from .errors import CompletionError, ConfigError, ParseError
from .experiments import (
    DEFAULT_THETA_GRID,
    cross_validate_theta,
    format_report_table,
    run_benchmark,
    write_report_csv,
    write_report_json,
)
from .masks import PATTERNS, MissingScenario
from .solver import SOLVER_NAMES, SolverConfig, solve, solver_config
from .synthetic import synth_lowrank

JOBS_ENV_VAR = "LRTC_JOBS"

# SolverConfig fields of the penalty schedule and the stopping rule; each is
# one flag (``--rho-max`` for ``rho_max``) typed like the field's default.
SCHEDULE_FIELDS = ("rho0", "rho_max", "rho_mult", "epsilon", "max_iter")


def _add_input_flags(parser, required=True):
    parser.add_argument("--input", required=required, help="tensor file to load")
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument(
        "--dims",
        nargs=2,
        type=int,
        metavar=("DAYS", "INTERVALS"),
        default=None,
        help="day/interval split for csv input",
    )


def _add_schedule_flags(parser):
    for name in SCHEDULE_FIELDS:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=type(getattr(SolverConfig, name)), default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrtc",
        description="Low-rank tensor completion and imputation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_impute = sub.add_parser("impute", help="complete one tensor file")
    _add_input_flags(p_impute)
    p_impute.add_argument("--theta", type=float, default=None)
    _add_schedule_flags(p_impute)
    p_impute.add_argument("--solver", choices=SOLVER_NAMES, default=None)
    p_impute.add_argument("--output", required=True)
    p_impute.add_argument("--trace-output", default=None)
    p_impute.add_argument("--config", default=None, help="run-configuration file")
    p_impute.set_defaults(func=cmd_impute)

    p_bench = sub.add_parser("benchmark", help="scenario grid over solvers")
    _add_input_flags(p_bench, required=False)
    p_bench.add_argument(
        "--synth",
        nargs=4,
        type=int,
        metavar=("N1", "N2", "N3", "RANK"),
        default=None,
        help="benchmark a synthetic low-rank tensor instead of a file",
    )
    p_bench.add_argument("--offset", type=float, default=10.0)
    p_bench.add_argument("--synth-seed", type=int, default=0)
    p_bench.add_argument("--pattern", nargs="+", choices=PATTERNS, default=None)
    p_bench.add_argument("--rate", nargs="+", type=float, default=None)
    p_bench.add_argument("--seed", nargs="+", type=int, default=None)
    p_bench.add_argument("--theta", nargs="+", type=float, default=None)
    p_bench.add_argument("--solver", nargs="+", choices=SOLVER_NAMES, default=None)
    p_bench.add_argument("--report", required=True)
    p_bench.add_argument("--jobs", type=int, default=None)
    _add_schedule_flags(p_bench)
    p_bench.add_argument("--config", default=None)
    p_bench.set_defaults(func=cmd_benchmark)

    p_cv = sub.add_parser("cv", help="cross-validate theta on one scenario")
    _add_input_flags(p_cv)
    p_cv.add_argument("--pattern", choices=PATTERNS, default=None)
    p_cv.add_argument("--rate", type=float, default=None)
    p_cv.add_argument("--seed", type=int, default=None)
    p_cv.add_argument("--grid", nargs="+", type=float, default=None)
    p_cv.add_argument("--holdout-fraction", type=float, default=None)
    _add_schedule_flags(p_cv)
    p_cv.add_argument("--config", default=None)
    p_cv.set_defaults(func=cmd_cv)

    p_synth = sub.add_parser("synth", help="write a synthetic low-rank tensor file")
    p_synth.add_argument("--dims", nargs=3, type=int, required=True, metavar=("N1", "N2", "N3"))
    p_synth.add_argument("--rank", type=int, required=True)
    p_synth.add_argument("--offset", type=float, default=10.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--ones-factors", action="store_true")
    p_synth.add_argument("--output", required=True)
    p_synth.add_argument("--format", choices=FORMATS, default="dense")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _apply_config_file(args):
    """Fill every flag the command line left unset from the --config file.

    Run-config keys are the flags' argparse dests; keys this subcommand has
    no flag for are ignored.
    """
    if getattr(args, "config", None) is None:
        return
    for key, value in load_run_config(args.config).items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _schedule_config(args, theta):
    """SolverConfig at ``theta`` with every schedule flag that was given."""
    given = {name: getattr(args, name) for name in SCHEDULE_FIELDS}
    return SolverConfig(theta=theta, **{k: v for k, v in given.items() if v is not None})


def _require_scenario_flags(args):
    for name in ("pattern", "rate", "seed"):
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required")


def _load_input(args):
    fmt = args.format or "dense"
    csv_dims = tuple(args.dims) if args.dims is not None else None
    return load_tensor(args.input, fmt=fmt, csv_dims=csv_dims)


def _write_trace(path, result):
    lines = ["iteration,convergence_ratio,rho"]
    for it, (ratio, rho) in enumerate(zip(result.trace, result.rho_trace), start=1):
        lines.append(f"{it},{ratio!r},{rho!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_impute(args):
    _apply_config_file(args)
    solver = args.solver or "tnn"
    if solver == "tnn" and args.theta is None:
        raise ConfigError("--theta is required for the tnn solver")
    # Only tnn reads --theta; any other solver gets a placeholder that
    # solver_config replaces.
    theta = args.theta if solver == "tnn" else 0.0
    config = solver_config(solver, _schedule_config(args, theta))
    tensor, mask = _load_input(args)
    result = solve(tensor, mask, config)
    if not result.converged:
        print(
            f"warning: not converged after {result.iterations} iterations "
            f"(last ratio {result.trace[-1]:.3e})",
            file=sys.stderr,
        )
    save_tensor(args.output, result.recovered, mask=None, fmt=args.format or "dense")
    if args.trace_output:
        _write_trace(args.trace_output, result)
    return 0


def _benchmark_source(args):
    if (args.synth is None) == (args.input is None):
        raise ConfigError("give exactly one of --input or --synth")
    if args.synth is not None:
        n1, n2, n3, rank = args.synth
        data = synth_lowrank((n1, n2, n3), rank, value_offset=args.offset, seed=args.synth_seed)
        return data, np.ones(data.shape, dtype=bool)
    return _load_input(args)


def cmd_benchmark(args):
    _apply_config_file(args)
    _require_scenario_flags(args)
    patterns = args.pattern if isinstance(args.pattern, list) else [args.pattern]
    rates = args.rate if isinstance(args.rate, list) else [args.rate]
    seeds = args.seed if isinstance(args.seed, list) else [args.seed]
    solvers = args.solver or ["tnn"]
    thetas = args.theta if isinstance(args.theta, list) else ([args.theta] if args.theta is not None else None)

    solver_runs = []
    for solver in solvers:
        if solver == "tnn" and thetas is None:
            raise ConfigError("--theta is required when benchmarking the tnn solver")
        # Only tnn reads --theta; any other solver runs once, and
        # run_experiment maps its placeholder theta through solver_config.
        for theta in thetas if solver == "tnn" else [0.0]:
            solver_runs.append((solver, _schedule_config(args, theta)))

    data, native_mask = _benchmark_source(args)
    scenarios = [
        MissingScenario(pattern=p, rate=r, seed=s)
        for p in patterns
        for r in rates
        for s in seeds
    ]
    if args.jobs is not None:
        jobs = args.jobs
    else:
        raw = os.environ.get(JOBS_ENV_VAR, "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    reports = run_benchmark(data, native_mask, scenarios, solver_runs, jobs=jobs)
    if args.report.endswith(".json"):
        write_report_json(reports, args.report)
    else:
        write_report_csv(reports, args.report)
    print(format_report_table(reports))
    for report in reports:
        if not report.converged:
            print(
                f"warning: {report.solver} theta={report.theta} on "
                f"{report.scenario.pattern}/{report.scenario.rate}/{report.scenario.seed} "
                f"did not converge",
                file=sys.stderr,
            )
    return 0


def cmd_cv(args):
    _apply_config_file(args)
    _require_scenario_flags(args)
    grid = tuple(args.grid) if args.grid is not None else DEFAULT_THETA_GRID
    fraction = args.holdout_fraction if args.holdout_fraction is not None else 0.2
    base = _schedule_config(args, 0.0)
    data, native_mask = _load_input(args)
    scenario = MissingScenario(pattern=args.pattern, rate=args.rate, seed=args.seed)
    best, scores = cross_validate_theta(
        data,
        native_mask,
        scenario,
        theta_grid=grid,
        validation_fraction=fraction,
        seed=args.seed,
        base_config=base,
    )
    print(f"{'theta':>7s}{'mape':>10s}{'rmse':>10s}{'iters':>7s}")
    for score in scores:
        print(f"{score.theta:7.2f}{score.mape:10.2f}{score.rmse:10.2f}{score.iterations:7d}")
    print(f"selected_theta {best!r}")
    return 0


def cmd_synth(args):
    data = synth_lowrank(
        tuple(args.dims),
        args.rank,
        value_offset=args.offset,
        seed=args.seed,
        ones_factors=args.ones_factors,
    )
    save_tensor(args.output, data, mask=None, fmt=args.format)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CompletionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    raise SystemExit(main())
