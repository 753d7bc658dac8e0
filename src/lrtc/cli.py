"""Command-line interface: impute, benchmark, cv, synth.

Exit codes: 0 success (including non-convergence, which only warns on
stderr), 2 usage or file-parse errors, 3 configuration errors, 4 runtime
errors. A run-configuration file (``--config``) fills in the flags the
command line leaves unset: a line ``key = value`` acts exactly like the flag
whose dest is ``key`` given ``value``, except that a value it cannot read is a
parse error naming the line. A key outside ``CONFIG_KEYS`` is a parse error, one
the subcommand has no flag for is ignored. A flag that every run needs and
neither source gives is a usage error. ``LRTC_JOBS`` sets the default worker
count for benchmarks.
"""

import argparse
import os
import sys

import numpy as np

from .data_io import FORMATS, load_run_config, load_tensor, replacing, save_tensor
from .errors import CompletionError, ConfigError, ParseError
from .experiments import (
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

# The keys a --config file may set, each the dest of a flag below.
CONFIG_KEYS = (
    "input", "format", "dims", "output", "trace_output", "report", "pattern", "rate", "seed",
    "theta", "grid", "holdout_fraction", *SCHEDULE_FIELDS,
)


def _add_input_flags(parser):
    parser.add_argument("--input", help="tensor file to load")
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument(
        "--dims",
        nargs=2,
        type=int,
        metavar=("DAYS", "INTERVALS"),
        default=None,
        help="day/interval split for csv input",
    )


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _add_schedule_flags(parser):
    for name in SCHEDULE_FIELDS:
        parser.add_argument(_flag(name), type=type(getattr(SolverConfig, name)), default=None)


def _set_command(parser, func, *needed):
    """Run ``func``; every run needs the flags ``needed`` (dests, in flag order)."""
    parser.set_defaults(func=func, needed=needed)
    parser.epilog = "required: " + ", ".join(map(_flag, needed))


def _add_config_flag(parser, help=None):
    """``--config``, added after every flag a config line may fill in."""
    parser.add_argument("--config", default=None, help=help)
    parser.set_defaults(config_flags={action.dest: action for action in parser._actions})


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
    p_impute.add_argument("--output")
    p_impute.add_argument("--trace-output", default=None)
    _add_config_flag(p_impute, help="run-configuration file")
    _set_command(p_impute, cmd_impute, "input", "output")

    p_bench = sub.add_parser("benchmark", help="scenario grid over solvers")
    _add_input_flags(p_bench)
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
    p_bench.add_argument("--report")
    p_bench.add_argument("--jobs", type=int, default=None)
    _add_schedule_flags(p_bench)
    _add_config_flag(p_bench)
    _set_command(p_bench, cmd_benchmark, "pattern", "rate", "seed", "report")

    p_cv = sub.add_parser("cv", help="cross-validate theta on one scenario")
    _add_input_flags(p_cv)
    p_cv.add_argument("--pattern", choices=PATTERNS, default=None)
    p_cv.add_argument("--rate", type=float, default=None)
    p_cv.add_argument("--seed", type=int, default=None)
    p_cv.add_argument("--grid", nargs="+", type=float, default=None)
    p_cv.add_argument("--holdout-fraction", type=float, default=None)
    _add_schedule_flags(p_cv)
    _add_config_flag(p_cv)
    _set_command(p_cv, cmd_cv, "input", "pattern", "rate", "seed")

    p_synth = sub.add_parser("synth", help="write a synthetic low-rank tensor file")
    p_synth.add_argument("--dims", nargs=3, type=int, metavar=("N1", "N2", "N3"))
    p_synth.add_argument("--rank", type=int)
    p_synth.add_argument("--offset", type=float, default=10.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--ones-factors", action="store_true")
    p_synth.add_argument("--output")
    p_synth.add_argument("--format", choices=FORMATS, default="dense")
    _set_command(p_synth, cmd_synth, "dims", "rank", "output")

    return parser


def _flag_value(action, text):
    """``text`` read as the argument of ``action``'s flag, split on whitespace
    for a flag that takes several; argparse's own ``ArgumentError`` if bad."""
    flag = action.option_strings[0]
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument(flag, type=action.type, nargs=action.nargs, choices=action.choices)
    tokens = [text] if action.nargs is None else text.split()
    parsed, extra = probe.parse_known_args([flag, *tokens])
    if extra:
        raise argparse.ArgumentError(None, "unrecognized arguments: " + " ".join(extra))
    return getattr(parsed, action.dest)


def _apply_config_file(args):
    """Fill every flag the command line left unset from the --config file.

    A line is read by its flag even when the command line gives that flag;
    ranges are checked later, where the flag's are.
    """
    if getattr(args, "config", None) is None:
        return
    for key, (line_no, text) in load_run_config(args.config).items():
        if key not in CONFIG_KEYS:
            raise ParseError(f"{args.config}:{line_no}: unknown key {key!r}")
        if key not in args.config_flags:
            continue
        try:
            value = _flag_value(args.config_flags[key], text)
        except argparse.ArgumentError as exc:
            raise ParseError(f"{args.config}:{line_no}: {exc}") from None
        if getattr(args, key) is None:
            setattr(args, key, value)


def _schedule_config(args, theta):
    """SolverConfig at ``theta`` with every schedule flag that was given."""
    given = {name: getattr(args, name) for name in SCHEDULE_FIELDS}
    return SolverConfig(theta=theta, **{k: v for k, v in given.items() if v is not None})


def _solver_runs(args, solvers, thetas):
    """The (solver, config) pair of each run: tnn once per value in
    ``thetas`` (the --theta values), any other solver once, since only tnn
    reads --theta."""
    runs = []
    for solver in solvers:
        if solver == "tnn" and thetas is None:
            raise ConfigError("--theta is required for the tnn solver")
        # any other solver gets a placeholder theta that solver_config replaces
        for theta in thetas if solver == "tnn" else [0.0]:
            runs.append((solver, solver_config(solver, _schedule_config(args, theta))))
    return runs


def _load_input(args):
    return load_tensor(args.input, fmt=args.format or "dense", csv_dims=args.dims)


def _write_trace(path, result):
    rows = enumerate(zip(result.trace, result.rho_trace), start=1)
    with replacing(path) as fh:
        fh.write("iteration,convergence_ratio,rho\n")
        fh.writelines(f"{it},{ratio!r},{rho!r}\n" for it, (ratio, rho) in rows)


def cmd_impute(args):
    thetas = None if args.theta is None else [args.theta]
    [(_, config)] = _solver_runs(args, [args.solver or "tnn"], thetas)
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
    solver_runs = _solver_runs(args, args.solver or ["tnn"], args.theta)
    data, native_mask = _benchmark_source(args)
    scenarios = [
        MissingScenario(pattern=p, rate=r, seed=s)
        for p in args.pattern
        for r in args.rate
        for s in args.seed
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
    base = _schedule_config(args, 0.0)
    data, native_mask = _load_input(args)
    scenario = MissingScenario(pattern=args.pattern, rate=args.rate, seed=args.seed)
    given = {"theta_grid": args.grid, "validation_fraction": args.holdout_fraction}
    best, scores = cross_validate_theta(
        data,
        native_mask,
        scenario,
        seed=args.seed,
        base_config=base,
        **{k: v for k, v in given.items() if v is not None},
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
        _apply_config_file(args)
        missing = [_flag(dest) for dest in args.needed if getattr(args, dest) is None]
        if missing:
            raise ParseError("the following arguments are required: " + ", ".join(missing))
        return args.func(args)
    except (CompletionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3 if isinstance(exc, ConfigError) else 4


def entrypoint():
    raise SystemExit(main())
