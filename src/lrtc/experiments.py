"""Benchmark harness: masked experiments, scoring, and theta cross-validation.

An experiment masks extra entries on top of whatever is natively missing in
the data, runs the solver on what remains, and scores only the entries that
are natively observed but scenario-masked (the ground truth is known exactly
there and the solver never saw them). Scenario masks are generated over all
indices, so the nominal rate refers to the full tensor.

Theta cross-validation scores each candidate as an experiment whose native
mask is the scenario-visible part and whose scenario is the holdout split.

Runs over a (scenario x config) grid are independent; `run_benchmark` can
fan them out over worker threads and always sorts the collected reports
deterministically before returning them.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data_io import replacing
from .errors import ConfigError, DegenerateProblemError
from .masks import MissingScenario, check_seed, scenario_mask
from .metrics import mape, rmse
from .solver import SolverConfig, solve, solver_config

DEFAULT_THETA_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

REPORT_COLUMNS = (
    "pattern",
    "rate",
    "seed",
    "solver",
    "theta",
    "mape",
    "rmse",
    "iterations",
    "wall_time",
)


@dataclass(frozen=True)
class EvaluationReport:
    """One scored run (a benchmark row or a CV candidate) and what produced it."""

    mape: float
    rmse: float
    scenario: MissingScenario
    solver: str
    theta: float
    iterations: int
    converged: bool
    wall_time: float
    n_eval: int


def evaluation_mask(native_mask, scen_mask):
    """Entries scored by an experiment: natively observed but scenario-masked."""
    return np.asarray(native_mask, bool) & ~np.asarray(scen_mask, bool)


def _scored_run(data, visible, held_out, scenario, config, solver):
    """Solve on ``visible`` under ``config`` and score the ``held_out`` entries."""
    start = time.perf_counter()
    result = solve(data, visible, config)
    wall_time = time.perf_counter() - start
    truth = data[held_out]
    estimate = result.recovered[held_out]
    return EvaluationReport(
        mape=mape(truth, estimate),
        rmse=rmse(truth, estimate),
        scenario=scenario,
        solver=solver,
        theta=config.theta,
        iterations=result.iterations,
        converged=result.converged,
        wall_time=wall_time,
        n_eval=int(held_out.sum()),
    )


def run_experiment(data, native_mask, scenario, config, solver="tnn"):
    """Mask, solve (this module's ``solve``), and score one scenario; returns an EvaluationReport."""
    data = np.asarray(data, dtype=float)
    native_mask = np.asarray(native_mask, bool)
    cfg = solver_config(solver, config)
    scen = scenario_mask(data.shape, scenario)
    held_out = evaluation_mask(native_mask, scen)
    if not held_out.any():
        raise DegenerateProblemError(
            "scenario masked no natively observed entries; nothing to evaluate"
        )
    return _scored_run(data, native_mask & scen, held_out, scenario, cfg, solver)


# Mixed into the cross-validation seed so the holdout stream never coincides
# with the scenario stream, even when the caller reuses the scenario seed
# (identical streams would nest the two dropped sets and empty the holdout).
_HOLDOUT_SALT = 0x484F4C44


def _holdout_seed(seed):
    return int(np.random.SeedSequence([int(seed), _HOLDOUT_SALT]).generate_state(1)[0])


def select_best_theta(scores):
    """Lowest MAPE wins; ties go to the smaller theta."""
    return min(scores, key=lambda s: (s.mape, s.theta)).theta


def cross_validate_theta(
    data,
    native_mask,
    scenario,
    theta_grid=DEFAULT_THETA_GRID,
    validation_fraction=0.2,
    seed=0,
    base_config=None,
):
    """Pick theta by a single holdout split of the scenario-visible entries.

    The holdout follows the scenario's own pattern family (random entries for
    RM, whole fibers for NM) at ``validation_fraction``, so validation
    difficulty resembles the real task; its random stream is derived from
    ``seed`` but decoupled from the scenario's. Returns ``(best_theta,
    scores)`` with one tnn EvaluationReport per grid value, in grid order.
    """
    check_seed(seed)
    base = base_config if base_config is not None else SolverConfig(theta=0.0)
    configs = [replace(base, theta=float(theta)) for theta in theta_grid]
    if not configs:
        raise ConfigError("theta grid must not be empty")
    if not 0.0 < validation_fraction < 1.0:
        raise ConfigError(
            f"validation fraction must lie in (0, 1), got {validation_fraction}"
        )
    data = np.asarray(data, dtype=float)
    native_mask = np.asarray(native_mask, bool)
    visible = native_mask & scenario_mask(data.shape, scenario)
    holdout = MissingScenario(scenario.pattern, validation_fraction, _holdout_seed(seed))
    holdout_keep = scenario_mask(data.shape, holdout)
    val_mask = visible & ~holdout_keep
    train_mask = visible & holdout_keep
    if not val_mask.any():
        raise DegenerateProblemError("holdout split left nothing to validate on")
    if not train_mask.any():
        raise DegenerateProblemError("holdout split left nothing to train on")
    scores = [_scored_run(data, train_mask, val_mask, holdout, cfg, "tnn") for cfg in configs]
    return select_best_theta(scores), scores


def run_benchmark(data, native_mask, scenarios, solver_runs, jobs=1):
    """Run every (scenario, solver config) pair and return sorted reports.

    ``solver_runs`` is a sequence of ``(solver_name, SolverConfig)`` pairs.
    With ``jobs > 1`` the runs execute on a thread pool; results are sorted
    by (pattern, rate, seed, solver, theta) regardless of completion order.
    """
    tasks = [
        (scenario, solver, config)
        for scenario in scenarios
        for solver, config in solver_runs
    ]

    def _one(task):
        scenario, solver, config = task
        return run_experiment(data, native_mask, scenario, config, solver=solver)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_one, tasks))
    else:
        reports = [_one(task) for task in tasks]
    return sorted(reports, key=lambda r: _report_row(r)[:5])


def _report_row(report):
    """The REPORT_COLUMNS values, typed; a float's ``str`` is its ``repr``."""
    scenario = report.scenario
    return (
        scenario.pattern,
        float(scenario.rate),
        int(scenario.seed),
        report.solver,
        float(report.theta),
        float(report.mape),
        float(report.rmse),
        int(report.iterations),
        float(report.wall_time),
    )


def write_report_csv(reports, path):
    """Machine-readable report: full-precision values, UTF-8, LF endings."""
    lines = [",".join(REPORT_COLUMNS)]
    lines.extend(",".join(map(str, _report_row(r))) for r in reports)
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_json(reports, path):
    rows = [dict(zip(REPORT_COLUMNS, _report_row(r))) for r in reports]
    with replacing(path) as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def format_report_table(reports):
    """Human-readable table with MAPE/RMSE rounded to two decimals."""
    header = f"{'pattern':8s}{'rate':>6s}{'seed':>6s}  {'solver':8s}{'theta':>7s}{'mape':>9s}{'rmse':>9s}{'iters':>7s}"
    lines = [header]
    for r in reports:
        lines.append(
            f"{r.scenario.pattern:8s}{r.scenario.rate:6.2f}{r.scenario.seed:6d}  "
            f"{r.solver:8s}{r.theta:7.2f}{r.mape:9.2f}{r.rmse:9.2f}{r.iterations:7d}"
        )
    return "\n".join(lines)
