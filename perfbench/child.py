"""One workload operation in a fresh process: set up, time the operation, check it.

The driver (``run.py``) starts this script once per sample, with the thread
environment already pinned:

    python3 perfbench/child.py --workload NAME --seed N --inputs DIR --work DIR
        [--trace] [--smoke] [--spans-out FILE]

It calls the public lrtc API in the order the matching CLI command does.
Set-up time runs from just before ``import numpy`` / ``import lrtc`` to the
start of the timed operation. Every solve is checked against the bench's own
ground truth. The last stdout line is one JSON object; the exit code is 0 only
when the operation ran and every check passed.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import get_workload  # noqa: E402

ACC_PATTERNS = ("rm", "nm")
ACC_RATE = 0.4
ACC_SEEDS = (1, 2, 3)
GZ_RM_RATE = 0.20


class SolveLog:
    """Keeps the mask and result of every solve the experiments module runs."""

    def __init__(self, experiments):
        self.calls = []
        inner = experiments.solve

        def solve(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.calls.append((args[1], result))
            return result

        experiments.solve = solve


class Run:
    """State of one child run: the timing marks, the checks and the inputs."""

    def __init__(self, args, workload, lrtc, np, tracer, t0):
        self.args = args
        self.workload = workload
        self.lrtc = lrtc
        self.np = np
        self.tracer = tracer
        self.t0 = t0
        self.failures = []
        self.info = {}
        self.input_path = os.path.join(args.inputs, "input.txt")
        self._truth = None

    def start(self):
        self.t1 = time.perf_counter()

    def stop(self):
        self.t2 = time.perf_counter()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def truth(self):
        if self._truth is None:
            with self.np.load(os.path.join(self.args.inputs, "truth.npz")) as npz:
                self._truth = {key: npz[key] for key in npz.files}
        return self._truth

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def load_input(self):
        return self.tracer.call(
            "load_tensor", self.lrtc.data_io.load_tensor, self.input_path, fmt="dense"
        )

    def check_loaded(self, data, mask):
        visible = self.truth["visible"]
        self.check(self.np.array_equal(mask, visible), "loaded mask differs from the input file")
        self.check(
            self.np.array_equal(data[visible], self.truth["truth"][visible]),
            "loaded values differ from the input file",
        )

    def check_solve(self, mask, result, label):
        np = self.np
        truth = self.truth
        recovered = result.recovered
        self.check(not (mask & ~truth["native"]).any(), f"{label}: solver saw a missing entry")
        self.check(np.isfinite(recovered).all(), f"{label}: recovered tensor is not finite")
        self.check(
            np.array_equal(recovered[mask], truth["truth"][mask]),
            f"{label}: observed entries differ from the input",
        )

    def check_cap(self, iterations):
        self.check(
            iterations == self.workload.max_iter,
            f"ran {iterations} iterations, cap is {self.workload.max_iter}",
        )


def run_gz(run, log):
    """``lrtc benchmark`` on one RM scenario: load, then one run_experiment."""
    lrtc, w = run.lrtc, run.workload
    config = lrtc.solver.SolverConfig(theta=w.theta, max_iter=w.max_iter)
    data, native = run.load_input()
    scenario = lrtc.masks.MissingScenario(pattern="rm", rate=GZ_RM_RATE, seed=run.args.seed)
    run.start()
    report = lrtc.experiments.run_experiment(data, native, scenario, config, solver="tnn")
    run.stop()
    run.check_loaded(data, native)
    run.check(len(log.calls) == 1, f"expected 1 solve, saw {len(log.calls)}")
    for mask, result in log.calls:
        run.check_solve(mask, result, "solve")
    run.check_cap(report.iterations)
    return report.mape, report.rmse


def run_st(run, log):
    """``lrtc impute``: load, solve, save; the bench scores the hidden entries."""
    lrtc, np, w = run.lrtc, run.np, run.workload
    config = lrtc.solver.SolverConfig(theta=w.theta, max_iter=w.max_iter)
    data, mask = run.load_input()
    output = os.path.join(run.args.work, "imputed.txt")
    run.start()
    result = run.tracer.call("solve", lrtc.solver.solve, data, mask, config)
    run.tracer.call(
        "save_tensor", lrtc.data_io.save_tensor, output, result.recovered, mask=None, fmt="dense"
    )
    run.stop()
    run.check_loaded(data, mask)
    run.check_solve(mask, result, "solve")
    run.check_cap(result.iterations)
    with open(output, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    os.remove(output)
    n1, n2, n3 = w.shape
    run.check(header == f"{n1} {n2} {n3}\n".encode(), f"saved header reads {header!r}")
    # Each line holds n3 single-space-separated values.
    entries = body.count(b" ") + body.count(b"\n")
    run.check(entries == n1 * n2 * n3, f"saved file holds {entries} entries")
    truth = run.truth
    hidden = truth["native"] & ~truth["visible"]
    return score(np, truth["truth"][hidden], result.recovered[hidden])


def run_acc(run, log):
    """``lrtc benchmark`` over the RM/NM grid, then ``lrtc cv`` on one NM scenario."""
    lrtc, np, w = run.lrtc, run.np, run.workload
    SolverConfig = lrtc.solver.SolverConfig
    MissingScenario = lrtc.masks.MissingScenario
    solver_runs = [("tnn", SolverConfig(theta=w.theta)), ("halrtc", SolverConfig(theta=0.0))]
    cv_base = SolverConfig(theta=0.0)
    grid = lrtc.experiments.DEFAULT_THETA_GRID
    data, native = run.load_input()
    scenarios = [
        MissingScenario(pattern=p, rate=ACC_RATE, seed=s) for p in ACC_PATTERNS for s in ACC_SEEDS
    ]
    cv_scenario = MissingScenario(pattern="nm", rate=ACC_RATE, seed=ACC_SEEDS[0])
    run.start()
    reports = run.tracer.call(
        "run_benchmark",
        lrtc.experiments.run_benchmark,
        data,
        native,
        scenarios,
        solver_runs,
        jobs=w.jobs,
    )
    best, scores = run.tracer.call(
        "cross_validate_theta",
        lrtc.experiments.cross_validate_theta,
        data,
        native,
        cv_scenario,
        theta_grid=grid,
        validation_fraction=0.2,
        seed=cv_scenario.seed,
        base_config=cv_base,
    )
    run.stop()
    lrtc.experiments.write_report_csv(reports, os.path.join(run.args.work, "acc-report.csv"))
    print(f"selected_theta {best!r}")
    run.info["selected_theta"] = best
    run.info["rows"] = [
        [r.scenario.pattern, r.scenario.seed, r.solver, r.theta, r.iterations, r.mape]
        for r in reports
    ]

    run.check_loaded(data, native)
    keys = [(r.scenario.pattern, r.scenario.rate, r.scenario.seed, r.solver, r.theta) for r in reports]
    expected = sorted(
        (s.pattern, s.rate, s.seed, solver, cfg.theta)
        for s in scenarios
        for solver, cfg in solver_runs
    )
    run.check(keys == expected, f"report rows {keys} are not the sorted grid {expected}")
    run.check(
        [s.theta for s in scores] == list(grid),
        f"cv scored {[s.theta for s in scores]}, grid is {list(grid)}",
    )
    run.check(
        best == min(scores, key=lambda s: (s.mape, s.theta)).theta,
        f"selected theta {best} is not the lowest-MAPE grid value",
    )
    solves = len(reports) + len(grid)
    run.check(len(log.calls) == solves, f"expected {solves} solves, saw {len(log.calls)}")
    for k, (mask, result) in enumerate(log.calls):
        run.check_solve(mask, result, f"solve {k}")
    mapes = [r.mape for r in reports]
    rmses = [r.rmse for r in reports]
    return float(np.mean(mapes)), float(np.mean(rmses))


OPERATIONS = {"gz-rm-solve": run_gz, "st-nm-impute": run_st, "acc-grid": run_acc}


def score(np, truth, estimate):
    """MAPE in percent over nonzero truth, and RMSE, as the paper defines them."""
    keep = np.abs(truth) > 1e-9
    mape = float(np.mean(np.abs((truth[keep] - estimate[keep]) / truth[keep])) * 100.0)
    rmse = float(np.sqrt(np.mean(np.square(truth - estimate))))
    return mape, rmse


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="generated input directory")
    parser.add_argument("--work", required=True, help="directory for files the run writes")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", default=None)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = get_workload(args.workload, smoke=args.smoke)
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import numpy as np
    import lrtc

    if not os.path.abspath(lrtc.__file__).startswith(src + os.sep):
        print(f"lrtc was imported from {lrtc.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = NullTracer()
    if args.trace:
        tracer = Tracer()
        tracer.install(lrtc)
    log = SolveLog(lrtc.experiments)
    run = Run(args, workload, lrtc, np, tracer, t0)
    record = {"ok": False}
    try:
        mape, rmse = OPERATIONS[workload.name](run, log)
        run.check(np.isfinite([mape, rmse]).all(), f"non-finite scores {mape}, {rmse}")
        record = {
            "ok": not run.failures,
            "setup_s": run.t1 - run.t0,
            "wall_s": run.t2 - run.t1,
            "mape": mape,
            "rmse": rmse,
            "peak_rss_mb": run.peak_rss_mb,
        }
    except Exception:
        run.failures.append(traceback.format_exc())
    record["failures"] = run.failures
    record["info"] = run.info
    if args.trace:
        if args.spans_out:
            tracer.write_csv(args.spans_out)
        record["layers"] = layer_metrics(tracer.spans, tracer.absent, workload.shape)
        record["absent_hooks"] = sorted(tracer.absent)
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
