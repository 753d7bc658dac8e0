"""lrtc benchmark driver: one workload per call, each sample in a fresh child.

    python3 perfbench/run.py --workload gz-rm-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke        # every workload at a tiny shape, both modes

Inputs are generated from ``--seed`` before timing starts (``gen.py``) and
cached under ``.perfbench/`` at the repository root. Children run one at a
time, each with its BLAS thread count pinned in its environment (``child.py``
does one set-up and one timed operation), until ``--seconds`` is used up; at
least ``MIN_SAMPLES`` run. Every end-to-end metric is the median over the
untraced children. With ``--trace 1`` traced and untraced children alternate:
the per-module metrics are medians over the traced ones, and
``trace.overhead_frac`` compares the two medians of ``wall_s``.

The last stdout line is the result object; the line before it is the run
record (machine, thread settings, every child), also written to
``.perfbench/results/``. The exit code is 0 only when every child ran and
passed its checks; failures are counted in ``attempted``/``failed``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import ensure_inputs  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, get_workload  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "mape": "%",
    "rmse": "data_units",
    "peak_rss_mb": "MB",
}

MIN_SAMPLES = 3
# A run must finish within 180 s; no child may start past this point.
CHILD_DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def thread_env(workload):
    return {var: str(workload.blas_threads) for var in THREAD_VARS}


def check_threads(workload, cores):
    """Refuse oversubscription: Python threads x BLAS threads must fit the cores."""
    used = workload.jobs * workload.blas_threads
    if used > cores:
        raise SystemExit(
            f"refusing {workload.name}: {workload.jobs} Python threads x "
            f"{workload.blas_threads} BLAS threads = {used} > {cores} cores"
        )


def machine_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def run_child(workload, args, inputs, work, traced, index, started):
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload.name,
        "--seed", str(args.seed),
        "--inputs", inputs,
        "--work", work,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace", "--spans-out", os.path.join(work, f"spans-{index}.csv")]
    env = dict(os.environ, **thread_env(workload))
    env.pop("PYTHONPATH", None)
    timeout = max(CHILD_DEADLINE_S - (time.perf_counter() - started), 1.0)
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"ok": False, "failures": []}
    if proc.returncode != 0:
        record["ok"] = False
        record["failures"].append(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    record["traced"] = traced
    return record


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload, args, cache_root, started):
    """Run children until the time is used up; return (children, result)."""
    inputs = ensure_inputs(os.path.join(cache_root, "inputs"), workload, args.seed)
    work = os.path.join(cache_root, "work", workload.name)
    os.makedirs(work, exist_ok=True)
    kinds = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.smoke else (MIN_SAMPLES if not args.trace else 2)
    children = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            children.append(
                run_child(workload, args, inputs, work, traced, len(children), started)
            )
        rounds += 1
        now = time.perf_counter()
        per_round = (now - begin) / rounds
        if not all(c["ok"] for c in children):
            break
        # Stop at the round boundary nearest to --seconds.
        if rounds >= min_rounds and now - begin + per_round / 2 > args.seconds:
            break
        if now - started + per_round > CHILD_DEADLINE_S:
            break

    failed = sum(not c["ok"] for c in children)
    untraced = [c for c in children if not c["traced"] and c["ok"]]
    metrics = {}
    if args.trace:
        traced = [c for c in children if c["traced"] and c["ok"]]
        for name, (unit, _, _) in PER_LAYER.items():
            value = median(c["layers"][name] for c in traced if name in c["layers"])
            metrics[name] = {"value": value, "unit": unit}
        plain = median(c["wall_s"] for c in untraced)
        with_trace = median(c["wall_s"] for c in traced)
        overhead = (with_trace - plain) / plain if plain and with_trace else None
        metrics["trace.overhead_frac"]["value"] = overhead
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median(c[name] for c in untraced), "unit": unit}
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }
    return children, result


def run_workload(workload, args, cache_root, machine, started):
    children, result = measure(workload, args, cache_root, started)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine,
        "settings": {
            "jobs": workload.jobs,
            "child_env": thread_env(workload),
            "shape": list(workload.shape),
            "max_iter": workload.max_iter,
        },
        "children": children,
    }
    results = os.path.join(cache_root, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(results, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for child in children:
        for failure in child.get("failures", []):
            print(f"{workload.name}: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes, one sample, traced and untraced: checks every hook in seconds",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.smoke:
        args.seconds = 0.0
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lrtc", "__init__.py")):
        print(f"no lrtc source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [get_workload(name, smoke=args.smoke) for name in names]
    cores = nproc()
    for workload in workloads:
        check_threads(workload, cores)
    cache_root = os.path.join(ROOT, ".perfbench")
    machine = machine_info()
    modes = (0, 1) if args.smoke else (args.trace,)
    # Several results in one call are labelled; the 180 s limit is per result.
    several = len(workloads) * len(modes) > 1
    ok = True
    for workload in workloads:
        for trace in modes:
            args.trace = trace
            if several:
                started = time.perf_counter()
            result = run_workload(workload, args, cache_root, machine, started)
            ok = ok and result["correct"]
            if several:
                result = dict(result, workload=workload.name, trace=trace)
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
