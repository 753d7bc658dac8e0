"""Span tracing around lrtc's public functions, and the per-module metrics.

Wrappers are installed as module attributes, so every call the program makes
through those names is recorded; the bench records its own calls (load, save,
the benchmark grid, CV, the impute-path solve) through the same tracer. A span
is (id, name, start, end, parent, thread, attrs); spans stay in memory until
the child writes them out at exit. A span's self time is its duration minus
the durations of its direct child spans, which nest on the same thread.

A hook point missing from the program is recorded as absent, and every metric
that depends on it is reported as ``None`` instead of failing the run.

This module imports only the standard library, so the child can load it before
it starts the set-up clock.
"""

import csv
import functools
import itertools
import math
import os
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid name start end parent thread attrs")

# (lrtc submodule, function) pairs wrapped in place; the span takes the
# function's name.
HOOKS = (
    ("solver", "update_x"),
    ("solver", "update_m"),
    ("solver", "update_t"),
    ("solver", "truncated_svt"),
    ("solver", "unfold"),
    ("solver", "fold"),
    ("solver", "frobenius_norm"),
    ("shrinkage", "thin_svd"),
    ("experiments", "run_experiment"),
    ("experiments", "solve"),
    ("experiments", "scenario_mask"),
    ("experiments", "mape"),
    ("experiments", "rmse"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _svd_attrs(tracer, args, kwargs, result):
    sigma = result[1]
    # truncated_svt, the caller, reads this to count what survives shrinkage.
    tracer._local.sigma = sigma
    return {"rows": _arg(args, kwargs, 0, "matrix").shape[0]}


def _svt_attrs(tracer, args, kwargs, result):
    sigma = tracer._local.sigma
    tracer._local.sigma = None
    trunc = int(_arg(args, kwargs, 1, "trunc"))
    tau = _arg(args, kwargs, 2, "tau")
    kept = int((sigma[:trunc] != 0).sum() + (sigma[trunc:] > tau).sum())
    return {"kept": kept, "computed": len(sigma)}


def _solve_attrs(tracer, args, kwargs, result):
    return {"iterations": result.iterations, "final_ratio": result.trace[-1]}


_ATTRS = {
    "thin_svd": _svd_attrs,
    "truncated_svt": _svt_attrs,
    "unfold": lambda tracer, args, kwargs, result: {"entries": result.size},
    "fold": lambda tracer, args, kwargs, result: {"entries": result.size},
    "solve": _solve_attrs,
    "load_tensor": lambda tracer, args, kwargs, result: {"bytes": os.path.getsize(args[0])},
    "save_tensor": lambda tracer, args, kwargs, result: {"bytes": os.path.getsize(args[0])},
    "run_benchmark": lambda tracer, args, kwargs, result: {"jobs": kwargs.get("jobs", 1)},
}


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def _run(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = {}
        attrs_fn = _ATTRS.get(name)
        if attrs_fn is not None:
            try:
                attrs = attrs_fn(self, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError):
                # The hook exists but its arguments or result changed shape.
                self.absent.add(name)
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), attrs))
        return result

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; for the bench's own calls into lrtc."""
        return self._run(name, fn, args, kwargs)

    def install(self, lrtc):
        """Wrap every hook point that exists; remember the ones that do not."""
        for module_name, attr in HOOKS:
            module = getattr(lrtc, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(attr)
                continue

            def wrapper(*args, _fn=fn, _name=attr, **kwargs):
                return self._run(_name, _fn, args, kwargs)

            setattr(module, attr, functools.wraps(fn)(wrapper))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            for span in self.spans:
                out.writerow(span)


# name -> (unit, better direction, hook points it needs). The driver computes
# trace.overhead_frac from paired traced and untraced children.
PER_LAYER = {
    "shrinkage.svt_calls": ("count", "lower", ("truncated_svt",)),
    "shrinkage.svd_s": ("s", "lower", ("thin_svd",)),
    "shrinkage.svt_self_s": ("s", "lower", ("truncated_svt", "thin_svd")),
    "shrinkage.svd_ms.mode0": ("ms", "lower", ("thin_svd",)),
    "shrinkage.svd_ms.mode1": ("ms", "lower", ("thin_svd",)),
    "shrinkage.svd_ms.mode2": ("ms", "lower", ("thin_svd",)),
    "shrinkage.kept_frac": ("fraction", "lower", ("truncated_svt", "thin_svd")),
    "tensor_ops.unfold_calls": ("count", "lower", ("unfold",)),
    "tensor_ops.unfold_s": ("s", "lower", ("unfold",)),
    "tensor_ops.fold_s": ("s", "lower", ("fold",)),
    "tensor_ops.norm_s": ("s", "lower", ("frobenius_norm",)),
    "tensor_ops.bytes_computed": ("B", "lower", ("unfold", "fold")),
    "solver.iterations": ("count", "lower", ("solve",)),
    "solver.ms_per_iter": ("ms", "lower", ("solve",)),
    "solver.update_x_self_s": ("s", "lower", ("update_x", "unfold", "fold", "truncated_svt")),
    "solver.update_m_s": ("s", "lower", ("update_m",)),
    "solver.update_t_s": ("s", "lower", ("update_t",)),
    "solver.loop_self_s": (
        "s",
        "lower",
        ("solve", "update_x", "update_m", "update_t", "frobenius_norm"),
    ),
    "solver.final_ratio": ("ratio", "lower", ("solve",)),
    "experiments.runs": ("count", "lower", ("run_experiment",)),
    "experiments.run_self_s": (
        "s",
        "lower",
        ("run_experiment", "solve", "scenario_mask", "mape", "rmse"),
    ),
    "experiments.benchmark_s": ("s", "lower", ()),
    "experiments.cv_s": ("s", "lower", ()),
    "experiments.pool_busy_frac": ("fraction", "higher", ("run_experiment",)),
    "masks.scenario_mask_s": ("s", "lower", ("scenario_mask",)),
    "metrics.score_s": ("s", "lower", ("mape", "rmse")),
    "data_io.load_s": ("s", "lower", ()),
    "data_io.save_s": ("s", "lower", ()),
    "data_io.load_mb_per_s": ("MB/s", "higher", ()),
    "data_io.save_mb_per_s": ("MB/s", "higher", ()),
    "trace.overhead_frac": ("fraction", "lower", ()),
}


def layer_metrics(spans, absent, dims):
    """Per-module metrics of one traced child, keyed as in PER_LAYER.

    Times are sums over the child's timed operation and set-up; a layer the
    workload never enters reads 0. ``dims`` maps an SVD's row count to its mode.
    """
    by_name = defaultdict(list)
    covered = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            covered[span.parent] += span.end - span.start

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name):
        return sum(s.end - s.start - covered[s.sid] for s in by_name[name])

    def rate(name):
        seconds = total(name)
        moved = sum(s.attrs.get("bytes", 0) for s in by_name[name])
        return moved / seconds / 1e6 if seconds else 0.0

    svts = by_name["truncated_svt"]
    computed = sum(s.attrs.get("computed", 0) for s in svts)
    solves = by_name["solve"]
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    benchmarks = by_name["run_benchmark"]
    pool_capacity = sum(b.attrs.get("jobs", 1) * (b.end - b.start) for b in benchmarks)
    pool_busy = sum(
        r.end - r.start
        for b in benchmarks
        for r in by_name["run_experiment"]
        if b.start <= r.start and r.end <= b.end
    )

    values = {
        "shrinkage.svt_calls": len(svts),
        "shrinkage.svd_s": total("thin_svd"),
        "shrinkage.svt_self_s": self_total("truncated_svt"),
        "shrinkage.kept_frac": sum(s.attrs.get("kept", 0) for s in svts) / computed if computed else 0.0,
        "tensor_ops.unfold_calls": len(by_name["unfold"]),
        "tensor_ops.unfold_s": total("unfold"),
        "tensor_ops.fold_s": total("fold"),
        "tensor_ops.norm_s": total("frobenius_norm"),
        # Computed, not measured: each unfold/fold reads and writes every
        # 8-byte entry once.
        "tensor_ops.bytes_computed": 16
        * sum(s.attrs.get("entries", 0) for s in by_name["unfold"] + by_name["fold"]),
        "solver.iterations": iterations,
        "solver.ms_per_iter": 1e3 * total("solve") / iterations if iterations else 0.0,
        "solver.update_x_self_s": self_total("update_x"),
        "solver.update_m_s": total("update_m"),
        "solver.update_t_s": total("update_t"),
        "solver.loop_self_s": self_total("solve"),
        "solver.final_ratio": (
            math.fsum(s.attrs.get("final_ratio", 0.0) for s in solves) / len(solves) if solves else 0.0
        ),
        "experiments.runs": len(by_name["run_experiment"]),
        "experiments.run_self_s": self_total("run_experiment"),
        "experiments.benchmark_s": total("run_benchmark"),
        "experiments.cv_s": total("cross_validate_theta"),
        "experiments.pool_busy_frac": pool_busy / pool_capacity if pool_capacity else 0.0,
        "masks.scenario_mask_s": total("scenario_mask"),
        "metrics.score_s": total("mape") + total("rmse"),
        "data_io.load_s": total("load_tensor"),
        "data_io.save_s": total("save_tensor"),
        "data_io.load_mb_per_s": rate("load_tensor"),
        "data_io.save_mb_per_s": rate("save_tensor"),
    }
    for mode, rows in enumerate(dims):
        svds = [s for s in by_name["thin_svd"] if s.attrs.get("rows") == rows]
        mean = sum(s.end - s.start for s in svds) / len(svds) if svds else 0.0
        values[f"shrinkage.svd_ms.mode{mode}"] = 1e3 * mean
    for name, (_, _, needs) in PER_LAYER.items():
        if absent.intersection(needs):
            values[name] = None
    return values
