"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke mode runs every workload path at a tiny shape, traced and untraced,
in seconds, so a change to the lrtc API that breaks a hook point or a call the
bench makes fails here at once.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import ensure_inputs  # noqa: E402
from run import END_TO_END, check_threads  # noqa: E402
from spans import HOOKS, PER_LAYER, Span, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, get_workload  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith('{"correct"'):
            result = json.loads(line)
            results[result["workload"], result["trace"]] = result
    return results


def test_smoke_runs_every_workload_traced_and_untraced(smoke):
    assert set(smoke) == {(name, trace) for name in WORKLOADS for trace in (0, 1)}
    for result in smoke.values():
        assert result["correct"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_smoke_reports_every_declared_metric_with_a_value(smoke):
    spec = _bench_json()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for (name, trace), result in smoke.items():
        metrics = result["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == declared[trace]
        absent = [k for k, m in metrics.items() if m["value"] is None]
        assert not absent, f"{name}: no value for {absent}; a hook point moved"
        if trace == 0:
            assert all(m["value"] > 0 for m in metrics.values()), name


def test_smoke_trace_counts_match_the_workload(smoke):
    gz = smoke["gz-rm-solve", 1]["metrics"]
    cap = WORKLOADS["gz-rm-solve"].max_iter
    assert gz["solver.iterations"]["value"] == cap
    assert gz["shrinkage.svt_calls"]["value"] == 3 * cap
    assert gz["experiments.runs"]["value"] == 1
    acc = smoke["acc-grid", 1]["metrics"]
    assert acc["experiments.runs"]["value"] == 12
    assert 0 < acc["experiments.pool_busy_frac"]["value"] <= 1
    assert smoke["st-nm-impute", 1]["metrics"]["data_io.save_s"]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }


def test_inputs_depend_only_on_the_seed(tmp_path):
    workload = get_workload("st-nm-impute", smoke=True)

    def read(root, seed):
        directory = ensure_inputs(str(tmp_path / root), workload, seed)
        with open(os.path.join(directory, "input.txt"), "rb") as fh:
            return fh.read()

    assert read("a", 5) == read("b", 5)
    assert read("a", 5) != read("a", 6)
    assert b"nan" in read("a", 5)


def test_oversubscribed_thread_settings_are_refused():
    acc = WORKLOADS["acc-grid"]
    check_threads(acc, cores=2)
    with pytest.raises(SystemExit):
        check_threads(replace(acc, blas_threads=2), cores=2)


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, "solve", 0.0, 10.0, None, 1, {"iterations": 2, "final_ratio": 0.5}),
        Span(1, "update_x", 1.0, 7.0, 0, 1, {}),
        Span(2, "truncated_svt", 2.0, 6.0, 1, 1, {"kept": 1, "computed": 4}),
        Span(3, "thin_svd", 2.5, 5.5, 2, 1, {"rows": 3}),
        Span(4, "update_m", 7.0, 8.0, 0, 1, {}),
    ]
    values = layer_metrics(spans, set(), (3, 4, 5))
    assert values["shrinkage.svd_s"] == 3.0
    assert values["shrinkage.svt_self_s"] == 1.0
    assert values["solver.update_x_self_s"] == 2.0
    assert values["solver.loop_self_s"] == 3.0
    assert values["solver.ms_per_iter"] == 5000.0
    assert values["shrinkage.kept_frac"] == 0.25
    assert values["shrinkage.svd_ms.mode0"] == 3000.0


def test_missing_hook_point_reports_absent_metrics():
    def fn(*args, **kwargs):
        return None

    fake = types.SimpleNamespace(
        solver=types.SimpleNamespace(**{attr: fn for module, attr in HOOKS if module == "solver"}),
        shrinkage=types.SimpleNamespace(),
        experiments=types.SimpleNamespace(
            **{attr: fn for module, attr in HOOKS if module == "experiments"}
        ),
    )
    tracer = Tracer()
    tracer.install(fake)
    assert tracer.absent == {"thin_svd"}
    values = layer_metrics([], tracer.absent, (3, 4, 5))
    assert values["shrinkage.svd_s"] is None
    assert values["shrinkage.kept_frac"] is None
    assert values["solver.iterations"] == 0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acc-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
