import json
from dataclasses import replace

import numpy as np
import pytest

from lrtc import (
    ConfigError,
    DegenerateProblemError,
    EvaluationReport,
    MissingScenario,
    SolverConfig,
    SolverResult,
    cross_validate_theta,
    evaluation_mask,
    run_benchmark,
    run_experiment,
    scenario_mask,
    select_best_theta,
    synth_lowrank,
)
from lrtc import experiments
from lrtc.experiments import REPORT_COLUMNS, write_report_csv, write_report_json

DIMS = (12, 9, 14)


@pytest.fixture
def instance():
    data = synth_lowrank(DIMS, 2, value_offset=10.0, seed=0)
    native = np.ones(DIMS, bool)
    return data, native


def oracle_solver(data):
    """Perfect stub: returns the ground truth regardless of the mask."""

    def _solve(y, mask, config):
        return SolverResult(recovered=data.copy(), iterations=0, converged=True)

    return _solve


class TestEvaluationHygiene:
    def test_set_algebra(self, instance):
        data, _ = instance
        rng = np.random.default_rng(1)
        native = rng.random(DIMS) < 0.9  # some natively missing entries
        scen = scenario_mask(DIMS, MissingScenario("rm", 0.4, 7))
        held_out = evaluation_mask(native, scen)
        # nothing natively missing is ever scored
        assert not (held_out & ~native).any()
        # nothing the solver can see is ever scored
        assert not (held_out & (native & scen)).any()
        # scored and visible sets partition the native observations
        assert np.array_equal(held_out | (native & scen), native)

    def test_solver_sees_composite_mask(self, instance, monkeypatch):
        data, _ = instance
        rng = np.random.default_rng(2)
        native = rng.random(DIMS) < 0.9
        scenario = MissingScenario("rm", 0.4, 7)
        seen = {}

        def recording_solver(y, mask, config):
            seen["mask"] = mask.copy()
            return SolverResult(recovered=data.copy(), iterations=0, converged=True)

        monkeypatch.setattr(experiments, "solve", recording_solver)
        run_experiment(data, native, scenario, SolverConfig(theta=0.1))
        assert np.array_equal(seen["mask"], native & scenario_mask(DIMS, scenario))


class TestRunExperiment:
    def test_oracle_scores_zero(self, instance, monkeypatch):
        data, native = instance
        scenario = MissingScenario("rm", 0.4, 3)
        monkeypatch.setattr(experiments, "solve", oracle_solver(data))
        report = run_experiment(data, native, scenario, SolverConfig(theta=0.1))
        assert report.mape == 0.0
        assert report.rmse == 0.0
        assert report.n_eval == evaluation_mask(native, scenario_mask(DIMS, scenario)).sum()

    def test_empty_holdout_is_degenerate(self, instance):
        data, native = instance
        # a vanishing rate masks nothing on a small tensor
        scenario = MissingScenario("rm", 1e-9, 0)
        assert scenario_mask(DIMS, scenario).all()
        with pytest.raises(DegenerateProblemError):
            run_experiment(data, native, scenario, SolverConfig(theta=0.1))

    def test_recovery_beats_noise_floor(self, instance):
        data, native = instance
        scenario = MissingScenario("rm", 0.4, 5)
        report = run_experiment(data, native, scenario, SolverConfig(theta=0.1))
        data_rms = float(np.sqrt(np.mean(data**2)))
        assert report.rmse < 1e-2 * data_rms
        assert report.converged

    def test_halrtc_forces_theta_zero(self, instance, monkeypatch):
        data, native = instance
        scenario = MissingScenario("rm", 0.4, 5)
        monkeypatch.setattr(experiments, "solve", oracle_solver(data))
        report = run_experiment(data, native, scenario, SolverConfig(theta=0.3), solver="halrtc")
        assert report.solver == "halrtc"
        assert report.theta == 0.0

    def test_unknown_solver(self, instance):
        data, native = instance
        with pytest.raises(ConfigError):
            run_experiment(data, native, MissingScenario("rm", 0.4, 5), SolverConfig(theta=0.1), solver="btmf")


class TestCrossValidation:
    def test_singleton_grid(self, instance):
        data, native = instance
        scenario = MissingScenario("rm", 0.3, 2)
        best, scores = cross_validate_theta(
            data, native, scenario, theta_grid=(0.15,), validation_fraction=0.25, seed=4
        )
        assert best == 0.15
        assert len(scores) == 1

    def test_reports_consistent_with_selection(self, instance):
        data, native = instance
        scenario = MissingScenario("rm", 0.4, 2)
        best, scores = cross_validate_theta(
            data, native, scenario, theta_grid=(0.05, 0.30), validation_fraction=0.25, seed=4
        )
        assert len(scores) == 2
        assert all(s.mape >= 0.0 for s in scores)
        assert best == min(scores, key=lambda s: (s.mape, s.theta)).theta

    def test_same_seed_as_scenario_still_validates(self, instance):
        # scenario and holdout streams are decoupled even for equal seeds
        data, native = instance
        scenario = MissingScenario("nm", 0.4, 4)
        best, scores = cross_validate_theta(
            data, native, scenario, theta_grid=(0.1,), validation_fraction=0.2, seed=4
        )
        assert len(scores) == 1

    def test_bad_grid(self, instance):
        data, native = instance
        scenario = MissingScenario("rm", 0.3, 2)
        with pytest.raises(ConfigError):
            cross_validate_theta(data, native, scenario, theta_grid=())
        with pytest.raises(ConfigError):
            cross_validate_theta(data, native, scenario, theta_grid=(0.1, 1.2))
        with pytest.raises(ConfigError):
            cross_validate_theta(data, native, scenario, theta_grid=(0.1,), validation_fraction=0.0)

    def test_negative_seed_is_config_error(self, instance):
        data, native = instance
        scenario = MissingScenario("rm", 0.3, 2)
        with pytest.raises(ConfigError, match="got -2"):
            cross_validate_theta(data, native, scenario, theta_grid=(0.1,), seed=-2)

    def test_bad_grid_theta_fails_before_any_solve(self, instance, monkeypatch):
        data, native = instance
        calls = []
        monkeypatch.setattr(experiments, "solve", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match=r"theta must lie in \[0, 1\), got 1.5"):
            cross_validate_theta(data, native, MissingScenario("rm", 0.3, 2), theta_grid=(0.1, 1.5))
        assert calls == []

    def test_tie_breaks_to_smaller_theta(self):
        holdout = MissingScenario("rm", 0.2, 1)

        def score(theta, mape, rmse):
            return EvaluationReport(
                mape=mape, rmse=rmse, scenario=holdout, solver="tnn", theta=theta,
                iterations=10, converged=True, wall_time=0.0, n_eval=1,
            )

        scores = [score(0.30, 5.0, 1.0), score(0.10, 5.0, 1.2), score(0.20, 7.0, 0.9)]
        assert select_best_theta(scores) == 0.10

    @pytest.mark.parametrize("pattern", ["rm", "nm"])
    def test_each_score_is_a_run_experiment(self, instance, pattern):
        # a candidate is the experiment whose native mask is the scenario-visible
        # part and whose scenario is the holdout split
        data, _ = instance
        native = np.random.default_rng(3).random(DIMS) < 0.95
        scenario = MissingScenario(pattern, 0.3, 6)
        base = SolverConfig(theta=0.0, max_iter=30)
        grid = (0.0, 0.1, 0.25)
        best, scores = cross_validate_theta(
            data, native, scenario, theta_grid=grid, validation_fraction=0.2, seed=6, base_config=base
        )
        visible = native & scenario_mask(DIMS, scenario)
        assert [s.theta for s in scores] == list(grid)
        for theta, score in zip(grid, scores):
            assert score.solver == "tnn"
            assert (score.scenario.pattern, score.scenario.rate) == (pattern, 0.2)
            ref = run_experiment(data, visible, score.scenario, replace(base, theta=theta))
            assert (score.mape, score.rmse, score.iterations, score.converged, score.n_eval) == (
                ref.mape, ref.rmse, ref.iterations, ref.converged, ref.n_eval,
            )
        assert best == select_best_theta(scores)


class TestBenchmark:
    def test_single_run_single_row(self, instance):
        data, native = instance
        reports = run_benchmark(
            data,
            native,
            [MissingScenario("rm", 0.4, 1)],
            [("tnn", SolverConfig(theta=0.1, max_iter=60))],
        )
        assert len(reports) == 1

    def test_parallel_matches_serial(self, instance):
        data, native = instance
        scenarios = [MissingScenario(p, 0.3, s) for p in ("rm", "nm") for s in (1, 2)]
        runs = [("tnn", SolverConfig(theta=0.1, max_iter=40)), ("halrtc", SolverConfig(theta=0.0, max_iter=40))]
        serial = run_benchmark(data, native, scenarios, runs, jobs=1)
        parallel = run_benchmark(data, native, scenarios, runs, jobs=3)
        assert len(serial) == len(scenarios) * len(runs)
        for a, b in zip(serial, parallel):
            assert (a.scenario, a.solver, a.theta) == (b.scenario, b.solver, b.theta)
            assert a.mape == b.mape and a.rmse == b.rmse

    def test_report_files(self, instance, tmp_path):
        data, native = instance
        reports = run_benchmark(
            data,
            native,
            [MissingScenario("rm", 0.4, 1)],
            [("tnn", SolverConfig(theta=0.1, max_iter=40))],
        )
        csv_path = tmp_path / "report.csv"
        write_report_csv(reports, csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 2
        assert "\r" not in csv_path.read_bytes().decode("utf-8")

        json_path = tmp_path / "report.json"
        write_report_json(reports, json_path)
        rows = json.loads(json_path.read_text(encoding="utf-8"))
        assert rows[0]["pattern"] == "rm"
        assert rows[0]["theta"] == 0.1
        assert isinstance(rows[0]["mape"], float)
