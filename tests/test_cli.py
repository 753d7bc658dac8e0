import json

import numpy as np
import pytest

from lrtc import generate_rm_mask, load_tensor, save_tensor, synth_lowrank
from lrtc.cli import main


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "data.txt"
    rc = main(
        ["synth", "--dims", "6", "5", "8", "--rank", "2", "--seed", "3", "--output", str(path)]
    )
    assert rc == 0
    return path


class TestSynthCommand:
    def test_writes_loadable_file(self, synth_file):
        tensor, mask = load_tensor(synth_file)
        assert tensor.shape == (6, 5, 8)
        assert mask.all()

    def test_ones_factors(self, tmp_path):
        path = tmp_path / "ones.txt"
        rc = main(
            [
                "synth", "--dims", "2", "2", "2", "--rank", "1", "--offset", "5",
                "--ones-factors", "--output", str(path),
            ]
        )
        assert rc == 0
        tensor, _ = load_tensor(path)
        assert np.array_equal(tensor, np.full((2, 2, 2), 6.0))

    def test_rank_too_large_is_config_error(self, tmp_path):
        rc = main(["synth", "--dims", "2", "2", "2", "--rank", "9", "--output", str(tmp_path / "x")])
        assert rc == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--dims", "6", "5", "8", "--rank", "2", "--offset", "inf", "--output", "e.txt"],
            ["benchmark", "--synth", "6", "5", "8", "2", "--offset", "nan", "--pattern", "rm",
             "--rate", "0.3", "--seed", "1", "--theta", "0.1", "--report", "r.csv"],
        ],
        ids=["synth", "benchmark"],
    )
    def test_non_finite_offset_is_config_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        assert "offset must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestImputeCommand:
    def test_fully_observed_roundtrip(self, synth_file, tmp_path):
        out = tmp_path / "out.txt"
        trace = tmp_path / "trace.csv"
        rc = main(
            [
                "impute", "--input", str(synth_file), "--theta", "0.2",
                "--output", str(out), "--trace-output", str(trace),
            ]
        )
        assert rc == 0
        original, _ = load_tensor(synth_file)
        recovered, mask = load_tensor(out)
        assert np.array_equal(recovered, original)
        assert mask.all()
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,convergence_ratio,rho"
        assert len(lines) == 2  # fully observed converges after one iteration

    def test_halrtc_equals_tnn_theta_zero(self, synth_file, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["impute", "--input", str(synth_file), "--solver", "halrtc", "--output", str(out_a)]) == 0
        assert main(["impute", "--input", str(synth_file), "--solver", "tnn", "--theta", "0", "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["impute"]) == 2
        assert main([]) == 2

    def test_tnn_without_theta_is_config_error(self, synth_file, tmp_path):
        rc = main(["impute", "--input", str(synth_file), "--output", str(tmp_path / "o.txt")])
        assert rc == 3

    def test_malformed_input_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 2 3 4\n", encoding="utf-8")
        rc = main(["impute", "--input", str(bad), "--theta", "0.1", "--output", str(tmp_path / "o.txt")])
        assert rc == 2

    def test_infinite_epsilon_is_config_error(self, synth_file, tmp_path):
        # an infinite tolerance would pass the convergence test after one iteration
        out = tmp_path / "o.txt"
        argv = ["impute", "--input", str(synth_file), "--theta", "0.1", "--output", str(out)]
        assert main(argv + ["--epsilon", "inf"]) == 3
        assert not out.exists()

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = main(
            ["impute", "--input", str(tmp_path / "nope.txt"), "--theta", "0.1", "--output", str(tmp_path / "o.txt")]
        )
        assert rc == 4

    def test_non_convergence_warns_but_succeeds(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        assert main(["synth", "--dims", "8", "6", "9", "--rank", "2", "--output", str(data)]) == 0
        # mask some entries by rewriting a few tokens as nan
        lines = data.read_text(encoding="utf-8").splitlines()
        tokens = lines[1].split()
        tokens[0] = "nan"
        lines[1] = " ".join(tokens)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(
            [
                "impute", "--input", str(data), "--theta", "0.1", "--max-iter", "3",
                "--output", str(tmp_path / "o.txt"),
            ]
        )
        assert rc == 0
        assert "not converged" in capsys.readouterr().err

    def test_config_file_supplies_defaults_and_flags_win(self, synth_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.2\nmax_iter = 50\n", encoding="utf-8")
        out_cfg = tmp_path / "from_cfg.txt"
        rc = main(["impute", "--input", str(synth_file), "--config", str(cfg), "--output", str(out_cfg)])
        assert rc == 0
        out_flag = tmp_path / "from_flag.txt"
        rc = main(
            [
                "impute", "--input", str(synth_file), "--config", str(cfg),
                "--theta", "0.2", "--output", str(out_flag),
            ]
        )
        assert rc == 0
        assert out_cfg.read_bytes() == out_flag.read_bytes()


    def test_halrtc_ignores_theta(self, synth_file, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        argv = ["impute", "--input", str(synth_file), "--solver", "halrtc"]
        assert main(argv + ["--theta", "1.5", "--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestBenchmarkCommand:
    def test_single_run_single_row(self, synth_file, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(
            [
                "benchmark", "--input", str(synth_file), "--pattern", "rm", "--rate", "0.3",
                "--seed", "1", "--theta", "0.1", "--solver", "tnn", "--max-iter", "40",
                "--report", str(report),
            ]
        )
        assert rc == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "pattern,rate,seed,solver,theta,mape,rmse,iterations,wall_time"
        assert len(lines) == 2

    def test_cartesian_row_count(self, synth_file, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(
            [
                "benchmark", "--input", str(synth_file),
                "--pattern", "rm", "nm", "--rate", "0.2", "0.4", "--seed", "1", "2",
                "--theta", "0.1", "--solver", "tnn", "--max-iter", "30",
                "--report", str(report),
            ]
        )
        assert rc == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == 2 * 2 * 2 * 1

    def test_json_report(self, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            [
                "benchmark", "--synth", "6", "5", "8", "2", "--pattern", "rm", "--rate", "0.3",
                "--seed", "1", "--solver", "halrtc", "--max-iter", "30",
                "--report", str(report),
            ]
        )
        assert rc == 0
        rows = json.loads(report.read_text(encoding="utf-8"))
        assert len(rows) == 1
        assert rows[0]["solver"] == "halrtc"

    def test_source_required(self, tmp_path):
        rc = main(
            ["benchmark", "--pattern", "rm", "--rate", "0.3", "--seed", "1",
             "--solver", "halrtc", "--report", str(tmp_path / "r.csv")]
        )
        assert rc == 3

    def test_tnn_needs_theta(self, synth_file, tmp_path):
        rc = main(
            ["benchmark", "--input", str(synth_file), "--pattern", "rm", "--rate", "0.3",
             "--seed", "1", "--solver", "tnn", "--report", str(tmp_path / "r.csv")]
        )
        assert rc == 3

    def test_jobs_env_var(self, synth_file, tmp_path, monkeypatch):
        monkeypatch.setenv("LRTC_JOBS", "2")
        report = tmp_path / "report.csv"
        rc = main(
            [
                "benchmark", "--input", str(synth_file), "--pattern", "rm", "--rate", "0.3",
                "--seed", "1", "2", "--theta", "0.1", "--solver", "tnn", "--max-iter", "30",
                "--report", str(report),
            ]
        )
        assert rc == 0
        assert len(report.read_text(encoding="utf-8").splitlines()) == 3


    def test_halrtc_ignores_theta(self, tmp_path):
        rc = main(
            [
                "benchmark", "--synth", "6", "5", "8", "2", "--pattern", "rm", "--rate", "0.3",
                "--seed", "1", "--solver", "halrtc", "--theta", "1.5", "--max-iter", "30",
                "--report", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("flag", ["--rho-mult", "--rho-max"])
    def test_nan_schedule_flag_is_config_error(self, tmp_path, flag):
        rc = main(
            [
                "benchmark", "--synth", "8", "6", "10", "2", "--pattern", "rm", "--rate", "0.3",
                "--seed", "1", "--theta", "0.1", "--report", str(tmp_path / "r.csv"), flag, "nan",
            ]
        )
        assert rc == 3

    def test_rho_overflow_is_config_error(self, tmp_path):
        rc = main(
            [
                "benchmark", "--synth", "8", "6", "10", "2", "--pattern", "rm", "--rate", "0.3",
                "--seed", "1", "--theta", "0.1", "--rho-mult", "1e300", "--rho-max", "inf",
                "--report", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark", "--synth", "8", "6", "10", "2", "--pattern", "rm", "--rate", "0.3",
         "--seed", "-1", "--theta", "0.1", "--report", "r.csv"],
        ["benchmark", "--synth", "8", "6", "10", "2", "--synth-seed", "-1", "--pattern", "rm",
         "--rate", "0.3", "--seed", "1", "--theta", "0.1", "--report", "r.csv"],
        ["cv", "--input", "data.txt", "--pattern", "rm", "--rate", "0.3", "--seed", "-2"],
        ["synth", "--dims", "4", "4", "4", "--rank", "1", "--seed", "-1", "--output", "s.txt"],
    ],
    ids=["benchmark", "synth-seed", "cv", "synth"],
)
def test_negative_seed_is_config_error(synth_file, monkeypatch, capsys, argv):
    monkeypatch.chdir(synth_file.parent)
    assert main(argv) == 3
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


class TestCvCommand:
    def test_table_and_selection(self, synth_file, capsys):
        rc = main(
            [
                "cv", "--input", str(synth_file), "--pattern", "rm", "--rate", "0.3",
                "--seed", "5", "--grid", "0.1", "0.2", "--max-iter", "60",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        table_rows = [line for line in out.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
        assert len(table_rows) == 2
        assert any(line.startswith("selected_theta ") for line in out.splitlines())

    def test_singleton_grid_selected(self, synth_file, capsys):
        rc = main(
            [
                "cv", "--input", str(synth_file), "--pattern", "rm", "--rate", "0.3",
                "--seed", "5", "--grid", "0.15", "--max-iter", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        selected = [line for line in out.splitlines() if line.startswith("selected_theta ")]
        assert selected and float(selected[0].split()[1]) == 0.15


@pytest.fixture
def parity_paths(tmp_path):
    """Input files for the flag/config parity runs, one with a space in its name."""
    truth = synth_lowrank((6, 5, 8), 2, seed=3)
    mask = generate_rm_mask(truth.shape, 0.3, seed=4)
    paths = {"data": tmp_path / "data.txt", "spaced": tmp_path / "my data.txt", "csv": tmp_path / "m.csv"}
    save_tensor(paths["data"], truth, mask)
    save_tensor(paths["spaced"], truth, mask)
    save_tensor(paths["csv"], truth, mask, fmt="csv")
    return {name: str(path) for name, path in paths.items()}


# Each base run sets every flag it needs; a parity case drops the flag of its
# key and supplies it either as that flag or as a config line.
_PARITY_BASES = {
    "impute": ["impute", "--input", "{data}", "--output", "out.txt", "--theta", "0.2",
               "--max-iter", "20"],
    "impute-csv": ["impute", "--input", "{csv}", "--format", "csv", "--dims", "5", "8",
                   "--output", "out.csv", "--theta", "0.2", "--max-iter", "20"],
    "benchmark": ["benchmark", "--synth", "6", "5", "8", "2", "--pattern", "rm", "--rate", "0.3",
                  "--seed", "1", "--theta", "0.1", "--max-iter", "10", "--report", "r.csv"],
    "benchmark-input": ["benchmark", "--pattern", "rm", "--rate", "0.3", "--seed", "1",
                        "--theta", "0.1", "--max-iter", "10", "--report", "r.csv"],
    "cv": ["cv", "--input", "{data}", "--pattern", "rm", "--rate", "0.3", "--seed", "1",
           "--grid", "0.1", "0.2", "--max-iter", "20"],
}

# (base, key, value, extra flags): a valid, an out-of-range and an unparsable
# value for every key a config line can supply
_PARITY_CASES = [
    ("impute", "theta", "0.3", []),
    ("impute", "theta", "1.5", []),
    ("impute", "theta", "abc", []),
    ("impute", "theta", "1.5", ["--solver", "halrtc"]),  # halrtc ignores theta
    ("benchmark", "theta", "0.1 0.2", []),
    ("benchmark", "theta", "0.1 1.5", []),
    ("impute", "rho0", "1e-4", []),
    ("impute", "rho0", "0", []),
    ("impute", "rho0", "x", []),
    ("impute", "rho_max", "1e4", []),
    ("impute", "rho_max", "inf", []),  # no cap
    ("impute", "rho_max", "1e-9", []),  # below rho0
    ("impute", "rho_max", "big", []),
    ("impute", "rho_mult", "1.1", []),
    ("impute", "rho_mult", "0.5", []),
    ("impute", "rho_mult", "nan", []),
    ("impute", "rho_mult", "fast", []),
    ("impute", "epsilon", "1e-3", []),
    ("impute", "epsilon", "inf", []),
    ("impute", "epsilon", "tiny", []),
    ("impute", "max_iter", "7", []),
    ("impute", "max_iter", "0", []),
    ("impute", "max_iter", "1.5", []),
    ("impute", "format", "dense", []),
    ("impute", "format", "xml", []),
    ("impute-csv", "dims", "5 8", []),
    ("impute-csv", "dims", "0 40", []),
    ("impute-csv", "dims", "5", []),
    ("impute-csv", "dims", "5 x", []),
    ("impute-csv", "dims", "5 8 1", []),
    ("impute", "trace_output", "trace.csv", []),
    ("impute", "trace_output", "my trace.csv", []),
    ("impute", "trace_output", "no-such-dir/trace.csv", []),
    ("impute", "input", "{spaced}", []),
    ("impute", "output", "out.txt", []),
    ("impute", "output", "my out.txt", []),
    ("impute", "output", "no-such-dir/out.txt", []),
    ("benchmark-input", "input", "{spaced}", []),
    ("benchmark-input", "input", "{spaced}.missing", []),
    ("benchmark", "report", "r.csv", []),
    ("benchmark", "pattern", "rm nm", []),
    ("benchmark", "rate", "0.2 0.4", []),
    ("benchmark", "seed", "1 2", []),
    ("benchmark", "seed", "1 -1", []),
    ("cv", "input", "{spaced}", []),
    ("cv", "pattern", "nm", []),
    ("cv", "pattern", "block", []),
    ("cv", "rate", "0.4", []),
    ("cv", "rate", "1.0", []),
    ("cv", "rate", "nan", []),
    ("cv", "rate", "lots", []),
    ("cv", "seed", "2", []),
    ("cv", "seed", "-1", []),
    ("cv", "seed", "1.5", []),
    ("cv", "grid", "0.1 0.3", []),
    ("cv", "grid", "0.1 1.5", []),
    ("cv", "grid", "0.1 x", []),
    ("cv", "grid", "", []),
    ("cv", "holdout_fraction", "0.3", []),
    ("cv", "holdout_fraction", "1.0", []),
    ("cv", "holdout_fraction", "half", []),
]

_PATH_KEYS = ("input", "output", "trace_output", "report")


def _drop_flag(argv, flag):
    """``argv`` without ``flag`` and the values that follow it."""
    out, skipping = [], False
    for token in argv:
        if token.startswith("--"):
            skipping = token == flag
        if not skipping:
            out.append(token)
    return out


def _run_in(directory, monkeypatch, capsys, argv):
    """Exit code, stdout, stderr and the files written by ``main(argv)`` in ``directory``.

    A CSV report's last column, the run's wall time, is dropped.
    """
    directory.mkdir()
    monkeypatch.chdir(directory)
    rc = main(argv)
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(directory.rglob("*")):
        lines = path.read_text(encoding="utf-8").splitlines()
        if path.name == "r.csv":
            lines = [line.rsplit(",", 1)[0] for line in lines]
        files[path.name] = lines
    return rc, out, err, files


@pytest.mark.parametrize(
    "base, key, value, extra",
    _PARITY_CASES,
    ids=[f"{base}-{key}={value}{''.join(extra)}" for base, key, value, extra in _PARITY_CASES],
)
def test_config_line_acts_like_its_flag(parity_paths, tmp_path, monkeypatch, capsys, base, key,
                                        value, extra):
    flag = "--" + key.replace("_", "-")
    value = value.format(**parity_paths)
    argv = _drop_flag([token.format(**parity_paths) for token in _PARITY_BASES[base]], flag) + extra
    tokens = [value] if key in _PATH_KEYS else value.split()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# parity\n{key} = {value}\n", encoding="utf-8")

    rc, out, err, files = _run_in(tmp_path / "flag", monkeypatch, capsys, argv + [flag, *tokens])
    cfg_rc, cfg_out, cfg_err, cfg_files = _run_in(
        tmp_path / "config", monkeypatch, capsys, argv + ["--config", str(cfg)]
    )
    assert (cfg_rc, cfg_out, cfg_files) == (rc, out, files)
    if err.startswith("usage:"):
        # argparse prints its usage and then "<prog>: error: <message>"; the
        # config line gives the same message after its path:line
        message = err.splitlines()[-1].split(": error: ", 1)[1]
        assert cfg_err == f"error: {cfg}:2: {message}\n"
    else:
        assert cfg_err == err


@pytest.mark.parametrize(
    "argv, key",
    [
        (_PARITY_BASES["impute"], "output"),
        (_PARITY_BASES["benchmark"], "report"),
    ],
)
def test_flag_on_the_command_line_wins_over_its_config_line(parity_paths, tmp_path, monkeypatch,
                                                             capsys, argv, key):
    # the command line gives --output or --report, so a line for the same key
    # is read but changes nothing
    argv = [token.format(**parity_paths) for token in argv]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = elsewhere.txt\n", encoding="utf-8")
    alone = _run_in(tmp_path / "flag", monkeypatch, capsys, argv)
    assert alone[0] == 0
    assert _run_in(tmp_path / "config", monkeypatch, capsys, argv + ["--config", str(cfg)]) == alone


@pytest.mark.parametrize(
    "command, flags",
    [
        ("impute", "--input, --output"),
        ("benchmark", "--pattern, --rate, --seed, --report"),
        ("cv", "--input, --pattern, --rate, --seed"),
        ("synth", "--dims, --rank, --output"),
    ],
)
def test_missing_needed_flags_are_one_usage_error(tmp_path, monkeypatch, capsys, command, flags):
    # checked after --config is applied, so every needed flag is named at once
    monkeypatch.chdir(tmp_path)
    assert main([command]) == 2
    assert capsys.readouterr().err == f"error: the following arguments are required: {flags}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["impute", "--output", "o.txt"],
        ["benchmark", "--pattern", "rm", "--rate", "0.3", "--seed", "1",
         "--solver", "halrtc", "tnn", "--report", "r.csv"],
    ],
    ids=["impute", "benchmark"],
)
def test_tnn_without_theta_is_one_config_error(synth_file, tmp_path, monkeypatch, capsys, argv):
    # only tnn reads --theta; both commands refuse a tnn run without it alike
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--input", str(synth_file)]) == 3
    assert capsys.readouterr().err == "error: --theta is required for the tnn solver\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.txt"]
