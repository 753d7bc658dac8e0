import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrtc import ConfigError, DimensionError, ParseError, load_run_config, load_tensor, save_tensor
from lrtc.data_io import load_dense, load_matrix_csv, save_dense, save_matrix_csv


class TestDenseFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 2\n3.0 nan\n", encoding="utf-8")
        tensor, mask = load_dense(path)
        assert tensor.shape == (1, 1, 2)
        assert np.array_equal(tensor, np.array([[[3.0, 0.0]]]))
        assert np.array_equal(mask, np.array([[[True, False]]]))

    def test_nan_token_any_case(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 3\nNaN 2.0 NAN\n", encoding="utf-8")
        _, mask = load_dense(path)
        assert np.array_equal(mask.ravel(), [False, True, False])

    def test_roundtrip_with_mask(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = rng.standard_normal((5, 4, 6))
        mask = rng.random(tensor.shape) < 0.7
        tensor = np.where(mask, tensor, 0.0)  # canonical ingested form
        path = tmp_path / "t.txt"
        save_dense(path, tensor, mask)
        loaded, loaded_mask = load_dense(path)
        assert np.array_equal(loaded, tensor)
        assert np.array_equal(loaded_mask, mask)

    def test_roundtrip_without_mask(self, tmp_path):
        rng = np.random.default_rng(1)
        tensor = rng.standard_normal((3, 2, 4)) * 1e3
        path = tmp_path / "t.txt"
        save_dense(path, tensor)
        loaded, mask = load_dense(path)
        assert np.array_equal(loaded, tensor)
        assert mask.all()

    def test_zero_tensor_file(self, tmp_path):
        path = tmp_path / "t.txt"
        save_dense(path, np.zeros((2, 2, 2)))
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        assert all(token == "0.0" for line in body for token in line.split())

    def test_too_few_values(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("2 2 2\n1 2 3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected 8 values, found 3"):
            load_dense(path)

    def test_too_many_values(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 2\n1 2 3\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:3"):
            load_dense(path)

    def test_bad_token_names_line_and_column(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 4\n1.0 2.0\nx 4.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3:1"):
            load_dense(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("2 2\n1 2 3 4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_dense(path)
        path.write_text("a 2 2\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1:1"):
            load_dense(path)
        path.write_text("0 2 2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="positive"):
            load_dense(path)

    def test_infinity_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 1\ninf\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite"):
            load_dense(path)


class TestMatrixCsvFormat:
    def test_day_interval_mapping(self, tmp_path):
        days, intervals = 2, 4
        matrix = np.arange(3 * days * intervals, dtype=float).reshape(3, days * intervals)
        path = tmp_path / "m.csv"
        with open(path, "w", encoding="utf-8") as fh:
            for row in matrix:
                fh.write(",".join(str(v) for v in row) + "\n")
        tensor, mask = load_matrix_csv(path, days, intervals)
        assert tensor.shape == (3, days, intervals)
        assert mask.all()
        for loc in range(3):
            for d in range(days):
                for t in range(intervals):
                    assert tensor[loc, d, t] == matrix[loc, d * intervals + t]

    def test_missing_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,,3.0,nan\n5.0,6.0,7.0,8.0\n", encoding="utf-8")
        tensor, mask = load_matrix_csv(path, 2, 2)
        assert np.array_equal(mask[0].ravel(), [True, False, True, False])
        assert tensor[0, 0, 1] == 0.0 and tensor[0, 1, 1] == 0.0

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1,c2,c3\n1.0,2.0,3.0,4.0\n", encoding="utf-8")
        tensor, _ = load_matrix_csv(path, 2, 2)
        assert tensor.shape == (1, 2, 2)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_matrix_csv(path, 2, 2)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensor = rng.standard_normal((4, 3, 5))
        mask = rng.random(tensor.shape) < 0.8
        tensor = np.where(mask, tensor, 0.0)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, tensor, mask)
        loaded, loaded_mask = load_matrix_csv(path, 3, 5)
        assert np.array_equal(loaded, tensor)
        assert np.array_equal(loaded_mask, mask)

    def test_benchmark_scale_shape(self, tmp_path):
        # locations x (days * intervals) matrix reshapes to the tensor layout
        locations, days, intervals = 214, 61, 144
        matrix = np.zeros((locations, days * intervals))
        matrix[7, 5 * intervals + 11] = 42.0
        path = tmp_path / "big.csv"
        np.savetxt(path, matrix, delimiter=",", fmt="%.1f")
        tensor, mask = load_matrix_csv(path, days, intervals)
        assert tensor.shape == (locations, days, intervals)
        assert tensor[7, 5, 11] == 42.0
        assert mask.all()


class TestDispatch:
    def test_load_tensor_formats(self, tmp_path):
        rng = np.random.default_rng(3)
        tensor = rng.standard_normal((3, 4, 5))
        dense = tmp_path / "t.txt"
        save_tensor(dense, tensor)
        loaded, _ = load_tensor(dense)
        assert np.array_equal(loaded, tensor)
        csv = tmp_path / "t.csv"
        save_tensor(csv, tensor, fmt="csv")
        loaded, _ = load_tensor(csv, fmt="csv", csv_dims=(4, 5))
        assert np.array_equal(loaded, tensor)

    def test_csv_needs_dims(self, tmp_path):
        with pytest.raises(ConfigError):
            load_tensor(tmp_path / "x.csv", fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_tensor(tmp_path / "x", fmt="parquet")
        with pytest.raises(ConfigError):
            save_tensor(tmp_path / "x", np.zeros((1, 1, 1)), fmt="parquet")

    @pytest.mark.parametrize("fmt", ["dense", "csv"])
    def test_writers_reject_mismatched_mask(self, tmp_path, fmt):
        tensor = np.zeros((2, 3, 4))
        # a transposed mask holds as many entries; a (2, 3, 5) mask holds more
        for mask in (np.ones((4, 3, 2), bool), np.ones((2, 3, 5), bool)):
            with pytest.raises(DimensionError):
                save_tensor(tmp_path / "x", tensor, mask=mask, fmt=fmt)


@st.composite
def masked_tensors(draw):
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    tensor = draw(
        arrays(np.float64, dims, elements=st.floats(-1e9, 1e9, allow_nan=False, width=64))
    )
    mask = draw(arrays(np.bool_, dims))
    return np.where(mask, tensor, 0.0), mask


@given(pair=masked_tensors(), fmt=st.sampled_from(["dense", "csv"]))
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_file_roundtrip_property(pair, fmt, tmp_path):
    tensor, mask = pair
    path = tmp_path / f"t-{fmt}"
    save_tensor(path, tensor, mask, fmt=fmt)
    csv_dims = tensor.shape[1:] if fmt == "csv" else None
    loaded, loaded_mask = load_tensor(path, fmt=fmt, csv_dims=csv_dims)
    assert np.array_equal(loaded, tensor)
    assert np.array_equal(loaded_mask, mask)


class TestRunConfigFile:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# solver\n"
            "theta = 0.25\n"
            "rho0 = 1e-5\n"
            "max_iter = 150\n"
            "\n"
            "pattern = nm\n"
            "rate = 0.4\n"
            "seed = 7\n"
            "dims = 61 144\n"
            "grid = 0.05 0.10 0.30\n",
            encoding="utf-8",
        )
        config = load_run_config(path)
        assert config["theta"] == 0.25
        assert config["max_iter"] == 150
        assert config["pattern"] == "nm"
        assert config["dims"] == (61, 144)
        assert config["grid"] == (0.05, 0.10, 0.30)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta = 0.1\nshrinkage = hard\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2: unknown key"):
            load_run_config(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rho0 = 1e-5\ntheta = 1.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2: theta"):
            load_run_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta 0.1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_run_config(path)

    def test_constraints_checked_at_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        for line in (
            "rate = 1.0",
            "max_iter = 0",
            "pattern = block",
            "rho_mult = 0.5",
            "rho_mult = nan",
            "rho_max = inf",
            "theta = nan",
            "rate = nan",
        ):
            path.write_text(line + "\n", encoding="utf-8")
            with pytest.raises(ParseError, match=":1"):
                load_run_config(path)
