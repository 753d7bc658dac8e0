import multiprocessing
import multiprocessing.connection
import os
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrtc import (
    CompletionError,
    ConfigError,
    DimensionError,
    InvalidInputError,
    ParseError,
    load_run_config,
    load_tensor,
    save_tensor,
)
from lrtc import _fanout, data_io
from lrtc.cli import main
from lrtc.data_io import load_dense, load_matrix_csv, save_dense, save_matrix_csv

# Python 3.12+ warns when a process with live threads forks; the parallel
# reader and writer must fork only while the process has one thread. Only
# that warning is an error here: hypothesis's failure report imports modules
# that raise other DeprecationWarnings, which must not abort the test run.
pytestmark = pytest.mark.filterwarnings(
    r"error:.*use of fork\(\) may lead to deadlocks:DeprecationWarning"
)


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

    def test_header_larger_than_the_file_is_parse_error(self, tmp_path, capsys):
        # the header promises ~8 PB of values, far beyond any machine's memory,
        # so an array sized by it could never be allocated
        path = tmp_path / "t.txt"
        path.write_text("100000 100000 100000\n1 2 3\n", encoding="utf-8")
        output = tmp_path / "o.txt"
        argv = ["impute", "--input", str(path), "--theta", "0.1", "--output", str(output)]
        assert main(argv) == 2
        assert "expected 1000000000000000 values, found 3" in capsys.readouterr().err
        assert not output.exists()

    def test_fifo_header_larger_than_the_stream_is_parse_error(self, tmp_path, capsys):
        # a FIFO has no size to bound its header by, so the loader's arrays
        # grow with the values that arrive, not with the 10**15 it promises
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(b"100000 100000 100000\n1 2 3\n",), daemon=True
        )
        writer.start()
        argv = ["impute", "--input", str(fifo), "--theta", "0.1", "--output", str(tmp_path / "o.txt")]
        assert main(argv) == 2
        writer.join(timeout=10)
        assert "fifo:2: expected 1000000000000000 values, found 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("token", ["+nan", "-nan", "-NaN", "1e400", "-inf"])
    def test_signed_nan_and_overflow_rejected(self, tmp_path, token):
        path = tmp_path / "t.txt"
        path.write_text(f"1 1 2\n1.0 {token}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:2: non-finite value"):
            load_dense(path)

    def test_bad_token_ahead_of_overflow_is_reported_first(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 2\n1.0 x 3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:2: cannot parse 'x'"):
            load_dense(path)
        path.write_text("1 1 2\n1.0 2.0 x\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:3: more than 2 values"):
            load_dense(path)

    def test_body_far_longer_than_its_header_is_not_parsed_whole(self, tmp_path):
        # 2 MB of values under a one-value header: the line parser stops at
        # the second value, where parsing the whole body would take 4 MB
        path = tmp_path / "t.txt"
        path.write_text("1 1 1\n" + ("1.5 " * 1000 + "\n") * 500, encoding="utf-8")
        tracemalloc.start()
        try:
            outcome = _outcome(load_dense, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == _outcome(_oracle_load_dense, path)
        assert outcome[0] == "ParseError" and ":2:2: more than 1 values" in outcome[1]
        assert peak < 1 << 20

    def test_load_peak_stays_near_the_arrays_it_returns(self, tmp_path):
        # the file's text is never held whole
        tensor = np.random.default_rng(4).standard_normal((200, 10, 50))
        path = tmp_path / "t.txt"
        save_dense(path, tensor)
        tracemalloc.start()
        try:
            loaded, mask = load_dense(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, tensor) and mask.all()
        assert peak < 2 * (loaded.nbytes + mask.nbytes)


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

    def test_header_without_rows_names_the_header_line(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("\n\nc0,c1\n\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"hdr\.csv:3: no data rows after header"):
            load_matrix_csv(path, 1, 2)

    def test_typo_in_first_row_is_parse_error(self, tmp_path):
        # a numeric cell makes the first row data, so the bad cell is named
        path = tmp_path / "m.csv"
        path.write_text("1.0,x,3.0,4.0\n5,6,7,8\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"m\.csv:1:2: cannot parse 'x'"):
            load_matrix_csv(path, 2, 2)

    def test_nan_cell_makes_first_row_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("loc,nan,,c3\n1.0,2.0,3.0,4.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"m\.csv:1:1: cannot parse 'loc'"):
            load_matrix_csv(path, 2, 2)

    @pytest.mark.parametrize("before", [4, 3, 2, 1, 0])
    def test_signed_nan_at_a_scan_block_edge_is_rejected(self, tmp_path, before):
        # ``before`` bytes of the -nan cell fall in the first scan block
        path = tmp_path / "m.csv"
        path.write_text(" " * (data_io._SCAN_BYTES - before) + "-nAn,1\n", encoding="utf-8")
        outcome = _outcome(load_matrix_csv, path, 1, 2)
        assert outcome == _outcome(_oracle_load_matrix_csv, path, 1, 2)
        assert outcome[0] == "ParseError" and ":1:1: non-finite value '-nAn'" in outcome[1]

    @pytest.mark.parametrize(
        "days, intervals", [(2.7, 3), (2, 3.0), (True, 6), ("2", 3), (0, 6), (2, -3)]
    )
    def test_days_and_intervals_must_be_positive_integers(self, tmp_path, days, intervals):
        # 2.7 days is not read as 2
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4,5,6\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="days and intervals must be positive integers"):
            load_matrix_csv(path, days, intervals)

    def test_numpy_integer_days_and_intervals(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4,5,6\n", encoding="utf-8")
        tensor, _ = load_matrix_csv(path, np.int64(2), np.uint8(3))
        assert tensor.shape == (1, 2, 3)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_matrix_csv(path, 2, 2)

    def test_dims_wider_than_the_file_is_parse_error(self, tmp_path, capsys):
        # --dims promise rows of 10**14 cells (~800 TB as floats), which could
        # never be allocated
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n", encoding="utf-8")
        output = tmp_path / "o.csv"
        argv = [
            "impute", "--input", str(path), "--format", "csv", "--dims", "10000000", "10000000",
            "--theta", "0.1", "--output", str(output),
        ]
        assert main(argv) == 2
        assert "expected 100000000000000 columns (days*intervals), got 3" in capsys.readouterr().err
        assert not output.exists()

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

    def test_load_peak_stays_near_the_arrays_it_returns(self, tmp_path):
        # rows are parsed as they are read, so the file's text is never held
        # whole, and the arrays' spare capacity is under half their final size
        tensor = np.random.default_rng(4).standard_normal((200, 10, 50))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, tensor)
        tracemalloc.start()
        try:
            loaded, mask = load_matrix_csv(path, 10, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, tensor) and mask.all()
        assert peak < 2 * (loaded.nbytes + mask.nbytes)

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

    @pytest.mark.parametrize("csv_dims", [(2, 3, 4), (6,), ()])
    def test_csv_dims_must_be_a_pair(self, tmp_path, csv_dims):
        path = tmp_path / "x.csv"
        path.write_text("1,2,3,4,5,6\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"needs the \(days, intervals\) pair"):
            load_tensor(path, fmt="csv", csv_dims=csv_dims)

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


class TestWritersRefuseNonFinite:
    @pytest.mark.parametrize("fmt", ["dense", "csv"])
    def test_unmasked_nan_or_inf_raises(self, tmp_path, fmt):
        path = tmp_path / "t"
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError, match=r"index \(0, 0, 1\)"):
                save_tensor(path, np.array([[[1.0, bad, 2.0]]]), fmt=fmt)
            assert not path.exists()

    @pytest.mark.parametrize("fmt", ["dense", "csv"])
    def test_masked_inf_raises_where_written(self, tmp_path, fmt):
        tensor = np.array([[[1.0, np.nan, np.inf]]])
        path = tmp_path / "t"
        with pytest.raises(InvalidInputError, match=r"index \(0, 0, 2\)"):
            save_tensor(path, tensor, mask=np.array([[[True, False, True]]]), fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["dense", "csv"])
    def test_masked_missing_entries_may_be_non_finite(self, tmp_path, fmt):
        tensor = np.array([[[1.0, np.nan, np.inf]]])
        mask = np.array([[[True, False, False]]])
        path = tmp_path / "t"
        save_tensor(path, tensor, mask=mask, fmt=fmt)
        sep = " " if fmt == "dense" else ","
        assert path.read_text(encoding="utf-8").splitlines()[-1] == sep.join(["1.0", "nan", "nan"])
        loaded, loaded_mask = load_tensor(path, fmt=fmt, csv_dims=(1, 3))
        assert np.array_equal(loaded, [[[1.0, 0.0, 0.0]]])
        assert np.array_equal(loaded_mask, mask)


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


# Slow-path oracles: the per-token loaders and per-scalar writers that the
# row-at-a-time ones replaced, kept verbatim so that every fast path is checked
# against them.


def _oracle_parse_value(token, path, line_no, col_no):
    if token.lower() == "nan":
        return None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}:{col_no}: cannot parse {token!r} as a number"
        ) from None
    if not np.isfinite(value):
        raise ParseError(
            f"{path}:{line_no}:{col_no}: non-finite value {token!r} is not allowed"
        )
    return value


def _oracle_load_dense(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file; expected an 'n1 n2 n3' header")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(
            f"{path}:1: header must hold exactly three dimensions, got {lines[0].strip()!r}"
        )
    dims = []
    for col_no, token in enumerate(header, start=1):
        try:
            d = int(token)
        except ValueError:
            raise ParseError(
                f"{path}:1:{col_no}: cannot parse dimension {token!r} as an integer"
            ) from None
        if d < 1:
            raise ParseError(f"{path}:1:{col_no}: dimensions must be positive, got {d}")
        dims.append(d)
    dims = tuple(dims)
    count = dims[0] * dims[1] * dims[2]
    values = np.zeros(count)
    observed = np.ones(count, dtype=bool)
    pos = 0
    for line_no, line in enumerate(lines[1:], start=2):
        for col_no, token in enumerate(line.split(), start=1):
            if pos >= count:
                raise ParseError(
                    f"{path}:{line_no}:{col_no}: more than {count} values in file"
                )
            value = _oracle_parse_value(token, path, line_no, col_no)
            if value is None:
                observed[pos] = False
            else:
                values[pos] = value
            pos += 1
    if pos != count:
        raise ParseError(f"{path}:{len(lines)}: expected {count} values, found {pos}")
    return values.reshape(dims), observed.reshape(dims)


def _oracle_looks_like_header(cells):
    # a header only when no non-empty cell parses as a number
    seen = False
    for cell in cells:
        token = cell.strip()
        if token == "":
            continue
        seen = True
        try:
            float(token)
        except ValueError:
            continue
        return False
    return seen


def _oracle_load_matrix_csv(path, days, intervals):
    days, intervals = int(days), int(intervals)
    if days < 1 or intervals < 1:
        raise ConfigError(f"days and intervals must be positive, got {days}, {intervals}")
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.rstrip("\n").rstrip("\r") for line in fh]
    rows = [(no, line.split(",")) for no, line in enumerate(raw, start=1) if line.strip()]
    if not rows:
        raise ParseError(f"{path}:1: empty file")
    if _oracle_looks_like_header(rows[0][1]):
        header_no, rows = rows[0][0], rows[1:]
        if not rows:
            raise ParseError(f"{path}:{header_no}: no data rows after header")
    width = days * intervals
    matrix = np.zeros((len(rows), width))
    observed = np.ones((len(rows), width), dtype=bool)
    for r, (line_no, cells) in enumerate(rows):
        if len(cells) != width:
            raise ParseError(
                f"{path}:{line_no}: expected {width} columns (days*intervals), got {len(cells)}"
            )
        for c, cell in enumerate(cells):
            token = cell.strip()
            if token == "":
                observed[r, c] = False
                continue
            value = _oracle_parse_value(token, path, line_no, c + 1)
            if value is None:
                observed[r, c] = False
            else:
                matrix[r, c] = value
    shape = (len(rows), days, intervals)
    return matrix.reshape(shape), observed.reshape(shape)


def _oracle_save_dense(path, tensor, mask=None):
    n1, n2, n3 = tensor.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n1} {n2} {n3}\n")
        for i1 in range(n1):
            for i2 in range(n2):
                row = tensor[i1, i2]
                if mask is None:
                    tokens = [repr(float(v)) for v in row]
                else:
                    tokens = [
                        repr(float(v)) if ok else "nan"
                        for v, ok in zip(row, mask[i1, i2])
                    ]
                fh.write(" ".join(tokens) + "\n")


def _oracle_save_matrix_csv(path, tensor, mask=None):
    n1 = tensor.shape[0]
    flat = tensor.reshape(n1, -1)
    flat_mask = None if mask is None else mask.reshape(n1, -1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in range(n1):
            if flat_mask is None:
                cells = [repr(float(v)) for v in flat[r]]
            else:
                cells = [
                    repr(float(v)) if ok else "nan"
                    for v, ok in zip(flat[r], flat_mask[r])
                ]
            fh.write(",".join(cells) + "\n")


def _outcome(load, *args):
    """What a loader did: the arrays as shape and bytes, or the error's type and text."""
    try:
        tensor, mask = load(*args)
    except CompletionError as exc:
        return type(exc).__name__, str(exc)
    return tensor.shape, tensor.dtype, tensor.tobytes(), mask.dtype, mask.tobytes()


# Tokens that parse: finite values at the edges of the double range, the
# missing-entry marker in several letter cases, and tokens only Python's
# float reads (numpy's C parser does not).
_CLEAN_TOKENS = ["-0.0", "0", "5e-324", "1e308", "-1e308", "2.5", "1_0", "\u0662", "nan", "NaN", "NAN"]
# Tokens that do not: signed NaN, infinities, overflow, and non-numbers. The
# padded -nan, as the first cell of a CSV file, straddles the end of the
# loader's first signed-NaN scan block.
_BAD_TOKENS = [
    "+nan", "-nan", "inf", "-Infinity", "1e400", "x", "1e", "1__0", "0x10", "#", "1#2",
    " " * (data_io._SCAN_BYTES - 2) + "-nan",
]
_finite_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(_CLEAN_TOKENS),
)


@st.composite
def _token_lists(draw, count):
    """Mostly ``count`` tokens, sometimes a few too many or too few; some
    streams hold a few unparsable ones."""
    n = max(0, count + draw(st.sampled_from([0, 0, 0, 0, 0, -2, -1, 1, 2])))
    tokens = draw(st.lists(_finite_text, min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    return tokens


@st.composite
def dense_texts(draw):
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)))
    header = draw(
        st.sampled_from(["{} {} {}".format(*dims)] * 16 + ["", "2 2", "a 1 1", "0 1 1", "1 1 1 1"])
    )
    tokens = draw(_token_lists(dims[0] * dims[1] * dims[2]))
    gaps = st.sampled_from([" ", " ", "\t", "  ", "\n", "\n", "\n\n", " \n \n", "\r\n", "\r", " \r\n\r"])
    body = "".join(token + draw(gaps) for token in tokens)
    text = header + "\n" + body
    return draw(st.sampled_from([text] * 4 + [text.rstrip("\n"), "", header]))


@st.composite
def csv_texts(draw):
    days, intervals = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = days * intervals
    padded = st.sampled_from(["", " ", " 1.5", "nan ", " NaN ", "2.0\t"])
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from([",".join(f"c{j}" for j in range(width)), "loc,1", "nan,x"])))
    for _ in range(draw(st.integers(0, 3))):
        cells = draw(_token_lists(width))
        for _ in range(draw(st.integers(0, 2))):
            if cells:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(padded)
        lines.append(",".join(cells) + draw(st.sampled_from(["", "", ","])))
        lines.extend(draw(st.sampled_from([[], [], [""], [" \t"]])))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    return days, intervals, text + draw(st.sampled_from(["", "\n"]))


# numpy warns on an empty body; the loaders must not
@pytest.mark.filterwarnings("error::UserWarning")
@given(text=dense_texts())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_dense_matches_per_token_oracle(text, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_dense, path) == _outcome(_oracle_load_dense, path)


# numpy warns on an empty body; the loaders must not
@pytest.mark.filterwarnings("error::UserWarning")
@given(case=csv_texts())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_matrix_csv_matches_per_token_oracle(case, tmp_path):
    days, intervals, text = case
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_matrix_csv, path, days, intervals) == _outcome(
        _oracle_load_matrix_csv, path, days, intervals
    )


_written_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-(10**17), 10**17).map(float),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e16]),
)


@st.composite
def written_tensors(draw):
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)))
    tensor = draw(arrays(np.float64, dims, elements=_written_values))
    if not draw(st.booleans()):
        return tensor, None
    mask = draw(arrays(np.bool_, dims))
    # an entry the mask marks missing is written as nan whatever it holds
    hidden = draw(st.sampled_from([0.0, np.nan, np.inf]))
    return np.where(mask, tensor, hidden), mask


_WRITERS = ((save_dense, _oracle_save_dense), (save_matrix_csv, _oracle_save_matrix_csv))


@given(pair=written_tensors())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_writers_match_per_scalar_oracle(pair, tmp_path):
    tensor, mask = pair
    for save, oracle in _WRITERS:
        save(tmp_path / "new", tensor, mask)
        oracle(tmp_path / "old", tensor, mask)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("fmt", ["dense", "csv"])
@pytest.mark.parametrize("shape", [(0, 3, 4), (2, 0, 4), (2, 3, 0)])
def test_writers_refuse_a_zero_length_dimension(tmp_path, shape, fmt):
    # no loader reads such a file back, so none is written
    for mask in (None, np.ones(shape, bool)):
        with pytest.raises(DimensionError, match="third-order"):
            save_tensor(tmp_path / "t", np.zeros(shape), mask, fmt=fmt)
    assert list(tmp_path.iterdir()) == []


_fork = os.fork


def _route_every_job_to_workers(monkeypatch, cores, min_values=0):
    """Send loads and saves of ``min_values`` values or more to forked
    workers, as if ``cores`` cores were usable; returns a list that gains an
    entry for every process forked."""
    monkeypatch.setattr(_fanout, "MIN_VALUES", min_values)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    forks = []

    def fork():
        forks.append(None)
        return _fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _die_while_sending():
    """From now on in this process, a send writes a header that promises
    1 MB and ten bytes of it, then ends the process, as a worker killed while
    it sends does."""

    def half_sent(connection, buffer):
        os.write(connection.fileno(), struct.pack("!i", 1 << 20) + bytes(10))
        os._exit(1)

    multiprocessing.connection.Connection._send_bytes = half_sent


@given(pair=written_tensors(), cores=st.sampled_from([1, 2, 3]), per_worker=st.sampled_from([1, 4]))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parallel_writers_match_per_scalar_oracle(pair, cores, per_worker, tmp_path, monkeypatch):
    tensor, mask = pair
    forks = _route_every_job_to_workers(monkeypatch, cores)
    # one chunk per worker puts several slabs in a chunk
    monkeypatch.setattr(data_io, "_CHUNKS_PER_WORKER", per_worker)
    for save, oracle in _WRITERS:
        save(tmp_path / "new", tensor, mask)
        oracle(tmp_path / "old", tensor, mask)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()
    # no more workers than slabs per save; one worker forks nothing
    workers = min(cores, tensor.shape[0])
    assert len(forks) == (workers * len(_WRITERS) if workers > 1 else 0)


def _refuse_forks(monkeypatch):
    """Make every load and save large enough for workers on two cores, and
    forking one an error."""
    monkeypatch.setattr(_fanout, "MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def refuse():
        raise AssertionError("forked a worker where the job had to stay serial")

    monkeypatch.setattr(os, "fork", refuse)


def test_save_while_another_thread_lives_is_serial(tmp_path, monkeypatch):
    _refuse_forks(monkeypatch)
    rng = np.random.default_rng(4)
    tensor = rng.standard_normal((5, 3, 4))
    mask = rng.random(tensor.shape) < 0.7
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        for save, oracle in _WRITERS:
            save(tmp_path / "new", tensor, mask)
            oracle(tmp_path / "old", tensor, mask)
            assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# (loader, oracle, extra arguments) for both formats
_LOADERS = ((load_dense, _oracle_load_dense, ()), (load_matrix_csv, _oracle_load_matrix_csv, (2, 3)))


def _assert_loaders_match_oracle(tmp_path, text, case):
    dense, csv = tmp_path / "t.txt", tmp_path / "m.csv"
    dense.write_bytes(text.encode("utf-8"))
    days, intervals, csv_text = case
    csv.write_bytes(csv_text.encode("utf-8"))
    assert _outcome(load_dense, dense) == _outcome(_oracle_load_dense, dense)
    assert _outcome(load_matrix_csv, csv, days, intervals) == _outcome(
        _oracle_load_matrix_csv, csv, days, intervals
    )


@given(text=dense_texts(), case=csv_texts())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_line_parser_matches_per_token_oracle(text, case, tmp_path, monkeypatch):
    # the line parser alone, as when numpy's C parser has a doubt
    monkeypatch.setattr(data_io, "_read_table", lambda *args: None)
    _assert_loaders_match_oracle(tmp_path, text, case)


# numpy warns on an empty body; the loaders must not, in a worker either
@pytest.mark.filterwarnings("error::UserWarning")
@given(text=dense_texts(), case=csv_texts(), cores=st.sampled_from([1, 2, 3]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_forked_loaders_match_per_token_oracle(text, case, cores, tmp_path, monkeypatch):
    # every body is parsed in workers, cut wherever its newlines fall
    forks = _route_every_job_to_workers(monkeypatch, cores)
    _assert_loaders_match_oracle(tmp_path, text, case)
    # no more workers than cores for each of the two loads
    assert len(forks) <= cores * len(_LOADERS)


def _large_file(tmp_path, fmt, newline):
    """A file of 264,000 values, 4-5 MB, with ``newline`` line ends; returns
    it with its loader, oracle and extra arguments."""
    rng = np.random.default_rng(5)
    tensor = rng.standard_normal((40, 60, 110)) * 100
    mask = rng.random(tensor.shape) < 0.9
    path = tmp_path / "t"
    save_tensor(path, np.where(mask, tensor, 0.0), mask, fmt=fmt)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    assert 4 << 20 < path.stat().st_size < 5 << 20
    load, oracle, _ = _LOADERS[fmt == "csv"]
    return path, load, oracle, (60, 110) if fmt == "csv" else ()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("fmt", ["dense", "csv"])
def test_large_file_is_parsed_in_workers_into_the_same_arrays(tmp_path, monkeypatch, fmt, newline):
    path, load, oracle, extra = _large_file(tmp_path, fmt, newline)
    # the file's size, at the real threshold, sends it to the workers
    forks = _route_every_job_to_workers(monkeypatch, 2, _fanout.MIN_VALUES)
    parsed = []
    real = data_io._read_table
    monkeypatch.setattr(data_io, "_read_table", lambda *a: parsed.append(real(*a)) or parsed[-1])
    assert _outcome(load, path, *extra) == _outcome(oracle, path, *extra)
    # the arrays came from numpy's C parser, not from a hand-over to the line parser
    assert len(parsed) == 1 and parsed[0] is not None
    assert len(forks) == 2


@pytest.mark.parametrize("fmt", ["dense", "csv"])
def test_large_file_the_c_parser_refuses_is_read_by_the_line_parser(tmp_path, monkeypatch, fmt):
    # numpy's C parser refuses empty CSV cells and dense lines of different
    # lengths; the line parser must then give the oracle's arrays at scale
    path, load, oracle, extra = _large_file(tmp_path, fmt, "\n")
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        lines = [
            ",".join("" if cell == "nan" else cell for cell in line.split(","))
            for line in text.splitlines()
        ]
    else:
        # 7 values a line, the last line shorter
        head, body = text.split("\n", 1)
        tokens = body.split()
        lines = [head] + [" ".join(tokens[i : i + 7]) for i in range(0, len(tokens), 7)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    forks = _route_every_job_to_workers(monkeypatch, 2, _fanout.MIN_VALUES)
    parsed = []
    real = data_io._read_table
    monkeypatch.setattr(data_io, "_read_table", lambda *a: parsed.append(real(*a)) or parsed[-1])
    assert _outcome(load, path, *extra) == _outcome(oracle, path, *extra)
    # the C parser was tried in the workers and refused the body: the CSV's
    # first line, the dense file's short last line
    assert parsed == [None]
    assert len(forks) == 2


@pytest.mark.parametrize("before", [4, 3, 2, 1, 0])
def test_signed_nan_at_a_block_edge_of_a_workers_run_is_rejected(tmp_path, monkeypatch, before):
    # the body is cut just after the first run's last newline, so the second
    # run starts at the padded line, and ``before`` bytes of its -nAn cell
    # fall in that run's first block
    second = " " * (data_io._SCAN_BYTES - before) + "-nAn,1\n"
    first = "1,2\n" * (len(second) // 4 + 1)
    path = tmp_path / "m.csv"
    path.write_text(first + second, encoding="utf-8")
    forks = _route_every_job_to_workers(monkeypatch, 2)
    outcome = _outcome(load_matrix_csv, path, 1, 2)
    assert outcome == _outcome(_oracle_load_matrix_csv, path, 1, 2)
    line_no = first.count("\n") + 1
    assert outcome[0] == "ParseError" and f":{line_no}:1: non-finite value '-nAn'" in outcome[1]
    assert len(forks) == 2


def test_signed_nan_text_in_a_csv_header_leaves_the_body_to_the_c_parser(tmp_path, monkeypatch):
    # only the body's bytes are searched for +nan and -nan
    path = tmp_path / "m.csv"
    path.write_text("speed-nan,count+NaN\n1.5,nan\n2.5,3.5\n", encoding="utf-8")
    parsed = []
    real = data_io._read_table
    monkeypatch.setattr(data_io, "_read_table", lambda *a: parsed.append(real(*a)) or parsed[-1])
    outcome = _outcome(load_matrix_csv, path, 1, 2)
    assert outcome == _outcome(_oracle_load_matrix_csv, path, 1, 2)
    assert outcome[0] == (2, 1, 2)
    assert len(parsed) == 1 and parsed[0] is not None


@pytest.mark.parametrize("fmt", ["dense", "csv"])
def test_large_file_with_lone_cr_line_ends_starts_no_pool(tmp_path, monkeypatch, fmt):
    # no \n byte to cut the body at, so it is read in this process
    path, load, oracle, extra = _large_file(tmp_path, fmt, "\r")
    _refuse_forks(monkeypatch)
    assert _outcome(load, path, *extra) == _outcome(oracle, path, *extra)


def test_dense_header_beyond_its_body_starts_no_pool(tmp_path, monkeypatch):
    # 8,000 bytes cannot hold a million values; only the line parser can say so
    _refuse_forks(monkeypatch)
    path = tmp_path / "t.txt"
    path.write_text("100 100 100\n" + "1.5 2.5\n" * 1000, encoding="utf-8")
    outcome = _outcome(load_dense, path)
    assert outcome == _outcome(_oracle_load_dense, path)
    assert outcome[0] == "ParseError" and "expected 1000000 values, found 2000" in outcome[1]


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_workers_end_lines_where_the_text_reader_does(tmp_path, monkeypatch, sep):
    # str.splitlines would end a line at each of these and read two good rows
    # where the text reader sees one row of three cells
    forks = _route_every_job_to_workers(monkeypatch, 2)
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n1,2{sep}3,4\n5,6\n", encoding="utf-8")
    assert _outcome(load_matrix_csv, path, 1, 2) == _outcome(_oracle_load_matrix_csv, path, 1, 2)
    assert len(forks) == 2


def test_load_while_another_thread_lives_is_serial(tmp_path, monkeypatch):
    _refuse_forks(monkeypatch)
    rng = np.random.default_rng(6)
    tensor = rng.standard_normal((5, 2, 3))
    mask = rng.random(tensor.shape) < 0.7
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        for fmt, (load, oracle, extra) in zip(["dense", "csv"], _LOADERS):
            path = tmp_path / fmt
            save_tensor(path, tensor, mask, fmt=fmt)
            assert _outcome(load, path, *extra) == _outcome(oracle, path, *extra)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_fifo_load_is_serial(tmp_path, monkeypatch):
    # a FIFO cannot be read twice, so it goes straight to the line parser
    path = tmp_path / "t.txt"
    save_dense(path, np.arange(24.0).reshape(2, 3, 4))
    _refuse_forks(monkeypatch)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    feed = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", feed, str(path), str(fifo)])
    try:
        assert _outcome(load_dense, fifo) == _outcome(_oracle_load_dense, path)
    finally:
        assert writer.wait(timeout=10) == 0


def _c_parser_then(fault, calls):
    """A stand-in for numpy's C parser that reads every line it is given, then
    raises ("raise") or returns a table of no rows ("exit")."""

    def loadtxt(lines, **kwargs):
        calls.append(len(list(lines)))
        if fault == "exit":
            return np.empty((0, 1))
        raise ValueError("parsing failed")

    return loadtxt


def _c_parser_in_worker_then(fault, calls):
    """A stand-in for numpy's C parser that, in a forked worker, raises
    ("worker-raise"), ends the worker ("worker-exit") or parses the lines and
    ends the worker while it sends the table ("worker-half-sent"); in the
    parent it records how many lines it read, then parses them."""
    parent, real = os.getpid(), np.loadtxt

    def loadtxt(lines, **kwargs):
        if os.getpid() == parent:
            lines = list(lines)
            calls.append(len(lines))
            return real(lines, **kwargs)
        if fault == "worker-exit":
            os._exit(1)
        if fault == "worker-half-sent":
            _die_while_sending()
            return real(lines, **kwargs)
        raise ValueError("parsing failed")

    return loadtxt


@pytest.mark.parametrize("fault", ["raise", "exit", "worker-raise", "worker-exit", "worker-half-sent"])
@pytest.mark.parametrize(
    "fmt, text, error",
    [
        ("dense", "2 1 3\n1 2 3\n4 nan 6\n", None),
        ("dense", "2 1 3\n1 2 3\n4 x 6\n", ":3:2: cannot parse 'x'"),
        ("csv", "1,2,3,4,5,6\n1,,3,4,5,6\n", None),
        ("csv", "1,2,3,4,5,6\n4,5\n", ":2: expected 6 columns"),
    ],
    ids=["dense", "dense-bad-token", "csv", "csv-bad-width"],
)
def test_failed_worker_hands_the_load_to_the_serial_read(tmp_path, monkeypatch, fault, fmt, text, error):
    load, oracle, extra = _LOADERS[fmt == "csv"]
    path = tmp_path / "in.txt"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(oracle, path, *extra)
    assert expected[0] == "ParseError" and error in expected[1] if error else len(expected) == 5
    calls = []
    if fault.startswith("worker"):
        # three cores cut each body into two runs, so two workers start
        forks = _route_every_job_to_workers(monkeypatch, 3)
        monkeypatch.setattr(np, "loadtxt", _c_parser_in_worker_then(fault, calls))
        assert _outcome(load, path, *extra) == expected
        assert len(forks) == 2
        # after a worker raises or dies, only the line parser reads the body
        assert calls == []
        return
    # the C parser has read the whole body before the line parser takes over
    monkeypatch.setattr(np, "loadtxt", _c_parser_then(fault, calls))
    assert _outcome(load, path, *extra) == expected
    assert calls == [2]


def _first_run_refused_while_the_second_sleeps(tmp_path, monkeypatch):
    """A dense file with a bad token on body line 2, read in two forked runs
    by stand-in C parsers: the worker on the first run refuses it at once,
    the other sleeps for a minute. Returns the file, the oracle's outcome and
    a list that gains an entry for every process forked."""
    path = tmp_path / "t.txt"
    save_dense(path, np.arange(24.0).reshape(2, 3, 4))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "x" + lines[2][lines[2].index(" ") :]
    path.write_text("".join(lines), encoding="utf-8")
    expected = _outcome(_oracle_load_dense, path)
    assert expected[0] == "ParseError" and ":3:1: cannot parse 'x'" in expected[1]
    parent, real, body = os.getpid(), data_io._run_table, len(lines[0])

    def run_table(fd, delimiter, start, stop):
        if os.getpid() == parent:
            return real(fd, delimiter, start, stop)
        if start == body:
            raise ValueError("parsing failed")
        time.sleep(60)
        return real(fd, delimiter, start, stop)

    forks = _route_every_job_to_workers(monkeypatch, 2)
    monkeypatch.setattr(data_io, "_run_table", run_table)
    return path, expected, forks


def test_early_refusal_ends_the_other_workers(tmp_path, monkeypatch):
    path, expected, forks = _first_run_refused_while_the_second_sleeps(tmp_path, monkeypatch)
    begun = time.monotonic()
    assert _outcome(load_dense, path) == expected
    assert time.monotonic() - begun < 10
    assert len(forks) == 2


def test_early_refusal_ends_only_the_pools_workers(tmp_path, monkeypatch):
    path, expected, _ = _first_run_refused_while_the_second_sleeps(tmp_path, monkeypatch)
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
    child.start()
    try:
        assert _outcome(load_dense, path) == expected
        assert child.is_alive()
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()


def _format_in_worker_then(fault):
    parent = os.getpid()

    def format_slabs(*args):
        assert os.getpid() != parent, "the parent formatted a slab on the parallel route"
        if fault == "exit":
            os._exit(1)
        if fault == "half-sent":
            _die_while_sending()
            return "1\n"
        raise ValueError("formatting failed")

    return format_slabs


class TestFailedSave:
    @pytest.mark.parametrize("fmt", ["dense", "csv"])
    @pytest.mark.parametrize("fault", ["raise", "exit", "half-sent"])
    def test_failed_worker_keeps_previous_file(self, tmp_path, monkeypatch, capsys, fault, fmt):
        path = tmp_path / "t"
        save_tensor(path, np.ones((2, 2, 2)), fmt=fmt)
        before = path.read_bytes()
        _route_every_job_to_workers(monkeypatch, 2)
        monkeypatch.setattr(data_io, "_format_slabs", _format_in_worker_then(fault))
        error = (ValueError, "formatting failed") if fault == "raise" else (OSError, str(path))
        with pytest.raises(error[0], match=error[1]):
            save_tensor(path, np.zeros((3, 2, 2)), fmt=fmt)
        if fault != "raise":
            # the CLI reports a dead worker as a runtime error naming the file
            argv = ["synth", "--dims", "3", "2", "2", "--rank", "1", "--output", str(path)]
            assert main(argv + ["--format", fmt]) == 4
            assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t"]

    def test_serial_save_failing_midway_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t"
        save_dense(path, np.ones((2, 2, 2)))
        before = path.read_bytes()
        real = data_io._format_slabs

        def second_slab_fails(slabs, masks, sep, start, stop):
            if start == 1:
                raise RuntimeError("disk full")
            return real(slabs, masks, sep, start, stop)

        monkeypatch.setattr(data_io, "_format_slabs", second_slab_fails)
        with pytest.raises(RuntimeError, match="disk full"):
            save_dense(path, np.zeros((2, 2, 2)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t"]

    def test_missing_directory_error_names_the_target(self, tmp_path):
        path = tmp_path / "absent" / "t"
        with pytest.raises(FileNotFoundError) as info:
            save_dense(path, np.ones((1, 1, 1)))
        assert info.value.filename == str(path)

    def test_replaced_file_keeps_its_permissions(self, tmp_path):
        path = tmp_path / "t"
        save_dense(path, np.ones((1, 1, 2)))
        path.chmod(0o600)
        save_dense(path, np.zeros((1, 1, 2)))
        assert path.read_text(encoding="utf-8") == "1 1 2\n0.0 0.0\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert [p.name for p in tmp_path.iterdir()] == ["t"]

    def test_symlink_target_is_written_through(self, tmp_path):
        real = tmp_path / "real"
        real.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link"
        link.symlink_to(real)
        save_dense(link, np.ones((1, 1, 1)))
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "1 1 1\n1.0\n"

    def test_fifo_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        save_dense(fifo, np.ones((1, 1, 2)))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"1 1 2\n1.0 1.0\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


def _main_with_config(monkeypatch, tmp_path, argv, text):
    """``main(argv + ["--config", <file holding text>])`` run in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return main(argv + ["--config", str(path)])


# a benchmark on a small synthetic tensor; every flag a config line may set is left out
_BENCH_ARGV = ["benchmark", "--synth", "6", "5", "8", "2", "--report", "r.csv"]
_BENCH_FLAGS = {"pattern": "rm", "rate": "0.3", "seed": "1", "theta": "0.1", "max_iter": "5"}


class TestRunConfigFile:
    def test_happy_path(self, tmp_path, monkeypatch):
        # each value reaches the run typed by the flag its key names
        seen = {}
        for name in ("cmd_impute", "cmd_benchmark", "cmd_cv"):
            monkeypatch.setattr(f"lrtc.cli.{name}", lambda args: seen.update(vars(args)) or 0)
        text = (
            "# solver\n"
            "theta = 0.25\n"
            "rho0 = 1e-5\n"
            "max_iter = 150\n"
            "\n"
            "pattern = nm\n"
            "rate = 0.4\n"
            "seed = 7\n"
            "dims = 61 144\n"
            "grid = 0.05 0.10 0.30\n"
        )
        assert _main_with_config(monkeypatch, tmp_path, ["cv", "--input", "d.txt"], text) == 0
        assert seen["max_iter"] == 150 and seen["rho0"] == 1e-5
        assert seen["pattern"] == "nm" and seen["rate"] == 0.4 and seen["seed"] == 7
        assert seen["dims"] == [61, 144]
        assert seen["grid"] == [0.05, 0.10, 0.30]
        assert "theta" not in seen  # cv has no --theta
        argv = ["impute", "--input", "d.txt", "--output", "o.txt"]
        assert _main_with_config(monkeypatch, tmp_path, argv, text) == 0
        assert seen["theta"] == 0.25
        assert _main_with_config(monkeypatch, tmp_path, _BENCH_ARGV, text) == 0
        assert seen["theta"] == [0.25]
        assert seen["pattern"] == ["nm"] and seen["rate"] == [0.4] and seen["seed"] == [7]

    def test_unknown_key(self, tmp_path, monkeypatch, capsys):
        argv = ["impute", "--input", "d.txt", "--output", "o.txt"]
        assert _main_with_config(monkeypatch, tmp_path, argv, "theta = 0.1\nshrinkage = hard\n") == 2
        assert ":2: unknown key 'shrinkage'" in capsys.readouterr().err

    def test_bad_value_names_line(self, tmp_path, monkeypatch, capsys):
        argv = ["impute", "--input", "d.txt", "--output", "o.txt"]
        assert _main_with_config(monkeypatch, tmp_path, argv, "rho0 = 1e-5\ntheta = abc\n") == 2
        err = capsys.readouterr().err
        assert "run.cfg:2: argument --theta: invalid float value: 'abc'" in err

    def test_values_come_back_as_text_with_their_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\ntheta = 0.25  # trailing\ndims = 61 144\ninput = my data.txt\n\ntheta = x\n",
            encoding="utf-8",
        )
        assert load_run_config(path) == {
            "theta": (6, "x"),
            "dims": (3, "61 144"),
            "input": (4, "my data.txt"),
        }

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta 0.1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_run_config(path)

    def test_constraints_checked_at_parse(self, tmp_path, monkeypatch):
        # each value fails as its flag does: argparse's exit 2 for a choice,
        # the range check's exit 3 for the rest
        for line, code in (
            ("rate = 1.0", 3),
            ("max_iter = 0", 3),
            ("pattern = block", 2),
            ("rho_mult = 0.5", 3),
            ("rho_mult = nan", 3),
            ("theta = nan", 3),
            ("rate = nan", 3),
            ("seed = -1", 3),
        ):
            key, value = (part.strip() for part in line.split("="))
            flag = "--" + key.replace("_", "-")
            argv = _BENCH_ARGV + [
                tok for k, v in _BENCH_FLAGS.items() if k != key for tok in ("--" + k.replace("_", "-"), v)
            ]
            assert _main_with_config(monkeypatch, tmp_path, argv, line + "\n") == code, line
            assert main(argv + [flag, value]) == code, line
        assert not (tmp_path / "r.csv").exists()


# a body long enough that the text reader's first read-ahead ends before the bad byte
_LONG = 20000


@pytest.mark.parametrize(
    "text, load",
    [
        (b"1 1 2\n1.0 \xff\n", load_dense),
        (b"1 1 30000\n" + b"1.5\n" * _LONG + b"\xff\n", load_dense),
        (b"1.0,\xff\n", lambda path: load_matrix_csv(path, 1, 2)),
        (b"1.5,1.5\n" * _LONG + b"\xff,1\n", lambda path: load_matrix_csv(path, 1, 2)),
        (b"theta = 0.1\n# \xff\n", load_run_config),
    ],
    ids=["dense", "dense-late", "csv", "csv-late", "run-config"],
)
def test_non_utf8_file_is_parse_error_naming_it(tmp_path, monkeypatch, text, load):
    path = tmp_path / "in.txt"
    path.write_bytes(text)
    # in this process, then with the late bad byte in a worker's run
    for cores in (1, 2):
        _route_every_job_to_workers(monkeypatch, cores)
        with pytest.raises(ParseError, match=r"in\.txt: not UTF-8 text"):
            load(path)
