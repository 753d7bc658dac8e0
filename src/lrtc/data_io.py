"""Plain-text tensor file formats and run-configuration files.

Two tensor formats are supported:

dense
    First line: ``n1 n2 n3``. Then exactly ``n1*n2*n3`` whitespace-separated
    decimal values in row-major order over (i1, i2, i3); the token ``nan``
    (any case) marks a natively missing entry. Loading yields the tensor with
    missing entries zeroed plus the matching observation mask.

csv
    A locations x (days*intervals) matrix, one CSV row per location, columns
    stacked day by day; empty cells or ``nan`` mark missing entries. The
    (days, intervals) pair is not stored in the file and must be supplied by
    the caller. An optional non-numeric header row is skipped.

Run-configuration files are ``key = value`` lines (``#`` comments allowed)
whose keys mirror the CLI flags; every value is range-checked while parsing so
errors carry the offending line number.
"""

import math

import numpy as np

from .errors import ConfigError, ParseError
from .masks import PATTERNS
from .tensor_ops import _check_pair, _check_tensor3

FORMATS = ("dense", "csv")


def _parse_value(token, path, line_no, col_no):
    """One numeric cell: a float, or None for a missing-entry marker."""
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


def load_dense(path):
    """Read a dense-format file into (tensor, mask)."""
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
            value = _parse_value(token, path, line_no, col_no)
            if value is None:
                observed[pos] = False
            else:
                values[pos] = value
            pos += 1
    if pos != count:
        raise ParseError(
            f"{path}:{len(lines)}: expected {count} values, found {pos}"
        )
    return values.reshape(dims), observed.reshape(dims)


def _check_output(tensor, mask):
    """Both writers' input check: a third-order tensor, and a mask of its shape if any."""
    if mask is None:
        return _check_tensor3(tensor), None
    return _check_pair(tensor, mask)


def save_dense(path, tensor, mask=None):
    """Write dense format; missing entries become ``nan`` only when a mask is given."""
    tensor, mask = _check_output(tensor, mask)
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


def _looks_like_header(cells):
    for cell in cells:
        token = cell.strip()
        if token == "" or token.lower() == "nan":
            continue
        try:
            float(token)
        except ValueError:
            return True
    return False


def load_matrix_csv(path, days, intervals):
    """Read a locations x (days*intervals) CSV into a (tensor, mask) pair."""
    days, intervals = int(days), int(intervals)
    if days < 1 or intervals < 1:
        raise ConfigError(f"days and intervals must be positive, got {days}, {intervals}")
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.rstrip("\n").rstrip("\r") for line in fh]
    rows = [(no, line.split(",")) for no, line in enumerate(raw, start=1) if line.strip()]
    if not rows:
        raise ParseError(f"{path}:1: empty file")
    if _looks_like_header(rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}:2: no data rows after header")
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
            value = _parse_value(token, path, line_no, c + 1)
            if value is None:
                observed[r, c] = False
            else:
                matrix[r, c] = value
    shape = (len(rows), days, intervals)
    return matrix.reshape(shape), observed.reshape(shape)


def save_matrix_csv(path, tensor, mask=None):
    """Write the stacked locations x (days*intervals) CSV (no header row)."""
    tensor, mask = _check_output(tensor, mask)
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


def load_tensor(path, fmt="dense", csv_dims=None):
    """Load (tensor, mask) from either format; csv needs (days, intervals)."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "dense":
        return load_dense(path)
    if csv_dims is None:
        raise ConfigError("csv format needs the (days, intervals) pair")
    return load_matrix_csv(path, *csv_dims)


def save_tensor(path, tensor, mask=None, fmt="dense"):
    """Save in either format; missing entries written as nan only if mask given."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "dense":
        save_dense(path, tensor, mask)
    else:
        save_matrix_csv(path, tensor, mask)


def _cfg_float(token, low=None, high=None, low_open=False, high_open=False):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError
    if low is not None and (value <= low if low_open else value < low):
        raise ValueError
    if high is not None and (value >= high if high_open else value > high):
        raise ValueError
    return value


def _cfg_int(token, low=None):
    value = int(token)
    if low is not None and value < low:
        raise ValueError
    return value


# key -> (parser, human description of the legal values)
_RUN_CONFIG_SCHEMA = {
    "theta": (lambda t: _cfg_float(t, 0.0, 1.0, high_open=True), "a float in [0, 1)"),
    "rho0": (lambda t: _cfg_float(t, 0.0, low_open=True), "a positive float"),
    "rho_max": (lambda t: _cfg_float(t, 0.0, low_open=True), "a positive float"),
    "rho_mult": (lambda t: _cfg_float(t, 1.0), "a float >= 1"),
    "epsilon": (lambda t: _cfg_float(t, 0.0, low_open=True), "a positive float"),
    "max_iter": (lambda t: _cfg_int(t, 1), "a positive integer"),
    "pattern": (lambda t: _cfg_choice(t, PATTERNS), " or ".join(PATTERNS)),
    "rate": (
        lambda t: _cfg_float(t, 0.0, 1.0, low_open=True, high_open=True),
        "a float strictly between 0 and 1",
    ),
    "seed": (int, "an integer"),
    "input": (str, "a path"),
    "format": (lambda t: _cfg_choice(t, FORMATS), " or ".join(FORMATS)),
    "dims": (
        lambda t: tuple(_cfg_int(x, 1) for x in _cfg_pair(t)),
        "two positive integers (days intervals)",
    ),
    "output": (str, "a path"),
    "trace_output": (str, "a path"),
    "report": (str, "a path"),
    "grid": (
        lambda t: tuple(_cfg_float(x, 0.0, 1.0, high_open=True) for x in t.split()),
        "space-separated floats in [0, 1)",
    ),
    "holdout_fraction": (
        lambda t: _cfg_float(t, 0.0, 1.0, low_open=True, high_open=True),
        "a float strictly between 0 and 1",
    ),
}


def _cfg_choice(token, choices):
    if token not in choices:
        raise ValueError
    return token


def _cfg_pair(token):
    parts = token.split()
    if len(parts) != 2:
        raise ValueError
    return parts


def load_run_config(path):
    """Parse a key=value run configuration into a dict of validated values."""
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _RUN_CONFIG_SCHEMA:
                raise ParseError(f"{path}:{line_no}: unknown key {key!r}")
            parser, description = _RUN_CONFIG_SCHEMA[key]
            try:
                config[key] = parser(value)
            except (ValueError, TypeError):
                raise ParseError(
                    f"{path}:{line_no}: {key} must be {description}, got {value!r}"
                ) from None
    return config
