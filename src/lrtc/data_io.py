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

In both formats a value uses Python ``float`` syntax. ``nan`` in any letter
case, or an empty CSV cell, marks a missing entry; ``+nan``, ``-nan``,
infinities and values that overflow to infinity are rejected with a
``path:line:column`` error. The writers refuse non-finite values in every
entry they write as a number, and write each value as the ``repr`` of a
Python float, the shortest text that reads back to the same double. Files are
parsed and written a line at a time.

Run-configuration files are ``key = value`` lines (``#`` comments allowed)
whose keys mirror the CLI flags; every value is range-checked while parsing so
errors carry the offending line number.
"""

import math

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError
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


def _parse_row(tokens, path, line_no):
    """One line's tokens as ``(values, missing)``, with missing values set to 0.

    The whole row goes through ``float`` at once. A NaN counts as missing only
    when its token is ``nan`` itself (``float`` also reads ``+nan`` and
    ``-nan``), and every other value must be finite. A row that fails either
    check is read again a token at a time by :func:`_parse_value`, which
    raises on the first bad token with its line and column.
    """
    try:
        values = np.array(list(map(float, tokens)), dtype=float)
    except ValueError:
        pass
    else:
        missing = np.isnan(values)
        if all(len(tokens[j]) == 3 for j in np.flatnonzero(missing).tolist()):
            values[missing] = 0.0
            if np.isfinite(values).all():
                return values, missing
    values = np.zeros(len(tokens))
    missing = np.zeros(len(tokens), dtype=bool)
    for j, token in enumerate(tokens):
        value = _parse_value(token, path, line_no, j + 1)
        if value is None:
            missing[j] = True
        else:
            values[j] = value
    return values, missing


def load_dense(path):
    """Read a dense-format file into (tensor, mask)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ParseError(f"{path}:1: empty file; expected an 'n1 n2 n3' header")
        header = first.split()
        if len(header) != 3:
            raise ParseError(
                f"{path}:1: header must hold exactly three dimensions, got {first.strip()!r}"
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
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            tokens = line.split()
            room = count - pos
            if len(tokens) > room:
                # tokens ahead of the overflow column are still checked first
                _parse_row(tokens[:room], path, line_no)
                raise ParseError(
                    f"{path}:{line_no}:{room + 1}: more than {count} values in file"
                )
            row, missing = _parse_row(tokens, path, line_no)
            end = pos + len(tokens)
            values[pos:end] = row
            observed[pos:end] = ~missing
            pos = end
    if pos != count:
        raise ParseError(f"{path}:{line_no}: expected {count} values, found {pos}")
    return values.reshape(dims), observed.reshape(dims)


def _check_output(tensor, mask):
    """Both writers' input check: a third-order tensor, a mask of its shape if
    any, and a finite value in every entry that is written as a number."""
    if mask is None:
        tensor = _check_tensor3(tensor)
    else:
        tensor, mask = _check_pair(tensor, mask)
    finite = np.isfinite(tensor)
    if not finite.all():
        written = ~finite if mask is None else ~finite & mask
        if written.any():
            index = tuple(int(i) for i in np.argwhere(written)[0])
            raise InvalidInputError(
                f"cannot write non-finite value {float(tensor[index])} at index {index}; "
                "the file formats hold finite values, and nan only where a mask marks "
                "an entry missing"
            )
    return tensor, mask


def _write_slabs(fh, slabs, masks, sep):
    """Write each matrix ``slabs[i]`` as lines of ``sep``-joined values.

    A value is written as the ``repr`` of a Python float, the shortest text
    that reads back to the same double, and as ``nan`` where ``masks[i]`` is
    False. One slab at a time goes through ``tolist``, so the Python floats
    alive at once stay few.
    """
    for i, slab in enumerate(slabs):
        if masks is not None:
            slab = np.where(masks[i], slab, np.nan)
        fh.write("\n".join(sep.join(map(repr, row)) for row in slab.tolist()) + "\n")


def save_dense(path, tensor, mask=None):
    """Write dense format; missing entries become ``nan`` only when a mask is given."""
    tensor, mask = _check_output(tensor, mask)
    n1, n2, n3 = tensor.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n1} {n2} {n3}\n")
        _write_slabs(fh, tensor, mask, " ")


def _looks_like_header(cells):
    """True when a cell is non-empty and no non-empty cell parses as a number."""
    tokens = [cell.strip() for cell in cells if cell.strip()]
    for token in tokens:
        try:
            float(token)
        except ValueError:
            continue
        return False
    return bool(tokens)


def load_matrix_csv(path, days, intervals):
    """Read a locations x (days*intervals) CSV into a (tensor, mask) pair."""
    days, intervals = int(days), int(intervals)
    if days < 1 or intervals < 1:
        raise ConfigError(f"days and intervals must be positive, got {days}, {intervals}")
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(no, line) for no, line in enumerate(fh, start=1) if line.strip()]
    if not rows:
        raise ParseError(f"{path}:1: empty file")
    if _looks_like_header(rows[0][1].split(",")):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}:2: no data rows after header")
    width = days * intervals
    matrix = np.zeros((len(rows), width))
    observed = np.ones((len(rows), width), dtype=bool)
    for r, (line_no, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(
                f"{path}:{line_no}: expected {width} columns (days*intervals), got {len(cells)}"
            )
        # an empty cell marks a missing entry, exactly as nan does
        tokens = [cell.strip() or "nan" for cell in cells]
        matrix[r], missing = _parse_row(tokens, path, line_no)
        observed[r] = ~missing
    shape = (len(rows), days, intervals)
    return matrix.reshape(shape), observed.reshape(shape)


def save_matrix_csv(path, tensor, mask=None):
    """Write the stacked locations x (days*intervals) CSV (no header row)."""
    tensor, mask = _check_output(tensor, mask)
    n1 = tensor.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_slabs(
            fh,
            tensor.reshape(n1, 1, -1),
            None if mask is None else mask.reshape(n1, 1, -1),
            ",",
        )


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
