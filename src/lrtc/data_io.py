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
parsed a line at a time. A tensor of at least ``2**17`` values is formatted on
every core the process may use, in forked worker processes; the bytes written
do not depend on the core count. Smaller tensors, and every save made off
Linux, on one core or while another Python thread is alive, are formatted in
the calling process. A save writes a temporary file beside its target and
renames it over the target only once every line is written, so a failed save
leaves the previous file as it was; a target that exists and is not a regular
file (a FIFO, a symlink such as ``/dev/stdout``) is written in place.

Files are read as UTF-8; a byte that is not UTF-8 is a parse error naming the
file but no line. A loader's flat arrays start empty and at least double, in
place, as they fill: up to the header's count for dense, trimmed to the rows
read for CSV. So a header or (days, intervals) pair that promises more values
than the file holds allocates no more than the file fills, and is a parse error.

Run-configuration files are ``key = value`` lines (``#`` comments allowed);
``load_run_config`` returns each value's text and line, which the CLI reads
exactly as it reads the flag the key names.
"""

import contextlib
import math
import os
import stat
import sys
import threading
from concurrent.futures import BrokenExecutor

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError
from .tensor_ops import _check_pair, _check_tensor3

FORMATS = ("dense", "csv")


# Capacity, in values, of a loader's arrays once its first row arrives.
_START_VALUES = 1 << 16


@contextlib.contextmanager
def _utf8_text(path):
    """``path`` open as UTF-8 text; a byte that is not UTF-8 is a ``ParseError``
    naming the file but no line, as decoding runs a chunk ahead of the lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_row(tokens, path, line_no):
    """One line's tokens as ``(values, missing)``, with missing values set to 0.

    The whole row goes through ``float`` at once. A NaN counts as missing only
    when its token is ``nan`` itself (``float`` also reads ``+nan`` and
    ``-nan``), and every other value must be finite. A row that fails either
    check holds a bad token; the first one is raised with its line and column.
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
    for col_no, token in enumerate(tokens, start=1):
        try:
            bad = token.lower() != "nan" and not math.isfinite(float(token))
        except ValueError:
            raise ParseError(
                f"{path}:{line_no}:{col_no}: cannot parse {token!r} as a number"
            ) from None
        if bad:
            raise ParseError(f"{path}:{line_no}:{col_no}: non-finite value {token!r} is not allowed")


def _store(values, observed, pos, tokens, path, line_no, cap):
    """Parse one line's ``tokens`` into ``values`` and ``observed`` from ``pos``
    on, and return the position after them; passing ``cap`` values is an error.

    Both arrays grow in place when full, at least doubling from
    ``_START_VALUES``. ``refcheck=False`` is safe because a loader takes no
    view of them before its last line is stored.
    """
    end = pos + len(tokens)
    if end > cap:
        # tokens ahead of the overflow column are still checked first
        _parse_row(tokens[: cap - pos], path, line_no)
        raise ParseError(f"{path}:{line_no}:{cap - pos + 1}: more than {cap} values in file")
    if end > len(values):
        size = min(max(end, 2 * len(values), _START_VALUES), cap)
        values.resize(size, refcheck=False)
        observed.resize(size, refcheck=False)
    values[pos:end], missing = _parse_row(tokens, path, line_no)
    observed[pos:end] = ~missing
    return end


def load_dense(path):
    """Read a dense-format file into (tensor, mask)."""
    with _utf8_text(path) as fh:
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
        count = math.prod(dims)
        values, observed = np.empty(0), np.empty(0, dtype=bool)
        pos, line_no = 0, 1
        for line_no, line in enumerate(fh, start=2):
            pos = _store(values, observed, pos, line.split(), path, line_no, count)
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


# Below this many values a tensor is formatted in the calling process: pool
# start-up and teardown (about 10 ms) cost as much as formatting 10k values.
_PARALLEL_MIN_VALUES = 2**17
# More chunks than workers, so the parent writes early chunks while the
# workers format later ones.
_CHUNKS_PER_WORKER = 4
# (slabs, masks, sep) inside a formatting worker, inherited through fork.
_worker_slabs = None


def _format_slabs(slabs, masks, sep, start, stop):
    """The lines of ``slabs[start:stop]``: each matrix row as ``sep``-joined values.

    A value is written as the ``repr`` of a Python float, the shortest text
    that reads back to the same double, and as ``nan`` where ``masks[i]`` is
    False.
    """
    parts = []
    for i in range(start, stop):
        slab = slabs[i] if masks is None else np.where(masks[i], slabs[i], np.nan)
        parts.append("\n".join(sep.join(map(repr, row)) for row in slab.tolist()) + "\n")
    return "".join(parts)


def _init_worker(slabs, masks, sep):
    global _worker_slabs
    _worker_slabs = (slabs, masks, sep)


def _format_chunk(start, stop):
    return _format_slabs(*_worker_slabs, start, stop)


def _write_slabs(fh, slabs, masks, sep):
    """Write each matrix ``slabs[i]`` as lines of ``sep``-joined values.

    A tensor of at least ``_PARALLEL_MIN_VALUES`` values is cut into a few
    contiguous runs of slabs, which worker processes format on every core the
    process may use while the parent writes the returned text in order. The
    workers are forked, so they inherit the arrays and nothing is pickled but
    the text. Smaller tensors, and saves made off Linux, on one core or while
    another Python thread is alive (forking one is unsafe), are formatted in
    the calling process one slab at a time, so the Python floats alive at once
    stay few. The bytes written are the same on either route and for any core
    count.
    """
    workers = 1
    if (
        slabs.size >= _PARALLEL_MIN_VALUES
        and sys.platform.startswith("linux")
        and threading.active_count() == 1
    ):
        workers = min(len(os.sched_getaffinity(0)), len(slabs))
    if workers < 2:
        for i in range(len(slabs)):
            fh.write(_format_slabs(slabs, masks, sep, i, i + 1))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunks = min(len(slabs), _CHUNKS_PER_WORKER * workers)
    bounds = [len(slabs) * k // chunks for k in range(chunks + 1)]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(slabs, masks, sep),
    ) as pool:
        for text in pool.map(_format_chunk, bounds[:-1], bounds[1:]):
            fh.write(text)


@contextlib.contextmanager
def replacing(path):
    """A text file for writing that takes the place of ``path`` only on success.

    Every file lrtc writes goes through it: tensors, reports and traces.

    The file is a temporary sibling of ``path`` with the existing file's
    permission bits, renamed over ``path`` when the block completes and
    removed when it raises. A ``path`` that exists and is not a regular file
    (a FIFO, a symlink such as ``/dev/stdout``) is opened and written in place.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        # name the file the caller asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _save(path, head, slabs, masks, sep):
    """Write ``head``, then the lines of ``slabs``, to ``path`` (see ``replacing``)."""
    try:
        with replacing(path) as fh:
            fh.write(head)
            _write_slabs(fh, slabs, masks, sep)
    except BrokenExecutor as exc:
        raise OSError(f"cannot write {os.fspath(path)}: {exc}") from exc


def save_dense(path, tensor, mask=None):
    """Write dense format; missing entries become ``nan`` only when a mask is given."""
    tensor, mask = _check_output(tensor, mask)
    n1, n2, n3 = tensor.shape
    _save(path, f"{n1} {n2} {n3}\n", tensor, mask, " ")


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
    width = days * intervals
    values, observed = np.empty(0), np.empty(0, dtype=bool)
    pos = 0
    header = 0  # line number of the header row, if any
    with _utf8_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.split(",")
            # only the first non-blank line may be a header
            if not (pos or header) and _looks_like_header(cells):
                header = line_no
                continue
            if len(cells) != width:
                raise ParseError(
                    f"{path}:{line_no}: expected {width} columns (days*intervals), got {len(cells)}"
                )
            # an empty cell marks a missing entry, exactly as nan does
            tokens = [cell.strip() or "nan" for cell in cells]
            pos = _store(values, observed, pos, tokens, path, line_no, math.inf)
    if not pos:
        raise ParseError(
            f"{path}:{header}: no data rows after header" if header else f"{path}:1: empty file"
        )
    values.resize(pos, refcheck=False)
    observed.resize(pos, refcheck=False)
    shape = (pos // width, days, intervals)
    return values.reshape(shape), observed.reshape(shape)


def save_matrix_csv(path, tensor, mask=None):
    """Write the stacked locations x (days*intervals) CSV (no header row)."""
    tensor, mask = _check_output(tensor, mask)
    n1 = tensor.shape[0]
    _save(
        path,
        "",
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


def load_run_config(path):
    """Read a run-configuration file into ``{key: (line_no, text)}``.

    Each line, cut at its first ``#``, is blank or ``key = value``; ``text`` is
    the stripped value, and a repeated key keeps its last line. Keys and values
    are not checked: ``lrtc.cli`` reads each value with the flag the key names.
    """
    config = {}
    with _utf8_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            config[key.strip()] = (line_no, value.strip())
    return config
