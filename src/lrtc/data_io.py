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
Python float, the shortest text that reads back to the same double.

Files are read as UTF-8; a byte that is not UTF-8 is a parse error naming
the file but no line. A loader reads the body of a regular file with numpy's
C parser: in forked worker processes, one run of whole lines each, when
``_fork_workers`` allows, else in the calling process. On any doubt (see
``_read_table``) the line parser reads the body a line at a time and raises
every error with its ``path:line:column``. Every route gives the same arrays.

The line parser's flat arrays start empty and at least double, in place, as
they fill: up to the header's count for dense, trimmed to the rows read for
CSV. So a header or (days, intervals) pair that promises more values than the
file holds allocates no more than the file fills, and is a parse error.

A large tensor is formatted in forked worker processes on every core the
process may use, when ``_fork_workers`` allows; the bytes written do not
depend on the route or the core count.

A save writes a temporary file beside its target and renames it over the
target only once every line is written, so a failed save leaves the previous
file as it was; a target that exists and is not a regular file (a FIFO, a
symlink such as ``/dev/stdout``) is written in place.

Run-configuration files are ``key = value`` lines (``#`` comments allowed);
``load_run_config`` returns each value's text and line, which the CLI reads
exactly as it reads the flag the key names.
"""

import contextlib
import functools
import itertools
import io
import math
import os
import stat
import sys
import threading
import warnings
from concurrent.futures import BrokenExecutor

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError
from .tensor_ops import _check_pair, _check_tensor3

FORMATS = ("dense", "csv")


# Capacity, in values, of a loader's arrays once its first row arrives.
_START_VALUES = 1 << 16
# Below this many values a load or save runs in the calling process: pool
# start-up and teardown (about 10 ms) cost as much as formatting 10k values.
_PARALLEL_MIN_VALUES = 2**17
# More chunks than workers, so that a worker that finishes early takes
# another, and the writer writes early chunks while the workers format later
# ones.
_CHUNKS_PER_WORKER = 4
# The state a forked worker inherits from the job that started it.
_inherited = None
# A dense body of more bytes than this per value its header promises goes to
# the line parser, which stops one value past the count: the ``repr`` of a
# double is at most 24 characters, plus a separator.
_REPR_BYTES = 25
# Bytes the signed-NaN scan reads at a time.
_SCAN_BYTES = 1 << 16


def _fork_workers(values, most):
    """How many forked worker processes a job of ``values`` values, cut into
    at most ``most`` chunks, runs on; below 2 it runs in the calling process.

    The one home of the rule, which loads and saves follow: a job of at least
    ``_PARALLEL_MIN_VALUES`` values, on Linux, while no other Python thread is
    alive (forking one is unsafe), gets ``min(usable cores, most)`` workers.
    """
    if (
        values >= _PARALLEL_MIN_VALUES
        and sys.platform.startswith("linux")
        and threading.active_count() == 1
    ):
        return min(len(os.sched_getaffinity(0)), most)
    return 1


def _inherit(state):
    global _inherited
    _inherited = state


@contextlib.contextmanager
def _fork_map(workers, task, state, *iterables):
    """The results of ``map(task, *iterables)``, in order, computed in
    ``workers`` forked processes that live until the block ends.

    The workers inherit ``state`` (in ``_inherited``) through the fork, so
    nothing is pickled but the arguments and the results. A task that raises
    re-raises when its result is read; a worker that dies raises
    ``BrokenExecutor``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit,
        initargs=(state,),
    ) as pool:
        yield pool.map(task, *iterables)


@contextlib.contextmanager
def _utf8_text(path):
    """``path`` open as UTF-8 text; a byte that is not UTF-8 is a ``ParseError``
    naming the file but no line, as decoding runs a chunk ahead of the lines.

    Lines end at a newline, a carriage return or the pair of them, and keep
    their ending, so a line read spans ``len(line.encode())`` bytes.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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


def _parse_lines(lines, tokens_of, path, line_no, cap):
    """Each line's ``tokens_of(line, path, line_no)``, numbering the lines from
    ``line_no``, parsed into flat ``(values, observed)`` arrays; return them
    and the last line's number (``line_no - 1`` when there are none). Passing
    ``cap`` values is an error.

    Both arrays start empty, grow in place when full, at least doubling from
    ``_START_VALUES``, and are trimmed to the values read. ``refcheck=False``
    is safe because no view of them is taken before they are returned.
    """
    values, observed = np.empty(0), np.empty(0, dtype=bool)
    pos, line_no = 0, line_no - 1
    for line_no, line in enumerate(lines, start=line_no + 1):
        tokens = tokens_of(line, path, line_no)
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
        pos = end
    values.resize(pos, refcheck=False)
    observed.resize(pos, refcheck=False)
    return values, observed, line_no


def _signed_nan(fd):
    """True when the file ``fd`` holds ``+nan`` or ``-nan`` in any letter case.

    It is read ``_SCAN_BYTES`` at a time, and a block with no sign byte is
    skipped. A match is four bytes long, so the last three bytes of a block
    are carried into the next, where a match across the edge is found.
    """
    pos, tail = 0, b""
    while block := os.pread(fd, _SCAN_BYTES, pos):
        pos += len(block)
        block = tail + block
        if b"+" in block or b"-" in block:
            low = block.lower()
            if b"+nan" in low or b"-nan" in low:
                return True
        tail = block[-3:]
    return False


def _c_table(lines, delimiter):
    """numpy's C parser over ``lines``, as both routes of ``_read_table`` call it."""
    with warnings.catch_warnings():
        # an empty body; the line parser says what is missing
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)


def _after_newline(fd, pos, stop):
    """The offset just past the first ``\\n`` byte in ``[pos, stop)`` of ``fd``, else ``stop``."""
    while block := os.pread(fd, min(_SCAN_BYTES, stop - pos), pos):
        if (found := block.find(b"\n")) >= 0:
            return pos + found + 1
        pos += len(block)
    return stop


def _run_table(fd, delimiter, start, stop):
    """The C parser's table of the whole lines in bytes ``[start, stop)`` of
    ``fd``, decoded and split as ``_utf8_text`` reads them."""
    run = io.BytesIO(os.pread(fd, stop - start, start))
    return _c_table(io.TextIOWrapper(run, encoding="utf-8", newline=""), delimiter)


def _table_in_workers(fd, start, stop, delimiter):
    """The C parser's table of bytes ``[start, stop)`` of ``fd``, one run of
    whole lines per forked worker; None when ``_fork_workers`` keeps the job
    (a value per ``_REPR_BYTES`` bytes) here, when ``\\n`` bytes cut fewer
    than two runs, or when a worker dies."""
    workers = _fork_workers((stop - start) // _REPR_BYTES, math.inf)
    splits = (start + (stop - start) * k // workers for k in range(1, workers))
    cuts = sorted({start, stop, *(_after_newline(fd, split, stop) for split in splits)})
    if len(cuts) < 3:
        return None
    task = functools.partial(_run_table, fd, delimiter)
    # a first line the C parser refuses (an empty CSV cell, say) starts no pool
    task(start, _after_newline(fd, start, stop))
    try:
        with _fork_map(len(cuts) - 1, task, None, cuts[:-1], cuts[1:]) as tables:
            tables = list(tables)
    except BrokenExecutor:
        return None
    # a run of blank lines has no width; runs of different widths raise
    # ValueError, as one parse of the whole body would
    return np.concatenate([table for table in tables if table.size] or tables[:1])


def _read_table(fh, read, head, delimiter, fits):
    """The lines ``head``, then the rest of ``fh``, read by numpy's C parser
    into flat ``(values, observed)`` arrays; None, with ``fh`` back where it
    was, when the line parser must read them. ``read`` is the count of bytes
    read from ``fh`` so far, ``head`` included.

    The C parser reads the tokens Python ``float`` reads to the same doubles,
    except ``1_000`` and non-ASCII digits, on which it raises as on any bad
    token, byte or ragged table; and it reads ``+nan``/``-nan`` as NaN. So it
    is None for a file that is not regular (a FIFO cannot be read twice), when
    the parser raises, when ``fits(table)`` is false, for an infinite value,
    and when the bytes ``+nan`` or ``-nan`` are anywhere in the file.
    """
    fd = fh.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    mark = fh.tell()
    try:
        table = _table_in_workers(fd, read - len("".join(head).encode()), info.st_size, delimiter)
        if table is None:
            table = _c_table(itertools.chain(head, fh), delimiter)
    except ValueError:
        table = None
    if table is not None and fits(table) and not np.isinf(table).any():
        missing = np.isnan(table)
        if not (missing.any() and _signed_nan(fd)):
            table[missing] = 0.0
            return table.ravel(), ~missing.ravel()
    fh.seek(mark)
    return None


def _dense_tokens(line, path, line_no):
    return line.split()


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
        count, read = math.prod(dims), len(first.encode())
        flat = None
        # a value and its separator take at least two bytes
        if 2 * count - 1 <= os.fstat(fh.fileno()).st_size - read <= _REPR_BYTES * count:
            flat = _read_table(fh, read, [], None, lambda table: table.size == count)
        if flat is not None:
            values, observed = flat
        else:
            values, observed, line_no = _parse_lines(fh, _dense_tokens, path, 2, count)
            if len(values) != count:
                raise ParseError(f"{path}:{line_no}: expected {count} values, found {len(values)}")
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


def _format_chunk(start, stop):
    return _format_slabs(*_inherited, start, stop)


def _write_slabs(fh, slabs, masks, sep):
    """Write each matrix ``slabs[i]`` as lines of ``sep``-joined values.

    When ``_fork_workers`` allows, the slabs are cut into a few contiguous
    runs, which forked workers format while the parent writes the returned
    text in order. Otherwise they are formatted in the calling process one
    slab at a time, so the Python floats alive at once stay few. The bytes
    written are the same on either route and for any core count.
    """
    workers = _fork_workers(slabs.size, len(slabs))
    if workers < 2:
        for i in range(len(slabs)):
            fh.write(_format_slabs(slabs, masks, sep, i, i + 1))
        return
    chunks = min(len(slabs), _CHUNKS_PER_WORKER * workers)
    bounds = [len(slabs) * k // chunks for k in range(chunks + 1)]
    with _fork_map(workers, _format_chunk, (slabs, masks, sep), bounds[:-1], bounds[1:]) as texts:
        for text in texts:
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


def _csv_tokens(width, line, path, line_no):
    """A CSV line's cells as tokens, an empty cell read as ``nan``; none for a
    blank line, and a ``ParseError`` for a line that is not ``width`` cells."""
    if not line.strip():
        return []
    cells = line.split(",")
    if len(cells) != width:
        raise ParseError(
            f"{path}:{line_no}: expected {width} columns (days*intervals), got {len(cells)}"
        )
    return [cell.strip() or "nan" for cell in cells]


def load_matrix_csv(path, days, intervals):
    """Read a locations x (days*intervals) CSV into a (tensor, mask) pair."""
    days, intervals = int(days), int(intervals)
    if days < 1 or intervals < 1:
        raise ConfigError(f"days and intervals must be positive, got {days}, {intervals}")
    width = days * intervals
    tokens_of = functools.partial(_csv_tokens, width)
    with _utf8_text(path) as fh:
        # only the first non-blank line may be a header
        line_no, line, read = 0, "", 0
        for line in iter(fh.readline, ""):
            line_no, read = line_no + 1, read + len(line.encode())
            if line.strip():
                break
        header = line_no if line.strip() and _looks_like_header(line.split(",")) else 0
        head, first_no = ([], line_no + 1) if header else ([line], line_no)
        flat = _read_table(fh, read, head, ",", lambda table: table.shape[1] == width)
        if flat is None:
            flat = _parse_lines(itertools.chain(head, fh), tokens_of, path, first_no, math.inf)[:2]
    values, observed = flat
    if not len(values):
        raise ParseError(
            f"{path}:{header}: no data rows after header" if header else f"{path}:1: empty file"
        )
    shape = (len(values) // width, days, intervals)
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
