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
the file but no line. numpy's C parser reads the body of a regular file
once, as runs of whole lines read by byte offset. On any doubt (see
``_read_table``) the line parser reads the body a line at a time and raises
every error with its ``path:line:column``. Every route gives the same arrays.

Both routes give one flat array of the values, NaN where an entry is
missing, and ``_tensor_pair`` alone turns it into the tensor and its mask. The
line parser appends each line's values to one ``array.array``, which grows
only as values arrive. So a header or (days, intervals) pair that promises
more values than the file holds allocates no more than the file fills, and is
a parse error.

A large body is read, and a large tensor formatted, in runs that
``_fanout.ordered_map`` spreads over the cores; the arrays read and the bytes
written do not depend on the route or the core count.

A save writes a temporary file beside its target and renames it over the
target only once every line is written, so a failed save leaves the previous
file as it was; a target that exists and is not a regular file (a FIFO, a
symlink such as ``/dev/stdout``) is written in place.

Run-configuration files are ``key = value`` lines (``#`` comments allowed);
``load_run_config`` returns each value's text and line, which the CLI reads
exactly as it reads the flag the key names.
"""

import array
import contextlib
import functools
import itertools
import io
import math
import os
import stat
import warnings
from concurrent.futures import BrokenExecutor

import numpy as np

from . import _fanout
from .errors import ConfigError, InvalidInputError, ParseError
from .tensor_ops import _check_pair, _check_tensor3, _is_integer

FORMATS = ("dense", "csv")


# More chunks than workers, so that the parent writes early chunks while the
# workers format later ones.
_CHUNKS_PER_WORKER = 4
# A dense body of more bytes than this per value its header promises goes to
# the line parser, which stops one value past the count: the ``repr`` of a
# double is at most 24 characters, plus a separator.
_REPR_BYTES = 25
# Bytes a body run (``_Run``) and the newline search read at a time.
_SCAN_BYTES = 1 << 16


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
    """One line's tokens as an array of floats, NaN where a token is ``nan``.

    The whole row goes through ``float`` at once, and passes when it holds as
    many non-finite values as lowercase ``nan`` tokens: each of those reads
    as NaN, so no other value is non-finite. Otherwise the tokens that may be
    bad (every token when one does not parse, else those of the non-finite
    values) are checked one at a time: a NaN counts as missing only when its
    token is ``nan`` in any letter case (``float`` also reads ``+nan``,
    ``-nan`` and infinities), and the first bad token is raised with its line
    and column.
    """
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        values, suspects = None, range(len(tokens))
    else:
        finite = np.isfinite(values)
        if np.count_nonzero(finite) + tokens.count("nan") == len(tokens):
            return values
        suspects = np.flatnonzero(~finite).tolist()
    for j in suspects:
        token = tokens[j]
        try:
            bad = token.lower() != "nan" and not math.isfinite(float(token))
        except ValueError:
            raise ParseError(f"{path}:{line_no}:{j + 1}: cannot parse {token!r} as a number") from None
        if bad:
            raise ParseError(f"{path}:{line_no}:{j + 1}: non-finite value {token!r} is not allowed")
    return values


def _parse_lines(lines, tokens_of, path, line_no, cap):
    """Each line's ``tokens_of(line, path, line_no)``, numbering the lines from
    ``line_no``, parsed into one flat array, NaN where an entry is missing;
    return it and the last line's number (``line_no - 1`` when there are
    none). Passing ``cap`` values is an error.
    """
    values, line_no = array.array("d"), line_no - 1
    for line_no, line in enumerate(lines, start=line_no + 1):
        tokens = tokens_of(line, path, line_no)
        room = cap - len(values)
        if len(tokens) > room:
            # tokens ahead of the overflow column are still checked first
            _parse_row(tokens[:room], path, line_no)
            raise ParseError(f"{path}:{line_no}:{room + 1}: more than {cap} values in file")
        values.frombytes(_parse_row(tokens, path, line_no).tobytes())
    return np.frombuffer(values), line_no


class _Run(io.RawIOBase):
    """Bytes ``[start, stop)`` of the file ``fd``, read ``_SCAN_BYTES`` at a
    time with ``os.pread``, which moves no offset that forked workers share.

    A block that holds ``+nan`` or ``-nan`` in any letter case raises
    ``ValueError``, as numpy's C parser reads both as NaN. A match is four
    bytes long, so the last three bytes of a block are carried into the next,
    where a match across the edge is found.
    """

    def __init__(self, fd, start, stop):
        self.fd, self.pos, self.stop, self.tail = fd, start, stop, b""

    def readable(self):
        return True

    def readinto(self, buffer):
        block = os.pread(self.fd, min(len(buffer), self.stop - self.pos), self.pos)
        self.pos += len(block)
        scan = self.tail + block
        if b"+" in scan or b"-" in scan:
            low = scan.lower()
            if b"+nan" in low or b"-nan" in low:
                raise ValueError("signed NaN")
        self.tail = scan[-3:]
        buffer[: len(block)] = block
        return len(block)


def _run_table(fd, delimiter, start, stop):
    """numpy's C parser's table of the whole lines in bytes ``[start, stop)``
    of ``fd``, decoded and split as ``_utf8_text`` reads them; the only route
    by which a body reaches ``np.loadtxt``."""
    text = io.TextIOWrapper(_Run(fd, start, stop), encoding="utf-8", newline="")
    # the size of the wrapper's reads, 8 KB by default
    text._CHUNK_SIZE = _SCAN_BYTES
    with warnings.catch_warnings():
        # an empty body; the line parser says what is missing
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(text, delimiter=delimiter, comments=None, ndmin=2)


def _after_newline(fd, pos, stop):
    """The offset just past the first ``\\n`` byte in ``[pos, stop)`` of ``fd``, else ``stop``."""
    while block := os.pread(fd, min(_SCAN_BYTES, stop - pos), pos):
        if (found := block.find(b"\n")) >= 0:
            return pos + found + 1
        pos += len(block)
    return stop


def _read_table(fd, start, delimiter, fits):
    """Bytes ``start`` to the end of the file ``fd`` read by numpy's C parser
    into one flat array, NaN where an entry is missing; None when the line
    parser must read them.

    When ``_fanout.workers`` allows (a value per ``_REPR_BYTES`` bytes), the
    body is cut just after ``\\n`` bytes into one run of whole lines per
    forked worker; it is read as one run in this process when the job stays
    here or when the cuts make fewer than two runs.

    The C parser reads the tokens Python ``float`` reads to the same doubles,
    except ``1_000`` and non-ASCII digits, on which it raises as on any bad
    token, byte or ragged table; and it reads ``+nan``/``-nan`` as NaN. So it
    is None for a file that is not regular (a FIFO cannot be read twice), when
    the parser or ``_Run`` raises, when a worker dies, when ``fits(table)`` is
    false, and for an infinite value.
    """
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    stop = info.st_size
    workers = _fanout.workers((stop - start) // _REPR_BYTES, math.inf)
    splits = (start + (stop - start) * k // workers for k in range(1, workers))
    # every cut lies past ``start``, so an empty body is one empty run
    cuts = [start, *sorted({stop, *(_after_newline(fd, split, stop) for split in splits)})]
    try:
        with _fanout.ordered_map(functools.partial(_run_table, fd, delimiter), cuts, workers) as tables:
            tables = list(tables)
        # a run of blank lines has no width; runs of different widths raise
        # ValueError, as one parse of the whole body would
        tables = [t for t in tables if t.size] or tables[:1]
        table = tables[0] if len(tables) == 1 else np.concatenate(tables)
    except (ValueError, BrokenExecutor):
        return None
    if not fits(table) or np.isinf(table).any():
        return None
    return table.ravel()


def _tensor_pair(flat, shape):
    """The (tensor, mask) pair of ``flat``, either route's values: the one
    place where a NaN becomes a missing entry, value 0 and mask False.

    ``flat`` is zeroed in place, and the mask is the NaN test's array inverted
    in place, so no array is allocated beyond the mask.
    """
    missing = np.isnan(flat)
    flat[missing] = 0.0
    return flat.reshape(shape), np.logical_not(missing, out=missing).reshape(shape)


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
            flat = _read_table(fh.fileno(), read, None, lambda table: table.size == count)
        if flat is None:
            flat, line_no = _parse_lines(fh, _dense_tokens, path, 2, count)
            if len(flat) != count:
                raise ParseError(f"{path}:{line_no}: expected {count} values, found {len(flat)}")
    return _tensor_pair(flat, dims)


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


def _write_slabs(fh, slabs, masks, sep):
    """Write each matrix ``slabs[i]`` as lines of ``sep``-joined values.

    When ``_fanout.workers`` allows, the slabs are cut into a few contiguous
    runs, which forked workers format while the parent writes the returned
    text in order. Otherwise they are formatted in the calling process one
    slab at a time, so the Python floats alive at once stay few. The bytes
    written are the same on either route and for any core count.
    """
    workers = _fanout.workers(slabs.size, len(slabs))
    chunks = len(slabs) if workers < 2 else min(len(slabs), _CHUNKS_PER_WORKER * workers)
    bounds = [len(slabs) * k // chunks for k in range(chunks + 1)]
    format_run = functools.partial(_format_slabs, slabs, masks, sep)
    with _fanout.ordered_map(format_run, bounds, workers) as texts:
        fh.writelines(texts)


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
    if not all(_is_integer(n) and n >= 1 for n in (days, intervals)):
        raise ConfigError(f"days and intervals must be positive integers, got {days}, {intervals}")
    width = int(days) * int(intervals)
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
        start = read - len("".join(head).encode())
        flat = _read_table(fh.fileno(), start, ",", lambda table: table.shape[1] == width)
        if flat is None:
            flat = _parse_lines(itertools.chain(head, fh), tokens_of, path, first_no, math.inf)[0]
    if not len(flat):
        raise ParseError(
            f"{path}:{header}: no data rows after header" if header else f"{path}:1: empty file"
        )
    return _tensor_pair(flat, (len(flat) // width, days, intervals))


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
    if csv_dims is None or len(csv_dims) != 2:
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
