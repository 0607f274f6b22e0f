"""Pose-stream processing and table file IO.

CSV formats
-----------
Every table file is UTF-8 text in one layout (:func:`_write_table`): ``#key=value``
header lines, one row of column labels, then one row of ``repr`` values per line
(:func:`_rows.format_row`), so a save/load round trip is exact.

Pose stream: header ``#rate_hz=...``, labels ``timestamp,HeadYaw,...,RHandOpen`` and
one pose per row.

Gesture dataset: headers ``#mu=...``, ``#dt=...``, ``#rate_hz=...``, ``#source=...``,
labels ``HeadYaw[0],...,RHandOpen[mu-1]`` and one flattened unit of movement per row.

Spectra: no header, labels ``dimension,eigenvalue_original,eigenvalue_generated`` and one
row per PCoA dimension.
"""

from __future__ import annotations

import math
import subprocess
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import _rows
from .errors import ParseError, StructuralError
from .model import JOINT_NAMES, N_JOINTS, GestureDataset, check_dt, column_labels, read_only
from .pcoa import check_spectra

MAX_POSES = 10_000_000   # the most poses a pose array may hold: about 1 GB of values
_BODY = dict(delimiter=",", comments=None, dtype=float, ndmin=2)   # np.loadtxt of CSV bodies
# Above this many cells, a table of doubles has its second half formatted by a worker
# process (``_rows``) while this process formats the first. On 2 vCPUs with Python 3.11
# the worker starts in about 13.5 ms and ``repr`` takes about 0.65 us per value, so the
# worker's half of 2**16 cells takes some 21 ms to format, against that start-up and the
# pipe: a smaller table gains little or nothing. Retarget's tables and a 600-unit dataset
# (28-34k cells) stay in this process; a 2,500-unit dataset at mu = 4 (140k cells) goes
# to the worker.
ROW_WORKER_CELLS = 2 ** 16
_FEED_ROWS = 1024       # rows stacked and piped to the worker at a time


@dataclass(frozen=True, eq=False)
class PoseStream:
    """A T x 14 pose array with strictly increasing timestamps at a (nominal) native rate,
    all finite.
    The stream cannot change after its checks; its arrays are :func:`read_only` views.
    It compares and hashes by identity."""

    values: np.ndarray
    timestamps: np.ndarray
    native_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(self.values))
        object.__setattr__(self, "timestamps", read_only(self.timestamps))
        object.__setattr__(self, "native_rate_hz", float(self.native_rate_hz))
        if self.values.ndim != 2 or self.values.shape[1] != N_JOINTS:
            raise StructuralError(f"stream values must be T x {N_JOINTS}")
        if self.values.shape[0] == 0:
            raise StructuralError("pose stream must be non-empty")
        if not (np.isfinite(self.values).all() and np.isfinite(self.timestamps).all()):
            raise StructuralError("stream values and timestamps must be finite")
        if not (np.isfinite(self.native_rate_hz) and self.native_rate_hz > 0):
            raise StructuralError("stream rate must be finite and positive")
        if self.timestamps.shape != (self.values.shape[0],):
            raise StructuralError("stream needs one timestamp per pose")
        if not np.all(np.diff(self.timestamps) > 0):
            raise StructuralError("timestamps must be strictly increasing")

    def __len__(self):
        return self.values.shape[0]


def resample(stream, target_hz):
    """Linearly resample a stream to a uniform grid at ``target_hz``.

    The grid starts at the first timestamp and ends at or before the last;
    endpoints of the source are preserved when they fall on the grid. A rate
    whose grid would exceed ``MAX_POSES`` is rejected before any
    allocation.
    """
    if not (math.isfinite(target_hz) and target_hz > 0):
        raise StructuralError("target rate must be finite and positive")
    ts = stream.timestamps
    if len(ts) == 1:
        raise StructuralError("cannot resample a single-pose stream")
    dt = 1.0 / target_hz
    steps = float(ts[-1] - ts[0]) / dt + 1e-9    # Python floats: inf, not a warning
    if steps >= MAX_POSES:
        raise StructuralError(f"target rate {target_hz} Hz gives more than "
                              f"{MAX_POSES} poses over the stream")
    n_out = math.floor(steps) + 1
    grid = ts[0] + dt * np.arange(n_out)
    vals = stream.values
    out_vals = np.column_stack([np.interp(grid, ts, vals[:, j]) for j in range(N_JOINTS)])
    return PoseStream(values=out_vals, timestamps=grid, native_rate_hz=target_hz)


def match_lengths(a, b):
    """Truncate the longer stream's trailing poses so lengths match."""
    n = min(len(a), len(b))
    return tuple(PoseStream(values=s.values[:n], timestamps=s.timestamps[:n],
                            native_rate_hz=s.native_rate_hz) for s in (a, b))


def window(stream, mu, stride=None, source_tag=""):
    """Cut the stream into units of movement of ``mu`` poses.

    Default stride equals mu (non-overlapping windows, floor(K/mu) units);
    a trailing remainder shorter than mu is dropped.
    """
    if mu <= 0:
        raise StructuralError("mu must be positive")
    if stride is None:
        stride = mu
    if stride <= 0:
        raise StructuralError("stride must be positive")
    if len(stream) < mu:
        raise StructuralError(f"stream of {len(stream)} poses is shorter than mu={mu}")
    rows = np.arange(0, len(stream) - mu + 1, stride)[:, None] + np.arange(mu)
    return GestureDataset(matrix=stream.values[rows].reshape(len(rows), N_JOINTS * mu),
                          dt=1.0 / stream.native_rate_hz, source_tag=source_tag,
                          sample_rate_hz=stream.native_rate_hz)


def _read_text(path):
    """The text of a UTF-8 file. Bytes that UTF-8 cannot decode raise ``ParseError``
    with their line number. Returning the text, not its lines, lets the raw bytes
    go before a caller splits it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", data.count(b"\n", 0, exc.start) + 1) from exc


def _read_table(path):
    """A table file's leading ``#`` lines as key -> (value text, line number) for each
    ``#key=value`` among them, the line number of the first line after them, and the
    lines from there on."""
    lines = _read_text(path).splitlines()
    headers, n = {}, 0
    while n < len(lines) and lines[n].startswith("#"):
        key, equals, value = lines[n][1:].partition("=")
        n += 1
        if equals:
            headers[key.strip()] = (value.strip(), n)
    return headers, n + 1, lines[n:]


def _positive_header(meta, key, integral=False):
    """The ``#key`` header as one finite positive cell read like the body (``_BODY``), or an int
    of ASCII digits after an optional sign if ``integral``; errors carry its line number."""
    if key not in meta:
        raise ParseError(f"missing #{key} header")
    text, line = meta[key]
    try:
        # numpy warns on empty input instead of refusing it
        if not text or integral and not (text.isascii() and text.lstrip("+-").isdigit()):
            raise ValueError
        value = np.loadtxt([text], **_BODY).item()     # ValueError unless one cell
    except ValueError:
        raise ParseError(f"invalid #{key} header: {text!r} is not "
                         f"{'an integer' if integral else 'a number'}", line) from None
    if not 0 < value < math.inf:
        raise ParseError(f"#{key} must be finite and positive, got {text}", line)
    return int(value) if integral else value


def _read_rows(lines, first_line, width, empty_message):
    """Comma-separated data rows as a float array; errors carry the line number.

    numpy's C reader reads the non-blank lines in one call. A body that is not
    one finite ``width``-column table is read again by the same reader, line by
    line, to name its first bad line and cell.
    """
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ParseError(empty_message)
    with suppress(ValueError):
        array = np.loadtxt(rows, **_BODY)
        if array.shape == (len(rows), width) and np.isfinite(array).all():
            return array
    for lineno, line in enumerate(lines, start=first_line):
        cells = line.split(",")
        if line.strip() and len(cells) != width:
            raise ParseError(f"expected {width} columns, got {len(cells)}", lineno)
        with suppress(ValueError):
            if not line.strip() or np.isfinite(np.loadtxt([line], **_BODY)).all():
                continue
        for column, cell in enumerate(cells):
            try:
                value = np.loadtxt([line], usecols=column, **_BODY)[0, 0]
            except ValueError:
                raise ParseError(f"non-numeric cell {cell!r}", lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite cell {cell!r}", lineno)


def _write_table(path, headers, labels, *blocks):
    """Write one table file: a ``#key=value`` line per ``headers`` item, the ``labels``,
    then a line per row of ``blocks``, 2-D arrays of equal length whose rows are written
    side by side. Rows are drawn and written one at a time, so no table is held as a
    list of Python numbers. Above ``ROW_WORKER_CELLS`` doubles, a worker process formats
    the second half of the rows as text while this process formats the first; the
    bytes are the same either way."""
    n = len(blocks[0])
    width = sum(block.shape[1] for block in blocks)
    split = n * width > ROW_WORKER_CELLS and all(b.dtype == np.float64 for b in blocks)
    with open(path, "w", encoding="utf-8") as fh, \
            (_row_worker(width) if split else nullcontext()) as worker:
        fh.writelines(f"#{key}={value}\n" for key, value in headers.items())
        fh.write(",".join(labels) + "\n")
        half = n // 2 if worker else n
        if worker:
            with suppress(BrokenPipeError):     # a worker that died fails by its exit code
                for start in range(half, n, _FEED_ROWS):
                    worker.stdin.write(np.hstack([b[start:start + _FEED_ROWS]
                                                  for b in blocks]).data)
                worker.stdin.close()
        for parts in zip(*(map(np.ndarray.tolist, b[:half]) for b in blocks)):
            fh.write(_rows.format_row(chain(*parts)))
        if worker:
            for chunk in iter(partial(worker.stdout.read, 1 << 16), b""):
                fh.write(chunk.decode("ascii"))
            if worker.wait():
                raise ChildProcessError(f"the row worker exited with code {worker.returncode}")


@contextmanager
def _row_worker(width):
    """A started ``_rows`` worker for rows of ``width`` doubles, or None when none can
    start. On exit it is killed if it still runs, and waited for."""
    try:
        worker = subprocess.Popen([sys.executable, "-I", "-S", _rows.__file__, str(width)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
    except (OSError, TypeError):    # TypeError: sys.executable is None
        yield None
        return
    try:
        yield worker
    finally:
        if worker.poll() is None:
            worker.kill()
        worker.wait()
        worker.stdout.close()
        with suppress(BrokenPipeError):
            worker.stdin.close()


def save_dataset(ds, path):
    headers = {"mu": ds.mu, "dt": ds.dt, "rate_hz": ds.sample_rate_hz, "source": ds.source_tag}
    _write_table(path, headers, column_labels(ds.mu), ds.matrix)


def load_dataset(path):
    meta, first, body = _read_table(path)
    mu = _positive_header(meta, "mu", integral=True)
    dt = _positive_header(meta, "dt")
    try:
        check_dt(dt)
    except StructuralError as exc:
        raise ParseError(f"#{exc}", meta["dt"][1]) from exc
    # without the header, GestureDataset takes the rate 1 / dt
    rate = {"sample_rate_hz": _positive_header(meta, "rate_hz")} if "rate_hz" in meta else {}
    source = meta.get("source", ("", None))[0]
    if not body:
        raise ParseError("dataset file has no header row", first)
    header = body[0].split(",")
    if len(header) != N_JOINTS * mu or header != column_labels(mu):
        raise ParseError(f"header row does not match the mu={mu} column layout", first)
    matrix = _read_rows(body[1:], first + 1, N_JOINTS * mu, "dataset file contains no data rows")
    return GestureDataset(matrix=matrix, dt=dt, source_tag=source, **rate)


def save_stream(stream, path):
    _write_table(path, {"rate_hz": stream.native_rate_hz}, ["timestamp", *JOINT_NAMES],
                 stream.timestamps[:, None], stream.values)


def load_stream(path):
    meta, first, body = _read_table(path)
    rate = _positive_header(meta, "rate_hz")
    if not body or body[0].split(",") != ["timestamp", *JOINT_NAMES]:
        raise ParseError("stream file header row is malformed", first)
    rows = _read_rows(body[1:], first + 1, N_JOINTS + 1, "stream file contains no poses")
    increasing = np.diff(rows[:, 0]) > 0
    if not increasing.all():
        # row i + 1 is the first whose timestamp is not after its predecessor's
        line_numbers = [n for n, line in enumerate(body[1:], start=first + 1) if line.strip()]
        raise ParseError("timestamps must be strictly increasing",
                         line_numbers[int(np.argmin(increasing)) + 1])
    return PoseStream(values=rows[:, 1:], timestamps=rows[:, 0], native_rate_hz=rate)


def load_matrix(path):
    """Comma-separated float rows (e.g. PCoA coordinates) after any leading ``#`` lines."""
    _, first, lines = _read_table(path)
    width = next((len(line.split(",")) for line in lines if line.strip()), 0)
    return _read_rows(lines, first, width, "matrix file contains no rows")


def save_spectra(path, spectrum_original, spectrum_generated):
    """Write two PCoA eigenvalue spectra of equal length, one row per dimension from 1."""
    n = check_spectra(spectrum_original, spectrum_generated)
    _write_table(path, {}, ["dimension", "eigenvalue_original", "eigenvalue_generated"],
                 np.arange(1, n + 1)[:, None],
                 np.column_stack((spectrum_original, spectrum_generated)))
