"""Pose-stream processing and dataset file IO.

CSV formats
-----------
Every file is UTF-8 text.

Pose stream: comment header ``#rate_hz=...``, a column header
``timestamp,HeadYaw,...,RHandOpen`` and one pose per row.

Gesture dataset: comment header ``#mu=...``, ``#dt=...``, ``#source=...``,
a column header ``HeadYaw[0],...,RHandOpen[mu-1]`` and one flattened unit
of movement per row. Values are written with ``repr`` so a save/load round
trip is exact.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, StructuralError
from .model import JOINT_NAMES, N_JOINTS, GestureDataset, check_dt, column_labels, read_only

MAX_POSES = 10_000_000   # the most poses a pose array may hold: about 1 GB of values
_BODY = dict(delimiter=",", comments=None, dtype=float, ndmin=2)   # np.loadtxt of CSV bodies


@dataclass(frozen=True, eq=False)
class PoseStream:
    """A T x 14 pose array with strictly increasing timestamps at a (nominal) native rate.
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


def _parse_meta(lines):
    """Comment-header ``#key=value`` pairs as key -> (value text, line number)."""
    meta = {}
    consumed = 0
    for line in lines:
        if not line.startswith("#"):
            break
        consumed += 1
        body = line[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = (val.strip(), consumed)
    return meta, consumed


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


def _write_rows(fh, array):
    # repr of a Python float round-trips exactly
    for row in array.tolist():
        fh.write(",".join(map(repr, row)) + "\n")


def save_dataset(ds, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#mu={ds.mu}\n")
        fh.write(f"#dt={ds.dt!r}\n")
        fh.write(f"#rate_hz={ds.sample_rate_hz!r}\n")
        fh.write(f"#source={ds.source_tag}\n")
        fh.write(",".join(column_labels(ds.mu)) + "\n")
        _write_rows(fh, ds.matrix)


def load_dataset(path):
    lines = _read_text(path).splitlines()
    meta, consumed = _parse_meta(lines)
    mu = _positive_header(meta, "mu", integral=True)
    dt = _positive_header(meta, "dt")
    try:
        check_dt(dt)
    except StructuralError as exc:
        raise ParseError(f"#{exc}", meta["dt"][1]) from exc
    rate = _positive_header(meta, "rate_hz") if "rate_hz" in meta else 1.0 / dt
    source = meta.get("source", ("", None))[0]
    body = lines[consumed:]
    if not body:
        raise ParseError("dataset file has no header row", consumed + 1)
    header = body[0].split(",")
    if len(header) != N_JOINTS * mu or header != column_labels(mu):
        raise ParseError(
            f"header row does not match the mu={mu} column layout", consumed + 1)
    matrix = _read_rows(body[1:], consumed + 2, N_JOINTS * mu,
                        "dataset file contains no data rows")
    return GestureDataset(matrix=matrix, dt=dt, source_tag=source, sample_rate_hz=rate)


def save_stream(stream, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#rate_hz={stream.native_rate_hz!r}\n")
        fh.write("timestamp," + ",".join(JOINT_NAMES) + "\n")
        _write_rows(fh, np.column_stack([stream.timestamps, stream.values]))


def load_stream(path):
    lines = _read_text(path).splitlines()
    meta, consumed = _parse_meta(lines)
    rate = _positive_header(meta, "rate_hz")
    body = lines[consumed:]
    if not body or body[0].split(",") != ["timestamp", *JOINT_NAMES]:
        raise ParseError("stream file header row is malformed", consumed + 1)
    rows = _read_rows(body[1:], consumed + 2, N_JOINTS + 1, "stream file contains no poses")
    increasing = np.diff(rows[:, 0]) > 0
    if not increasing.all():
        # row i + 1 is the first whose timestamp is not after its predecessor's
        line_numbers = [n for n, line in enumerate(body[1:], start=consumed + 2) if line.strip()]
        raise ParseError("timestamps must be strictly increasing",
                         line_numbers[int(np.argmin(increasing)) + 1])
    return PoseStream(values=rows[:, 1:], timestamps=rows[:, 0], native_rate_hz=rate)


def load_matrix(path):
    """Comma-separated float rows (e.g. PCoA coordinates) after any leading ``#`` lines."""
    lines = _read_text(path).splitlines()
    _, consumed = _parse_meta(lines)
    width = next((len(line.split(",")) for line in lines[consumed:] if line.strip()), 0)
    return _read_rows(lines[consumed:], consumed + 1, width, "matrix file contains no rows")
