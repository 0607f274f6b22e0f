"""Pose-stream processing and dataset file IO.

CSV formats
-----------
Pose stream: comment header ``#rate_hz=...``, a column header
``timestamp,HeadYaw,...,RHandOpen`` and one pose per row.

Gesture dataset: comment header ``#mu=...``, ``#dt=...``, ``#source=...``,
a column header ``HeadYaw[0],...,RHandOpen[mu-1]`` and one flattened unit
of movement per row. Values are written with ``repr`` so a save/load round
trip is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, StructuralError
from .model import JOINT_NAMES, N_JOINTS, GestureDataset, column_labels

MAX_RESAMPLED_POSES = 10_000_000   # about 1 GB of output values


@dataclass
class PoseStream:
    """A T x 14 pose array with strictly increasing timestamps at a (nominal) native rate."""

    values: np.ndarray
    timestamps: np.ndarray
    native_rate_hz: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.native_rate_hz = float(self.native_rate_hz)
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
    whose grid would exceed ``MAX_RESAMPLED_POSES`` is rejected before any
    allocation.
    """
    if not (math.isfinite(target_hz) and target_hz > 0):
        raise StructuralError("target rate must be finite and positive")
    ts = stream.timestamps
    if len(ts) == 1:
        raise StructuralError("cannot resample a single-pose stream")
    dt = 1.0 / target_hz
    steps = float(ts[-1] - ts[0]) / dt + 1e-9    # Python floats: inf, not a warning
    if steps >= MAX_RESAMPLED_POSES:
        raise StructuralError(f"target rate {target_hz} Hz gives more than "
                              f"{MAX_RESAMPLED_POSES} poses over the stream")
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


def _positive_header(meta, key):
    """The ``#key`` header as a finite positive float; errors carry its line number."""
    if key not in meta:
        raise ParseError(f"missing #{key} header")
    text, line = meta[key]
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"invalid #{key} header: {exc}", line) from exc
    if not (math.isfinite(value) and value > 0):
        raise ParseError(f"#{key} must be finite and positive, got {text}", line)
    return value


def _parse_rows(lines, first_line, width, empty_message):
    """Comma-separated data rows as a float array; errors carry the line number.

    Blank lines are skipped. Non-numeric and non-finite cells are rejected.
    """
    rows, line_numbers = [], []
    for lineno, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} columns, got {len(cells)}", lineno)
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"non-numeric cell: {exc}", lineno) from exc
        line_numbers.append(lineno)
    if not rows:
        raise ParseError(empty_message)
    array = np.array(rows)
    finite = np.isfinite(array).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite cell", line_numbers[int(np.argmin(finite))])
    return array


def _write_rows(fh, array):
    # repr of a Python float round-trips exactly
    for row in array.tolist():
        fh.write(",".join(map(repr, row)) + "\n")


def save_dataset(ds, path):
    with open(path, "w") as fh:
        fh.write(f"#mu={ds.mu}\n")
        fh.write(f"#dt={ds.dt!r}\n")
        fh.write(f"#rate_hz={ds.sample_rate_hz!r}\n")
        fh.write(f"#source={ds.source_tag}\n")
        fh.write(",".join(column_labels(ds.mu)) + "\n")
        _write_rows(fh, ds.matrix)


def load_dataset(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, consumed = _parse_meta(lines)
    try:
        mu = int(meta["mu"][0])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"missing or invalid #mu header: {exc}") from exc
    dt = _positive_header(meta, "dt")
    try:
        scale = dt ** 3
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:
        raise ParseError(f"#dt={dt!r} cubed (the jerk's scale) is not a positive finite number",
                         meta["dt"][1])
    rate = _positive_header(meta, "rate_hz") if "rate_hz" in meta else 1.0 / dt
    source = meta.get("source", ("", None))[0]
    body = lines[consumed:]
    if not body:
        raise ParseError("dataset file has no header row", consumed + 1)
    header = body[0].split(",")
    if header != column_labels(mu):
        raise ParseError(
            f"header row does not match the mu={mu} column layout", consumed + 1)
    matrix = _parse_rows(body[1:], consumed + 2, N_JOINTS * mu,
                         "dataset file contains no data rows")
    return GestureDataset(matrix=matrix, dt=dt, source_tag=source, sample_rate_hz=rate)


def save_stream(stream, path):
    with open(path, "w") as fh:
        fh.write(f"#rate_hz={stream.native_rate_hz!r}\n")
        fh.write("timestamp," + ",".join(JOINT_NAMES) + "\n")
        _write_rows(fh, np.column_stack([stream.timestamps, stream.values]))


def load_stream(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, consumed = _parse_meta(lines)
    rate = _positive_header(meta, "rate_hz")
    body = lines[consumed:]
    if not body or body[0].split(",") != ["timestamp", *JOINT_NAMES]:
        raise ParseError("stream file header row is malformed", consumed + 1)
    rows = _parse_rows(body[1:], consumed + 2, N_JOINTS + 1, "stream file contains no poses")
    return PoseStream(values=rows[:, 1:], timestamps=rows[:, 0], native_rate_hz=rate)


def load_matrix(path):
    """Comma-separated float rows (e.g. PCoA coordinates) after any leading ``#`` lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _, consumed = _parse_meta(lines)
    width = next((len(line.split(",")) for line in lines[consumed:] if line.strip()), 0)
    return _parse_rows(lines[consumed:], consumed + 1, width, "matrix file contains no rows")
