"""Joint-space data model: robot profile, poses, gesture datasets.

Every downstream metric works on the same 14-joint upper-body pose vector.
The joint order is fixed once here and reused for CSV columns, flattened
unit-of-movement vectors and GMM feature dimensions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParseError, StructuralError, json_numbers, parse_json

N_JOINTS = 14

JOINT_NAMES = (
    "HeadYaw",
    "HeadPitch",
    "LShoulderPitch",
    "LShoulderRoll",
    "LElbowYaw",
    "LElbowRoll",
    "LWristYaw",
    "LHandOpen",
    "RShoulderPitch",
    "RShoulderRoll",
    "RElbowYaw",
    "RElbowRoll",
    "RWristYaw",
    "RHandOpen",
)

JOINT_INDEX = {name: i for i, name in enumerate(JOINT_NAMES)}   # position in a pose vector

HAND_OPEN_JOINTS = ("LHandOpen", "RHandOpen")


def read_only(array):
    """``array`` as a float array that refuses writes: a view, so a float64 array is
    not copied and the caller's own array keeps its flags."""
    view = np.asarray(array, dtype=float).view()
    view.setflags(write=False)
    return view


def philox(seed):
    """The generator behind every seeded draw: numpy's counter-based Philox, so a
    fit, sample, corpus, mapping or bootstrap follows from its seed alone."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class RobotProfile:
    """Joint limits and link lengths of the target robot.

    Limits are radians except the two HandOpen joints which live in [0, 1].
    Link lengths (meters) feed the forward-kinematics chain used by the
    motion metrics.
    """

    joint_limits: tuple
    upper_arm_length: float
    forearm_length: float
    shoulder_offset: float

    def __post_init__(self):
        if len(self.joint_limits) != N_JOINTS:
            raise StructuralError("profile needs one [min, max] pair per joint")
        for name, (lo, hi) in zip(JOINT_NAMES, self.joint_limits):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise StructuralError(f"empty or invalid limit interval for {name}")
            if name in HAND_OPEN_JOINTS and (lo, hi) != (0.0, 1.0):
                raise StructuralError(f"{name} limits must be [0, 1]")
        for length in (self.upper_arm_length, self.forearm_length, self.shoulder_offset):
            if not (np.isfinite(length) and length > 0):
                raise StructuralError("link lengths must be strictly positive")
        object.__setattr__(self, "_limits", read_only(self.joint_limits))

    def limits_array(self):
        """The (14, 2) joint limits as a read-only float array, built once per profile."""
        return self._limits

    @classmethod
    def from_dict(cls, doc):
        for key in ("joints", "link_lengths"):
            if not isinstance(doc[key], dict):
                raise TypeError(f"{key} must be a JSON object")
        joints, links = doc["joints"], doc["link_lengths"]
        if set(joints) != set(JOINT_NAMES):
            missing = set(JOINT_NAMES) - set(joints)
            extra = set(joints) - set(JOINT_NAMES)
            raise StructuralError(f"bad joint set (missing={sorted(missing)}, extra={sorted(extra)})")
        limits = [joints[name] for name in JOINT_NAMES]
        lengths = [links["upper_arm"], links["forearm"], links["shoulder_offset"]]
        json_numbers([*limits, lengths],
                     "malformed robot profile: joint limits and link lengths must be JSON numbers")
        for name, limit in zip(JOINT_NAMES, limits):
            if len(limit) != 2:
                raise ValueError(f"{name} limit must be a [lo, hi] pair")
        return cls(tuple(tuple(map(float, limit)) for limit in limits), *map(float, lengths))

    @classmethod
    def from_file(cls, path):
        """Read a profile JSON file; a malformed one raises ``ParseError``."""
        with open(path, "rb") as fh:
            doc = parse_json(fh.read(), "robot profile is not valid JSON")
        if not isinstance(doc, dict):
            raise ParseError("robot profile must hold a JSON object")
        try:
            return cls.from_dict(doc)
        except KeyError as exc:
            raise ParseError(f"robot profile has no {exc} entry") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed robot profile: {exc}") from exc

    @classmethod
    def default(cls):
        text = resources.files("gesturemetrics.profiles").joinpath("pepper.json").read_text()
        return cls.from_dict(json.loads(text))


def validate_pose(values, profile):
    """Clamp joint values of shape (..., 14) into their profile intervals.

    Works on one pose or a block of poses. Returns the clamped array and
    the number of clamped joints per pose. Idempotent.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = profile.limits_array().T
    clipped = values.clip(lo, hi)
    return clipped, (clipped != values).sum(axis=-1)


def check_dt(dt):
    """``dt`` as a float; ``StructuralError`` unless it is finite and positive and
    ``dt ** 3`` (the scale of every jerk) neither underflows to 0 nor overflows."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0):
        raise StructuralError("dt must be finite and positive")
    try:
        scale = dt ** 3
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:
        raise StructuralError(f"dt={dt!r} cubed (the jerk's scale) is not a positive finite number")
    return dt


def check_symmetric(a, what):
    """``StructuralError("<what> must be symmetric")`` if an entry of the finite
    square array ``a`` differs from its transpose by more than
    ``1e-12 * max(1, max |a|)``. The bound has no relative term, so a small
    asymmetry between large entries is still caught."""
    if np.abs(a - a.T).max(initial=0) > 1e-12 * max(1.0, np.abs(a).max(initial=0)):
        raise StructuralError(f"{what} must be symmetric")


def check_spread(x, what="dataset values"):
    """``StructuralError`` naming ``what`` unless every squared distance between the
    rows of the finite N x p array ``x`` is finite: each is at most
    ``N * sum(span ** 2)`` over the columns, and so is each column's sum of
    squared deviations from its mean. Columns whose sums overflow, so that
    their means do too, are refused as well; they can lie close together,
    like a constant column near the float maximum."""
    with np.errstate(over="ignore"):
        if not np.isfinite(len(x) * np.sum(np.ptp(x, axis=0) ** 2)):
            raise StructuralError(f"{what} lie too far apart: their squared distances overflow")
        if not np.isfinite(x.sum(axis=0)).all():
            raise StructuralError(f"{what} are too large: a column sum overflows")


def column_labels(mu):
    """Column names of the flattened layout: ``Joint[k]`` for frame offset k."""
    return [f"{name}[{k}]" for k in range(mu) for name in JOINT_NAMES]


@dataclass(frozen=True, eq=False)
class GestureDataset:
    """N units of movement as one N x (14*mu) matrix of finite floats, plus provenance.

    A unit of movement is mu consecutive poses sampled ``dt`` apart. Row
    layout: all 14 joints of pose t, then all 14 joints of pose t+dt, ...
    ``mu`` follows from the matrix width. The dataset cannot change after its
    checks: ``matrix`` is a :func:`read_only` view of the given matrix, not a copy.
    It compares and hashes by identity.
    """

    matrix: np.ndarray
    dt: float
    source_tag: str = ""
    sample_rate_hz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", read_only(self.matrix))
        if self.matrix.ndim != 2 or self.matrix.shape[1] % N_JOINTS != 0:
            raise StructuralError("dataset matrix must be 2-D, its width a multiple of 14")
        if self.matrix.shape[0] == 0 or self.matrix.shape[1] == 0:
            raise StructuralError("dataset needs at least one unit of movement of mu >= 1 poses")
        if not np.isfinite(self.matrix).all():
            raise StructuralError("dataset values must be finite")
        object.__setattr__(self, "dt", check_dt(self.dt))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz or 1.0 / self.dt))
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise StructuralError("sample rate must be finite and positive")
        # the tag is written as one "#source=" line and read back stripped
        tag = self.source_tag
        if tag != tag.strip() or len(tag.splitlines()) > 1:
            raise StructuralError(
                f"source tag {tag!r} must be one line without surrounding whitespace")
        try:
            tag.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise StructuralError(f"source tag {tag!r} is not UTF-8 text: {exc.reason}") from exc

    @property
    def mu(self):
        return self.matrix.shape[1] // N_JOINTS

    def __len__(self):
        return self.matrix.shape[0]


def as_matrix(ds):
    """``ds.matrix``. Kept only for the benchmark's set-up, which still calls it."""
    return ds.matrix
