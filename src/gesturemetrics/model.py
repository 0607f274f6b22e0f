"""Joint-space data model: robot profile, poses, gesture datasets.

Every downstream metric works on the same 14-joint upper-body pose vector.
The joint order is fixed once here and reused for CSV columns, flattened
unit-of-movement vectors and GMM feature dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParseError, StructuralError

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

HAND_OPEN_JOINTS = ("LHandOpen", "RHandOpen")


@dataclass(frozen=True)
class RobotProfile:
    """Joint limits and link lengths of the target robot.

    Limits are radians except the two HandOpen joints which live in [0, 1].
    Link lengths (meters) feed the forward-kinematics chain used by the
    motion metrics.
    """

    joint_limits: tuple = ()
    upper_arm_length: float = 0.1812
    forearm_length: float = 0.15
    shoulder_offset: float = 0.1497

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

    def limits_array(self):
        return np.asarray(self.joint_limits, dtype=float)

    @classmethod
    def from_dict(cls, doc):
        joints = doc["joints"]
        if set(joints) != set(JOINT_NAMES):
            missing = set(JOINT_NAMES) - set(joints)
            extra = set(joints) - set(JOINT_NAMES)
            raise StructuralError(f"bad joint set (missing={sorted(missing)}, extra={sorted(extra)})")
        links = doc["link_lengths"]
        return cls(
            joint_limits=tuple((float(lo), float(hi)) for lo, hi in
                               (joints[name] for name in JOINT_NAMES)),
            upper_arm_length=float(links["upper_arm"]),
            forearm_length=float(links["forearm"]),
            shoulder_offset=float(links["shoulder_offset"]),
        )

    @classmethod
    def from_file(cls, path):
        """Read a profile JSON file; a malformed one raises ``ParseError``."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ParseError(f"robot profile is not valid JSON: {exc}") from exc
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


@dataclass(eq=False)
class Pose:
    """One frame of 14 joint values (a float64 array), optionally timestamped.

    ``n_clamped`` records how many values were pulled back inside their
    limits by :func:`validate_pose`; out-of-range capture noise is clamped,
    never rejected.
    """

    values: np.ndarray
    timestamp: float | None = None
    n_clamped: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (N_JOINTS,):
            raise StructuralError(f"pose needs {N_JOINTS} values, got shape {self.values.shape}")


def validate_pose(values, profile):
    """Clamp joint values of shape (..., 14) into their profile intervals.

    Works on one pose or a block of poses. Returns the clamped array and
    the number of clamped joints per pose. Idempotent.
    """
    values = np.asarray(values, dtype=float)
    limits = profile.limits_array()
    clipped = np.clip(values, limits[:, 0], limits[:, 1])
    return clipped, np.count_nonzero(clipped != values, axis=-1)


def column_labels(mu):
    """Column names of the flattened layout: ``Joint[k]`` for frame offset k."""
    return [f"{name}[{k}]" for k in range(mu) for name in JOINT_NAMES]


@dataclass
class GestureDataset:
    """N units of movement as one N x (14*mu) float64 matrix, plus provenance.

    A unit of movement is mu consecutive poses sampled ``dt`` apart. Row
    layout: all 14 joints of pose t, then all 14 joints of pose t+dt, ...
    ``mu`` follows from the matrix width. The matrix is not copied.
    """

    matrix: np.ndarray
    dt: float
    source_tag: str = ""
    sample_rate_hz: float = 0.0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] % N_JOINTS != 0:
            raise StructuralError("dataset matrix must be 2-D, its width a multiple of 14")
        if self.matrix.shape[0] == 0 or self.matrix.shape[1] == 0:
            raise StructuralError("dataset needs at least one unit of movement of mu >= 1 poses")
        self.dt = float(self.dt)
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise StructuralError("dt must be finite and positive")
        self.sample_rate_hz = float(self.sample_rate_hz or 1.0 / self.dt)
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise StructuralError("sample rate must be finite and positive")

    @property
    def mu(self):
        return self.matrix.shape[1] // N_JOINTS

    def __len__(self):
        return self.matrix.shape[0]


def as_matrix(ds):
    """The N x (14*mu) analysis matrix of a dataset."""
    return ds.matrix
