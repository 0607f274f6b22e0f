"""Skeleton-to-robot retargeting for OpenNI-15 and OpenPose-25 captures.

Capture frame convention (authoritative for this repo): x right, y up,
z forward. All keypoints are meters in that frame.

Arm mapping convention (authoritative for this repo):
  torso-down   = neck -> hip reference (Torso for OpenNI, MidHip for OpenPose)
  upper arm    = shoulder -> elbow, forearm = elbow -> wrist
  shoulder roll  = pi/2 - angle(upper arm, lateral axis of that side)
  shoulder pitch = signed angle of the upper arm's sagittal projection
                   against torso-down (0 = arm hanging, positive forward)
  elbow roll     = angle(upper arm, forearm); 0 = fully extended;
                   sign follows the profile (left negative, right positive)
  elbow yaw      = rotation of the forearm around the upper-arm axis,
                   measured from the torso-down reference direction

Calibration is fixed: the module constants below hold the capture-side source
intervals of :func:`range_conv`, the OpenNI glove normalizer and wrist-yaw
bound, and ``CONFIDENCE_THRESHOLD``, below which a keypoint counts as missing
and its joint group holds its last value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (DegenerateGeometryError, ParseError, StructuralError,
                     UnknownOrientationError, json_numbers, parse_json)
from .model import JOINT_INDEX, Pose, RobotProfile, philox, read_only, validate_pose
from .pipeline import PoseStream

OPENNI_LAYOUT = "openni15"
OPENPOSE_LAYOUT = "openpose25"

OPENNI_KEYPOINTS = (
    "Head", "Neck", "Torso",
    "LShoulder", "LElbow", "LHand",
    "RShoulder", "RElbow", "RHand",
    "LHip", "RHip", "LKnee", "RKnee", "LFoot", "RFoot",
)

OPENPOSE_KEYPOINTS = (
    "Nose", "Neck",
    "RShoulder", "RElbow", "RWrist",
    "LShoulder", "LElbow", "LWrist",
    "MidHip", "RHip", "RKnee", "RAnkle",
    "LHip", "LKnee", "LAnkle",
    "REye", "LEye", "REar", "LEar",
    "LBigToe", "LSmallToe", "LHeel",
    "RBigToe", "RSmallToe", "RHeel",
)

# OpenPose hand model indices
HAND_WRIST = 0
HAND_THUMB_TIP = 4
HAND_MIDDLE_TIP = 12
HAND_PINKY_TIP = 20

# Calibration constants of the retargeting equations. The source ranges are
# capture-side intervals fed to range_conv, not robot properties.
HEAD_PITCH_SRC = (0.10, 0.25)               # nose-neck distance (m)
HEAD_YAW_SRC = (-math.pi / 2, math.pi / 2)  # nose-neck angle from vertical (rad)
HAND_YAW_SRC = (0.05, 0.20)                 # thumb-pinky distance (m)
HAND_OPEN_SRC = (0.05, 0.20)                # wrist-middle distance (m)
N_PIXELS = 1000.0                           # glove pixel normalizer N
MAX_WRIST_YAW = 1.8239
CONFIDENCE_THRESHOLD = 0.1                  # keypoints below it count as missing
# largest |coordinate| of a keypoint: two keypoints differ by at most twice it per
# axis, so every squared distance between them, at most 12 * MAX_COORD ** 2, is finite
MAX_COORD = 1e153

# the row of each keypoint name in a frame's keypoints array, per layout
_ROW = {OPENNI_LAYOUT: {name: i for i, name in enumerate(OPENNI_KEYPOINTS)},
        OPENPOSE_LAYOUT: {name: i for i, name in enumerate(OPENPOSE_KEYPOINTS)}}
_KEYPOINT_SET = "{} frame must carry exactly the {} body keypoints"
_KEYPOINT_BOUND = np.array([MAX_COORD, MAX_COORD, MAX_COORD, np.finfo(float).max])
_EXTRAS = {OPENNI_LAYOUT: ("head_orientation", "left_pixels", "right_pixels"),
           OPENPOSE_LAYOUT: ("left_hand", "right_hand")}   # the fields each mapper reads
_NO_HAND = np.full((21, 3), np.nan)   # stands in for a missing hand, which holds its joints


@dataclass(frozen=True, eq=False)
class SkeletonFrame:
    """One timestamped capture frame: ``keypoints`` holds one (x, y, z, confidence) row
    per name of ``OPENNI_KEYPOINTS`` or ``OPENPOSE_KEYPOINTS``, in that order, and of the
    optional fields only its layout's ``_EXTRAS`` may be set; hands are 21 x 3. Values must
    be finite, coordinates at most ``MAX_COORD`` in magnitude, pixel counts non-negative.
    Its arrays are read-only views, it cannot change, and it compares and hashes by identity."""

    layout: str
    keypoints: np.ndarray
    left_hand: np.ndarray | None = None
    right_hand: np.ndarray | None = None
    timestamp: float = 0.0
    head_orientation: tuple | None = None   # (beta, gamma) Euler, OpenNI only
    left_pixels: tuple | None = None        # (palm, back) counts, OpenNI only
    right_pixels: tuple | None = None

    def __post_init__(self):
        names = _ROW.get(self.layout)
        if names is None:
            raise StructuralError(f"unsupported layout {self.layout!r}")
        for key in _EXTRAS[OPENPOSE_LAYOUT if self.layout == OPENNI_LAYOUT else OPENNI_LAYOUT]:
            if getattr(self, key) is not None:
                raise StructuralError(f"{self.layout} frames carry no {key}")
        object.__setattr__(self, "keypoints", read_only(self.keypoints))
        if self.keypoints.shape != (len(names), 4):
            raise StructuralError(_KEYPOINT_SET.format(self.layout, len(names)))
        for key in ("left_hand", "right_hand"):
            if getattr(self, key) is not None:
                try:
                    hand = read_only(getattr(self, key))
                except (TypeError, ValueError, OverflowError):  # ragged, or not floats
                    hand = np.empty(0)
                # the max of an array that holds a NaN is NaN, which fails the bound
                if not (hand.shape == (21, 3) and abs(hand).max() <= MAX_COORD):
                    raise StructuralError("hand keypoint sets must be 21 x 3 finite values, "
                                          f"each at most {MAX_COORD:.3g} in magnitude")
                object.__setattr__(self, key, hand)
        # a comparison is False for NaN, so the bounds refuse non-finite values too; a
        # confidence need only be finite, so its bound is the largest float
        within = (abs(self.keypoints) <= _KEYPOINT_BOUND).all(axis=1)
        if not within.all():
            raise StructuralError(f"keypoint {list(names)[within.argmin()]} must be finite, "
                                  f"with coordinates at most {MAX_COORD:.3g} in magnitude")
        for key in _EXTRAS[OPENNI_LAYOUT]:     # the pairs
            if getattr(self, key) is not None:
                try:
                    pair = tuple(map(float, getattr(self, key)))
                except (TypeError, ValueError, OverflowError):  # not numbers: fails the length
                    pair = ()
                object.__setattr__(self, key, pair)
                if len(pair) != 2 or not all(map(math.isfinite, pair)):
                    raise StructuralError(f"{key} must be 2 finite numbers")
                if key.endswith("pixels") and min(pair) < 0:
                    raise StructuralError(f"{key} must be non-negative counts")
        if not math.isfinite(self.timestamp):
            raise StructuralError("timestamp must be finite")

    def point(self, name):
        """The keypoint's (x, y, z) floats; StructuralError below ``CONFIDENCE_THRESHOLD``."""
        return _one(_point, self.keypoints, self.layout, name)


def range_conv(x, src, dst):
    """Clamped affine map from the source interval onto the target interval, of a value
    or of each entry of an array; monotone on [src_min, src_max], endpoints to endpoints."""
    (s0, s1), (d0, d1) = src, dst
    if not s1 > s0:
        raise StructuralError("source interval must be non-empty")
    t = (np.clip(x, s0, s1) - s0) / (s1 - s0)
    return d0 + t * (d1 - d0)


# The mappers take one frame or T of them: a 3-vector is 3 rows of a value or of T, and
# a check is an (error type, message, mask of the frames that pass) triple. A dot product
# is a0*b0 + a1*b1 + a2*b2 in that order, so each entry rounds as that sum of Python
# floats would on any BLAS or SIMD kernel; inverse trig is ``math``'s, per entry, since
# numpy's SIMD loops round otherwise on some hosts.
def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(v):
    return np.sqrt(_dot(v, v))


def _cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _math(fn, *columns):
    return np.asarray(np.frompyfunc(fn, len(columns), 1)(*columns), dtype=float)


def _unit(v, what, checks):
    norm = _norm(v)
    checks.append((DegenerateGeometryError, f"zero-length {what} vector", norm >= 1e-12))
    return v / norm


def _point(kp, layout, name, checks):
    """Keypoint ``name`` of a frame's K x 4 keypoints, or of T frames' K x 4 x T."""
    point = kp[_ROW[layout][name]]
    checks.append((StructuralError, f"keypoint {name} below confidence threshold",
                   point[3] >= CONFIDENCE_THRESHOLD))
    return point[:3]


def _passed(checks):
    return np.logical_and.reduce([ok for _, _, ok in checks])


def _one(kernel, *args):
    """``kernel`` on one frame: its values as floats, or its first failed check's error."""
    checks = []
    with np.errstate(divide="ignore", invalid="ignore"):
        out = kernel(*args, checks)
    for error, message, ok in checks:
        if not ok:
            raise error(message)
    return tuple(map(float, out))


def _head_openni(beta, neck, head, checks):
    x, y, z = hn = np.subtract(head, neck)
    checks.append((DegenerateGeometryError, "head and neck keypoints coincide", _norm(hn) >= 1e-12))
    c, s = math.cos(-math.pi / 2), math.sin(-math.pi / 2)
    return beta, _math(math.atan2, -x * s + z * c, y)   # hn turned -pi/2 about y


def map_head_openni(head_orientation, neck, head):
    """Raw (unclamped) head yaw/pitch from OpenNI tracker output: yaw is beta of the
    tracker's (beta, gamma) Euler angles ``head_orientation``, and pitch the arctangent
    of the head-neck vector after a -pi/2 rotation about the vertical axis."""
    return _one(_head_openni, head_orientation[0], neck, head)


def _head_openpose(nose, neck, limits, checks):
    nn = np.subtract(nose, neck)
    norm = _norm(nn)
    checks.append((DegenerateGeometryError, "nose and neck keypoints coincide", norm >= 1e-12))
    yaw = range_conv(-_math(math.asin, np.clip(nn[0] / norm, -1.0, 1.0)), HEAD_YAW_SRC, limits[0])
    return yaw, range_conv(norm, HEAD_PITCH_SRC, limits[1])


def map_head_openpose(nose, neck, profile):
    """Head yaw/pitch from the nose-neck vector: pitch from its length, yaw from its
    angle to the vertical axis, both pushed through :func:`range_conv` onto the
    robot's head ranges."""
    return _one(_head_openpose, nose, neck, profile.joint_limits)


def _spread(hand, a, b):
    hand = np.asarray(hand, dtype=float)
    return _norm((hand[..., a, :] - hand[..., b, :]).T)


def map_hand_yaw_openpose(hand, dst):
    """Wrist yaw from the thumb-pinky fingertip distance, mapped from ``HAND_YAW_SRC``
    onto that wrist's ``(lo, hi)`` limits ``dst``; per hand of a T x 21 x 3 block."""
    return range_conv(_spread(hand, HAND_THUMB_TIP, HAND_PINKY_TIP), HAND_YAW_SRC, dst)


def map_hand_opening_openpose(hand):
    """Finger opening in [0, 1] from the wrist-to-middle-fingertip distance; per
    hand of a T x 21 x 3 block."""
    return range_conv(_spread(hand, HAND_MIDDLE_TIP, HAND_WRIST), HAND_OPEN_SRC, (0.0, 1.0))


def _hand_yaw_openni(palm, back, checks):
    checks.append((StructuralError, "pixel counts must be non-negative", (palm >= 0) & (back >= 0)))
    checks.append((UnknownOrientationError, "no glove pixels visible", (palm != 0) | (back != 0)))
    yaw = np.where(palm >= back, palm, back - N_PIXELS) / N_PIXELS * MAX_WRIST_YAW
    return (np.clip(yaw, -MAX_WRIST_YAW, MAX_WRIST_YAW),)


def map_hand_yaw_openni(palm_pixels, back_pixels):
    """Wrist yaw from glove pixel counts (palm vs back dominance)."""
    return _one(_hand_yaw_openni, palm_pixels, back_pixels)[0]


_ARM_JOINTS = tuple(n for n in JOINT_INDEX if "Shoulder" in n or "Elbow" in n)  # in pose order


def _arm_angles(kp, layout, checks):
    hip_ref, wrist = ("Torso", "Hand") if layout == OPENNI_LAYOUT else ("MidHip", "Wrist")
    neck = _point(kp, layout, "Neck", checks)
    lsh, rsh = _point(kp, layout, "LShoulder", checks), _point(kp, layout, "RShoulder", checks)
    down = _unit(_point(kp, layout, hip_ref, checks) - neck, "torso", checks)
    lat_left = _unit(lsh - rsh, "shoulder line", checks)
    fwd = _unit(_cross(lat_left, down), "forward axis", checks)
    out = []
    for side, prefix, sign, sh, lat in (("left", "L", -1.0, lsh, lat_left),
                                        ("right", "R", 1.0, rsh, -lat_left)):
        el = _point(kp, layout, prefix + "Elbow", checks)
        f = _point(kp, layout, prefix + wrist, checks) - el
        uh = _unit(el - sh, f"{side} upper-arm", checks)
        fh = _unit(f, f"{side} forearm", checks)
        along = _dot(uh, lat)
        roll = math.pi / 2 - _math(math.acos, np.clip(along, -1.0, 1.0))
        u_sag = uh - along * lat
        norm = _norm(u_sag)
        u_sag = u_sag / norm
        # an upper arm along the lateral axis has no sagittal part: pitch 0
        pitch = np.where(norm < 1e-9, 0.0,
                         _math(math.atan2, _dot(u_sag, fwd), _dot(u_sag, down)))
        elbow_roll = sign * _math(math.acos, np.clip(_dot(uh, fh), -1.0, 1.0))
        ref = down - _dot(down, uh) * uh
        # an upper arm along torso-down measures yaw from forward instead
        ref = np.where(_norm(ref) < 1e-9, fwd - _dot(fwd, uh) * uh, ref)
        e2 = _unit(ref, "elbow reference", checks)
        e3 = _cross(uh, e2)
        f_perp = f - _dot(f, uh) * uh
        # forearm along upper arm: yaw undefined, hold zero
        elbow_yaw = np.where(_norm(f_perp) < 1e-9, 0.0,
                             _math(math.atan2, _dot(f_perp, e3), _dot(f_perp, e2)))
        # outward abduction is positive on the left, negative on the right
        out += [pitch, roll if side == "left" else -roll, elbow_yaw, elbow_roll]
    return out


def arm_angles(frame):
    """Raw (unclamped) shoulder pitch/roll and elbow yaw/roll for both arms, as a dict
    keyed by joint name. Raises DegenerateGeometryError on zero-length limb vectors and
    StructuralError when a required keypoint is below ``CONFIDENCE_THRESHOLD``."""
    return dict(zip(_ARM_JOINTS, _one(_arm_angles, frame.keypoints, frame.layout)))


class StreamMapper:
    """Maps a sequence of skeleton frames to validated poses. Holds the last pose as
    one 14-value array (joints missing from a frame keep their held value) and the
    seeded generator behind OpenNI's random finger openings. Frames must be fed in
    stream order; each layout stream gets its own mapper."""

    def __init__(self, profile=None, seed=0):
        self.profile = profile or RobotProfile.default()
        self.rng = philox(seed)
        self._values = self.profile.limits_array().mean(axis=1)

    def map_frames(self, frames):
        """The (T, 14) poses of ``frames``, all of one layout, and each one's clamp count.
        Each joint group is computed for all T frames at once, and its fresh values are
        clamped once, by :func:`validate_pose`; where it cannot be computed it holds."""
        layouts = {frame.layout for frame in frames}
        if len(layouts) != 1:
            raise StructuralError(f"frames must share one layout, got {sorted(layouts)}")
        raw = np.empty((len(frames), len(self._values)))
        fresh = np.zeros(raw.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for names, columns, ok in self._groups(frames, layouts.pop()):
                for name, column in zip(names, columns):
                    raw[:, JOINT_INDEX[name]], fresh[:, JOINT_INDEX[name]] = column, ok
        clamped, n_clamped = validate_pose(np.where(fresh, raw, self._values), self.profile)
        # each entry takes the clamped value of the last frame where it was fresh
        last = np.maximum.accumulate(np.where(fresh, np.arange(len(frames))[:, None], -1))
        values = np.where(last >= 0, np.take_along_axis(clamped, last, axis=0), self._values)
        self._values = values[-1].copy()
        return values, n_clamped

    def map_frame(self, frame):
        values, n_clamped = self.map_frames([frame])
        return Pose(values=values[0], n_clamped=int(n_clamped[0]))

    def _groups(self, frames, layout):
        """Each joint group as (joint names, T-value columns, mask of the fresh frames)."""
        kp = np.stack([frame.keypoints for frame in frames], axis=-1)   # K x 4 x T
        limits, arms, head = self.profile.joint_limits, [], []   # the two groups' checks
        yield _ARM_JOINTS, _arm_angles(kp, layout, arms), _passed(arms)
        if layout == OPENPOSE_LAYOUT:
            nose, neck = (_point(kp, layout, name, head) for name in ("Nose", "Neck"))
            yield ("HeadYaw", "HeadPitch"), _head_openpose(nose, neck, limits, head), _passed(head)
            for prefix, key in (("L", "left_hand"), ("R", "right_hand")):
                hands = np.stack([_NO_HAND if hand is None else hand
                                  for hand in (getattr(frame, key) for frame in frames)])
                yaw = map_hand_yaw_openpose(hands, limits[JOINT_INDEX[prefix + "WristYaw"]])
                # thumb and pinky tips that coincide in the image hold that hand too
                dx, dy = (hands[:, HAND_PINKY_TIP, :2] - hands[:, HAND_THUMB_TIP, :2]).T
                yield ((prefix + "WristYaw", prefix + "HandOpen"),
                       (yaw, map_hand_opening_openpose(hands)), np.sqrt(dx * dx + dy * dy) >= 1e-12)
            return
        beta = np.array([np.nan if frame.head_orientation is None else frame.head_orientation[0]
                         for frame in frames])   # NaN where missing, which holds the head
        neck, top = (_point(kp, layout, name, head) for name in ("Neck", "Head"))
        yield (("HeadYaw", "HeadPitch"), _head_openni(beta, neck, top, head),
               _passed(head) & ~np.isnan(beta))
        # fingers are untracked: randomized per frame, seeded, left then right
        fingers = self.rng.uniform(0.0, 1.0, size=(len(frames), 2))
        for side, (prefix, key) in enumerate((("L", "left_pixels"), ("R", "right_pixels"))):
            # absent counts read as (0, 0), which hold the wrist yaw as no pixels seen do
            palm, back = np.array([getattr(frame, key) or (0.0, 0.0) for frame in frames]).T
            pixels = []
            yield (prefix + "WristYaw",), _hand_yaw_openni(palm, back, pixels), _passed(pixels)
            yield (prefix + "HandOpen",), (fingers[:, side],), np.full(len(frames), True)


def map_capture(frames, profile=None, seed=0):
    """The :class:`PoseStream` of capture frames, as from :func:`load_skeleton_frames`,
    mapped by one :meth:`StreamMapper.map_frames` call. Its rate is the mean frame
    rate, ``(len(frames) - 1) / (last timestamp - first)``, and 1 Hz for a single
    frame; no frames, or frames of more than one layout, raise ``StructuralError``."""
    if not frames:
        raise StructuralError("no frames in input")
    timestamps = [f.timestamp for f in frames]
    if not all(a < b for a, b in zip(timestamps, timestamps[1:])):
        raise StructuralError("frame timestamps must be strictly increasing")
    values, _ = StreamMapper(profile, seed).map_frames(frames)
    rate = (len(frames) - 1) / (timestamps[-1] - timestamps[0]) if len(frames) > 1 else 1.0
    return PoseStream(values=values, timestamps=timestamps, native_rate_hz=rate)


def _frame_from_record(rec, line, layout):
    """One validated frame of ``layout``; every malformed field is a ParseError naming ``line``."""
    if not isinstance(rec, dict):
        raise ParseError("skeleton record must be a JSON object", line)
    try:
        if rec["layout"] != layout:
            raise ParseError(f"frame layout {rec['layout']!r} does not match {layout!r}", line)
        body = rec["body"]
        if not isinstance(body, dict):
            raise ParseError("body must be a JSON object", line)
        if "timestamp" not in rec:
            raise ParseError("skeleton record has no timestamp", line)
        names = _ROW[layout]
        if body.keys() != names.keys():
            raise StructuralError(_KEYPOINT_SET.format(layout, len(names)))
        rows = []   # in layout order
        for name in names:
            coords = body[name]
            if not isinstance(coords, list) or not 3 <= len(coords) <= 4:
                raise ParseError(f"keypoint {name} must be a list of 3 or 4 numbers", line)
            rows.append(coords if len(coords) == 4 else [*coords, 1.0])
        kw = {key: rec.get(key) for key in chain.from_iterable(_EXTRAS.values())}
        numbers = [*rows, [rec["timestamp"]]]
        for key in _EXTRAS[layout]:     # a pair is one row, a hand adds its rows
            if kw[key] is not None:
                if not isinstance(kw[key], list):
                    raise ParseError(f"{key} must be a JSON array", line)
                numbers += kw[key] if layout == OPENPOSE_LAYOUT else [kw[key]]
        json_numbers(numbers, "capture values must be JSON numbers", line)
        # SkeletonFrame refuses the other layout's fields, checks pairs, hands and bounds
        return SkeletonFrame(layout=layout, keypoints=np.array(rows, dtype=float),
                             timestamp=float(rec["timestamp"]), **kw)
    except (KeyError, TypeError, ValueError, OverflowError, StructuralError) as exc:
        raise ParseError(f"bad skeleton record: {exc}", line) from exc


def load_skeleton_frames(path, layout):
    """Read line-delimited JSON skeleton records (one frame per line, increasing
    timestamps); a record whose layout is not ``layout`` is a ParseError."""
    frames = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            frame = _frame_from_record(parse_json(line, "invalid JSON", lineno), lineno, layout)
            if frames and not frame.timestamp > frames[-1].timestamp:
                raise ParseError("frame timestamps must be strictly increasing", lineno)
            frames.append(frame)
    return frames
