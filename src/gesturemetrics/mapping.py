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

import numpy as np

from .errors import (DegenerateGeometryError, ParseError, StructuralError,
                     UnknownOrientationError, json_numbers, parse_json)
from .model import JOINT_INDEX, RobotProfile, philox, read_only, validate_pose
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
_SHAPE = {"left_hand": (21, 3), "right_hand": (21, 3),   # each optional field's shape in a frame
          "head_orientation": (2,), "left_pixels": (2,), "right_pixels": (2,)}
_RULE = {key: f"hand keypoint sets must be 21 x 3 finite values, each at most {MAX_COORD:.3g} "
              "in magnitude" if key.endswith("hand") else f"{key} must be 2 finite numbers"
         for key in _SHAPE}
_INCREASING = "frame timestamps must be strictly increasing"


@dataclass(frozen=True, eq=False)
class Capture:
    """T timestamped frames of one layout as read-only float arrays: ``timestamps`` (T,
    strictly increasing), ``keypoints`` (T x K x 4, a frame's (x, y, z, confidence) rows in
    ``OPENNI_KEYPOINTS`` or ``OPENPOSE_KEYPOINTS`` order) and the layout's optional fields
    (``_EXTRAS``) under their record names: hands T x 21 x 3, pairs T x 2, NaN throughout in
    a frame that lacks them; the other layout's stay None. Values must be finite, coordinates
    at most ``MAX_COORD`` in magnitude, pixel counts non-negative: else ``StructuralError``,
    whose ``frame`` is the first failing frame (a wrong shape has none). It cannot change,
    and it compares and hashes by identity."""

    layout: str
    timestamps: np.ndarray
    keypoints: np.ndarray
    left_hand: np.ndarray | None = None
    right_hand: np.ndarray | None = None
    head_orientation: np.ndarray | None = None   # (beta, gamma) Euler, OpenNI only
    left_pixels: np.ndarray | None = None        # (palm, back) counts, OpenNI only
    right_pixels: np.ndarray | None = None

    def __post_init__(self):
        names = _ROW.get(self.layout)
        if names is None:
            raise StructuralError(f"unsupported layout {self.layout!r}")
        _refuse_foreign(self.layout, vars(self))
        object.__setattr__(self, "keypoints", read_only(self.keypoints))
        if self.keypoints.ndim != 3 or self.keypoints.shape[1:] != (len(names), 4):
            raise StructuralError(_KEYPOINT_SET.format(self.layout, len(names)))
        object.__setattr__(self, "timestamps", read_only(self.timestamps))
        if self.timestamps.shape != self.keypoints.shape[:1]:
            raise StructuralError("a capture needs one timestamp per frame")
        if not len(self):
            raise StructuralError("no frames in input")
        # a comparison is False for NaN, so the bounds refuse non-finite values too; a
        # confidence need only be finite, so its bound is the largest float
        within = (abs(self.keypoints) <= _KEYPOINT_BOUND).all(axis=2)
        bad = list(names)[within[within.all(axis=1).argmin()].argmin()]
        rules = [(within.all(axis=1), f"keypoint {bad} must be finite, with coordinates at "
                                      f"most {MAX_COORD:.3g} in magnitude")]
        for key in _EXTRAS[self.layout]:
            shape = (len(self), *_SHAPE[key])
            try:
                field = getattr(self, key)
                field = read_only(np.full(shape, np.nan) if field is None else field)
            except (TypeError, ValueError, OverflowError):  # ragged, or not floats
                field = np.empty(0)
            if field.shape != shape:
                raise StructuralError(_RULE[key])
            object.__setattr__(self, key, field)
            field = field.reshape(len(self), -1)
            absent = np.isnan(field).all(axis=1)
            ok = abs(field) <= MAX_COORD if key.endswith("hand") else np.isfinite(field)
            # a frame's hands are checked before its keypoints, its pairs after them
            rules.insert(len(rules) - key.endswith("hand"), (absent | ok.all(axis=1), _RULE[key]))
            if key.endswith("pixels"):
                rules.append((absent | (field >= 0).all(axis=1),
                              f"{key} must be non-negative counts"))
        rules += [(np.isfinite(self.timestamps), "timestamp must be finite"),
                  (np.r_[True, self.timestamps[1:] > self.timestamps[:-1]], _INCREASING)]
        passed = np.array([ok for ok, _ in rules])   # rules x frames
        if not passed.all():   # the first failing frame, and the first rule it fails
            frame = passed.all(axis=0).argmin()
            error = StructuralError(rules[passed[:, frame].argmin()][1])
            error.frame = int(frame)
            raise error

    def __len__(self):
        return len(self.timestamps)


def _refuse_foreign(layout, fields):
    """Refuse the first optional field of the other layout that ``fields`` sets."""
    for key in _SHAPE:
        if key not in _EXTRAS[layout] and fields.get(key) is not None:
            raise StructuralError(f"{layout} frames carry no {key}")


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


def arm_angles(keypoints, layout):
    """Raw (unclamped) shoulder pitch/roll and elbow yaw/roll for both arms of one frame's
    K x 4 ``keypoints`` of ``layout``, as a dict keyed by joint name. Raises
    DegenerateGeometryError on zero-length limb vectors and StructuralError when a
    required keypoint is below ``CONFIDENCE_THRESHOLD``."""
    return dict(zip(_ARM_JOINTS, _one(_arm_angles, np.asarray(keypoints, dtype=float), layout)))


class StreamMapper:
    """Maps captures to validated poses. Holds the last pose as one 14-value array (joints
    missing from a frame keep their held value) and the seeded generator behind OpenNI's
    random finger openings. Feed captures in stream order, one mapper per layout stream."""

    def __init__(self, profile=None, seed=0):
        self.profile = profile or RobotProfile.default()
        self.rng = philox(seed)
        self._values = self.profile.limits_array().mean(axis=1)

    def map_frames(self, capture):
        """The (T, 14) poses of a :class:`Capture`'s frames, and each one's clamp count.
        Each joint group is computed for all T frames at once, and its fresh values are
        clamped once, by :func:`validate_pose`; where it cannot be computed it holds."""
        raw = np.empty((len(capture), len(self._values)))
        fresh = np.zeros(raw.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for names, columns, ok in self._groups(capture):
                for name, column in zip(names, columns):
                    raw[:, JOINT_INDEX[name]], fresh[:, JOINT_INDEX[name]] = column, ok
        clamped, n_clamped = validate_pose(np.where(fresh, raw, self._values), self.profile)
        # each entry takes the clamped value of the last frame where it was fresh
        last = np.maximum.accumulate(np.where(fresh, np.arange(len(capture))[:, None], -1))
        values = np.where(last >= 0, np.take_along_axis(clamped, last, axis=0), self._values)
        self._values = values[-1].copy()
        return values, n_clamped

    # a second name, kept because perfbench's spans.METHODS patches it
    map_frame = map_frames

    def _groups(self, capture):
        """Each joint group as (joint names, T-value columns, mask of the fresh frames).
        A field that a frame lacks is NaN there, which fails the group's checks: it holds."""
        layout, kp = capture.layout, capture.keypoints.transpose(1, 2, 0)   # K x 4 x T
        limits, arms, head = self.profile.joint_limits, [], []   # the two groups' checks
        yield _ARM_JOINTS, _arm_angles(kp, layout, arms), _passed(arms)
        if layout == OPENPOSE_LAYOUT:
            nose, neck = (_point(kp, layout, name, head) for name in ("Nose", "Neck"))
            yield ("HeadYaw", "HeadPitch"), _head_openpose(nose, neck, limits, head), _passed(head)
            for prefix, hands in (("L", capture.left_hand), ("R", capture.right_hand)):
                yaw = map_hand_yaw_openpose(hands, limits[JOINT_INDEX[prefix + "WristYaw"]])
                # thumb and pinky tips that coincide in the image hold that hand too
                dx, dy = (hands[:, HAND_PINKY_TIP, :2] - hands[:, HAND_THUMB_TIP, :2]).T
                yield ((prefix + "WristYaw", prefix + "HandOpen"),
                       (yaw, map_hand_opening_openpose(hands)), np.sqrt(dx * dx + dy * dy) >= 1e-12)
            return
        beta = capture.head_orientation[:, 0]
        neck, top = (_point(kp, layout, name, head) for name in ("Neck", "Head"))
        yield (("HeadYaw", "HeadPitch"), _head_openni(beta, neck, top, head),
               _passed(head) & ~np.isnan(beta))
        # fingers are untracked: randomized per frame, seeded, left then right
        fingers = self.rng.uniform(0.0, 1.0, size=(len(capture), 2))
        for side, (prefix, key) in enumerate((("L", "left_pixels"), ("R", "right_pixels"))):
            palm, back = getattr(capture, key).T   # NaN fails the non-negative check
            pixels = []
            yield (prefix + "WristYaw",), _hand_yaw_openni(palm, back, pixels), _passed(pixels)
            yield (prefix + "HandOpen",), (fingers[:, side],), np.full(len(capture), True)


def map_capture(capture, profile=None, seed=0):
    """The :class:`PoseStream` of a :class:`Capture`, as from :func:`load_skeleton_frames`,
    mapped by one :meth:`StreamMapper.map_frames` call. Its rate is the mean frame rate,
    ``(len(capture) - 1) / (last timestamp - first)``, and 1 Hz for a single frame."""
    values, _ = StreamMapper(profile, seed).map_frames(capture)
    first, last = capture.timestamps[[0, -1]].tolist()   # floats: their span may overflow
    rate = (len(capture) - 1) / (last - first) if len(capture) > 1 else 1.0
    return PoseStream(values=values, timestamps=capture.timestamps, native_rate_hz=rate)


def _read_record(rec, line, layout):
    """One record's K x 4 keypoints, timestamp and present optional fields as floats of the
    right shapes, a present field without NaN (absent); else a ParseError naming ``line``."""
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
        fields = {key: rec[key] for key in _EXTRAS[layout] if rec.get(key) is not None}
        numbers = [*rows, [rec["timestamp"]]]
        for key, field in fields.items():     # a pair is one row, a hand adds its rows
            if not isinstance(field, list):
                raise ParseError(f"{key} must be a JSON array", line)
            numbers += field if key.endswith("hand") else [field]
        json_numbers(numbers, "capture values must be JSON numbers", line)
        _refuse_foreign(layout, rec)
        for key, field in fields.items():
            try:
                fields[key] = field = np.array(field, dtype=float)
            except (ValueError, OverflowError):   # ragged, or beyond the float range
                field = np.empty(0)
            if field.shape != _SHAPE[key] or np.isnan(field).any():
                raise StructuralError(_RULE[key])
        return np.array(rows, dtype=float), float(rec["timestamp"]), fields
    except (KeyError, TypeError, ValueError, OverflowError, StructuralError) as exc:
        raise ParseError(f"bad skeleton record: {exc}", line) from exc


def load_skeleton_frames(path, layout):
    """The :class:`Capture` of a file of JSON skeleton records of ``layout``, one per line. A
    malformed record, or the first frame that fails a capture check, is a ParseError at its line."""
    with open(path, "rb") as fh:   # one (line number, keypoints, timestamp, fields) per record
        records = [(lineno, *_read_record(parse_json(line, "invalid JSON", lineno), lineno, layout))
                   for lineno, line in enumerate(map(bytes.strip, fh), start=1) if line]
    lines, keypoints, timestamps, extras = zip(*records) if records else [()] * 4
    blocks = {key: np.full((len(lines), *_SHAPE[key]), np.nan) for key in _EXTRAS[layout]}
    for frame, fields in enumerate(extras):   # a frame that lacks a field stays NaN there
        for key, field in fields.items():
            blocks[key][frame] = field
    try:
        return Capture(layout, np.array(timestamps),
                       np.array(keypoints).reshape(len(lines), len(_ROW[layout]), 4), **blocks)
    except StructuralError as exc:
        if not hasattr(exc, "frame"):   # no frames
            raise
        # a timestamp out of order is not a bad record but a bad place in the file
        message = str(exc) if str(exc) == _INCREASING else f"bad skeleton record: {exc}"
        raise ParseError(message, lines[exc.frame]) from exc
