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

_HEAD = slice(JOINT_INDEX["HeadYaw"], JOINT_INDEX["HeadPitch"] + 1)
# the row of each keypoint name in a frame's keypoints array, per layout
_ROW = {OPENNI_LAYOUT: {name: i for i, name in enumerate(OPENNI_KEYPOINTS)},
        OPENPOSE_LAYOUT: {name: i for i, name in enumerate(OPENPOSE_KEYPOINTS)}}
_KEYPOINT_SET = "{} frame must carry exactly the {} body keypoints"
_KEYPOINT_BOUND = np.array([MAX_COORD, MAX_COORD, MAX_COORD, np.finfo(float).max])
_EXTRAS = {OPENNI_LAYOUT: ("head_orientation", "left_pixels", "right_pixels"),
           OPENPOSE_LAYOUT: ("left_hand", "right_hand")}   # the fields each mapper reads


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
        x, y, z, confidence = self.keypoints[_ROW[self.layout][name]].tolist()
        if confidence < CONFIDENCE_THRESHOLD:
            raise StructuralError(f"keypoint {name} below confidence threshold")
        return x, y, z


def range_conv(x, src, dst):
    """Clamped affine map from the source interval onto the target interval.

    Monotone on [src_min, src_max]; endpoints map to endpoints.
    """
    s0, s1 = src
    d0, d1 = dst
    if not s1 > s0:
        raise StructuralError("source interval must be non-empty")
    t = (min(max(x, s0), s1) - s0) / (s1 - s0)
    return d0 + t * (d1 - d0)


# 3-vectors are float triples and a dot product is a0*b0 + a1*b1 + a2*b2 in
# that order, so no result depends on which BLAS kernel the host selects.
def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(v):
    return math.sqrt(_dot(v, v))


def _minus_scaled(v, d, axis):
    return (v[0] - d * axis[0], v[1] - d * axis[1], v[2] - d * axis[2])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _unit(v, what):
    norm = _norm(v)
    if norm < 1e-12:
        raise DegenerateGeometryError(f"zero-length {what} vector")
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def _rotate_about_vertical(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = v
    return (x * c + z * s, y, -x * s + z * c)


def map_head_openni(head_orientation, neck, head):
    """Raw (unclamped) head yaw/pitch from OpenNI tracker output.

    ``head_orientation`` carries the tracker's (beta, gamma) Euler angles.
    Yaw is beta; gamma is unused. Pitch is the arctangent of the head-neck
    vector after a -pi/2 rotation about the vertical axis.
    """
    beta, _ = head_orientation
    hn = _sub(head, neck)
    if _norm(hn) < 1e-12:
        raise DegenerateGeometryError("head and neck keypoints coincide")
    r = _rotate_about_vertical(hn, -math.pi / 2)
    return float(beta), math.atan2(r[2], r[1])


def map_head_openpose(nose, neck, profile):
    """Head yaw/pitch from the nose-neck vector.

    Pitch is proportional to the nose-neck distance; yaw comes from the
    angle between the nose-neck vector and the vertical axis, both pushed
    through :func:`range_conv` onto the robot's head ranges.
    """
    nn = _sub(nose, neck)
    norm = _norm(nn)
    if norm < 1e-12:
        raise DegenerateGeometryError("nose and neck keypoints coincide")
    limits = profile.joint_limits
    pitch = range_conv(norm, HEAD_PITCH_SRC, limits[1])
    yaw_angle = -math.asin(min(max(nn[0] / norm, -1.0), 1.0))
    yaw = range_conv(yaw_angle, HEAD_YAW_SRC, limits[0])
    return float(yaw), float(pitch)


def map_hand_yaw_openpose(hand, dst):
    """Wrist yaw from the thumb-pinky fingertip distance, mapped from
    ``HAND_YAW_SRC`` onto that wrist's ``(lo, hi)`` limits ``dst``."""
    d = _norm(_sub(hand[HAND_THUMB_TIP], hand[HAND_PINKY_TIP]))
    return float(range_conv(d, HAND_YAW_SRC, dst))


def map_hand_opening_openpose(hand):
    """Finger opening in [0, 1] from the wrist-to-middle-fingertip distance."""
    d = _norm(_sub(hand[HAND_MIDDLE_TIP], hand[HAND_WRIST]))
    return float(range_conv(d, HAND_OPEN_SRC, (0.0, 1.0)))


def map_hand_yaw_openni(palm_pixels, back_pixels):
    """Wrist yaw from glove pixel counts (palm vs back dominance)."""
    if palm_pixels < 0 or back_pixels < 0:
        raise StructuralError("pixel counts must be non-negative")
    if palm_pixels == 0 and back_pixels == 0:
        raise UnknownOrientationError("no glove pixels visible")
    biggest = max(palm_pixels, back_pixels)
    if palm_pixels >= back_pixels:
        yaw = biggest / N_PIXELS * MAX_WRIST_YAW
    else:
        yaw = (biggest - N_PIXELS) / N_PIXELS * MAX_WRIST_YAW
    return float(min(max(yaw, -MAX_WRIST_YAW), MAX_WRIST_YAW))


def arm_angles(frame):
    """Raw (unclamped) shoulder pitch/roll and elbow yaw/roll for both arms.

    Returns a dict keyed by joint name covering the 8 arm joints. Raises
    DegenerateGeometryError on zero-length limb vectors and StructuralError
    when a required keypoint is below ``CONFIDENCE_THRESHOLD``.
    """
    hip_ref, wrist = ("Torso", "Hand") if frame.layout == OPENNI_LAYOUT else ("MidHip", "Wrist")
    neck = frame.point("Neck")
    lsh, rsh = frame.point("LShoulder"), frame.point("RShoulder")
    down = _unit(_sub(frame.point(hip_ref), neck), "torso")
    lat_left = _unit(_sub(lsh, rsh), "shoulder line")
    fwd = _unit(_cross(lat_left, down), "forward axis")

    out = {}
    for side, prefix, sign, sh, lat in (
            ("left", "L", -1.0, lsh, lat_left),
            ("right", "R", 1.0, rsh, (-lat_left[0], -lat_left[1], -lat_left[2]))):
        el = frame.point(prefix + "Elbow")
        wr = frame.point(prefix + wrist)
        u = _sub(el, sh)
        f = _sub(wr, el)
        uh = _unit(u, f"{side} upper-arm")
        fh = _unit(f, f"{side} forearm")

        along = _dot(uh, lat)
        roll = math.pi / 2 - math.acos(min(max(along, -1.0), 1.0))
        u_sag = _minus_scaled(uh, along, lat)
        norm = _norm(u_sag)
        if norm < 1e-9:
            pitch = 0.0
        else:
            u_sag = (u_sag[0] / norm, u_sag[1] / norm, u_sag[2] / norm)
            pitch = math.atan2(_dot(u_sag, fwd), _dot(u_sag, down))
        elbow_roll = sign * math.acos(min(max(_dot(uh, fh), -1.0), 1.0))

        ref = _minus_scaled(down, _dot(down, uh), uh)
        if _norm(ref) < 1e-9:
            ref = _minus_scaled(fwd, _dot(fwd, uh), uh)
        e2 = _unit(ref, "elbow reference")
        e3 = _cross(uh, e2)
        f_perp = _minus_scaled(f, _dot(f, uh), uh)
        if _norm(f_perp) < 1e-9:
            elbow_yaw = 0.0  # forearm along upper arm: yaw undefined, hold zero
        else:
            elbow_yaw = math.atan2(_dot(f_perp, e3), _dot(f_perp, e2))

        out[prefix + "ShoulderPitch"] = float(pitch)
        # outward abduction is positive on the left, negative on the right
        out[prefix + "ShoulderRoll"] = float(roll if side == "left" else -roll)
        out[prefix + "ElbowYaw"] = float(elbow_yaw)
        out[prefix + "ElbowRoll"] = float(elbow_roll)
    return out


class StreamMapper:
    """Maps a sequence of skeleton frames to validated poses.

    Holds the last pose as one 14-value array (joints missing from a frame
    keep their held value) and the seeded generator behind OpenNI's random
    finger openings. Every frame's raw angles are clamped once, by
    :func:`validate_pose`. Frames must be fed in stream order; each layout
    stream gets its own mapper.
    """

    def __init__(self, profile=None, seed=0):
        self.profile = profile or RobotProfile.default()
        self.rng = philox(seed)
        self._values = self.profile.limits_array().mean(axis=1)

    def map_frame(self, frame):
        values = self._values.tolist()
        try:
            for name, angle in arm_angles(frame).items():
                values[JOINT_INDEX[name]] = angle
        except (StructuralError, DegenerateGeometryError):
            pass  # hold previous arm values

        if frame.layout == OPENNI_LAYOUT:
            self._map_openni_extras(frame, values)
        else:
            self._map_openpose_extras(frame, values)

        self._values, n_clamped = validate_pose(values, self.profile)
        return Pose(values=self._values.copy(), n_clamped=int(n_clamped))

    def _map_openni_extras(self, frame, values):
        if frame.head_orientation is not None:
            try:
                values[_HEAD] = map_head_openni(frame.head_orientation, frame.point("Neck"),
                                                frame.point("Head"))
            except (StructuralError, DegenerateGeometryError):
                pass  # hold previous head values
        for prefix, pixels in (("L", frame.left_pixels), ("R", frame.right_pixels)):
            if pixels is not None:
                try:
                    values[JOINT_INDEX[prefix + "WristYaw"]] = map_hand_yaw_openni(*pixels)
                except UnknownOrientationError:
                    pass  # keep previous wrist yaw
            # fingers are untracked: randomized per frame, seeded
            values[JOINT_INDEX[prefix + "HandOpen"]] = self.rng.uniform(0.0, 1.0)

    def _map_openpose_extras(self, frame, values):
        try:
            values[_HEAD] = map_head_openpose(frame.point("Nose"), frame.point("Neck"),
                                              self.profile)
        except (StructuralError, DegenerateGeometryError):
            pass  # hold previous head values
        for prefix, hand in (("L", frame.left_hand), ("R", frame.right_hand)):
            if hand is None:
                continue  # hold previous hand values
            hand = hand.tolist()
            (tx, ty, _), (px, py, _) = hand[HAND_THUMB_TIP], hand[HAND_PINKY_TIP]
            if math.sqrt((px - tx) * (px - tx) + (py - ty) * (py - ty)) < 1e-12:
                continue  # thumb and pinky tips coincide in the image: hold this hand
            wrist = JOINT_INDEX[prefix + "WristYaw"]
            values[wrist] = map_hand_yaw_openpose(hand, self.profile.joint_limits[wrist])
            values[JOINT_INDEX[prefix + "HandOpen"]] = map_hand_opening_openpose(hand)


def map_capture(frames, profile=None, seed=0):
    """The :class:`PoseStream` of capture frames, as from :func:`load_skeleton_frames`,
    mapped in order by one :class:`StreamMapper`. Its rate is the mean frame rate,
    ``(len(frames) - 1) / (last timestamp - first)``, and 1 Hz for a single frame;
    no frames raise ``StructuralError``."""
    if not frames:
        raise StructuralError("no frames in input")
    timestamps = [f.timestamp for f in frames]
    if not all(a < b for a, b in zip(timestamps, timestamps[1:])):
        raise StructuralError("frame timestamps must be strictly increasing")
    mapper = StreamMapper(profile, seed)
    values = np.array([mapper.map_frame(frame).values for frame in frames])
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
