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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, ParseError, StructuralError, UnknownOrientationError
from .model import JOINT_NAMES, Pose, RobotProfile, validate_pose

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
HAND_INDEX_TIP = 8
HAND_MIDDLE_TIP = 12
HAND_RING_TIP = 16
HAND_PINKY_TIP = 20

PALM = "palm"
BACK = "back"

# Calibration constants of the retargeting equations. The source ranges are
# capture-side intervals fed to range_conv, not robot properties.
HEAD_PITCH_SRC = (0.10, 0.25)               # nose-neck distance (m)
HEAD_YAW_SRC = (-math.pi / 2, math.pi / 2)  # nose-neck angle from vertical (rad)
HAND_YAW_SRC = (0.05, 0.20)                 # thumb-pinky distance (m)
HAND_OPEN_SRC = (0.05, 0.20)                # wrist-middle distance (m)
N_PIXELS = 1000.0                           # glove pixel normalizer N
MAX_WRIST_YAW = 1.8239
CONFIDENCE_THRESHOLD = 0.1                  # keypoints below it count as missing

# positions in the 14-joint pose vector
_INDEX = {name: i for i, name in enumerate(JOINT_NAMES)}
_HEAD = [_INDEX["HeadYaw"], _INDEX["HeadPitch"]]


@dataclass(frozen=True)
class SkeletonFrame:
    """One timestamped capture frame in either supported layout."""

    layout: str
    body: dict
    left_hand: np.ndarray | None = None
    right_hand: np.ndarray | None = None
    timestamp: float = 0.0
    confidence: dict = field(default_factory=dict)
    head_orientation: tuple | None = None   # (beta, gamma) Euler, OpenNI only
    left_pixels: tuple | None = None        # (palm, back) counts, OpenNI only
    right_pixels: tuple | None = None

    def __post_init__(self):
        if self.layout == OPENNI_LAYOUT:
            if set(self.body) != set(OPENNI_KEYPOINTS):
                raise StructuralError("openni15 frame must carry exactly the 15 OpenNI keypoints")
            if self.left_hand is not None or self.right_hand is not None:
                raise StructuralError("openni15 frames carry no hand keypoints")
        elif self.layout == OPENPOSE_LAYOUT:
            if set(self.body) != set(OPENPOSE_KEYPOINTS):
                raise StructuralError("openpose25 frame must carry exactly the 25 body keypoints")
            for hand in (self.left_hand, self.right_hand):
                if hand is not None and np.asarray(hand).shape != (21, 3):
                    raise StructuralError("hand keypoint sets must be 21 x 3")
        else:
            raise StructuralError(f"unsupported layout {self.layout!r}")

    def point(self, name):
        """Keypoint as array; StructuralError if below ``CONFIDENCE_THRESHOLD``."""
        if self.confidence.get(name, 1.0) < CONFIDENCE_THRESHOLD:
            raise StructuralError(f"keypoint {name} below confidence threshold")
        return np.asarray(self.body[name], dtype=float)


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


def _rotate_about_vertical(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = v
    return np.array([x * c + z * s, y, -x * s + z * c])


def map_head_openni(head_orientation, neck, head):
    """Raw (unclamped) head yaw/pitch from OpenNI tracker output.

    ``head_orientation`` carries the tracker's (beta, gamma) Euler angles.
    Yaw is beta; gamma is unused. Pitch is the arctangent of the head-neck
    vector after a -pi/2 rotation about the vertical axis.
    """
    beta, _ = head_orientation
    hn = np.asarray(head, dtype=float) - np.asarray(neck, dtype=float)
    if np.linalg.norm(hn) < 1e-12:
        raise DegenerateGeometryError("head and neck keypoints coincide")
    r = _rotate_about_vertical(hn, -math.pi / 2)
    return float(beta), float(math.atan2(r[2], r[1]))


def map_head_openpose(nose, neck, profile):
    """Head yaw/pitch from the nose-neck vector.

    Pitch is proportional to the nose-neck distance; yaw comes from the
    angle between the nose-neck vector and the vertical axis, both pushed
    through :func:`range_conv` onto the robot's head ranges.
    """
    nn = np.asarray(nose, dtype=float) - np.asarray(neck, dtype=float)
    norm = np.linalg.norm(nn)
    if norm < 1e-12:
        raise DegenerateGeometryError("nose and neck keypoints coincide")
    limits = profile.limits_array()
    pitch = range_conv(norm, HEAD_PITCH_SRC, tuple(limits[1]))
    yaw_angle = -math.asin(float(np.clip(nn[0] / norm, -1.0, 1.0)))
    yaw = range_conv(yaw_angle, HEAD_YAW_SRC, tuple(limits[0]))
    return float(yaw), float(pitch)


def map_hand_side_openpose(hand, side):
    """Classify whether the palm or the back of the hand faces the camera.

    Fingertips are translated so the thumb tip is the origin and rotated so
    the pinky tip lies on the positive x-axis; the classification then
    counts how many of the index/middle/ring tips sit above that line.
    Invariant under in-plane rotation and uniform scaling.
    """
    hand = np.asarray(hand, dtype=float)
    thumb = hand[HAND_THUMB_TIP, :2]
    pinky = hand[HAND_PINKY_TIP, :2] - thumb
    if np.linalg.norm(pinky) < 1e-12:
        raise DegenerateGeometryError("thumb and pinky fingertips coincide")
    alpha = math.atan2(pinky[1], pinky[0])
    c, s = math.cos(alpha), math.sin(alpha)
    above = 0
    for idx in (HAND_INDEX_TIP, HAND_MIDDLE_TIP, HAND_RING_TIP):
        ox, oy = hand[idx, :2] - thumb
        y_rot = -ox * s + oy * c  # rotation by -alpha
        if y_rot > 0:
            above += 1
    if side == "right":
        return BACK if above >= 2 else PALM
    if side == "left":
        return PALM if above >= 2 else BACK
    raise StructuralError(f"side must be 'left' or 'right', got {side!r}")


def map_hand_yaw_openpose(hand, dst):
    """Wrist yaw from the thumb-pinky fingertip distance, mapped from
    ``HAND_YAW_SRC`` onto that wrist's ``(lo, hi)`` limits ``dst``."""
    hand = np.asarray(hand, dtype=float)
    d = float(np.linalg.norm(hand[HAND_THUMB_TIP] - hand[HAND_PINKY_TIP]))
    return float(range_conv(d, HAND_YAW_SRC, dst))


def map_hand_opening_openpose(hand):
    """Finger opening in [0, 1] from the wrist-to-middle-fingertip distance."""
    hand = np.asarray(hand, dtype=float)
    d = float(np.linalg.norm(hand[HAND_MIDDLE_TIP] - hand[HAND_WRIST]))
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
    return float(np.clip(yaw, -MAX_WRIST_YAW, MAX_WRIST_YAW))


def _cross(a, b):
    """Cross product of two 3-vectors, as np.cross computes it, at under a tenth of its cost."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _unit(v, what):
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DegenerateGeometryError(f"zero-length {what} vector")
    return v / norm


def arm_angles(frame):
    """Raw (unclamped) shoulder pitch/roll and elbow yaw/roll for both arms.

    Returns a dict keyed by joint name covering the 8 arm joints. Raises
    DegenerateGeometryError on zero-length limb vectors and StructuralError
    when a required keypoint is below ``CONFIDENCE_THRESHOLD``.
    """
    if frame.layout == OPENNI_LAYOUT:
        wrist_names = {"left": "LHand", "right": "RHand"}
        hip_ref = "Torso"
    else:
        wrist_names = {"left": "LWrist", "right": "RWrist"}
        hip_ref = "MidHip"

    neck = frame.point("Neck")
    lsh, rsh = frame.point("LShoulder"), frame.point("RShoulder")
    down = _unit(frame.point(hip_ref) - neck, "torso")
    lat_left = _unit(lsh - rsh, "shoulder line")
    fwd = _unit(_cross(lat_left, down), "forward axis")

    out = {}
    for side, prefix, sign, sh, lat in (("left", "L", -1.0, lsh, lat_left),
                                        ("right", "R", 1.0, rsh, -lat_left)):
        el = frame.point(prefix + "Elbow")
        wr = frame.point(wrist_names[side])
        u = el - sh
        f = wr - el
        uh = _unit(u, f"{side} upper-arm")
        fh = _unit(f, f"{side} forearm")

        roll = math.pi / 2 - math.acos(float(np.clip(np.dot(uh, lat), -1.0, 1.0)))
        u_sag = uh - np.dot(uh, lat) * lat
        if np.linalg.norm(u_sag) < 1e-9:
            pitch = 0.0
        else:
            u_sag /= np.linalg.norm(u_sag)
            pitch = math.atan2(float(np.dot(u_sag, fwd)), float(np.dot(u_sag, down)))
        elbow_roll = sign * math.acos(float(np.clip(np.dot(uh, fh), -1.0, 1.0)))

        ref = down - np.dot(down, uh) * uh
        if np.linalg.norm(ref) < 1e-9:
            ref = fwd - np.dot(fwd, uh) * uh
        e2 = _unit(ref, "elbow reference")
        e3 = _cross(uh, e2)
        f_perp = f - np.dot(f, uh) * uh
        if np.linalg.norm(f_perp) < 1e-9:
            elbow_yaw = 0.0  # forearm along upper arm: yaw undefined, hold zero
        else:
            elbow_yaw = math.atan2(float(np.dot(f_perp, e3)), float(np.dot(f_perp, e2)))

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
        self.rng = np.random.Generator(np.random.Philox(seed))
        self._values = self.profile.limits_array().mean(axis=1)

    def map_frame(self, frame):
        values = self._values.copy()
        try:
            for name, angle in arm_angles(frame).items():
                values[_INDEX[name]] = angle
        except (StructuralError, DegenerateGeometryError):
            pass  # hold previous arm values

        if frame.layout == OPENNI_LAYOUT:
            self._map_openni_extras(frame, values)
        else:
            self._map_openpose_extras(frame, values)

        self._values, n_clamped = validate_pose(values, self.profile)
        return Pose(values=self._values.copy(), timestamp=frame.timestamp,
                    n_clamped=int(n_clamped))

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
                    values[_INDEX[prefix + "WristYaw"]] = map_hand_yaw_openni(*pixels)
                except UnknownOrientationError:
                    pass  # keep previous wrist yaw
            # fingers are untracked: randomized per frame, seeded
            values[_INDEX[prefix + "HandOpen"]] = self.rng.uniform(0.0, 1.0)

    def _map_openpose_extras(self, frame, values):
        try:
            values[_HEAD] = map_head_openpose(frame.point("Nose"), frame.point("Neck"),
                                              self.profile)
        except (StructuralError, DegenerateGeometryError):
            pass  # hold previous head values
        for prefix, hand in (("L", frame.left_hand), ("R", frame.right_hand)):
            if hand is None:
                continue  # hold previous hand values
            hand = np.asarray(hand, dtype=float)
            if np.linalg.norm(hand[HAND_PINKY_TIP, :2] - hand[HAND_THUMB_TIP, :2]) < 1e-12:
                continue  # thumb and pinky tips coincide in the image: hold this hand
            wrist = _INDEX[prefix + "WristYaw"]
            values[wrist] = map_hand_yaw_openpose(hand, self.profile.joint_limits[wrist])
            values[_INDEX[prefix + "HandOpen"]] = map_hand_opening_openpose(hand)


def _numbers(values, what, line, counts):
    """The floats of the JSON list ``values``, which must hold ``counts`` finite numbers."""
    if not isinstance(values, list) or len(values) not in counts:
        raise ParseError(f"{what} must be a list of {' or '.join(map(str, counts))} numbers", line)
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{what} must be finite", line)
    return values


def _frame_from_record(rec, line):
    """One validated frame; every malformed field is a ParseError naming ``line``."""
    try:
        body = {}
        confidence = {}
        for name, coords in rec["body"].items():
            coords = _numbers(coords, f"keypoint {name}", line, (3, 4))
            body[name] = tuple(coords[:3])
            if len(coords) == 4:
                confidence[name] = coords[3]
        kwargs = {}
        for key in ("left_hand", "right_hand"):
            if rec.get(key) is not None:
                kwargs[key] = np.asarray(rec[key], dtype=float)
                if not np.isfinite(kwargs[key]).all():
                    raise ParseError(f"{key} must be finite", line)
        for key in ("head_orientation", "left_pixels", "right_pixels"):
            if rec.get(key) is not None:
                kwargs[key] = tuple(_numbers(rec[key], key, line, (2,)))
                if key.endswith("pixels") and min(kwargs[key]) < 0:
                    raise ParseError(f"{key} must be non-negative counts", line)
        timestamp = float(rec.get("timestamp", 0.0))
        if not math.isfinite(timestamp):
            raise ParseError("timestamp must be finite", line)
        # SkeletonFrame checks the keypoint set and the 21 x 3 hand shape
        return SkeletonFrame(layout=rec["layout"], body=body, confidence=confidence,
                             timestamp=timestamp, **kwargs)
    except (KeyError, TypeError, ValueError, OverflowError, StructuralError) as exc:
        raise ParseError(f"bad skeleton record: {exc}", line) from exc


def load_skeleton_frames(path):
    """Read line-delimited JSON skeleton records (one frame per line, increasing timestamps)."""
    frames = []
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                rec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", lineno) from exc
            frame = _frame_from_record(rec, lineno)
            if frames and not frame.timestamp > frames[-1].timestamp:
                raise ParseError("frame timestamps must be strictly increasing", lineno)
            frames.append(frame)
    return frames
