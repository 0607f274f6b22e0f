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

# positions in the 14-joint pose vector
_INDEX = {name: i for i, name in enumerate(JOINT_NAMES)}
_HEAD = [_INDEX["HeadYaw"], _INDEX["HeadPitch"]]


@dataclass(frozen=True)
class MappingParams:
    """Gains and source ranges of the retargeting equations.

    Source ranges are capture-side intervals fed to :func:`range_conv`;
    they are calibration constants, not robot properties.
    """

    k1: float = 1.0                     # head yaw gain
    k2: float = 0.0                     # head pitch correction gain
    n_pixels: float = 1000.0            # glove pixel normalizer N
    max_wrist_yaw: float = 1.8239
    head_pitch_src: tuple = (0.10, 0.25)    # nose-neck distance (m)
    head_yaw_src: tuple = (-math.pi / 2, math.pi / 2)
    hand_yaw_src: tuple = (0.05, 0.20)      # thumb-pinky distance (m)
    hand_open_src: tuple = (0.05, 0.20)     # wrist-middle distance (m)
    screen_height: float = 0.0          # chest-screen guard height (m)
    wrist_range_gain: float = 0.0       # source-range shift per meter below guard
    palm_up_elbow_offset: float = 0.0   # additive elbow-yaw offset when palm shows
    confidence_threshold: float = 0.1

    def __post_init__(self):
        if not self.k1 > 0:
            raise StructuralError("k1 must be positive")
        if not self.n_pixels > 0:
            raise StructuralError("n_pixels must be positive")
        for src in (self.head_pitch_src, self.head_yaw_src, self.hand_yaw_src, self.hand_open_src):
            if not src[1] > src[0]:
                raise StructuralError("source intervals must be non-empty")


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

    def point(self, name, confidence_threshold=0.0):
        """Keypoint as array; StructuralError if below the confidence threshold."""
        if self.confidence.get(name, 1.0) < confidence_threshold:
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


def map_head_openni(head_orientation, neck, head, params):
    """Raw (unclamped) head yaw/pitch from OpenNI tracker output.

    ``head_orientation`` carries the tracker's (beta, gamma) Euler angles.
    Yaw is the gained beta angle; pitch is the arctangent of the head-neck
    vector after a -pi/2 rotation about the vertical axis, plus |k2*gamma|.
    """
    beta, gamma = head_orientation
    hn = np.asarray(head, dtype=float) - np.asarray(neck, dtype=float)
    if np.linalg.norm(hn) < 1e-12:
        raise DegenerateGeometryError("head and neck keypoints coincide")
    yaw = params.k1 * beta
    r = _rotate_about_vertical(hn, -math.pi / 2)
    pitch = math.atan2(r[2], r[1]) + abs(params.k2 * gamma)
    return float(yaw), float(pitch)


def map_head_openpose(nose, neck, params, profile):
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
    pitch = range_conv(norm, params.head_pitch_src, tuple(limits[1]))
    yaw_angle = -math.asin(float(np.clip(nn[0] / norm, -1.0, 1.0)))
    yaw = range_conv(yaw_angle, params.head_yaw_src, tuple(limits[0]))
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


def map_hand_yaw_openpose(hand, wrist_height, params, profile):
    """Wrist yaw from the thumb-pinky fingertip distance.

    The source interval is shifted upward when the wrist drops below the
    chest-screen guard height, keeping the mapped yaw away from the screen.
    """
    hand = np.asarray(hand, dtype=float)
    d = float(np.linalg.norm(hand[HAND_THUMB_TIP] - hand[HAND_PINKY_TIP]))
    shift = params.wrist_range_gain * max(0.0, params.screen_height - wrist_height)
    s0, s1 = params.hand_yaw_src
    limits = profile.limits_array()
    yaw = range_conv(d, (s0 + shift, s1 + shift), tuple(limits[6]))
    return float(yaw)


def map_hand_opening_openpose(hand, params):
    """Finger opening in [0, 1] from the wrist-to-middle-fingertip distance."""
    hand = np.asarray(hand, dtype=float)
    d = float(np.linalg.norm(hand[HAND_MIDDLE_TIP] - hand[HAND_WRIST]))
    return float(range_conv(d, params.hand_open_src, (0.0, 1.0)))


def map_hand_yaw_openni(palm_pixels, back_pixels, params):
    """Wrist yaw from glove pixel counts (palm vs back dominance)."""
    if palm_pixels < 0 or back_pixels < 0:
        raise StructuralError("pixel counts must be non-negative")
    if palm_pixels == 0 and back_pixels == 0:
        raise UnknownOrientationError("no glove pixels visible")
    n = params.n_pixels
    biggest = max(palm_pixels, back_pixels)
    if palm_pixels >= back_pixels:
        yaw = biggest / n * params.max_wrist_yaw
    else:
        yaw = (biggest - n) / n * params.max_wrist_yaw
    return float(np.clip(yaw, -params.max_wrist_yaw, params.max_wrist_yaw))


def _unit(v, what):
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DegenerateGeometryError(f"zero-length {what} vector")
    return v / norm


def arm_angles(frame, confidence_threshold=0.0):
    """Raw (unclamped) shoulder pitch/roll and elbow yaw/roll for both arms.

    Returns a dict keyed by joint name covering the 8 arm joints. Raises
    DegenerateGeometryError on zero-length limb vectors and StructuralError
    when a required keypoint is below the confidence threshold.
    """
    if frame.layout == OPENNI_LAYOUT:
        wrist_names = {"left": "LHand", "right": "RHand"}
        hip_ref = "Torso"
    else:
        wrist_names = {"left": "LWrist", "right": "RWrist"}
        hip_ref = "MidHip"

    thr = confidence_threshold
    neck = frame.point("Neck", thr)
    lsh, rsh = frame.point("LShoulder", thr), frame.point("RShoulder", thr)
    down = _unit(frame.point(hip_ref, thr) - neck, "torso")
    lat_left = _unit(lsh - rsh, "shoulder line")
    fwd = _unit(np.cross(lat_left, down), "forward axis")

    out = {}
    for side, prefix, sign, sh, lat in (("left", "L", -1.0, lsh, lat_left),
                                        ("right", "R", 1.0, rsh, -lat_left)):
        el = frame.point(prefix + "Elbow", thr)
        wr = frame.point(wrist_names[side], thr)
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
        e3 = np.cross(uh, e2)
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

    def __init__(self, params=None, profile=None, seed=0):
        self.params = params or MappingParams()
        self.profile = profile or RobotProfile.default()
        self.rng = np.random.Generator(np.random.Philox(seed))
        self._values = self.profile.limits_array().mean(axis=1)

    def map_frame(self, frame):
        values = self._values.copy()
        try:
            for name, angle in arm_angles(frame, self.params.confidence_threshold).items():
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
        params, thr = self.params, self.params.confidence_threshold
        if frame.head_orientation is not None:
            try:
                values[_HEAD] = map_head_openni(frame.head_orientation, frame.point("Neck", thr),
                                                frame.point("Head", thr), params)
            except (StructuralError, DegenerateGeometryError):
                pass  # hold previous head values
        for prefix, pixels in (("L", frame.left_pixels), ("R", frame.right_pixels)):
            if pixels is not None:
                try:
                    values[_INDEX[prefix + "WristYaw"]] = map_hand_yaw_openni(
                        pixels[0], pixels[1], params)
                except UnknownOrientationError:
                    pass  # keep previous wrist yaw
            # fingers are untracked: randomized per frame, seeded
            values[_INDEX[prefix + "HandOpen"]] = self.rng.uniform(0.0, 1.0)

    def _map_openpose_extras(self, frame, values):
        params, profile, thr = self.params, self.profile, self.params.confidence_threshold
        try:
            values[_HEAD] = map_head_openpose(frame.point("Nose", thr), frame.point("Neck", thr),
                                              params, profile)
        except (StructuralError, DegenerateGeometryError):
            pass  # hold previous head values
        for side, prefix, hand in (("left", "L", frame.left_hand),
                                   ("right", "R", frame.right_hand)):
            if hand is None:
                continue  # hold previous hand values
            hand = np.asarray(hand, dtype=float)
            try:
                if map_hand_side_openpose(hand, side) == PALM and params.palm_up_elbow_offset:
                    values[_INDEX[prefix + "ElbowYaw"]] += params.palm_up_elbow_offset
                wrist_height = float(hand[HAND_WRIST, 1])
                values[_INDEX[prefix + "WristYaw"]] = map_hand_yaw_openpose(
                    hand, wrist_height, params, profile)
                values[_INDEX[prefix + "HandOpen"]] = map_hand_opening_openpose(hand, params)
            except DegenerateGeometryError:
                pass


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
    """Read line-delimited JSON skeleton records (one frame per line)."""
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
            frames.append(_frame_from_record(rec, lineno))
    return frames
