import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemetrics.errors import (
    DegenerateGeometryError,
    ParseError,
    StructuralError,
    UnknownOrientationError,
)
from gesturemetrics.mapping import (
    CONFIDENCE_THRESHOLD,
    HAND_MIDDLE_TIP,
    HAND_OPEN_SRC,
    HAND_PINKY_TIP,
    HAND_THUMB_TIP,
    HAND_WRIST,
    HAND_YAW_SRC,
    HEAD_PITCH_SRC,
    HEAD_YAW_SRC,
    MAX_WRIST_YAW,
    N_PIXELS,
    OPENNI_KEYPOINTS,
    OPENNI_LAYOUT,
    OPENPOSE_KEYPOINTS,
    OPENPOSE_LAYOUT,
    Capture,
    StreamMapper,
    arm_angles,
    load_skeleton_frames,
    map_capture,
    map_hand_opening_openpose,
    map_hand_yaw_openni,
    map_hand_yaw_openpose,
    map_head_openni,
    map_head_openpose,
    range_conv,
)
from gesturemetrics.model import JOINT_NAMES, RobotProfile


@pytest.fixture(scope="module")
def profile():
    return RobotProfile.default()


def make_openpose_body(**overrides):
    body = {name: (0.0, 0.0, 0.0) for name in OPENPOSE_KEYPOINTS}
    body.update({
        "Neck": (0.0, 1.5, 0.0),
        "Nose": (0.0, 1.65, 0.0),
        "MidHip": (0.0, 1.0, 0.0),
        "LShoulder": (0.2, 1.5, 0.0),
        "RShoulder": (-0.2, 1.5, 0.0),
        "LElbow": (0.2, 1.2, 0.0),
        "RElbow": (-0.2, 1.2, 0.0),
        "LWrist": (0.2, 0.95, 0.0),
        "RWrist": (-0.2, 0.95, 0.0),
    })
    body.update(overrides)
    return body


def keypoints(body, confidence=None):
    """A frame's keypoints array from ``body``, a name -> (x, y, z) dict: one (x, y, z,
    confidence) row per name, in the order of the layout that holds every name of
    ``body``, with confidence 1.0 unless ``confidence`` maps the name to another value.
    A body that lacks names of its layout gives fewer rows."""
    names = OPENNI_KEYPOINTS if body.keys() <= set(OPENNI_KEYPOINTS) else OPENPOSE_KEYPOINTS
    confidence = confidence or {}
    return np.array([(*body[name], confidence.get(name, 1.0)) for name in names if name in body])


def coords(kp, layout, name):
    """The stored (x, y, z) of a keypoint of one frame's keypoints, whatever its confidence."""
    names = OPENNI_KEYPOINTS if layout == OPENNI_LAYOUT else OPENPOSE_KEYPOINTS
    return tuple(kp[names.index(name), :3].tolist())


# the optional fields of each layout's captures
EXTRAS = {OPENNI_LAYOUT: ("head_orientation", "left_pixels", "right_pixels"),
          OPENPOSE_LAYOUT: ("left_hand", "right_hand")}


def one_frame(layout, kp, timestamp=0.0, **fields):
    """A capture of one frame: its K x 4 keypoints ``kp`` and each given field's value
    in that frame, None for a frame that lacks it."""
    return Capture(layout, [timestamp], [kp],
                   **{key: None if value is None else [value] for key, value in fields.items()})


def sub(capture, index):
    """The capture of the frames of ``capture`` at ``index``, a slice or a list of frames."""
    return Capture(capture.layout, capture.timestamps[index], capture.keypoints[index],
                   **{key: getattr(capture, key)[index] for key in EXTRAS[capture.layout]})


def joined(captures):
    """One capture of the frames of ``captures``, all of one layout, in order."""
    layout = captures[0].layout
    return Capture(layout, **{key: np.concatenate([getattr(c, key) for c in captures])
                              for key in ("timestamps", "keypoints", *EXTRAS[layout])})


def frames_of(capture):
    """Each frame of ``capture`` as a capture of its own, in order."""
    return [sub(capture, slice(t, t + 1)) for t in range(len(capture))]


def map_one(mapper, capture):
    """The pose and clamp count of ``mapper`` on a capture of one frame."""
    values, n_clamped = mapper.map_frames(capture)
    return values[0], n_clamped[0]


def make_hand(center=(0.0, 0.0, 0.0), spread=0.08, opening=0.15):
    """Planar hand keypoint set: thumb and pinky tips ``2 * spread`` apart, the
    middle tip ``opening`` from the wrist."""
    hand = np.zeros((21, 3))
    cx, cy, cz = center
    hand[HAND_WRIST] = (cx, cy + 0.06 - opening, cz)  # wrist-middle distance = opening
    hand[HAND_THUMB_TIP] = (cx - spread, cy, cz)
    hand[HAND_PINKY_TIP] = (cx + spread, cy, cz)
    hand[HAND_MIDDLE_TIP] = (cx, cy + 0.06, cz)
    return hand


class TestRangeConv:
    def test_endpoints(self):
        assert range_conv(0.0, (0.0, 1.0), (-2.0, 2.0)) == -2.0
        assert range_conv(1.0, (0.0, 1.0), (-2.0, 2.0)) == 2.0

    def test_clamps_outside_source(self):
        assert range_conv(-5.0, (0.0, 1.0), (-2.0, 2.0)) == -2.0
        assert range_conv(7.0, (0.0, 1.0), (-2.0, 2.0)) == 2.0

    def test_affine_and_monotone_inside(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0.0, 1.0, 20))
        ys = [range_conv(x, (0.0, 1.0), (3.0, 7.0)) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        # affine: midpoint maps to midpoint
        assert range_conv(0.5, (0.0, 1.0), (3.0, 7.0)) == pytest.approx(5.0)

    @pytest.mark.parametrize("src", [(0.2, 0.2), (0.3, 0.2)])
    def test_empty_or_reversed_source_rejected(self, src):
        with pytest.raises(StructuralError):
            range_conv(0.25, src, (0.0, 1.0))


class TestHeadOpenni:
    def test_zero_beta_zero_yaw(self):
        yaw, _ = map_head_openni((0.0, 0.0), (0, 1.5, 0), (0, 1.7, 0))
        assert yaw == 0.0

    def test_unit_gain_passes_beta(self):
        yaw, _ = map_head_openni((0.2, 0.0), (0, 1.5, 0), (0, 1.7, 0))
        assert yaw == pytest.approx(0.2, abs=1e-12)

    def test_head_above_neck_pitch_trig_oracle(self):
        neck = np.array([0.3, 1.5, 0.1])
        head = neck + np.array([0.0, 0.2, 0.0])
        _, pitch = map_head_openni((0.0, 0.0), neck, head)
        # independent scalar-trig oracle: rotate (0, 0.2, 0) by -pi/2 about y,
        # pitch is atan2(forward component, vertical component)
        hn = head - neck
        rot = np.array([
            [math.cos(-math.pi / 2), 0, math.sin(-math.pi / 2)],
            [0, 1, 0],
            [-math.sin(-math.pi / 2), 0, math.cos(-math.pi / 2)],
        ]) @ hn
        expected = math.atan2(rot[2], rot[1])
        assert pitch == pytest.approx(expected, abs=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            map_head_openni((0.0, 0.0), (0, 1.5, 0), (0, 1.5, 0))


class TestHeadOpenpose:
    def test_vertical_nose_gives_yaw_midpoint(self, profile):
        yaw, _ = map_head_openpose((0.0, 1.65, 0.0), (0.0, 1.5, 0.0), profile)
        lo, hi = profile.joint_limits[0]
        assert yaw == pytest.approx((lo + hi) / 2, abs=1e-12)

    def test_min_distance_gives_min_pitch(self, profile):
        nn = HEAD_PITCH_SRC[0]
        _, pitch = map_head_openpose((0.0, 1.5 + nn, 0.0), (0.0, 1.5, 0.0), profile)
        assert pitch == pytest.approx(profile.joint_limits[1][0], abs=1e-12)

    def test_arcsin_oracle(self, profile):
        # normalized x-component 0.5 -> source angle -pi/6
        nn = np.array([0.5, math.sqrt(1 - 0.25), 0.0]) * 0.18
        neck = np.array([0.1, 1.5, 0.2])
        yaw, _ = map_head_openpose(neck + nn, neck, profile)
        src_lo, src_hi = HEAD_YAW_SRC
        lo, hi = profile.joint_limits[0]
        t = (-math.pi / 6 - src_lo) / (src_hi - src_lo)
        assert yaw == pytest.approx(lo + t * (hi - lo), abs=1e-9)

    def test_zero_vector_rejected(self, profile):
        with pytest.raises(DegenerateGeometryError):
            map_head_openpose((0.1, 1.5, 0.0), (0.1, 1.5, 0.0), profile)


class TestHandYawOpenpose:
    def test_source_min_maps_to_range_min(self, profile):
        hand = make_hand(spread=HAND_YAW_SRC[0] / 2)
        yaw = map_hand_yaw_openpose(hand, profile.joint_limits[6])
        assert yaw == pytest.approx(profile.joint_limits[6][0], abs=1e-12)

    def test_source_midpoint_maps_to_range_midpoint(self, profile):
        mid = (HAND_YAW_SRC[0] + HAND_YAW_SRC[1]) / 2
        hand = make_hand(spread=mid / 2)
        yaw = map_hand_yaw_openpose(hand, profile.joint_limits[6])
        lo, hi = profile.joint_limits[6]
        assert yaw == pytest.approx((lo + hi) / 2, abs=1e-12)

    def test_affine_oracle_at_012(self, profile):
        hand = make_hand(spread=0.06)  # thumb-pinky distance 0.12 m
        yaw = map_hand_yaw_openpose(hand, profile.joint_limits[6])
        s0, s1 = HAND_YAW_SRC
        lo, hi = profile.joint_limits[6]
        expected = lo + (0.12 - s0) / (s1 - s0) * (hi - lo)
        assert yaw == pytest.approx(expected, abs=1e-9)


class TestHandOpening:
    def test_endpoints_and_midpoint(self):
        s0, s1 = HAND_OPEN_SRC
        assert map_hand_opening_openpose(make_hand(opening=s1)) == 1.0
        assert map_hand_opening_openpose(make_hand(opening=s0)) == 0.0
        mid = (s0 + s1) / 2
        assert map_hand_opening_openpose(make_hand(opening=mid)) \
            == pytest.approx(0.5, abs=1e-12)

    def test_clamped_beyond_max(self):
        assert map_hand_opening_openpose(make_hand(opening=1.0)) == 1.0


class TestHandYawOpenni:
    def test_palm_dominant_full(self):
        yaw = map_hand_yaw_openni(N_PIXELS, 0)
        assert yaw == pytest.approx(MAX_WRIST_YAW)

    def test_back_dominant_full(self):
        yaw = map_hand_yaw_openni(0, N_PIXELS)
        assert yaw == pytest.approx(0.0)

    def test_palm_dominant_half(self):
        yaw = map_hand_yaw_openni(N_PIXELS / 2, 0)
        assert yaw == pytest.approx(MAX_WRIST_YAW / 2)

    def test_no_pixels_rejected(self):
        with pytest.raises(UnknownOrientationError):
            map_hand_yaw_openni(0, 0)


def random_arm_frame(rng):
    """One OpenPose frame's keypoints with the arms in general position (kept away from
    degeneracies)."""
    body = make_openpose_body()
    for prefix in ("L", "R"):
        sign = 1.0 if prefix == "L" else -1.0
        sh = np.array(body[prefix + "Shoulder"])
        u = rng.normal(size=3)
        u[0] = sign * abs(u[0])  # keep the arm on its own side
        u = 0.3 * u / np.linalg.norm(u)
        el = sh + u
        f = rng.normal(size=3)
        f = 0.25 * f / np.linalg.norm(f)
        body[prefix + "Elbow"] = tuple(el.tolist())
        body[prefix + "Wrist"] = tuple((el + f).tolist())
    return keypoints(body)


def arm_oracle(kp):
    """Independent recomputation of the documented arm-angle convention on one OpenPose
    frame's keypoints, using explicit acos / atan2 constructions."""
    get = lambda n: np.asarray(coords(kp, OPENPOSE_LAYOUT, n))
    neck, hip = get("Neck"), get("MidHip")
    lsh, rsh = get("LShoulder"), get("RShoulder")
    down = (hip - neck) / np.linalg.norm(hip - neck)
    lat_left = (lsh - rsh) / np.linalg.norm(lsh - rsh)
    fwd = np.cross(lat_left, down)
    fwd /= np.linalg.norm(fwd)
    out = {}
    for prefix, lat, sign in (("L", lat_left, -1.0), ("R", -lat_left, 1.0)):
        u = get(prefix + "Elbow") - get(prefix + "Shoulder")
        f = get(prefix + "Wrist") - get(prefix + "Elbow")
        uh, fh = u / np.linalg.norm(u), f / np.linalg.norm(f)
        roll = math.pi / 2 - math.acos(np.clip(uh @ lat, -1, 1))
        out[prefix + "ShoulderRoll"] = roll if prefix == "L" else -roll
        u_sag = uh - (uh @ lat) * lat
        u_sag /= np.linalg.norm(u_sag)
        out[prefix + "ShoulderPitch"] = math.atan2(u_sag @ fwd, u_sag @ down)
        out[prefix + "ElbowRoll"] = sign * math.acos(np.clip(uh @ fh, -1, 1))
        e2 = down - (down @ uh) * uh
        e2 /= np.linalg.norm(e2)
        e3 = np.cross(uh, e2)
        f_perp = f - (f @ uh) * uh
        out[prefix + "ElbowYaw"] = math.atan2(f_perp @ e3, f_perp @ e2)
    return out


class TestArms:
    def test_extended_arm_zero_elbow_roll(self, profile):
        body = make_openpose_body(
            LElbow=(0.2, 1.2, 0.0), LWrist=(0.2, 0.9, 0.0),
            RElbow=(-0.2, 1.2, 0.0), RWrist=(-0.2, 0.9, 0.0))
        angles = arm_angles(keypoints(body), OPENPOSE_LAYOUT)
        assert angles["LElbowRoll"] == pytest.approx(0.0, abs=1e-9)
        assert angles["RElbowRoll"] == pytest.approx(0.0, abs=1e-9)

    def test_perpendicular_forearm_right_angle(self, profile):
        body = make_openpose_body(
            LElbow=(0.2, 1.2, 0.0), LWrist=(0.2, 1.2, 0.3))
        angles = arm_angles(keypoints(body), OPENPOSE_LAYOUT)
        assert abs(angles["LElbowRoll"]) == pytest.approx(math.pi / 2, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_configuration_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        kp = random_arm_frame(rng)
        angles = arm_angles(kp, OPENPOSE_LAYOUT)
        expected = arm_oracle(kp)
        for name, val in expected.items():
            assert angles[name] == pytest.approx(val, abs=1e-9), name

    def test_zero_length_limb_rejected(self):
        body = make_openpose_body(LElbow=(0.2, 1.5, 0.0), LShoulder=(0.2, 1.5, 0.0))
        with pytest.raises(DegenerateGeometryError):
            arm_angles(keypoints(body), OPENPOSE_LAYOUT)

    def test_keypoint_at_the_confidence_threshold_counts_and_one_below_raises(self):
        assert CONFIDENCE_THRESHOLD == 0.1
        body = make_openpose_body()
        at = arm_angles(keypoints(body, {"LElbow": 0.1}), OPENPOSE_LAYOUT)
        assert at == arm_angles(keypoints(body), OPENPOSE_LAYOUT)
        assert all(type(value) is float for value in at.values())
        with pytest.raises(StructuralError, match="^keypoint LElbow below confidence threshold$"):
            arm_angles(keypoints(body, {"LElbow": 0.05}), OPENPOSE_LAYOUT)


def n_outside_limits(angles, profile):
    """How many of the named joint angles lie outside the profile's limits."""
    limits = dict(zip(JOINT_NAMES, profile.joint_limits))
    return sum(not limits[name][0] <= angle <= limits[name][1]
               for name, angle in angles.items())


def make_openni_body():
    body = {name: (0.0, 0.0, 0.0) for name in OPENNI_KEYPOINTS}
    body.update({"Head": (0, 1.7, 0), "Neck": (0, 1.5, 0), "Torso": (0, 1.2, 0),
                 "LShoulder": (0.2, 1.5, 0), "LElbow": (0.45, 1.4, 0.1),
                 "LHand": (0.6, 1.2, 0.1), "RShoulder": (-0.2, 1.5, 0),
                 "RElbow": (-0.45, 1.4, 0.1), "RHand": (-0.6, 1.2, 0.1)})
    return body


def make_tpose_body():
    return make_openpose_body(
        LElbow=(0.5, 1.5, 0.0), LWrist=(0.8, 1.5, 0.0),
        RElbow=(-0.5, 1.5, 0.0), RWrist=(-0.8, 1.5, 0.0),
        Nose=(0.0, 1.67, 0.0))


def make_tpose_frame():
    return one_frame(OPENPOSE_LAYOUT, keypoints(make_tpose_body()))


def extra_fields(layout):
    """A valid value, as a record holds it, of each optional field of ``layout``'s frames."""
    if layout == OPENNI_LAYOUT:
        return {"head_orientation": [0.1, 0.0], "left_pixels": [300, 100],
                "right_pixels": [100, 300]}
    return {"left_hand": make_hand().tolist(), "right_hand": make_hand().tolist()}


# each optional field with a valid value, on a frame or record of the layout that lacks it
FOREIGN_FIELDS = [(layout, field, value)
                  for layout, other in ((OPENNI_LAYOUT, OPENPOSE_LAYOUT),
                                        (OPENPOSE_LAYOUT, OPENNI_LAYOUT))
                  for field, value in extra_fields(other).items()]


class TestStreamMapper:
    def test_tpose_shoulder_roll_near_quarter_turn(self, profile):
        pose, _ = map_one(StreamMapper(profile=profile), make_tpose_frame())
        values = dict(zip(JOINT_NAMES, pose))
        assert values["LShoulderRoll"] == pytest.approx(
            min(math.pi / 2, profile.joint_limits[3][1]), abs=1e-6)
        assert values["RShoulderRoll"] == pytest.approx(
            max(-math.pi / 2, profile.joint_limits[9][0]), abs=1e-6)
        assert values["LElbowRoll"] == pytest.approx(0.0, abs=1e-9)

    def test_poses_within_limits_and_clamps_counted(self, profile):
        limits = profile.limits_array()
        mapper = StreamMapper(profile=profile)
        total = 0
        for seed in range(20):
            kp = random_arm_frame(np.random.default_rng(seed))
            outside = n_outside_limits(arm_angles(kp, OPENPOSE_LAYOUT), profile)
            pose, n_clamped = map_one(mapper, one_frame(OPENPOSE_LAYOUT, kp))
            assert np.all((limits[:, 0] <= pose) & (pose <= limits[:, 1]))
            assert n_clamped == outside
            total += outside
        assert total > 0

    def test_mutating_a_returned_pose_leaves_the_held_values(self):
        mapper = StreamMapper()
        first, _ = mapper.map_frames(make_tpose_frame())
        held = first[0].copy()
        first[:] = 0.5
        # a neck below the confidence threshold holds arms and head; no hands
        low = one_frame(OPENPOSE_LAYOUT, keypoints(make_tpose_body(), {"Neck": 0.0}))
        assert np.array_equal(map_one(mapper, low)[0], held)

    def test_openni_head_yaw_clamped_once(self, profile):
        body = make_openni_body()
        yaw, _ = map_head_openni((3.0, 0.0), body["Neck"], body["Head"])
        hi = profile.joint_limits[0][1]
        assert yaw == pytest.approx(3.0) and yaw > hi
        kp = keypoints(body)
        pose, n_clamped = map_one(StreamMapper(profile=profile),
                                  one_frame(OPENNI_LAYOUT, kp, head_orientation=(3.0, 0.0)))
        assert pose[0] == hi
        assert n_clamped == 1 + n_outside_limits(arm_angles(kp, OPENNI_LAYOUT), profile)

    def test_negative_pixel_count_raises(self):
        with pytest.raises(StructuralError, match="left_pixels must be non-negative counts"):
            one_frame(OPENNI_LAYOUT, keypoints(make_openni_body()), left_pixels=(-1, 5))
        with pytest.raises(StructuralError, match="non-negative"):
            map_hand_yaw_openni(-1, 5)

    def test_identical_frames_identical_poses_openpose(self):
        mapper = StreamMapper(seed=5)
        p1, _ = map_one(mapper, make_tpose_frame())
        p2, _ = map_one(mapper, make_tpose_frame())
        assert np.array_equal(p1, p2)

    def test_missing_hand_holds_previous(self):
        mapper = StreamMapper(seed=0)
        with_hand = one_frame(OPENPOSE_LAYOUT, keypoints(make_tpose_body()),
                              right_hand=make_hand(center=(-0.8, 1.5, 0.0)))
        p1, _ = map_one(mapper, with_hand)
        p2, _ = map_one(mapper, make_tpose_frame())
        idx = JOINT_NAMES.index("RHandOpen")
        assert p2[idx] == p1[idx]
        idx = JOINT_NAMES.index("RWristYaw")
        assert p2[idx] == p1[idx]

    def test_coincident_thumb_pinky_holds_that_hand(self, profile):
        mapper = StreamMapper(profile=profile)
        tpose = keypoints(make_tpose_body())
        first, _ = map_one(mapper, one_frame(
            OPENPOSE_LAYOUT, tpose, left_hand=make_hand(spread=0.06, opening=0.10),
            right_hand=make_hand(spread=0.06, opening=0.10)))
        left = make_hand(spread=0.08, opening=0.15)
        right = make_hand(spread=0.08, opening=0.15)
        # same x and y, 0.1 m apart in depth: the spread alone would move the wrist yaw
        right[HAND_PINKY_TIP] = right[HAND_THUMB_TIP] + (0.0, 0.0, 0.1)
        second, _ = map_one(mapper, one_frame(OPENPOSE_LAYOUT, tpose, left_hand=left,
                                              right_hand=right))
        for name in ("RWristYaw", "RHandOpen"):
            idx = JOINT_NAMES.index(name)
            assert second[idx] == first[idx], name
        left_only, _ = map_one(StreamMapper(profile=profile),
                               one_frame(OPENPOSE_LAYOUT, tpose, left_hand=left))
        for name in ("LWristYaw", "LHandOpen"):
            idx = JOINT_NAMES.index(name)
            assert second[idx] == left_only[idx] != first[idx], name

    def test_each_wrist_yaw_maps_onto_its_own_limits(self, profile):
        limits = list(profile.joint_limits)
        limits[JOINT_NAMES.index("RWristYaw")] = (-1.0, 1.0)
        narrow = dataclasses.replace(profile, joint_limits=tuple(limits))
        hand = make_hand(spread=0.06)  # thumb-pinky distance 0.12 m
        pose, _ = map_one(StreamMapper(profile=narrow), one_frame(
            OPENPOSE_LAYOUT, keypoints(make_tpose_body()), left_hand=hand, right_hand=hand))
        t = (0.12 - HAND_YAW_SRC[0]) / (HAND_YAW_SRC[1] - HAND_YAW_SRC[0])
        for name in ("LWristYaw", "RWristYaw"):
            lo, hi = narrow.joint_limits[JOINT_NAMES.index(name)]
            assert pose[JOINT_NAMES.index(name)] == pytest.approx(
                lo + t * (hi - lo), abs=1e-12), name

    def test_openni_seeded_fingers_deterministic(self):
        frame = one_frame(OPENNI_LAYOUT, keypoints(make_openni_body()),
                          head_orientation=(0.1, 0.0), left_pixels=(500, 10),
                          right_pixels=(10, 500))
        run1, _ = map_one(StreamMapper(seed=7), frame)
        run2, _ = map_one(StreamMapper(seed=7), frame)
        assert np.array_equal(run1, run2)

    def test_openni_non_finger_joints_seed_independent(self):
        frame = one_frame(OPENNI_LAYOUT, keypoints(make_openni_body()),
                          head_orientation=(0.1, 0.0))
        a, _ = map_one(StreamMapper(seed=1), frame)
        b, _ = map_one(StreamMapper(seed=2), frame)
        finger_idx = {JOINT_NAMES.index("LHandOpen"), JOINT_NAMES.index("RHandOpen")}
        for i in range(len(JOINT_NAMES)):
            if i not in finger_idx:
                assert a[i] == b[i]

    @pytest.mark.parametrize("layout, held", [
        (OPENPOSE_LAYOUT, ("LWristYaw", "LHandOpen", "RWristYaw", "RHandOpen")),
        (OPENNI_LAYOUT, ("HeadYaw", "HeadPitch", "LWristYaw", "RWristYaw"))])
    def test_fields_nan_throughout_map_like_a_frame_without_them(self, profile, layout, held):
        """A second frame whose hands (OpenPose) or pairs (OpenNI) are NaN throughout maps
        as one that leaves them out: the joints they drive hold."""
        body = keypoints(make_openpose_body() if layout == OPENPOSE_LAYOUT else make_openni_body())
        first = one_frame(layout, body, **extra_fields(layout))
        nan = {key: np.full(np.shape(value), np.nan) for key, value in extra_fields(layout).items()}
        left_out, given = (joined([first, one_frame(layout, body, 1.0, **fields)])
                           for fields in ({}, nan))
        values, n_clamped = StreamMapper(profile, seed=3).map_frames(left_out)
        nan_values, nan_clamped = StreamMapper(profile, seed=3).map_frames(given)
        assert np.array_equal(values, nan_values) and np.array_equal(n_clamped, nan_clamped)
        held = [JOINT_NAMES.index(name) for name in held]
        assert np.array_equal(values[1, held], values[0, held])


def openni_frame(**fields):
    return one_frame(OPENNI_LAYOUT, keypoints(make_openni_body()), **fields)


class TestFrameValidation:
    def test_openni_wrong_keypoint_set(self):
        with pytest.raises(StructuralError):
            one_frame(OPENNI_LAYOUT, keypoints({"Head": (0, 0, 0)}))

    def test_openpose_wrong_keypoint_set(self):
        body = make_openpose_body()
        del body["MidHip"]
        with pytest.raises(StructuralError, match="exactly the 25 body keypoints"):
            one_frame(OPENPOSE_LAYOUT, keypoints(body))

    def test_openpose_bad_hand_shape(self):
        with pytest.raises(StructuralError):
            one_frame(OPENPOSE_LAYOUT, keypoints(make_openpose_body()), left_hand=np.zeros((20, 3)))

    @pytest.mark.parametrize("field, value", [
        ("body", {"LElbow": (math.nan, 1.5, 0.0)}),
        ("body", {"Neck": (0.0, math.inf, 0.0)}),
        ("confidence", {"Nose": math.nan}),
        ("left_hand", np.full((21, 3), math.inf)),
        ("head_orientation", (0.1, math.nan)),
        ("right_pixels", (math.inf, 3.0)),
        ("timestamp", math.nan),
        # finite, but far enough apart that the limb vector overflows and maps to NaN
        ("body", {"LElbow": (1e308, 1.5, 0.0), "LWrist": (-1e308, 1.5, 0.0)}),
        ("right_hand", np.array([[1e308, 0.0, 0.0]] * 20 + [[-1e308, 0.0, 0.0]])),
    ])
    def test_non_finite_value_rejected_when_built(self, field, value):
        """``body`` and ``confidence`` values replace those of the T-pose in ``keypoints``;
        the pairs go on an OpenNI frame, the only layout that carries them."""
        frame = make_tpose_frame()
        if field in ("head_orientation", "right_pixels"):
            frame = openni_frame()
        if field == "body":
            field, value = "keypoints", keypoints({**make_tpose_body(), **value})
        elif field == "confidence":
            field, value = "keypoints", keypoints(make_tpose_body(), value)
        elif field == "timestamp":
            field = "timestamps"
        with pytest.raises(StructuralError, match="finite"):
            dataclasses.replace(frame, **{field: [value]})

    @pytest.mark.parametrize("hand", [{}, "", [[1, 2, 3]] * 20 + [[1, 2]],
                                      [["a", "b", "c"]] * 21, [[10 ** 400, 0, 0]] * 21],
                             ids=["object", "empty-string", "ragged", "strings", "beyond-float"])
    def test_hand_that_is_not_21_by_3_numbers_fails_with_the_hand_rule(self, hand):
        with pytest.raises(StructuralError, match="^hand keypoint sets must be 21 x 3 finite"):
            one_frame(OPENPOSE_LAYOUT, keypoints(make_openpose_body()), left_hand=hand)

    @pytest.mark.parametrize("layout, field, value", FOREIGN_FIELDS)
    def test_field_of_the_other_layout_rejected_when_built(self, layout, field, value):
        body = make_openni_body() if layout == OPENNI_LAYOUT else make_openpose_body()
        with pytest.raises(StructuralError, match=f"^{layout} frames carry no {field}$"):
            one_frame(layout, keypoints(body), **{field: value})

    def test_first_bad_keypoint_in_layout_order_is_named(self):
        body = {**make_tpose_body(), "LWrist": (math.nan, 0.0, 0.0), "Neck": (1e200, 1.5, 0.0)}
        with pytest.raises(StructuralError, match="^keypoint Neck must be finite"):
            one_frame(OPENPOSE_LAYOUT, keypoints(body))
        with pytest.raises(StructuralError, match="^keypoint Nose must be finite"):
            one_frame(OPENPOSE_LAYOUT, keypoints(body, {"Nose": math.inf}))

    @pytest.mark.parametrize("key, pair", [("head_orientation", (0.1,)),
                                           ("left_pixels", (300.0, 100.0, 5.0)),
                                           ("right_pixels", ()),
                                           ("left_pixels", 0),
                                           ("left_pixels", {"a": 1}),
                                           ("right_pixels", "ab"),
                                           ("head_orientation", [10**400, 1])])
    def test_pair_of_another_length_rejected_when_built(self, key, pair):
        with pytest.raises(StructuralError, match=f"^{key} must be 2 finite numbers"):
            openni_frame(**{key: pair})

    @pytest.mark.parametrize("key, value", [
        ("left_hand", np.where(np.arange(63).reshape(21, 3) == 7, np.nan, make_hand())),
        ("right_hand", np.vstack([np.full((20, 3), np.nan), [[0.0, 0.1, 0.0]]])),
        ("head_orientation", (np.nan, 0.0)),
        ("left_pixels", (300.0, np.nan)),
        ("right_pixels", (np.nan, 0.0)),
    ])
    def test_field_partly_nan_fails_its_rule(self, key, value):
        """NaN throughout is a frame without the field; a NaN beside numbers is a bad value."""
        layout = OPENPOSE_LAYOUT if key.endswith("hand") else OPENNI_LAYOUT
        body = make_openpose_body() if key.endswith("hand") else make_openni_body()
        rule = "hand keypoint sets must be 21 x 3" if key.endswith("hand") else f"{key} must be 2"
        with pytest.raises(StructuralError, match=f"^{rule}"):
            one_frame(layout, keypoints(body), **{key: value})

    def test_pairs_are_held_as_float_arrays(self):
        frame = openni_frame(head_orientation=[1, 0], left_pixels=[300, 100])
        assert frame.head_orientation.tolist() == [[1.0, 0.0]]
        assert frame.left_pixels.tolist() == [[300.0, 100.0]]
        assert frame.left_pixels.dtype == np.float64
        assert np.isnan(frame.right_pixels).all() and frame.left_hand is None

    def test_unknown_layout(self):
        with pytest.raises(StructuralError):
            Capture("kinect", [0.0], np.zeros((1, 15, 4)))

    @pytest.mark.parametrize("timestamps, n_frames, message", [
        ([], 0, "no frames in input"),
        ([0.0, 1.0], 1, "a capture needs one timestamp per frame"),
        ([[0.0]], 1, "a capture needs one timestamp per frame"),
    ])
    def test_one_timestamp_per_frame_and_at_least_one_frame(self, timestamps, n_frames, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            Capture(OPENNI_LAYOUT, timestamps, np.zeros((n_frames, len(OPENNI_KEYPOINTS), 4)))

    def test_first_failing_frame_is_named_with_its_first_rule(self):
        """Of several frames that fail, the error's ``frame`` is the first; of its faults,
        the first in the order hands, keypoints, pairs, timestamp, timestamp order."""
        capture = joined([one_frame(OPENNI_LAYOUT, keypoints(make_openni_body()), t)
                          for t in (0.0, 1.0, 2.0)])
        bad_kp = capture.keypoints.copy()
        bad_kp[1:, OPENNI_KEYPOINTS.index("LShoulder"), 0] = np.nan   # frames 1 and 2
        pixels = np.full((3, 2), 5.0)
        pixels[1:, 0] = -1.0
        cases = [({"keypoints": bad_kp, "left_pixels": pixels}, 1, "keypoint LShoulder must be"),
                 ({"left_pixels": pixels, "timestamps": [0.0, 2.0, 1.0]}, 1,
                  "left_pixels must be non-negative counts"),
                 ({"timestamps": [0.0, 2.0, 1.0]}, 2, "frame timestamps must be strictly increasing")]
        for changes, frame, message in cases:
            with pytest.raises(StructuralError, match=f"^{message}") as info:
                dataclasses.replace(capture, **changes)
            assert info.value.frame == frame, message


class TestFrameImmutable:
    @pytest.fixture
    def capture(self, tmp_path):
        """A capture with both hands, as the capture reader builds it after its checks."""
        path = tmp_path / "frames.jsonl"
        record = skeleton_record(OPENPOSE_LAYOUT, 0.0)
        record["body"]["Nose"].append(0.9)      # a confidence
        path.write_text(json.dumps(record) + "\n")
        return load_skeleton_frames(path, OPENPOSE_LAYOUT)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Capture)])
    def test_field_cannot_be_reassigned(self, capture, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(capture, name, getattr(capture, name))

    @pytest.mark.parametrize("name", ["left_hand", "right_hand"])
    def test_hand_refuses_writes(self, capture, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(capture, name)[0, 4] = math.nan

    @pytest.mark.parametrize("name, key, value", [
        ("body", "Neck", (math.nan, 1.4, 0.0)), ("confidence", "Nose", math.nan)])
    def test_mappings_refuse_item_assignment(self, capture, name, key, value):
        """A keypoint's coordinates (``name`` body) and its confidence are read-only
        columns of ``keypoints``."""
        columns = slice(0, 3) if name == "body" else 3
        with pytest.raises(ValueError, match="read-only"):
            capture.keypoints[0, OPENPOSE_KEYPOINTS.index(key), columns] = value

    def test_keypoints_are_a_read_only_view_of_the_callers_array(self):
        rows = keypoints(make_openpose_body())[None]
        capture = Capture(OPENPOSE_LAYOUT, [0.0], rows)
        assert np.shares_memory(capture.keypoints, rows)
        assert rows.flags.writeable and not capture.keypoints.flags.writeable

    def test_hand_is_a_read_only_view_of_the_callers_array(self):
        hand = make_hand()[None]
        capture = Capture(OPENPOSE_LAYOUT, [0.0], keypoints(make_openpose_body())[None],
                          left_hand=hand)
        assert np.shares_memory(capture.left_hand, hand)
        assert hand.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            capture.left_hand[0, 0, 0] = 1.0


MISSING = object()     # a field that test_malformed_record_names_its_line leaves out
# capture values that JSON holds as strings or booleans: float() and numpy would take them
NOT_NUMBERS = [
    (OPENNI_LAYOUT, "LElbow", [0.2, "0.218467", 2.0]),
    (OPENNI_LAYOUT, "timestamp", "0.25"),
    (OPENNI_LAYOUT, "RHand", [True, 1.2, 2.0]),
    (OPENNI_LAYOUT, "LElbow", [0.2, 1.2, 2.0, "0.9"]),
    (OPENNI_LAYOUT, "head_orientation", ["0.1", 0.0]),
    (OPENNI_LAYOUT, "left_pixels", [300, False]),
    (OPENPOSE_LAYOUT, "left_hand", [[True, 0.0, 0.0]] + np.zeros((20, 3)).tolist()),
    (OPENPOSE_LAYOUT, "Nose", [0.0, 1.6, 0.0, True]),
]
# optional fields that are present but not JSON arrays, falsy ones included
NOT_ARRAYS = [
    (OPENNI_LAYOUT, "left_pixels", 0),
    (OPENNI_LAYOUT, "head_orientation", False),
    (OPENNI_LAYOUT, "left_pixels", 5),
    (OPENNI_LAYOUT, "right_pixels", ""),
    (OPENPOSE_LAYOUT, "right_hand", 0),
    (OPENPOSE_LAYOUT, "left_hand", {}),
    (OPENPOSE_LAYOUT, "left_hand", ""),
]
FLAT_HAND = (OPENPOSE_LAYOUT, "left_hand", [1, 2, 3])     # numbers, not rows of them
RAGGED_HAND = (OPENPOSE_LAYOUT, "left_hand", [[1, 2, 3]] * 20 + [[1, 2]])


class TestFrameIO:
    def test_roundtrip(self, tmp_path):
        rec = {"layout": OPENPOSE_LAYOUT, "timestamp": 0.5,
               "body": {name: [0.0, 0.0, 0.0] for name in OPENPOSE_KEYPOINTS}}
        rec["body"]["Nose"] = [0.0, 1.6, 0.0, 0.9]
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        capture = load_skeleton_frames(path, OPENPOSE_LAYOUT)
        assert len(capture) == 1
        assert capture.timestamps.tolist() == [0.5]
        nose, neck = (capture.keypoints[0, OPENPOSE_KEYPOINTS.index(name)].tolist()
                      for name in ("Nose", "Neck"))
        assert nose == [0.0, 1.6, 0.0, 0.9] and neck == [0.0, 0.0, 0.0, 1.0]
        assert np.isnan(capture.left_hand).all() and capture.head_orientation is None

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        record = json.dumps(skeleton_record(OPENPOSE_LAYOUT, 0.0))
        path = tmp_path / "frames.jsonl"
        path.write_text("\n" + record + "\n  \n")
        assert len(load_skeleton_frames(path, OPENPOSE_LAYOUT)) == 1
        path.write_text("\n" + record + "\n  \n" + record + "\n")
        with pytest.raises(ParseError, match="^line 4: frame timestamps"):
            load_skeleton_frames(path, OPENPOSE_LAYOUT)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ParseError, match="line 1"):
            load_skeleton_frames(path, OPENPOSE_LAYOUT)

    @pytest.mark.parametrize("line", [b"[" * 5000, b"\xff{}"], ids=["deeply-nested", "not-utf8"])
    def test_undecodable_line_names_its_line(self, tmp_path, line):
        path = tmp_path / "frames.jsonl"
        path.write_bytes(json.dumps(skeleton_record(OPENPOSE_LAYOUT, 0.0)).encode() + b"\n"
                         + line + b"\n")
        with pytest.raises(ParseError, match="line 2: invalid JSON"):
            load_skeleton_frames(path, OPENPOSE_LAYOUT)

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps({"timestamp": 0.0}) + "\n")
        with pytest.raises(ParseError):
            load_skeleton_frames(path, OPENPOSE_LAYOUT)

    @pytest.mark.parametrize("layout, field, value", [
        (OPENNI_LAYOUT, "LElbow", [0.2, float("nan"), 2.0]),
        (OPENNI_LAYOUT, "LElbow", [0.2, 1.2, 2.0, float("inf")]),
        (OPENNI_LAYOUT, "LElbow", [0.2, 1.2]),
        (OPENNI_LAYOUT, "LElbow", [0.2, 1.2, 2.0, 1.0, 1.0]),
        (OPENNI_LAYOUT, "LElbow", [0.2, 10 ** 400, 2.0]),
        (OPENNI_LAYOUT, "timestamp", float("nan")),
        (OPENNI_LAYOUT, "timestamp", [0.25]),
        (OPENNI_LAYOUT, "head_orientation", [0.1, float("-inf")]),
        (OPENNI_LAYOUT, "head_orientation", [0.1]),
        (OPENNI_LAYOUT, "head_orientation", [0.1, 0.0, 0.2]),
        (OPENNI_LAYOUT, "left_pixels", [float("inf"), 3]),
        (OPENNI_LAYOUT, "left_pixels", [3]),
        (OPENNI_LAYOUT, "left_pixels", ["a", 3]),
        (OPENNI_LAYOUT, "right_pixels", [-1, 3]),
        (OPENNI_LAYOUT, "left_hand", np.zeros((21, 3)).tolist()),
        (OPENPOSE_LAYOUT, "left_hand", np.zeros((20, 3)).tolist()),
        (OPENPOSE_LAYOUT, "right_hand", np.zeros((21, 2)).tolist()),
        (OPENPOSE_LAYOUT, "right_hand", [[float("nan")] * 3] * 21),
        (OPENPOSE_LAYOUT, "Nose", [0.0, 1.6, 0.0, float("nan")]),
        (OPENPOSE_LAYOUT, "body", [0.0, 1.6, 0.0]),
        (OPENNI_LAYOUT, "timestamp", MISSING),
        (OPENPOSE_LAYOUT, "timestamp", MISSING),
        (OPENNI_LAYOUT, None, [1, 2]),
        *NOT_NUMBERS,
        *FOREIGN_FIELDS,
        *NOT_ARRAYS,
        FLAT_HAND,
        RAGGED_HAND,
        # NaN throughout is how a capture holds a frame without the field, so a
        # record that gives a present field as NaN is refused, like the hand above
        (OPENNI_LAYOUT, "head_orientation", [float("nan"), float("nan")]),
        (OPENNI_LAYOUT, "left_pixels", [float("nan"), float("nan")]),
    ])
    def test_malformed_record_names_its_line(self, tmp_path, layout, field, value):
        """``field`` None makes ``value`` the whole record; MISSING leaves ``field`` out."""
        good = skeleton_record(layout, 0.0)
        bad = skeleton_record(layout, 0.25)
        message = {"body": "body must be a JSON object",
                   None: "skeleton record must be a JSON object"}.get(field, "")
        if any(case == (layout, field, value) for case in [*NOT_NUMBERS, FLAT_HAND]):
            message = "capture values must be JSON numbers$"
        if any(case == (layout, field, value) for case in NOT_ARRAYS):
            message = f"{field} must be a JSON array$"
        if (layout, field, value) == RAGGED_HAND:
            message = "bad skeleton record: hand keypoint sets must be 21 x 3 finite values"
        if any(case == (layout, field, value) for case in FOREIGN_FIELDS):
            message = f"bad skeleton record: {layout} frames carry no {field}$"
        if field is None:
            bad = value
        elif value is MISSING:
            del bad[field]
            message = f"skeleton record has no {field}"
        elif field in bad["body"]:
            bad["body"][field] = value
        else:
            bad[field] = value
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match=f"^line 2: {message}"):
            load_skeleton_frames(path, layout)

    @pytest.mark.parametrize("layout", [OPENNI_LAYOUT, OPENPOSE_LAYOUT])
    @pytest.mark.parametrize("change", ["missing", "extra", "replaced"])
    def test_record_with_another_keypoint_set_names_its_line(self, tmp_path, layout, change):
        bad = skeleton_record(layout, 0.25)
        names = OPENNI_KEYPOINTS if layout == OPENNI_LAYOUT else OPENPOSE_KEYPOINTS
        if change != "extra":
            del bad["body"][names[-1]]
        if change != "missing":
            bad["body"]["Chin"] = [0.0, 0.0, 0.0]
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(skeleton_record(layout, 0.0)) + "\n" + json.dumps(bad) + "\n")
        message = f"{layout} frame must carry exactly the {len(names)} body keypoints"
        with pytest.raises(ParseError, match=f"^line 2: bad skeleton record: {message}$"):
            load_skeleton_frames(path, layout)

    @pytest.mark.parametrize("expected, other", [(OPENNI_LAYOUT, OPENPOSE_LAYOUT),
                                                 (OPENPOSE_LAYOUT, OPENNI_LAYOUT)])
    def test_record_of_another_layout_names_its_line(self, tmp_path, expected, other):
        records = [skeleton_record(expected, 0.0), skeleton_record(expected, 0.25),
                   skeleton_record(other, 0.5)]
        path = tmp_path / "frames.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        message = f"line 3: frame layout '{other}' does not match '{expected}'"
        with pytest.raises(ParseError, match=message):
            load_skeleton_frames(path, expected)


# perfbench capture writers by name -> the layout of the records they write
CAPTURE_LAYOUTS = {"openpose": OPENPOSE_LAYOUT, "openni": OPENNI_LAYOUT}
# most bytes a loaded capture may hold per frame. On the seed-5 captures below, with
# Python 3.11 and numpy 2.4, a capture held 1,947 (OpenPose: both hands' arrays, present
# or not) and 599 (OpenNI); a list of one frame object per record held 2,708 and 1,211,
# and one whose frames also kept a name -> tuple dict of the body and another of the
# confidences 8,784 and 4,719.
FRAME_BYTES = {"openpose": 2300, "openni": 800}


class TestFrameFootprint:
    @pytest.mark.parametrize("layout", ["openpose", "openni"])
    def test_loaded_frames_hold_one_keypoints_array(self, gen_inputs, tmp_path, layout):
        path = tmp_path / "capture.jsonl"
        getattr(gen_inputs, f"write_{layout}_capture")(path, 300, seed=5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            capture = load_skeleton_frames(path, CAPTURE_LAYOUTS[layout])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # one frame per record: the benchmark counts frames with len()
        assert len(capture) == len(path.read_text().splitlines()) == 300
        assert held / len(capture) < FRAME_BYTES[layout]


def skeleton_record(layout, timestamp):
    """A valid capture record of either layout, as written to a JSONL file."""
    names = OPENNI_KEYPOINTS if layout == OPENNI_LAYOUT else OPENPOSE_KEYPOINTS
    return {"layout": layout, "timestamp": timestamp,
            "body": {name: [0.0, 0.0, 0.0] for name in names}, **extra_fields(layout)}


# The numpy implementation that the scalar mappers replaced, kept as their
# oracle. Its 3-vector dot products and norms go through BLAS, whose kernel
# may round differently from the scalar sums in the last bits.
ULPS = 8


def numpy_unit(v):
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DegenerateGeometryError("zero-length vector")
    return v / norm


def numpy_point(kp, layout, name):
    names = OPENNI_KEYPOINTS if layout == OPENNI_LAYOUT else OPENPOSE_KEYPOINTS
    if kp[names.index(name), 3] < CONFIDENCE_THRESHOLD:
        raise StructuralError(f"keypoint {name} below confidence threshold")
    return np.asarray(coords(kp, layout, name))


def numpy_arm_angles(kp, layout):
    hip_ref, wrist = ("Torso", "Hand") if layout == OPENNI_LAYOUT else ("MidHip", "Wrist")
    get = lambda name: numpy_point(kp, layout, name)
    neck, lsh, rsh = get("Neck"), get("LShoulder"), get("RShoulder")
    down = numpy_unit(get(hip_ref) - neck)
    lat_left = numpy_unit(lsh - rsh)
    fwd = numpy_unit(np.cross(lat_left, down))
    out = {}
    for prefix, sign, sh, lat in (("L", -1.0, lsh, lat_left), ("R", 1.0, rsh, -lat_left)):
        el, wr = get(prefix + "Elbow"), get(prefix + wrist)
        u, f = el - sh, wr - el
        uh, fh = numpy_unit(u), numpy_unit(f)
        roll = math.pi / 2 - math.acos(float(np.clip(np.dot(uh, lat), -1.0, 1.0)))
        u_sag = uh - np.dot(uh, lat) * lat
        if np.linalg.norm(u_sag) < 1e-9:
            pitch = 0.0
        else:
            u_sag /= np.linalg.norm(u_sag)
            pitch = math.atan2(float(np.dot(u_sag, fwd)), float(np.dot(u_sag, down)))
        ref = down - np.dot(down, uh) * uh
        if np.linalg.norm(ref) < 1e-9:
            ref = fwd - np.dot(fwd, uh) * uh
        e2 = numpy_unit(ref)
        e3 = np.cross(uh, e2)
        f_perp = f - np.dot(f, uh) * uh
        if np.linalg.norm(f_perp) < 1e-9:
            yaw = 0.0
        else:
            yaw = math.atan2(float(np.dot(f_perp, e3)), float(np.dot(f_perp, e2)))
        out[prefix + "ShoulderPitch"] = pitch
        out[prefix + "ShoulderRoll"] = roll if prefix == "L" else -roll
        out[prefix + "ElbowYaw"] = yaw
        out[prefix + "ElbowRoll"] = sign * math.acos(float(np.clip(np.dot(uh, fh), -1.0, 1.0)))
    return out


def numpy_head_openni(head_orientation, neck, head):
    hn = np.asarray(head, dtype=float) - np.asarray(neck, dtype=float)
    if np.linalg.norm(hn) < 1e-12:
        raise DegenerateGeometryError("head and neck keypoints coincide")
    c, s = math.cos(-math.pi / 2), math.sin(-math.pi / 2)
    r = np.array([hn[0] * c + hn[2] * s, hn[1], -hn[0] * s + hn[2] * c])
    return float(head_orientation[0]), float(math.atan2(r[2], r[1]))


def numpy_head_openpose(nose, neck, profile):
    nn = np.asarray(nose, dtype=float) - np.asarray(neck, dtype=float)
    norm = np.linalg.norm(nn)
    if norm < 1e-12:
        raise DegenerateGeometryError("nose and neck keypoints coincide")
    limits = np.asarray(profile.joint_limits, dtype=float)
    pitch = range_conv(norm, HEAD_PITCH_SRC, tuple(limits[1]))
    yaw_angle = -math.asin(float(np.clip(nn[0] / norm, -1.0, 1.0)))
    return float(range_conv(yaw_angle, HEAD_YAW_SRC, tuple(limits[0]))), float(pitch)


def numpy_hand_yaw_openpose(hand, dst):
    d = float(np.linalg.norm(hand[HAND_THUMB_TIP] - hand[HAND_PINKY_TIP]))
    return float(range_conv(d, HAND_YAW_SRC, dst))


def numpy_hand_opening_openpose(hand):
    d = float(np.linalg.norm(hand[HAND_MIDDLE_TIP] - hand[HAND_WRIST]))
    return float(range_conv(d, HAND_OPEN_SRC, (0.0, 1.0)))


def numpy_hand_yaw_openni(palm_pixels, back_pixels):
    biggest = max(palm_pixels, back_pixels)
    if palm_pixels >= back_pixels:
        yaw = biggest / N_PIXELS * MAX_WRIST_YAW
    else:
        yaw = (biggest - N_PIXELS) / N_PIXELS * MAX_WRIST_YAW
    return float(np.clip(yaw, -MAX_WRIST_YAW, MAX_WRIST_YAW))


def assert_within_ulps(got, want, what):
    assert abs(got - want) <= ULPS * math.ulp(1.0), (what, got, want)


def assert_arm_angles_match(got, want):
    assert got.keys() == want.keys()
    for name, angle in want.items():
        # acos turns an input rounding near +-1 into a large angle error, so
        # the roll angles are compared through the cosine (elbow) or sine
        # (shoulder) that acos inverted
        if name.endswith("ElbowRoll"):
            assert_within_ulps(math.cos(got[name]), math.cos(angle), name)
        elif name.endswith("ShoulderRoll"):
            assert_within_ulps(math.sin(got[name]), math.sin(angle), name)
        else:
            assert_within_ulps(got[name], angle, name)


class TestScalarMatchesNumpyOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_arm_angles_on_random_arms(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(40):
            kp = random_arm_frame(rng)
            assert_arm_angles_match(arm_angles(kp, OPENPOSE_LAYOUT),
                                    numpy_arm_angles(kp, OPENPOSE_LAYOUT))

    @pytest.mark.parametrize("layout", ["openpose", "openni"])
    def test_every_mapper_on_a_capture(self, gen_inputs, tmp_path, profile, layout):
        path = tmp_path / "capture.jsonl"
        getattr(gen_inputs, f"write_{layout}_capture")(path, 200, seed=5)
        limits = profile.joint_limits
        capture = load_skeleton_frames(path, CAPTURE_LAYOUTS[layout])
        for t, kp in enumerate(capture.keypoints):
            try:
                want = numpy_arm_angles(kp, capture.layout)
            except (StructuralError, DegenerateGeometryError):
                with pytest.raises((StructuralError, DegenerateGeometryError)):
                    arm_angles(kp, capture.layout)
            else:
                assert_arm_angles_match(arm_angles(kp, capture.layout), want)
            if capture.layout == OPENNI_LAYOUT:
                head = (capture.head_orientation[t], coords(kp, OPENNI_LAYOUT, "Neck"),
                        coords(kp, OPENNI_LAYOUT, "Head"))
                assert map_head_openni(*head) == pytest.approx(numpy_head_openni(*head),
                                                               abs=ULPS * math.ulp(1.0))
                for pixels in (capture.left_pixels[t], capture.right_pixels[t]):
                    if max(pixels) > 0:    # False for NaN, a frame without the pair
                        assert map_hand_yaw_openni(*pixels) == numpy_hand_yaw_openni(*pixels)
                continue
            nose_neck = (coords(kp, OPENPOSE_LAYOUT, "Nose"), coords(kp, OPENPOSE_LAYOUT, "Neck"))
            for got, want in zip(map_head_openpose(*nose_neck, profile),
                                 numpy_head_openpose(*nose_neck, profile)):
                assert_within_ulps(got, want, "head")
            for hand, dst in ((capture.left_hand[t], limits[6]), (capture.right_hand[t], limits[12])):
                if not np.isnan(hand).all():
                    assert_within_ulps(map_hand_yaw_openpose(hand, dst),
                                       numpy_hand_yaw_openpose(hand, dst), "wrist yaw")
                    assert_within_ulps(map_hand_opening_openpose(hand),
                                       numpy_hand_opening_openpose(hand), "opening")

    @pytest.mark.parametrize("seed", range(3))
    def test_head_and_hands_on_random_points(self, profile, seed):
        rng = np.random.default_rng(200 + seed)
        for _ in range(50):
            neck = rng.uniform(-1.0, 1.0, 3)
            offset = rng.normal(size=3)
            head = neck + rng.uniform(0.05, 0.3) * offset / np.linalg.norm(offset)
            beta = (rng.uniform(-1.5, 1.5), 0.0)
            for got, want in zip(map_head_openni(beta, tuple(neck), tuple(head)),
                                 numpy_head_openni(beta, neck, head)):
                assert_within_ulps(got, want, "openni head")
            for got, want in zip(map_head_openpose(tuple(head), tuple(neck), profile),
                                 numpy_head_openpose(head, neck, profile)):
                assert_within_ulps(got, want, "openpose head")
            hand = rng.uniform(-0.15, 0.15, (21, 3)) + neck
            dst = profile.joint_limits[6]
            assert_within_ulps(map_hand_yaw_openpose(hand.tolist(), dst),
                               numpy_hand_yaw_openpose(hand, dst), "wrist yaw")
            assert_within_ulps(map_hand_opening_openpose(hand.tolist()),
                               numpy_hand_opening_openpose(hand), "opening")


TRANSLATION_FRAMES = 120
OFFSET = st.floats(-2.0, 2.0, allow_nan=False)


@pytest.fixture(scope="module")
def captures(gen_inputs, tmp_path_factory):
    """One seeded capture per layout, with dropouts and missing hands."""
    out = {}
    for layout in ("openpose", "openni"):
        path = tmp_path_factory.mktemp("captures") / f"{layout}.jsonl"
        getattr(gen_inputs, f"write_{layout}_capture")(path, TRANSLATION_FRAMES, seed=11)
        out[layout] = load_skeleton_frames(path, CAPTURE_LAYOUTS[layout])
    return out


def shifted(capture, offset):
    """The capture with every body and hand keypoint moved by ``offset``."""
    hands = {key: getattr(capture, key) + np.array(offset)
             for key in ("left_hand", "right_hand") if key in EXTRAS[capture.layout]}
    return dataclasses.replace(capture, keypoints=capture.keypoints + (*offset, 0.0), **hands)


def rotated(capture, angle):
    """The capture with every body and hand keypoint rotated by ``angle`` about the
    vertical (y) axis, the camera walking round the subject."""
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    turned = capture.keypoints.copy()
    turned[..., :3] = turned[..., :3] @ rotation.T
    hands = {key: getattr(capture, key) @ rotation.T
             for key in ("left_hand", "right_hand") if key in EXTRAS[capture.layout]}
    return dataclasses.replace(capture, keypoints=turned, **hands)


# the head angle each layout reads in the camera frame: OpenPose HeadYaw from the
# x component of the nose-neck vector, OpenNI HeadPitch from the head-neck vector
# after a fixed turn about the vertical axis; rotating the capture moves them
CAMERA_RELATIVE = {"openpose": "HeadYaw", "openni": "HeadPitch"}


class TestMetamorphic:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(layout=st.sampled_from(["openpose", "openni"]),
           offset=st.tuples(OFFSET, OFFSET, OFFSET))
    def test_capture_translation_leaves_mapping_unchanged(self, captures, layout, offset):
        capture = captures[layout]
        values, _ = StreamMapper(seed=4).map_frames(capture)
        moved, _ = StreamMapper(seed=4).map_frames(shifted(capture, offset))
        assert np.abs(moved - values).max() <= 1e-13

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(layout=st.sampled_from(["openpose", "openni"]),
           angle=st.floats(-math.pi, math.pi, allow_nan=False))
    def test_capture_rotation_about_the_vertical_leaves_body_frame_joints(self, captures,
                                                                          layout, angle):
        capture = captures[layout]
        kept = [i for i, name in enumerate(JOINT_NAMES) if name != CAMERA_RELATIVE[layout]]
        values, _ = StreamMapper(seed=4).map_frames(capture)
        turned, _ = StreamMapper(seed=4).map_frames(rotated(capture, angle))
        # the rotated coordinates round differently, and acos/asin near +-1
        # magnify that: at most 2.9e-15 over 101 angles on these captures
        assert np.abs(turned[:, kept] - values[:, kept]).max() <= 1e-13


class TestMapCapture:
    @pytest.mark.parametrize("layout", ["openpose", "openni"])
    def test_maps_every_frame_once_in_order(self, captures, profile, layout):
        """One block call equals the frames fed one at a time, and two block calls
        split anywhere: the held pose and the finger draws carry across calls."""
        capture = captures[layout]
        for seed in (0, 3, 8):
            mapper = StreamMapper(profile, seed=seed)
            expected = [map_one(mapper, frame)[0] for frame in frames_of(capture)]
            stream = map_capture(capture, profile, seed=seed)
            assert np.array_equal(stream.values, expected)
            assert np.array_equal(stream.timestamps, capture.timestamps)
            for split in (1, 2, 37, len(capture) - 1):
                mapper = StreamMapper(profile, seed=seed)
                halves = [mapper.map_frames(sub(capture, part))[0]
                          for part in (slice(None, split), slice(split, None))]
                assert np.array_equal(np.concatenate(halves), expected), (seed, split)

    def test_seed_drives_the_openni_fingers(self, captures):
        a, b = (map_capture(captures["openni"], seed=s).values for s in (1, 2))
        hands = [JOINT_NAMES.index("LHandOpen"), JOINT_NAMES.index("RHandOpen")]
        assert not np.array_equal(a[:, hands], b[:, hands])
        assert np.array_equal(np.delete(a, hands, axis=1), np.delete(b, hands, axis=1))

    @pytest.mark.parametrize("n", [2, 3, 120])
    def test_rate_is_the_mean_frame_rate(self, captures, n):
        capture = sub(captures["openpose"], slice(None, n))
        rate = map_capture(capture).native_rate_hz
        assert rate == (n - 1) / (capture.timestamps[-1] - capture.timestamps[0])

    def test_single_frame_is_one_hertz(self, captures):
        stream = map_capture(sub(captures["openni"], slice(5, 6)))
        assert (len(stream), stream.native_rate_hz) == (1, 1.0)

    def test_no_frames_is_structural_error(self, captures):
        with pytest.raises(StructuralError, match="^no frames in input$"):
            sub(captures["openpose"], slice(0, 0))

    @pytest.mark.parametrize("order", ["equal-ends", "repeated", "decreasing"])
    def test_timestamps_that_do_not_increase_are_refused(self, captures, order):
        """Equal first and last timestamps would divide by a zero span, decreasing ones
        give a negative rate: a capture built in code gets the reader's own rule."""
        frames = {"equal-ends": [0, 1, 0], "repeated": [0, 1, 1, 2], "decreasing": [2, 1, 0]}
        with pytest.raises(StructuralError,
                           match="^frame timestamps must be strictly increasing$"):
            sub(captures["openpose"], frames[order])

    def test_timestamps_whose_span_overflows_are_refused_by_the_stream(self):
        """The mean rate of timestamps -1e308 and 1e308 is 0: the stream refuses it,
        without a warning from the overflowing span."""
        kp = keypoints(make_tpose_body())
        capture = joined([one_frame(OPENPOSE_LAYOUT, kp, t) for t in (-1e308, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructuralError, match="rate"):
                map_capture(capture)


ARMS = tuple(name for name in JOINT_NAMES if "Shoulder" in name or "Elbow" in name)
HEAD = ("HeadYaw", "HeadPitch")
# Two tracked poses in which every joint maps to another value. Bodies use OpenPose names
# and move points of make_openpose_body (make_openni_body for OpenNI, whose frames read
# Nose as Head and the wrists as LHand and RHand). Hands are (spread, opening).
HOLD_POSES = (
    {"body": {"Nose": (0.02, 1.66, -0.03), "LElbow": (0.35, 1.3, -0.1),
              "LWrist": (0.45, 1.1, -0.25), "RElbow": (-0.33, 1.28, -0.05),
              "RWrist": (-0.4, 1.05, -0.2)},
     "hands": (0.06, 0.12), "head_orientation": (0.2, 0.0), "pixels": ((300, 100), (100, 300))},
    {"body": {"Nose": (-0.03, 1.68, -0.02), "LElbow": (0.3, 1.25, -0.15),
              "LWrist": (0.4, 1.2, -0.38), "RElbow": (-0.36, 1.32, -0.12),
              "RWrist": (-0.5, 1.15, -0.3)},
     "hands": (0.07, 0.15), "head_orientation": (-0.3, 0.1), "pixels": ((500, 50), (80, 400))},
)
OPENNI_NAMES = {"Nose": "Head", "LWrist": "LHand", "RWrist": "RHand"}


def hold_frame(layout, index, timestamp, body=None, confidence=None, **fields):
    """Frame ``HOLD_POSES[index]`` of ``layout``, with ``body`` points moved, keypoint
    ``confidence`` values and optional ``fields`` replacing those of the pose."""
    pose = HOLD_POSES[index]
    points = {**pose["body"], **(body or {})}
    if layout == OPENPOSE_LAYOUT:
        base = make_openpose_body()
        hand = make_hand(spread=pose["hands"][0], opening=pose["hands"][1])
        extras = {"left_hand": hand, "right_hand": hand}
    else:
        base = make_openni_body()
        points = {OPENNI_NAMES.get(name, name): xyz for name, xyz in points.items()}
        extras = {"head_orientation": pose["head_orientation"],
                  "left_pixels": pose["pixels"][0], "right_pixels": pose["pixels"][1]}
    return one_frame(layout, keypoints({**base, **points}, confidence), timestamp,
                     **{**extras, **fields})


def coincident_tips_hand():
    hand = make_hand(spread=0.07, opening=0.15)
    hand[HAND_PINKY_TIP] = hand[HAND_THUMB_TIP] + (0.0, 0.0, 0.1)   # apart in depth only
    return hand


# (layout, case, changes to the second frame, the joints it holds)
HOLD_CASES = [
    *[(layout, "low-confidence neck", {"confidence": {"Neck": 0.05}}, ARMS + HEAD)
      for layout in (OPENPOSE_LAYOUT, OPENNI_LAYOUT)],
    *[(layout, "zero-length forearm",
       {"body": {"LWrist": HOLD_POSES[1]["body"]["LElbow"]}}, ARMS)
      for layout in (OPENPOSE_LAYOUT, OPENNI_LAYOUT)],
    (OPENPOSE_LAYOUT, "missing hand", {"right_hand": None}, ("RWristYaw", "RHandOpen")),
    (OPENNI_LAYOUT, "missing hand", {"right_pixels": None}, ("RWristYaw",)),
    (OPENPOSE_LAYOUT, "coincident tips", {"right_hand": coincident_tips_hand()},
     ("RWristYaw", "RHandOpen")),
    (OPENNI_LAYOUT, "no glove pixels", {"left_pixels": (0, 0)}, ("LWristYaw",)),
    (OPENNI_LAYOUT, "no head orientation", {"head_orientation": None}, HEAD),
]
# (case, second-frame arm points, the values they give): branches that map, not hold
ARM_BRANCHES = [
    ("straight arm",        # the forearm continues the upper arm: elbow yaw 0
     {"LWrist": (0.38, 1.05, -0.27), "RWrist": (-0.52, 1.14, -0.24)},
     {"LElbowYaw": 0.0, "RElbowYaw": 0.0}),
    ("upper arm along the lateral axis",    # no sagittal part: shoulder pitch 0
     {"LElbow": (0.5, 1.5, 0.0), "LWrist": (0.6, 1.4, -0.15),
      "RElbow": (-0.5, 1.5, 0.0), "RWrist": (-0.6, 1.4, -0.15)},
     {"LShoulderPitch": 0.0, "RShoulderPitch": 0.0}),
    ("upper arm along torso-down",    # yaw from forward (-z here), lateral axis +x
     {"LElbow": (0.2, 1.2, 0.0), "LWrist": (0.3, 1.2, -0.2),
      "RElbow": (-0.2, 1.2, 0.0), "RWrist": (-0.3, 1.2, -0.2)},
     {"LElbowYaw": math.atan2(0.1, 0.2), "RElbowYaw": math.atan2(-0.1, 0.2)}),
]


def assert_block_matches_frames(frames, profile, seed):
    """``map_capture`` of the one-frame captures ``frames`` joined gives what one mapper
    fed them one at a time gives, with the same clamp counts, and leaves the same held
    pose and finger generator behind: a last frame with every keypoint missing and no
    optional field maps to the same pose."""
    layout, capture = frames[0].layout, joined(frames)
    one = StreamMapper(profile, seed)
    poses = [map_one(one, frame) for frame in frames]
    block = StreamMapper(profile, seed)
    values, n_clamped = block.map_frames(capture)
    assert np.array_equal(map_capture(capture, profile, seed).values, values)
    assert np.array_equal(values, [pose for pose, _ in poses])
    assert n_clamped.tolist() == [n for _, n in poses]
    names = OPENNI_KEYPOINTS if layout == OPENNI_LAYOUT else OPENPOSE_KEYPOINTS
    blind = hold_frame(layout, 0, capture.timestamps[-1] + 1.0,
                       confidence=dict.fromkeys(names, 0.0),
                       **dict.fromkeys(extra_fields(layout)))
    assert np.array_equal(map_one(block, blind)[0], map_one(one, blind)[0])


class TestHoldBranches:
    @pytest.mark.parametrize("layout, case, changes, held", HOLD_CASES,
                             ids=[f"{layout}-{case}" for layout, case, _, _ in HOLD_CASES])
    def test_held_joints_keep_the_previous_frames_values(self, profile, layout, case,
                                                         changes, held):
        frames = [hold_frame(layout, 0, 0.0), hold_frame(layout, 1, 0.1, **changes)]
        values = map_capture(joined(frames), profile, seed=2).values
        for i, name in enumerate(JOINT_NAMES):
            if name in held:
                assert values[1, i] == values[0, i], name
            else:
                assert values[1, i] != values[0, i], name
        assert_block_matches_frames(frames, profile, seed=2)

    @pytest.mark.parametrize("layout", [OPENPOSE_LAYOUT, OPENNI_LAYOUT])
    @pytest.mark.parametrize("case, body, expected", ARM_BRANCHES,
                             ids=[case for case, _, _ in ARM_BRANCHES])
    def test_arm_branches_map_the_frame(self, profile, layout, case, body, expected):
        frames = [hold_frame(layout, 0, 0.0), hold_frame(layout, 1, 0.1, body=body)]
        values = map_capture(joined(frames), profile, seed=2).values
        for name, value in expected.items():
            assert values[1, JOINT_NAMES.index(name)] == pytest.approx(value, abs=1e-12), name
        assert_block_matches_frames(frames, profile, seed=2)

    @pytest.mark.parametrize("layout", [OPENPOSE_LAYOUT, OPENNI_LAYOUT])
    def test_every_case_in_one_capture(self, profile, layout):
        """All cases of a layout, one after another between tracked frames, as one block."""
        frames = [hold_frame(layout, 0, 0.0)]
        changes = [changes for case_layout, _, changes, _ in HOLD_CASES if case_layout == layout]
        changes += [{"body": body} for _, body, _ in ARM_BRANCHES]
        for i, change in enumerate(changes):
            frames += [hold_frame(layout, 1, 2 * i + 1.0, **change),
                       hold_frame(layout, i % 2, 2 * i + 2.0)]
        for seed in (0, 7):
            assert_block_matches_frames(frames, profile, seed)
