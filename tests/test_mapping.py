import dataclasses
import json
import math

import numpy as np
import pytest

from gesturemetrics.errors import (
    DegenerateGeometryError,
    ParseError,
    StructuralError,
    UnknownOrientationError,
)
from gesturemetrics.mapping import (
    BACK,
    CONFIDENCE_THRESHOLD,
    HAND_INDEX_TIP,
    HAND_MIDDLE_TIP,
    HAND_OPEN_SRC,
    HAND_PINKY_TIP,
    HAND_RING_TIP,
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
    PALM,
    SkeletonFrame,
    StreamMapper,
    arm_angles,
    load_skeleton_frames,
    map_hand_opening_openpose,
    map_hand_side_openpose,
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


def make_hand(center=(0.0, 0.0, 0.0), spread=0.08, opening=0.15):
    """Planar right-hand-like keypoint set: pinky to the right of the thumb,
    index/middle/ring tips above the thumb-pinky line."""
    hand = np.zeros((21, 3))
    cx, cy, cz = center
    hand[HAND_WRIST] = (cx, cy + 0.06 - opening, cz)  # wrist-middle distance = opening
    hand[HAND_THUMB_TIP] = (cx - spread, cy, cz)
    hand[HAND_PINKY_TIP] = (cx + spread, cy, cz)
    hand[HAND_INDEX_TIP] = (cx - spread / 2, cy + 0.05, cz)
    hand[HAND_MIDDLE_TIP] = (cx, cy + 0.06, cz)
    hand[HAND_RING_TIP] = (cx + spread / 2, cy + 0.05, cz)
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


class TestHandSide:
    def test_right_hand_three_above_is_back(self):
        assert map_hand_side_openpose(make_hand(), "right") == BACK

    def test_right_hand_none_above_is_palm(self):
        hand = make_hand()
        for idx in (HAND_INDEX_TIP, HAND_MIDDLE_TIP, HAND_RING_TIP):
            hand[idx, 1] = -abs(hand[idx, 1]) - 0.01
        assert map_hand_side_openpose(hand, "right") == PALM

    def test_left_hand_opposite_condition(self):
        assert map_hand_side_openpose(make_hand(), "left") == PALM

    def test_rotation_invariance_37_degrees(self):
        hand = make_hand()
        theta = math.radians(37)
        rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0],
                        [0, 0, 1]])
        rotated = hand @ rot.T
        assert (map_hand_side_openpose(rotated, "right")
                == map_hand_side_openpose(hand, "right"))

    @pytest.mark.parametrize("seed", range(10))
    def test_rotation_and_scale_invariance_random(self, seed):
        rng = np.random.default_rng(seed)
        hand = make_hand()
        baseline = map_hand_side_openpose(hand, "right")
        for _ in range(10):
            theta = rng.uniform(0, 2 * math.pi)
            scale = rng.uniform(0.1, 5.0)
            rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                            [math.sin(theta), math.cos(theta), 0],
                            [0, 0, 1]])
            transformed = scale * (hand @ rot.T)
            assert map_hand_side_openpose(transformed, "right") == baseline

    def test_coincident_thumb_pinky_rejected(self):
        hand = make_hand()
        hand[HAND_PINKY_TIP] = hand[HAND_THUMB_TIP]
        with pytest.raises(DegenerateGeometryError):
            map_hand_side_openpose(hand, "right")


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
    """Arm keypoints in general position (arms kept away from degeneracies)."""
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
    return SkeletonFrame(layout=OPENPOSE_LAYOUT, body=body)


def arm_oracle(frame):
    """Independent recomputation of the documented arm-angle convention
    using explicit acos / atan2 constructions."""
    get = lambda n: np.asarray(frame.body[n], dtype=float)
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
        frame = SkeletonFrame(layout=OPENPOSE_LAYOUT, body=body)
        angles = arm_angles(frame)
        assert angles["LElbowRoll"] == pytest.approx(0.0, abs=1e-9)
        assert angles["RElbowRoll"] == pytest.approx(0.0, abs=1e-9)

    def test_perpendicular_forearm_right_angle(self, profile):
        body = make_openpose_body(
            LElbow=(0.2, 1.2, 0.0), LWrist=(0.2, 1.2, 0.3))
        frame = SkeletonFrame(layout=OPENPOSE_LAYOUT, body=body)
        angles = arm_angles(frame)
        assert abs(angles["LElbowRoll"]) == pytest.approx(math.pi / 2, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_configuration_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_arm_frame(rng)
        angles = arm_angles(frame)
        expected = arm_oracle(frame)
        for name, val in expected.items():
            assert angles[name] == pytest.approx(val, abs=1e-9), name

    def test_zero_length_limb_rejected(self):
        body = make_openpose_body(LElbow=(0.2, 1.5, 0.0), LShoulder=(0.2, 1.5, 0.0))
        frame = SkeletonFrame(layout=OPENPOSE_LAYOUT, body=body)
        with pytest.raises(DegenerateGeometryError):
            arm_angles(frame)


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


def make_tpose_frame():
    body = make_openpose_body(
        LElbow=(0.5, 1.5, 0.0), LWrist=(0.8, 1.5, 0.0),
        RElbow=(-0.5, 1.5, 0.0), RWrist=(-0.8, 1.5, 0.0),
        Nose=(0.0, 1.67, 0.0))
    return SkeletonFrame(layout=OPENPOSE_LAYOUT, body=body, timestamp=0.0)


class TestStreamMapper:
    def test_tpose_shoulder_roll_near_quarter_turn(self, profile):
        pose = StreamMapper(profile=profile).map_frame(make_tpose_frame())
        values = dict(zip(JOINT_NAMES, pose.values))
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
            frame = random_arm_frame(np.random.default_rng(seed))
            outside = n_outside_limits(arm_angles(frame), profile)
            pose = mapper.map_frame(frame)
            assert np.all((limits[:, 0] <= pose.values) & (pose.values <= limits[:, 1]))
            assert pose.n_clamped == outside
            total += outside
        assert total > 0

    def test_mutating_a_returned_pose_leaves_the_held_values(self):
        mapper = StreamMapper()
        first = mapper.map_frame(make_tpose_frame())
        held = first.values.copy()
        first.values[:] = 0.5
        # a neck below the confidence threshold holds arms and head; no hands
        low = SkeletonFrame(layout=OPENPOSE_LAYOUT, body=make_tpose_frame().body,
                            confidence={"Neck": 0.0})
        assert np.array_equal(mapper.map_frame(low).values, held)

    def test_openni_head_yaw_clamped_once(self, profile):
        body = make_openni_body()
        yaw, _ = map_head_openni((3.0, 0.0), body["Neck"], body["Head"])
        hi = profile.joint_limits[0][1]
        assert yaw == pytest.approx(3.0) and yaw > hi
        frame = SkeletonFrame(layout=OPENNI_LAYOUT, body=body, head_orientation=(3.0, 0.0))
        pose = StreamMapper(profile=profile).map_frame(frame)
        assert pose.values[0] == hi
        assert pose.n_clamped == 1 + n_outside_limits(arm_angles(frame), profile)

    def test_negative_pixel_count_raises(self):
        body = {name: (0.0, 0.0, 0.0) for name in OPENNI_KEYPOINTS}
        frame = SkeletonFrame(layout=OPENNI_LAYOUT, body=body, left_pixels=(-1, 5))
        with pytest.raises(StructuralError):
            StreamMapper().map_frame(frame)

    def test_identical_frames_identical_poses_openpose(self):
        mapper = StreamMapper(seed=5)
        p1 = mapper.map_frame(make_tpose_frame())
        p2 = mapper.map_frame(make_tpose_frame())
        assert np.array_equal(p1.values, p2.values)

    def test_missing_hand_holds_previous(self):
        mapper = StreamMapper(seed=0)
        with_hand = SkeletonFrame(layout=OPENPOSE_LAYOUT,
                                  body=make_tpose_frame().body,
                                  right_hand=make_hand(center=(-0.8, 1.5, 0.0)))
        p1 = mapper.map_frame(with_hand)
        p2 = mapper.map_frame(make_tpose_frame())
        idx = JOINT_NAMES.index("RHandOpen")
        assert p2.values[idx] == p1.values[idx]
        idx = JOINT_NAMES.index("RWristYaw")
        assert p2.values[idx] == p1.values[idx]

    def test_coincident_thumb_pinky_holds_that_hand(self, profile):
        mapper = StreamMapper(profile=profile)
        body = make_tpose_frame().body
        first = mapper.map_frame(SkeletonFrame(
            layout=OPENPOSE_LAYOUT, body=body,
            left_hand=make_hand(spread=0.06, opening=0.10),
            right_hand=make_hand(spread=0.06, opening=0.10)))
        left = make_hand(spread=0.08, opening=0.15)
        right = make_hand(spread=0.08, opening=0.15)
        # same x and y, 0.1 m apart in depth: the spread alone would move the wrist yaw
        right[HAND_PINKY_TIP] = right[HAND_THUMB_TIP] + (0.0, 0.0, 0.1)
        second = mapper.map_frame(SkeletonFrame(
            layout=OPENPOSE_LAYOUT, body=body, left_hand=left, right_hand=right))
        for name in ("RWristYaw", "RHandOpen"):
            idx = JOINT_NAMES.index(name)
            assert second.values[idx] == first.values[idx], name
        left_only = StreamMapper(profile=profile).map_frame(SkeletonFrame(
            layout=OPENPOSE_LAYOUT, body=body, left_hand=left))
        for name in ("LWristYaw", "LHandOpen"):
            idx = JOINT_NAMES.index(name)
            assert second.values[idx] == left_only.values[idx] != first.values[idx], name

    def test_each_wrist_yaw_maps_onto_its_own_limits(self, profile):
        limits = list(profile.joint_limits)
        limits[JOINT_NAMES.index("RWristYaw")] = (-1.0, 1.0)
        narrow = dataclasses.replace(profile, joint_limits=tuple(limits))
        hand = make_hand(spread=0.06)  # thumb-pinky distance 0.12 m
        pose = StreamMapper(profile=narrow).map_frame(SkeletonFrame(
            layout=OPENPOSE_LAYOUT, body=make_tpose_frame().body,
            left_hand=hand, right_hand=hand))
        t = (0.12 - HAND_YAW_SRC[0]) / (HAND_YAW_SRC[1] - HAND_YAW_SRC[0])
        for name in ("LWristYaw", "RWristYaw"):
            lo, hi = narrow.joint_limits[JOINT_NAMES.index(name)]
            assert pose.values[JOINT_NAMES.index(name)] == pytest.approx(
                lo + t * (hi - lo), abs=1e-12), name

    def test_openni_seeded_fingers_deterministic(self):
        body = make_openni_body()
        frame = SkeletonFrame(layout=OPENNI_LAYOUT, body=body,
                              head_orientation=(0.1, 0.0), left_pixels=(500, 10),
                              right_pixels=(10, 500))
        run1 = StreamMapper(seed=7).map_frame(frame).values
        run2 = StreamMapper(seed=7).map_frame(frame).values
        assert np.array_equal(run1, run2)

    def test_openni_non_finger_joints_seed_independent(self):
        body = make_openni_body()
        frame = SkeletonFrame(layout=OPENNI_LAYOUT, body=body,
                              head_orientation=(0.1, 0.0))
        a = StreamMapper(seed=1).map_frame(frame).values
        b = StreamMapper(seed=2).map_frame(frame).values
        finger_idx = {JOINT_NAMES.index("LHandOpen"), JOINT_NAMES.index("RHandOpen")}
        for i in range(len(JOINT_NAMES)):
            if i not in finger_idx:
                assert a[i] == b[i]


class TestFrameValidation:
    def test_openni_wrong_keypoint_set(self):
        with pytest.raises(StructuralError):
            SkeletonFrame(layout=OPENNI_LAYOUT, body={"Head": (0, 0, 0)})

    def test_openpose_bad_hand_shape(self):
        with pytest.raises(StructuralError):
            SkeletonFrame(layout=OPENPOSE_LAYOUT, body=make_openpose_body(),
                          left_hand=np.zeros((20, 3)))

    def test_unknown_layout(self):
        with pytest.raises(StructuralError):
            SkeletonFrame(layout="kinect", body={})

    def test_point_below_threshold_raises(self):
        assert CONFIDENCE_THRESHOLD == 0.1
        frame = SkeletonFrame(layout=OPENPOSE_LAYOUT, body=make_openpose_body(),
                              confidence={"Nose": 0.1})
        assert frame.point("Nose")[1] == 1.65
        frame = SkeletonFrame(layout=OPENPOSE_LAYOUT, body=make_openpose_body(),
                              confidence={"Nose": 0.05})
        with pytest.raises(StructuralError, match="Nose"):
            frame.point("Nose")


class TestFrameIO:
    def test_roundtrip(self, tmp_path):
        rec = {"layout": OPENPOSE_LAYOUT, "timestamp": 0.5,
               "body": {name: [0.0, 0.0, 0.0] for name in OPENPOSE_KEYPOINTS}}
        rec["body"]["Nose"] = [0.0, 1.6, 0.0, 0.9]
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        frames = load_skeleton_frames(path)
        assert len(frames) == 1
        assert frames[0].timestamp == 0.5
        assert frames[0].confidence["Nose"] == 0.9

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ParseError, match="line 1"):
            load_skeleton_frames(path)

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps({"timestamp": 0.0}) + "\n")
        with pytest.raises(ParseError):
            load_skeleton_frames(path)

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
    ])
    def test_malformed_record_names_its_line(self, tmp_path, layout, field, value):
        good = skeleton_record(layout, 0.0)
        bad = skeleton_record(layout, 0.25)
        if field in bad["body"]:
            bad["body"][field] = value
        else:
            bad[field] = value
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_skeleton_frames(path)


def skeleton_record(layout, timestamp):
    """A valid capture record of either layout, as written to a JSONL file."""
    if layout == OPENNI_LAYOUT:
        body = {name: [0.0, 0.0, 0.0] for name in OPENNI_KEYPOINTS}
        return {"layout": layout, "timestamp": timestamp, "body": body,
                "head_orientation": [0.1, 0.0], "left_pixels": [300, 100],
                "right_pixels": [100, 300]}
    body = {name: [0.0, 0.0, 0.0] for name in OPENPOSE_KEYPOINTS}
    return {"layout": layout, "timestamp": timestamp, "body": body,
            "left_hand": make_hand().tolist(), "right_hand": make_hand().tolist()}
