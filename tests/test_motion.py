import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemetrics.errors import InsufficientDataError, StructuralError
from gesturemetrics.model import JOINT_NAMES, N_JOINTS, GestureDataset, RobotProfile
from gesturemetrics import motion
from gesturemetrics.motion import (
    SITES,
    angular_jerk,
    forward_kinematics,
    jerk,
    motion_report,
    path_length,
)

J = {name: i for i, name in enumerate(JOINT_NAMES)}
S = {site: i for i, site in enumerate(SITES)}


@pytest.fixture(scope="module")
def profile():
    return RobotProfile.default()


def pose_with(**angles):
    vals = np.zeros(N_JOINTS)
    for name, v in angles.items():
        vals[J[name]] = v
    return vals


def random_pose(rng, profile):
    limits = profile.limits_array()
    return rng.uniform(limits[:, 0], limits[:, 1])


def homogeneous(r, t):
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    return m


def rx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def ry(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def rz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def fk_oracle(pose, profile):
    """Independent chain evaluation with explicit 4x4 transforms."""
    vals = np.array(pose)
    out = {}
    for prefix, sign in (("L", 1.0), ("R", -1.0)):
        base = homogeneous(np.eye(3), [0.0, sign * profile.shoulder_offset, 0.0])
        sh = base @ homogeneous(
            ry(-vals[J[prefix + "ShoulderPitch"]]) @ rz(vals[J[prefix + "ShoulderRoll"]]),
            [0, 0, 0])
        el = sh @ homogeneous(np.eye(3), [profile.upper_arm_length, 0.0, 0.0])
        el_rot = el @ homogeneous(
            rx(vals[J[prefix + "ElbowYaw"]]) @ rz(vals[J[prefix + "ElbowRoll"]]),
            [0, 0, 0])
        hand = el_rot @ homogeneous(np.eye(3), [profile.forearm_length, 0.0, 0.0])
        out[prefix + "elbow"] = el[:3, 3]
        out[prefix + "hand"] = hand[:3, 3]
    return out


def fk_chain(pose, profile):
    """The chain as 3x3 matrix products, (4, 3) in SITES order.

    The rotations take their trig from ``math``, as the closed form does, so
    a comparison sees only the chain arithmetic.
    """
    vals = np.asarray(pose, dtype=float).tolist()
    ex = np.array([1.0, 0.0, 0.0])
    out = {}
    for prefix, side_sign in (("L", 1.0), ("R", -1.0)):
        shoulder = np.array([0.0, side_sign * profile.shoulder_offset, 0.0])
        r_sh = ry(-vals[J[prefix + "ShoulderPitch"]]) @ rz(vals[J[prefix + "ShoulderRoll"]])
        elbow = shoulder + profile.upper_arm_length * (r_sh @ ex)
        r_el = r_sh @ rx(vals[J[prefix + "ElbowYaw"]]) @ rz(vals[J[prefix + "ElbowRoll"]])
        out[prefix + "elbow"] = elbow
        out[prefix + "hand"] = elbow + profile.forearm_length * (r_el @ ex)
    return np.array([out[site] for site in SITES])


class TestForwardKinematics:
    def test_rest_pose_points_forward(self, profile):
        pos = forward_kinematics(pose_with(), profile)
        lu, lf, off = (profile.upper_arm_length, profile.forearm_length,
                       profile.shoulder_offset)
        assert pos.shape == (len(SITES), 3)
        assert np.allclose(pos[S["Lelbow"]], [lu, off, 0.0], atol=1e-12)
        assert np.allclose(pos[S["Lhand"]], [lu + lf, off, 0.0], atol=1e-12)
        assert np.allclose(pos[S["Relbow"]], [lu, -off, 0.0], atol=1e-12)
        assert np.allclose(pos[S["Rhand"]], [lu + lf, -off, 0.0], atol=1e-12)

    def test_link_lengths_conserved(self, profile):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pose = random_pose(rng, profile)
            pos = forward_kinematics(pose, profile)
            for prefix, sign in (("L", 1.0), ("R", -1.0)):
                sh = np.array([0.0, sign * profile.shoulder_offset, 0.0])
                d_upper = np.linalg.norm(pos[S[prefix + "elbow"]] - sh)
                d_fore = np.linalg.norm(pos[S[prefix + "hand"]] - pos[S[prefix + "elbow"]])
                assert d_upper == pytest.approx(profile.upper_arm_length, abs=1e-12)
                assert d_fore == pytest.approx(profile.forearm_length, abs=1e-12)

    def test_matches_homogeneous_transform_oracle(self, profile):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pose = random_pose(rng, profile)
            got = forward_kinematics(pose, profile)
            want = fk_oracle(pose, profile)
            for site in SITES:
                assert np.allclose(got[S[site]], want[site], atol=1e-12)

    def test_positive_shoulder_roll_moves_left_arm_left(self, profile):
        pos = forward_kinematics(pose_with(LShoulderRoll=0.5), profile)
        rest = forward_kinematics(pose_with(), profile)
        assert pos[S["Lelbow"]][1] > rest[S["Lelbow"]][1]

    def test_elbow_yaw_alone_leaves_straight_arm_hand_fixed(self, profile):
        # rotation about the upper-arm axis cannot move a collinear forearm
        a = forward_kinematics(pose_with(), profile)
        b = forward_kinematics(pose_with(LElbowYaw=1.0, RElbowYaw=-1.0), profile)
        assert np.allclose(a[S["Lhand"]], b[S["Lhand"]], atol=1e-12)
        assert np.allclose(a[S["Rhand"]], b[S["Rhand"]], atol=1e-12)

    def test_arms_mirror_for_mirrored_angles(self, profile):
        pose_l = pose_with(LShoulderPitch=0.7, LShoulderRoll=0.4,
                           LElbowYaw=-0.6, LElbowRoll=-0.9)
        pose_r = pose_with(RShoulderPitch=0.7, RShoulderRoll=-0.4,
                           RElbowYaw=0.6, RElbowRoll=0.9)
        left = forward_kinematics(pose_l, profile)
        right = forward_kinematics(pose_r, profile)
        flip = np.array([1.0, -1.0, 1.0])
        assert np.allclose(left[S["Lelbow"]] * flip, right[S["Relbow"]], atol=1e-12)
        assert np.allclose(left[S["Lhand"]] * flip, right[S["Rhand"]], atol=1e-12)


ARM_ANGLE = st.floats(-2 * np.pi, 2 * np.pi)


class TestClosedForm:
    @pytest.mark.parametrize("draw", ["limits", "two_pi"])
    def test_matches_matrix_chain_oracle(self, profile, draw):
        rng = np.random.default_rng(12)
        if draw == "limits":
            limits = profile.limits_array()
            poses = rng.uniform(limits[:, 0], limits[:, 1], size=(10_000, N_JOINTS))
        else:
            poses = rng.uniform(-2 * np.pi, 2 * np.pi, size=(10_000, N_JOINTS))
        got = np.array([forward_kinematics(pose, profile) for pose in poses])
        want = np.array([fk_chain(pose, profile) for pose in poses])
        elbows = [S["Lelbow"], S["Relbow"]]
        hands = [S["Lhand"], S["Rhand"]]
        assert np.array_equal(got[:, elbows], want[:, elbows])
        # 4 ulp of the largest coordinate an arm can reach
        reach = profile.shoulder_offset + profile.upper_arm_length + profile.forearm_length
        assert np.max(np.abs(got[:, hands] - want[:, hands])) <= 4 * np.spacing(reach)

    @pytest.mark.parametrize("shape", [(12,), (13,), (15,), (2, N_JOINTS), (N_JOINTS, 1), ()])
    def test_pose_must_be_fourteen_values(self, profile, shape):
        with pytest.raises(StructuralError, match="a pose is 14 joint values"):
            forward_kinematics(np.zeros(shape), profile)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(angles=st.lists(ARM_ANGLE, min_size=N_JOINTS, max_size=N_JOINTS))
    def test_link_lengths_conserved_everywhere(self, profile, angles):
        pos = forward_kinematics(np.array(angles), profile)
        for prefix, sign in (("L", 1.0), ("R", -1.0)):
            sh = np.array([0.0, sign * profile.shoulder_offset, 0.0])
            elbow, hand = pos[S[prefix + "elbow"]], pos[S[prefix + "hand"]]
            assert np.linalg.norm(elbow - sh) == pytest.approx(profile.upper_arm_length,
                                                               abs=1e-12)
            assert np.linalg.norm(hand - elbow) == pytest.approx(profile.forearm_length,
                                                                 abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pitch=ARM_ANGLE, roll=ARM_ANGLE, eyaw=ARM_ANGLE, eroll=ARM_ANGLE)
    def test_mirrored_angles_mirror_the_arms_exactly(self, profile, pitch, roll, eyaw, eroll):
        # the right arm's roll and yaw angles are the left arm's negated
        pose = pose_with(LShoulderPitch=pitch, LShoulderRoll=roll, LElbowYaw=eyaw,
                         LElbowRoll=eroll, RShoulderPitch=pitch, RShoulderRoll=-roll,
                         RElbowYaw=-eyaw, RElbowRoll=-eroll)
        pos = forward_kinematics(pose, profile)
        flip = np.array([1.0, -1.0, 1.0])
        assert np.array_equal(pos[S["Lelbow"]] * flip, pos[S["Relbow"]])
        assert np.array_equal(pos[S["Lhand"]] * flip, pos[S["Rhand"]])


class TestJerk:
    def test_constant_track_zero(self):
        assert jerk(np.tile([1.0, 2.0, 3.0], (8, 1)), 0.25) == 0.0

    def test_quadratic_track_zero(self):
        t = np.arange(10.0)
        pts = np.column_stack([t ** 2, 2 * t ** 2, np.zeros(10)])
        assert jerk(pts, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_track_exactly_six(self):
        t = np.arange(6.0)
        pts = np.column_stack([t ** 3, np.zeros(6), np.zeros(6)])
        assert jerk(pts, 1.0) == 6.0

    def test_cubic_track_any_dt_exactly_six(self):
        dt = 0.25
        t = np.arange(8) * dt
        pts = np.column_stack([t ** 3, np.zeros(8), np.zeros(8)])
        assert jerk(pts, dt) == pytest.approx(6.0, abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(12, 3))
        a = jerk(pts, 0.25)
        b = jerk(pts + [5.0, -2.0, 9.0], 0.25)
        assert a == pytest.approx(b, rel=1e-12)

    def test_scaling_is_linear(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 3))
        a = jerk(pts, 0.25)
        b = jerk(3.0 * pts, 0.25)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            jerk(np.zeros((3, 3)), 0.25)


class TestPathLength:
    def test_straight_line(self):
        pts = np.column_stack([np.linspace(0, 2, 9), np.zeros(9), np.zeros(9)])
        assert path_length(pts) == pytest.approx(2.0)

    def test_out_and_back_doubles(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
        assert path_length(pts) == pytest.approx(2.0)

    def test_polygon_approaches_circumference(self):
        theta = np.linspace(0, 2 * np.pi, 2001)
        pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
        assert path_length(pts) == pytest.approx(2 * np.pi, rel=1e-5)

    def test_stationary_zero(self):
        pts = np.tile([0.3, -0.1, 0.2], (5, 1))
        assert path_length(pts) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            path_length(np.zeros((1, 3)))


class TestAngularJerk:
    def test_cubic_exactly_six(self):
        t = np.arange(7.0)
        assert angular_jerk(t ** 3, 1.0) == 6.0

    def test_linear_zero(self):
        assert angular_jerk(np.arange(6.0) * 0.3, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_bad_dt(self):
        with pytest.raises(StructuralError):
            angular_jerk(np.arange(6.0), 0.0)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            angular_jerk([0.0, 1.0, 2.0], 0.25)


def build_dataset(rng, profile, n_units, mu, dt=0.25):
    rows = [np.concatenate([random_pose(rng, profile) for _ in range(mu)])
            for _ in range(n_units)]
    return GestureDataset(matrix=rows, dt=dt)


def unit_tracks(unit, profile):
    """mu x 3 track of every site of one dataset row, one FK call per pose."""
    poses = [unit[k:k + N_JOINTS] for k in range(0, unit.size, N_JOINTS)]
    positions = np.array([forward_kinematics(pose, profile) for pose in poses])
    return {site: positions[:, s] for s, site in enumerate(SITES)}


class TestUnitTracks:
    def test_shapes_and_dt(self, profile):
        rng = np.random.default_rng(4)
        ds = build_dataset(rng, profile, 3, 6)
        tracks = np.stack([unit_tracks(unit, profile)["Lhand"] for unit in ds.matrix])
        assert tracks.shape == (3, 6, 3)
        assert jerk(tracks, ds.dt).shape == (3,)
        assert path_length(tracks).shape == (3,)
        assert isinstance(jerk(tracks[0], ds.dt), float)
        assert isinstance(path_length(tracks[0]), float)
        # halving the rate multiplies the jerk by 2^-3
        slow = GestureDataset(matrix=ds.matrix, dt=2 * ds.dt)
        fast_jerk = motion_report(ds, profile)["jerk_by_site"]["Lhand"]
        slow_jerk = motion_report(slow, profile)["jerk_by_site"]["Lhand"]
        assert slow_jerk == pytest.approx(fast_jerk / 8.0, rel=1e-12)

    def test_rows_match_per_pose_fk(self, profile):
        rng = np.random.default_rng(5)
        poses = [random_pose(rng, profile) for _ in range(4)]
        ds = GestureDataset(matrix=[np.concatenate(poses)], dt=0.25)
        report = motion_report(ds, profile)
        tracks = unit_tracks(ds.matrix[0], profile)
        for site in SITES:
            for i, pose in enumerate(poses):
                assert np.allclose(tracks[site][i],
                                   forward_kinematics(pose, profile)[S[site]], atol=1e-12)
            assert report["jerk_by_site"][site] == jerk(tracks[site], 0.25)
            assert report["path_length_by_site"][site] == path_length(tracks[site])


class TestMotionReport:
    def test_tracks_equal_stacked_per_pose_fk(self, profile, monkeypatch):
        rng = np.random.default_rng(13)
        ds = build_dataset(rng, profile, 6, 5)
        seen = []

        def recording_path_length(points):
            seen.append(np.array(points))
            return path_length(points)

        monkeypatch.setattr(motion, "path_length", recording_path_length)
        motion_report(ds, profile)
        stacked = np.array([forward_kinematics(pose, profile)
                            for pose in ds.matrix.reshape(-1, N_JOINTS)])
        want = stacked.reshape(len(ds), ds.mu, len(SITES), 3)
        assert len(seen) == len(SITES)
        for s, track in enumerate(seen):
            assert np.array_equal(track, want[:, :, s])

    def test_matches_per_unit_averaging_oracle(self, profile):
        rng = np.random.default_rng(6)
        ds = build_dataset(rng, profile, 7, 5)
        report = motion_report(ds, profile)
        for site in SITES:
            jerks = []
            paths = []
            for unit in ds.matrix:
                track = unit_tracks(unit, profile)[site]
                jerks.append(jerk(track, ds.dt))
                paths.append(path_length(track))
            assert report["jerk_by_site"][site] == pytest.approx(np.mean(jerks), abs=1e-12)
            assert report["path_length_by_site"][site] == pytest.approx(
                np.mean(paths), abs=1e-12)

    def test_head_jerk_oracle(self, profile):
        rng = np.random.default_rng(7)
        ds = build_dataset(rng, profile, 5, 6)
        report = motion_report(ds, profile)
        for angle, joint in (("yaw", "HeadYaw"), ("pitch", "HeadPitch")):
            vals = [angular_jerk(unit.reshape(ds.mu, N_JOINTS)[:, J[joint]], ds.dt)
                    for unit in ds.matrix]
            assert report["head_jerk"][angle] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_short_units_flag_jerk_unavailable(self, profile):
        rng = np.random.default_rng(8)
        ds = build_dataset(rng, profile, 4, 2)
        report = motion_report(ds, profile)
        assert not report["jerk_available"]
        assert all(v is None for v in report["jerk_by_site"].values())
        assert all(v is None for v in report["head_jerk"].values())
        assert all(v >= 0.0 for v in report["path_length_by_site"].values())

    def test_mu_one_paths_are_zero(self, profile):
        rng = np.random.default_rng(9)
        ds = build_dataset(rng, profile, 3, 1)
        report = motion_report(ds, profile)
        assert all(v == 0.0 for v in report["path_length_by_site"].values())

    def test_frozen_pose_dataset_all_zero(self, profile):
        pose = pose_with(LShoulderPitch=0.8, RShoulderPitch=0.8)
        ds = GestureDataset(matrix=np.tile(pose, (3, 6)), dt=0.25)
        report = motion_report(ds, profile)
        assert all(v == pytest.approx(0.0, abs=1e-12)
                   for v in report["jerk_by_site"].values())
        assert all(v == pytest.approx(0.0, abs=1e-12)
                   for v in report["path_length_by_site"].values())

    def test_document_keys(self, profile):
        rng = np.random.default_rng(10)
        ds = build_dataset(rng, profile, 2, 4)
        d = motion_report(ds, profile)
        assert set(d) == {"jerk_by_site", "path_length_by_site", "head_jerk",
                          "jerk_available"}


class TestTrackValidation:
    def test_wrong_width_rejected(self):
        for points in (np.zeros((5, 2)), np.zeros((2, 5, 4)), np.zeros(5)):
            with pytest.raises(StructuralError):
                jerk(points, 0.25)
            with pytest.raises(StructuralError):
                path_length(points)

    def test_nonpositive_dt_rejected(self):
        for dt in (-1.0, 0.0, float("nan")):
            with pytest.raises(StructuralError):
                jerk(np.zeros((5, 3)), dt)
            with pytest.raises(StructuralError):
                angular_jerk(np.zeros(5), dt)


class TestBatchedStatistics:
    def test_batched_equals_stacked_per_track_calls(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(4, 5, 9, 3))
        series = rng.normal(size=(4, 5, 9))
        per_track = [[(jerk(points[i, j], 0.25), path_length(points[i, j]),
                       angular_jerk(series[i, j], 0.25)) for j in range(5)]
                     for i in range(4)]
        want_jerk, want_path, want_angular = np.moveaxis(np.array(per_track), -1, 0)
        assert np.array_equal(jerk(points, 0.25), want_jerk)
        assert np.array_equal(path_length(points), want_path)
        assert np.array_equal(angular_jerk(series, 0.25), want_angular)
