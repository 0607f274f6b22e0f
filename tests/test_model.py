import numpy as np
import pytest

from gesturemetrics.errors import StructuralError
from gesturemetrics.model import (
    JOINT_NAMES,
    N_JOINTS,
    GestureDataset,
    Pose,
    RobotProfile,
    as_matrix,
    column_labels,
    validate_pose,
)
from gesturemetrics.pipeline import PoseStream, window


@pytest.fixture(scope="module")
def profile():
    return RobotProfile.default()


def midpoint_values(profile):
    return profile.limits_array().mean(axis=1)


class TestProfile:
    def test_default_profile_loads(self, profile):
        assert len(profile.joint_limits) == N_JOINTS

    def test_hand_open_limits_are_unit_interval(self, profile):
        idx = JOINT_NAMES.index("LHandOpen")
        assert profile.joint_limits[idx] == (0.0, 1.0)

    def test_rejects_empty_interval(self):
        bad = [list(lim) for lim in RobotProfile.default().joint_limits]
        bad[0] = [1.0, 1.0]
        with pytest.raises(StructuralError):
            RobotProfile(joint_limits=tuple(tuple(l) for l in bad))

    def test_rejects_nonpositive_link_length(self, profile):
        with pytest.raises(StructuralError):
            RobotProfile(joint_limits=profile.joint_limits, upper_arm_length=0.0)

    def test_rejects_bad_joint_set(self):
        with pytest.raises(StructuralError):
            RobotProfile.from_dict({"joints": {"HeadYaw": [0, 1]},
                                    "link_lengths": {"upper_arm": 1,
                                                     "forearm": 1,
                                                     "shoulder_offset": 1}})


class TestValidatePose:
    def test_interior_point_unchanged(self, profile):
        vals = midpoint_values(profile)
        out, n_clamped = validate_pose(vals, profile)
        assert np.array_equal(out, vals)
        assert n_clamped == 0

    def test_hand_open_clamped_to_one(self, profile):
        vals = midpoint_values(profile)
        vals[JOINT_NAMES.index("LHandOpen")] = 1.5
        out, n_clamped = validate_pose(vals, profile)
        assert out[JOINT_NAMES.index("LHandOpen")] == 1.0
        assert n_clamped == 1

    def test_head_yaw_below_lower_limit(self, profile):
        lo = profile.joint_limits[0][0]
        vals = midpoint_values(profile)
        vals[0] = lo - 0.3
        out, _ = validate_pose(vals, profile)
        assert out[0] == lo

    def test_idempotent(self, profile):
        rng = np.random.default_rng(3)
        once, _ = validate_pose(rng.uniform(-3, 3, N_JOINTS), profile)
        twice, n_clamped = validate_pose(once, profile)
        assert np.array_equal(twice, once)
        assert n_clamped == 0

    def test_block_matches_per_pose(self, profile):
        rng = np.random.default_rng(4)
        block = rng.uniform(-3, 3, (6, N_JOINTS))
        out, n_clamped = validate_pose(block, profile)
        for i, row in enumerate(block):
            one, n_one = validate_pose(row, profile)
            assert np.array_equal(out[i], one)
            assert n_clamped[i] == n_one

    def test_wrong_arity_rejected(self):
        with pytest.raises(StructuralError):
            Pose(values=tuple(range(13)))


def units_of(poses, mu, dt=0.25):
    """Window a list of 14-value poses into units of ``mu`` poses."""
    poses = np.asarray(poses, dtype=float)
    stream = PoseStream(values=poses, timestamps=dt * np.arange(len(poses)),
                        native_rate_hz=1.0 / dt)
    return as_matrix(window(stream, mu))


class TestFlatten:
    def test_mu_one_identity(self, profile):
        pose = midpoint_values(profile)
        rows = units_of([pose], 1)
        assert np.array_equal(rows[0], pose)

    def test_layout_matches_frame_order(self):
        rng = np.random.default_rng(0)
        poses = rng.uniform(-1, 1, (4, N_JOINTS))
        row = units_of(poses, 4)[0]
        for i, pose in enumerate(poses):
            assert np.array_equal(row[i * N_JOINTS:(i + 1) * N_JOINTS], pose)

    def test_zeros_then_ones(self):
        row = units_of([np.zeros(N_JOINTS), np.ones(N_JOINTS)], 2, dt=0.5)[0]
        assert row.tolist() == [0.0] * N_JOINTS + [1.0] * N_JOINTS

    def test_rows_reshape_back_into_poses(self):
        rng = np.random.default_rng(1)
        poses = rng.uniform(-1, 1, (6, N_JOINTS))
        row = units_of(poses, 6)[0]
        assert np.array_equal(row.reshape(6, N_JOINTS), poses)

    def test_empty_window_rejected(self):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((1, 0)), dt=0.25)

    def test_flat_length_enforced(self):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((1, 27)), dt=0.25)

    def test_dt_positive(self):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((1, N_JOINTS)), dt=0.0)


class TestDataset:
    @pytest.mark.parametrize("mu", [1, 4, 6, 8])
    def test_matrix_shape(self, mu):
        rng = np.random.default_rng(mu)
        ds = GestureDataset(matrix=rng.uniform(size=(5, N_JOINTS * mu)), dt=0.25)
        assert ds.mu == mu
        assert len(ds) == 5
        assert as_matrix(ds).shape == (5, N_JOINTS * mu)

    def test_single_unit_matrix(self):
        row = [float(i) for i in range(N_JOINTS)]
        ds = GestureDataset(matrix=[row], dt=0.25)
        assert as_matrix(ds).dtype == np.float64
        assert np.array_equal(as_matrix(ds), np.array([row]))

    def test_three_by_56(self):
        rng = np.random.default_rng(7)
        ds = GestureDataset(matrix=rng.normal(size=(3, 56)), dt=0.25)
        assert ds.mu == 4
        assert ds.sample_rate_hz == 4.0
        assert as_matrix(ds).shape == (3, 56)

    def test_empty_dataset_rejected(self):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((0, N_JOINTS)), dt=0.25)
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros(N_JOINTS), dt=0.25)

    @pytest.mark.parametrize("dt", [0.0, -0.25, float("inf"), float("nan")])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=dt)

    @pytest.mark.parametrize("rate", [-4.0, float("inf"), float("nan")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=0.25, sample_rate_hz=rate)

    def test_column_labels(self):
        labels = column_labels(2)
        assert labels[0] == "HeadYaw[0]"
        assert labels[N_JOINTS] == "HeadYaw[1]"
        assert len(labels) == 2 * N_JOINTS
