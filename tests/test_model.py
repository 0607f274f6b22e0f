import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemetrics.errors import ParseError, StructuralError
from gesturemetrics.gmm import GmmModel
from gesturemetrics.mapping import OPENNI_KEYPOINTS, OPENNI_LAYOUT, Capture
from gesturemetrics.model import (
    JOINT_NAMES,
    N_JOINTS,
    GestureDataset,
    RobotProfile,
    as_matrix,
    column_labels,
    read_only,
    validate_pose,
)
from gesturemetrics.pipeline import PoseStream, window
from gesturemetrics.synth import beat_gesture_corpus, beat_gesture_stream


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

    def test_rejects_empty_interval(self, profile):
        bad = [list(lim) for lim in profile.joint_limits]
        bad[0] = [1.0, 1.0]
        with pytest.raises(StructuralError):
            dataclasses.replace(profile, joint_limits=tuple(tuple(l) for l in bad))

    @pytest.mark.parametrize("edit, message", [
        (lambda limits: limits[:-1], r"one \[min, max\] pair per joint"),
        (lambda limits: tuple((0.0, 2.0) if name == "LHandOpen" else lim
                              for name, lim in zip(JOINT_NAMES, limits)),
         r"LHandOpen limits must be \[0, 1\]"),
    ], ids=["13-pairs", "hand-open-to-2"])
    def test_rejects_limits_of_another_count_or_hand_range(self, profile, edit, message):
        with pytest.raises(StructuralError, match=message):
            dataclasses.replace(profile, joint_limits=edit(profile.joint_limits))

    def test_rejects_nonpositive_link_length(self, profile):
        with pytest.raises(StructuralError):
            dataclasses.replace(profile, upper_arm_length=0.0)

    @pytest.mark.parametrize("text", [b"[" * 5000, b"\xff{}"], ids=["deeply-nested", "not-utf8"])
    def test_undecodable_file_rejected(self, tmp_path, text):
        path = tmp_path / "profile.json"
        path.write_bytes(text)
        with pytest.raises(ParseError, match="robot profile is not valid JSON"):
            RobotProfile.from_file(path)

    def test_rejects_bad_joint_set(self):
        with pytest.raises(StructuralError):
            RobotProfile.from_dict({"joints": {"HeadYaw": [0, 1]},
                                    "link_lengths": {"upper_arm": 1,
                                                     "forearm": 1,
                                                     "shoulder_offset": 1}})


class TestReadOnly:
    def test_float64_array_is_viewed_not_copied_and_keeps_its_flags(self):
        array = np.arange(6.0).reshape(2, 3)
        view = read_only(array)
        assert np.shares_memory(view, array)
        assert array.flags.writeable and not view.flags.writeable
        array[0, 0] = 7.0       # the caller still owns its array
        assert view[0, 0] == 7.0

    def test_other_input_becomes_a_float_array_that_refuses_writes(self):
        view = read_only([[1, 2], [3, 4]])
        assert view.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 0.0


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

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=N_JOINTS, max_size=N_JOINTS))
    def test_idempotent(self, profile, values):
        once, _ = validate_pose(values, profile)
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


def units_of(poses, mu, dt=0.25):
    """Window a list of 14-value poses into units of ``mu`` poses."""
    poses = np.asarray(poses, dtype=float)
    stream = PoseStream(values=poses, timestamps=dt * np.arange(len(poses)),
                        native_rate_hz=1.0 / dt)
    return window(stream, mu).matrix


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
        assert ds.matrix.shape == (5, N_JOINTS * mu)

    def test_single_unit_matrix(self):
        row = [float(i) for i in range(N_JOINTS)]
        ds = GestureDataset(matrix=[row], dt=0.25)
        assert ds.matrix.dtype == np.float64
        assert np.array_equal(ds.matrix, np.array([row]))

    def test_three_by_56(self):
        rng = np.random.default_rng(7)
        ds = GestureDataset(matrix=rng.normal(size=(3, 56)), dt=0.25)
        assert ds.mu == 4
        assert ds.sample_rate_hz == 4.0
        assert ds.matrix.shape == (3, 56)

    def test_empty_dataset_rejected(self):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((0, N_JOINTS)), dt=0.25)
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros(N_JOINTS), dt=0.25)

    def test_as_matrix_is_the_matrix(self):
        ds = GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=0.25)
        assert as_matrix(ds) is ds.matrix

    @pytest.mark.parametrize("dt", [0.0, -0.25, float("inf"), float("nan")])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=dt)

    @pytest.mark.parametrize("rate", [-4.0, float("inf"), float("nan")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(StructuralError):
            GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=0.25, sample_rate_hz=rate)

    # save_dataset would write a cell that load_dataset refuses
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_values_must_be_finite(self, value):
        matrix = np.zeros((2, N_JOINTS))
        matrix[1, 3] = value
        with pytest.raises(StructuralError, match="dataset values must be finite"):
            GestureDataset(matrix=matrix, dt=0.25)

    # line breaks that str.splitlines() honours, spaces that the reader strips
    # and a tag that UTF-8 cannot encode (a lone surrogate, as an undecodable
    # command-line argument arrives)
    @pytest.mark.parametrize("tag", ["a\nb", "a\rb", "a\x0cb", "a\x85b", "a\u2028b", " pad ",
                                     "caf\udcc3\udca9"])
    def test_source_tag_a_dataset_file_cannot_carry_is_rejected(self, tag):
        with pytest.raises(StructuralError, match="source tag"):
            GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=0.25, source_tag=tag)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GestureDataset)])
    def test_field_cannot_be_reassigned(self, name):
        ds = GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=0.25, source_tag="x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, getattr(ds, name))

    def test_matrix_is_a_read_only_view_of_the_callers_array(self):
        matrix = np.zeros((2, N_JOINTS))
        ds = GestureDataset(matrix=matrix, dt=0.25)
        assert np.shares_memory(ds.matrix, matrix)
        assert matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.matrix[0, 0] = 1.0

    def test_replace_checks_the_new_value_again(self):
        ds = GestureDataset(matrix=np.zeros((2, N_JOINTS)), dt=0.25)
        with pytest.raises(StructuralError, match="source tag"):
            dataclasses.replace(ds, source_tag="a\nb")
        assert dataclasses.replace(ds, source_tag="b").source_tag == "b"

    def test_column_labels(self):
        labels = column_labels(2)
        assert labels[0] == "HeadYaw[0]"
        assert labels[N_JOINTS] == "HeadYaw[1]"
        assert len(labels) == 2 * N_JOINTS



# one value of each frozen type that holds arrays, by a zero-argument factory
MAKERS = {
    "GestureDataset": lambda: beat_gesture_corpus(40, 4),
    "PoseStream": lambda: beat_gesture_stream(10),
    "GmmModel": lambda: GmmModel(weights=[0.5, 0.5], means=np.zeros((2, N_JOINTS)),
                                 covariance=np.eye(N_JOINTS), mu=1, dt=0.25),
    "Capture": lambda: Capture(OPENNI_LAYOUT, [0.0], np.zeros((1, len(OPENNI_KEYPOINTS), 4))),
}


class TestIdentity:
    """The frozen types that hold arrays compare and hash by identity."""

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_compares_and_hashes_by_identity(self, name):
        make = MAKERS[name]
        x, twin = make(), make()
        assert x == x
        assert x != twin and not x == twin
        assert x != dataclasses.replace(x)
        assert hash(x) == object.__hash__(x)
        assert x in [twin, x] and x not in [twin]
        assert {x: 1}[x] == 1 and len({x, twin}) == 2
