import numpy as np
import pytest

from gesturemetrics import pipeline
from gesturemetrics.errors import ParseError, StructuralError
from gesturemetrics.model import N_JOINTS, as_matrix
from gesturemetrics.pipeline import (
    PoseStream,
    load_dataset,
    load_stream,
    match_lengths,
    resample,
    save_dataset,
    save_stream,
    window,
)


def make_stream(n, rate_hz=4.0, fn=None, start=0.0):
    ts = start + np.arange(n) / rate_hz
    values = [[fn(t) if fn else 0.0] * N_JOINTS for t in ts]
    return PoseStream(values=values, timestamps=ts, native_rate_hz=rate_hz)


class TestStream:
    def test_requires_strictly_increasing_timestamps(self):
        with pytest.raises(StructuralError):
            PoseStream(values=np.zeros((2, N_JOINTS)), timestamps=[0.0, 0.0],
                       native_rate_hz=4.0)

    def test_requires_nonempty(self):
        with pytest.raises(StructuralError):
            PoseStream(values=np.zeros((0, N_JOINTS)), timestamps=[], native_rate_hz=4.0)
        with pytest.raises(StructuralError):
            PoseStream(values=np.zeros((2, N_JOINTS)), timestamps=[0.0], native_rate_hz=4.0)

    @pytest.mark.parametrize("rate", [0.0, -4.0, float("inf"), float("nan")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(StructuralError):
            PoseStream(values=np.zeros((2, N_JOINTS)), timestamps=[0.0, 1.0],
                       native_rate_hz=rate)


class TestResample:
    def test_native_rate_is_identity(self):
        stream = make_stream(20, rate_hz=4.0, fn=lambda t: np.sin(t))
        out = resample(stream, 4.0)
        assert len(out) == len(stream)
        assert np.allclose(out.values, stream.values, atol=1e-9)
        assert np.allclose(out.timestamps, stream.timestamps, atol=1e-9)

    def test_two_poses_one_second_to_4hz(self):
        stream = PoseStream(values=[[0.0] * N_JOINTS, [1.0] * N_JOINTS],
                            timestamps=[0.0, 1.0], native_rate_hz=1.0)
        out = resample(stream, 4.0)
        assert len(out) == 5
        # linear interpolation oracle, joint by joint
        for i, pose in enumerate(out.values):
            assert pose[0] == pytest.approx(i * 0.25, abs=1e-12)

    def test_constant_stream_stays_constant(self):
        stream = make_stream(9, rate_hz=2.0, fn=lambda t: 0.7)
        out = resample(stream, 5.0)
        assert np.allclose(out.values, 0.7)
        assert len(out) == 21

    def test_single_pose_rejected(self):
        stream = PoseStream(values=np.zeros((1, N_JOINTS)), timestamps=[0.0],
                            native_rate_hz=1.0)
        with pytest.raises(StructuralError):
            resample(stream, 4.0)

    @pytest.mark.parametrize("rate", [0.0, -4.0, float("nan"), float("inf")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(StructuralError, match="finite and positive"):
            resample(make_stream(9, rate_hz=2.0), rate)

    def test_grid_longer_than_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_RESAMPLED_POSES", 21)
        stream = make_stream(9, rate_hz=2.0)        # spans 4 s
        assert len(resample(stream, 5.0)) == 21     # 20 steps
        with pytest.raises(StructuralError, match="target rate 5.25 Hz gives more than 21"):
            resample(stream, 5.25)                  # 21 steps, 22 poses


class TestMatchLengths:
    def test_large_stream_truncation(self):
        a = make_stream(2018)
        b = make_stream(2100)
        a2, b2 = match_lengths(a, b)
        assert len(a2) == len(b2) == 2018

    def test_equal_lengths_unchanged(self):
        a = make_stream(10)
        b = make_stream(10)
        a2, b2 = match_lengths(a, b)
        for old, new in ((a, a2), (b, b2)):
            assert np.array_equal(new.values, old.values)
            assert np.array_equal(new.timestamps, old.timestamps)

    def test_keeps_leading_poses(self):
        a = make_stream(5, fn=lambda t: t)
        b = make_stream(3, fn=lambda t: -t)
        a2, b2 = match_lengths(a, b)
        assert len(a2) == len(b2) == 3
        assert np.array_equal(a2.timestamps, a.timestamps[:3])
        assert np.array_equal(a2.values, a.values[:3])


class TestWindow:
    def test_mu_one_keeps_every_pose(self):
        ds = window(make_stream(1502), 1)
        assert len(ds) == 1502

    def test_floor_division_drops_remainder(self):
        ds = window(make_stream(1502), 4)
        assert len(ds) == 375

    def test_exact_division(self):
        stream = make_stream(8, fn=lambda t: t)
        ds = window(stream, 4)
        assert len(ds) == 2
        first, second = as_matrix(ds).reshape(2, 4, N_JOINTS)
        assert np.array_equal(first, stream.values[:4])
        assert np.array_equal(second, stream.values[4:])

    def test_concatenated_windows_reproduce_prefix(self):
        stream = make_stream(11, fn=lambda t: np.cos(t))
        ds = window(stream, 4)
        rebuilt = as_matrix(ds).reshape(-1, N_JOINTS)
        assert np.array_equal(rebuilt, stream.values[:8])

    def test_explicit_stride_overlap(self):
        stream = make_stream(10, fn=lambda t: t)
        ds = window(stream, 4, stride=2)
        assert len(ds) == 4
        for i, row in enumerate(as_matrix(ds)):
            assert np.array_equal(row.reshape(4, N_JOINTS), stream.values[2 * i:2 * i + 4])

    def test_bad_mu_rejected(self):
        with pytest.raises(StructuralError):
            window(make_stream(10), 0)

    def test_short_stream_rejected(self):
        with pytest.raises(StructuralError):
            window(make_stream(3), 4)


class TestDatasetIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = make_stream(16, fn=lambda t: float(rng.normal()))
        ds = window(stream, 4, source_tag="unit-test")
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.mu == ds.mu
        assert back.dt == ds.dt
        assert back.source_tag == "unit-test"
        assert np.array_equal(as_matrix(back), as_matrix(ds))

    def test_wrong_column_count_names_line(self, tmp_path):
        ds = window(make_stream(4), 1)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[6] = ",".join(lines[6].split(",")[:13])  # drop a joint column
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 7"):
            load_dataset(path)

    def test_declared_mu_must_match_header(self, tmp_path):
        ds = window(make_stream(8), 4)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        text = path.read_text().replace("#mu=4", "#mu=2")
        path.write_text(text)
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_valid_mu4_56_columns_accepted(self, tmp_path):
        ds = window(make_stream(8), 4)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert as_matrix(back).shape == (2, 56)

    def test_non_numeric_cell_reported(self, tmp_path):
        ds = window(make_stream(4), 1)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "oops"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 6"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reported(self, tmp_path, cell):
        ds = window(make_stream(4), 1)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[7].split(",")
        cells[5] = cell
        lines[7] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 8"):
            load_dataset(path)


def with_header(path, key, value):
    """Rewrite the ``#key=...`` comment header of a saved file."""
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"#{key}="))
    lines[index] = f"#{key}={value}"
    path.write_text("\n".join(lines) + "\n")


class TestDatasetHeaders:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(window(make_stream(8), 4), path)
        return path

    @pytest.mark.parametrize("value", ["inf", "nan", "0.0", "-0.25", "fast"])
    def test_dt_must_be_finite_and_positive(self, saved, value):
        with_header(saved, "dt", value)
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(saved)

    def test_dt_whose_cube_underflows_rejected(self, saved):
        with_header(saved, "dt", "1e-300")
        with pytest.raises(ParseError, match="line 2: .*cubed"):
            load_dataset(saved)

    def test_dt_whose_cube_overflows_rejected(self, saved):
        with_header(saved, "dt", "1e200")
        with pytest.raises(ParseError, match="line 2: .*cubed"):
            load_dataset(saved)

    def test_missing_dt_rejected(self, saved):
        saved.write_text(saved.read_text().replace("#dt=0.25\n", ""))
        with pytest.raises(ParseError, match="#dt"):
            load_dataset(saved)

    @pytest.mark.parametrize("value", ["inf", "nan", "0.0", "-4.0"])
    def test_rate_must_be_finite_and_positive(self, saved, value):
        with_header(saved, "rate_hz", value)
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(saved)

    def test_missing_rate_defaults_to_inverse_dt(self, saved):
        saved.write_text(saved.read_text().replace("#rate_hz=4.0\n", ""))
        assert load_dataset(saved).sample_rate_hz == 4.0


class TestStreamIO:
    def test_roundtrip_exact(self, tmp_path):
        stream = make_stream(7, rate_hz=3.0, fn=lambda t: np.sin(3 * t))
        path = tmp_path / "stream.csv"
        save_stream(stream, path)
        back = load_stream(path)
        assert back.native_rate_hz == stream.native_rate_hz
        assert np.array_equal(back.values, stream.values)
        assert np.array_equal(back.timestamps, stream.timestamps)

    def test_missing_rate_header(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("timestamp,x\n0.0,1.0\n")
        with pytest.raises(ParseError):
            load_stream(path)

    @pytest.mark.parametrize("value", ["0.0", "-4.0", "inf", "nan", "fast"])
    def test_rate_must_be_finite_and_positive(self, tmp_path, value):
        path = tmp_path / "stream.csv"
        save_stream(make_stream(5), path)
        with_header(path, "rate_hz", value)
        with pytest.raises(ParseError, match="line 1"):
            load_stream(path)

    @pytest.mark.parametrize("column", [0, 3])
    def test_non_finite_cell_reported(self, tmp_path, column):
        path = tmp_path / "stream.csv"
        save_stream(make_stream(5), path)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column] = "nan"
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5"):
            load_stream(path)
