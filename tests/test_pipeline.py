import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gesturemetrics import _rows, pipeline, synth
from gesturemetrics.errors import ParseError, StructuralError
from gesturemetrics.model import JOINT_NAMES, N_JOINTS, GestureDataset, column_labels
from gesturemetrics.pipeline import (
    PoseStream,
    load_dataset,
    load_matrix,
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

    # save_stream would write a cell that load_stream refuses
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["values", "timestamps"])
    def test_values_and_timestamps_must_be_finite(self, name, value):
        given = {"values": np.zeros((3, N_JOINTS)), "timestamps": np.arange(3.0)}
        given[name][-1 if value > 0 else 0, ...] = value     # keeps timestamps increasing
        with pytest.raises(StructuralError, match="must be finite"):
            PoseStream(native_rate_hz=4.0, **given)

    @pytest.mark.parametrize("shape", [(2, N_JOINTS - 1), (2 * N_JOINTS,), (2, 1, N_JOINTS)])
    def test_values_must_be_t_by_14(self, shape):
        with pytest.raises(StructuralError, match=f"stream values must be T x {N_JOINTS}"):
            PoseStream(values=np.zeros(shape), timestamps=[0.0, 1.0], native_rate_hz=1.0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PoseStream)])
    def test_field_cannot_be_reassigned(self, name):
        stream = make_stream(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stream, name, getattr(stream, name))

    @pytest.mark.parametrize("name", ["values", "timestamps"])
    def test_arrays_are_read_only_views_of_the_callers_arrays(self, name):
        given = {"values": np.zeros((3, N_JOINTS)), "timestamps": np.arange(3.0)}
        stream = PoseStream(native_rate_hz=4.0, **given)
        assert np.shares_memory(getattr(stream, name), given[name])
        assert given[name].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            getattr(stream, name)[1] = 0.0


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
        monkeypatch.setattr(pipeline, "MAX_POSES", 21)
        stream = make_stream(9, rate_hz=2.0)        # spans 4 s
        assert len(resample(stream, 5.0)) == 21     # 20 steps
        with pytest.raises(StructuralError, match="target rate 5.25 Hz gives more than 21"):
            resample(stream, 5.25)                  # 21 steps, 22 poses


class TestPoseCap:
    def test_synth_stream_above_the_cap_rejected_before_drawing(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("beat_gesture_stream drew a stream above the pose cap")

        monkeypatch.setattr(synth.np.random, "Philox", refuse)
        n = pipeline.MAX_POSES + 1
        with pytest.raises(StructuralError, match=f"n_poses {n} is more than "
                                                  f"{pipeline.MAX_POSES} poses"):
            synth.beat_gesture_stream(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_synth_stream_without_poses_rejected(self, n):
        with pytest.raises(StructuralError, match="need at least one pose"):
            synth.beat_gesture_stream(n)

    def test_synth_reads_the_cap_at_call_time(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_POSES", 21)
        assert len(synth.beat_gesture_stream(21)) == 21
        with pytest.raises(StructuralError, match="n_poses 22 is more than 21 poses"):
            synth.beat_gesture_corpus(22, 2)


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
        first, second = ds.matrix.reshape(2, 4, N_JOINTS)
        assert np.array_equal(first, stream.values[:4])
        assert np.array_equal(second, stream.values[4:])

    def test_concatenated_windows_reproduce_prefix(self):
        stream = make_stream(11, fn=lambda t: np.cos(t))
        ds = window(stream, 4)
        rebuilt = ds.matrix.reshape(-1, N_JOINTS)
        assert np.array_equal(rebuilt, stream.values[:8])

    def test_explicit_stride_overlap(self):
        stream = make_stream(10, fn=lambda t: t)
        ds = window(stream, 4, stride=2)
        assert len(ds) == 4
        for i, row in enumerate(ds.matrix):
            assert np.array_equal(row.reshape(4, N_JOINTS), stream.values[2 * i:2 * i + 4])

    def test_bad_mu_rejected(self):
        with pytest.raises(StructuralError):
            window(make_stream(10), 0)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_stride_rejected(self, stride):
        with pytest.raises(StructuralError, match="stride must be positive"):
            window(make_stream(10), 2, stride=stride)

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
        assert np.array_equal(back.matrix, ds.matrix)
        # a matrix in another memory layout writes the same bytes
        strided = np.zeros((2 * len(ds.matrix), 2 * ds.matrix.shape[1]))
        strided[::2, ::2] = ds.matrix
        for matrix in (np.asfortranarray(ds.matrix), strided[::2, ::2]):
            assert not matrix.flags.c_contiguous
            save_dataset(dataclasses.replace(ds, matrix=matrix), tmp_path / "other.csv")
            assert (tmp_path / "other.csv").read_bytes() == path.read_bytes()

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
        assert back.matrix.shape == (2, 56)

    def test_every_row_short_of_a_column_names_first_row(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(window(make_stream(12), 4), path)
        lines = path.read_text().splitlines()
        lines[5:] = [line.rpartition(",")[0] for line in lines[5:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 6: expected 56 columns, got 55$"):
            load_dataset(path)

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


class TestSaveMemory:
    @pytest.mark.parametrize("table", ["dataset", "stream"])
    def test_save_holds_about_one_row_of_python_floats(self, tmp_path, table):
        # the whole table as a list of Python floats would take about 4x the array's bytes
        rng = np.random.default_rng(0)
        if table == "dataset":
            saved = GestureDataset(matrix=rng.normal(size=(20_000, 4 * N_JOINTS)), dt=0.25)
            save, array = save_dataset, saved.matrix
        else:
            saved = PoseStream(values=rng.normal(size=(20_000, N_JOINTS)),
                               timestamps=np.arange(20_000) / 4.0, native_rate_hz=4.0)
            save, array = save_stream, saved.values
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save(saved, tmp_path / "table.csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < array.nbytes / 2


WORKER_EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]


# a 2,500 x 56 dataset and a 5,000-pose stream (75,000 cells): both above
# pipeline.ROW_WORKER_CELLS
def large_dataset():
    ds = synth.beat_gesture_corpus(10_000, 4, seed=5)
    matrix = ds.matrix.copy()
    matrix[2_000, :5] = WORKER_EDGE_VALUES       # in the worker's half
    return dataclasses.replace(ds, matrix=matrix, source_tag="caf\u00e9 \u52d5\u304d")


def large_stream():
    stream = synth.beat_gesture_stream(5_000, seed=5)
    values = stream.values.copy()
    values[4_000, :5] = WORKER_EDGE_VALUES
    return PoseStream(values=values, timestamps=stream.timestamps, native_rate_hz=4.0)


def in_process_bytes(headers, labels, rows):
    """A table file's bytes from the row formatter alone, with no worker."""
    text = "".join(f"#{key}={value}\n" for key, value in headers.items())
    text += ",".join(labels) + "\n" + "".join(map(_rows.format_row, rows))
    return text.replace("\n", os.linesep).encode("utf-8")


LARGE_TABLES = {
    "dataset": (large_dataset, save_dataset, lambda ds: in_process_bytes(
        {"mu": 4, "dt": ds.dt, "rate_hz": ds.sample_rate_hz, "source": ds.source_tag},
        column_labels(4), ds.matrix.tolist())),
    "stream": (large_stream, save_stream, lambda stream: in_process_bytes(
        {"rate_hz": 4.0}, ["timestamp", *JOINT_NAMES],
        np.column_stack((stream.timestamps, stream.values)).tolist())),
}


@pytest.fixture
def workers(monkeypatch):
    """Every row worker that a save starts."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def fake_interpreter(tmp_path, script):
    """An executable that runs ``script`` in place of the worker's interpreter."""
    path = tmp_path / "python"
    path.write_text("#!/bin/sh\n" + script + "\n")
    path.chmod(0o755)
    return str(path)


needs_sh = pytest.mark.skipif(os.name != "posix", reason="the fake interpreter is a sh script")


class TestRowWorker:
    @pytest.mark.parametrize("table", ["dataset", "stream"])
    def test_worker_writes_the_in_process_bytes(self, tmp_path, workers, table):
        make, save, expected = LARGE_TABLES[table]
        saved = make()
        path = tmp_path / "table.csv"
        save(saved, path)
        assert len(workers) == 1 and workers[0].returncode == 0
        assert path.read_bytes() == expected(saved)
        if table == "dataset":
            back = load_dataset(path)
            assert back.source_tag == saved.source_tag
            assert back.matrix.tobytes() == saved.matrix.tobytes()
        else:
            back = load_stream(path)
            assert back.values.tobytes() == saved.values.tobytes()
            assert back.timestamps.tobytes() == saved.timestamps.tobytes()

    def test_small_table_starts_no_worker(self, tmp_path, workers):
        # train's 600-unit set-up corpus: 33,600 cells
        save_dataset(synth.beat_gesture_corpus(2_400, 4), tmp_path / "ds.csv")
        assert workers == []

    @pytest.mark.parametrize("executable", ["missing", ""])
    @pytest.mark.parametrize("table", ["dataset", "stream"])
    def test_worker_that_cannot_start_leaves_the_rows_in_process(
            self, tmp_path, monkeypatch, workers, table, executable):
        make, save, expected = LARGE_TABLES[table]
        saved = make()
        monkeypatch.setattr(sys, "executable", executable and str(tmp_path / executable))
        save(saved, tmp_path / "table.csv")
        assert workers == []
        assert (tmp_path / "table.csv").read_bytes() == expected(saved)

    @needs_sh
    @pytest.mark.parametrize("script, code", [
        ("exit 3", 3),
        ("head -c 100000 > /dev/null; printf '1.0\\n'; kill -9 $$", -9),
    ], ids=["exits-3", "killed"])
    def test_failed_worker_fails_the_save(self, tmp_path, monkeypatch, workers, script, code):
        monkeypatch.setattr(sys, "executable", fake_interpreter(tmp_path, script))
        with pytest.raises(OSError, match=f"^the row worker exited with code {code}$"):
            save_dataset(large_dataset(), tmp_path / "ds.csv")
        assert [worker.returncode for worker in workers] == [code]

    def test_interrupted_save_kills_and_reaps_the_worker(self, tmp_path, monkeypatch, workers):
        def interrupt(row):
            raise KeyboardInterrupt

        monkeypatch.setattr(_rows, "format_row", interrupt)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(large_dataset(), tmp_path / "ds.csv")
        assert len(workers) == 1 and workers[0].returncode is not None


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

    @pytest.mark.parametrize("value", ["inf", "nan", "0.0", "-0.25", "fast", "0.25,0.5"])
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

    def test_file_without_header_row_names_its_line(self, saved):
        meta = [line for line in saved.read_text().splitlines() if line.startswith("#")]
        saved.write_text("".join(line + "\n" for line in meta))
        with pytest.raises(ParseError, match=f"^line {len(meta) + 1}: dataset file has no "
                                             f"header row"):
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

    @pytest.mark.parametrize("value", ["four", "4.0", ""])
    def test_mu_that_is_not_an_integer_names_its_line(self, saved, value):
        with_header(saved, "mu", value)
        with pytest.raises(ParseError, match="^line 1: invalid #mu header: "):
            load_dataset(saved)

    # cells that Python's int() and float() read but the body's numpy reader refuses
    @pytest.mark.parametrize("key, value, line", [
        ("mu", "0_4", 1), ("dt", "2_5e-1", 2), ("rate_hz", "\u0664", 3)])
    def test_header_cell_only_python_reads_names_its_line(self, saved, key, value, line):
        with_header(saved, key, value)
        with pytest.raises(ParseError, match=f"^line {line}: invalid #{key} header: "):
            load_dataset(saved)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_mu_below_one_names_its_line(self, saved, value):
        with_header(saved, "mu", value)
        with pytest.raises(ParseError,
                           match=f"^line 1: #mu must be finite and positive, got {value}$"):
            load_dataset(saved)

    def test_header_row_of_another_width_is_refused_before_its_labels_are_built(
            self, saved, monkeypatch):
        with_header(saved, "mu", "1000000000000")

        def column_labels(mu):
            raise AssertionError(f"built the labels of mu={mu}")

        monkeypatch.setattr(pipeline, "column_labels", column_labels)
        with pytest.raises(ParseError, match="^line 5: header row does not match"):
            load_dataset(saved)

    @pytest.mark.parametrize("tag", ["caf\u00e9", "x=y", "a b", ""])
    def test_accepted_source_tag_round_trips(self, tmp_path, tag):
        path = tmp_path / "ds.csv"
        save_dataset(window(make_stream(8), 4, source_tag=tag), path)
        assert load_dataset(path).source_tag == tag

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

    def test_rate_cell_only_python_reads_names_its_line(self, tmp_path):
        path = tmp_path / "stream.csv"
        save_stream(make_stream(5), path)
        with_header(path, "rate_hz", "\u0664")
        with pytest.raises(ParseError, match="^line 1: invalid #rate_hz header: "):
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

    @pytest.mark.parametrize("shift", [0.0, -0.1])
    def test_repeated_or_decreasing_timestamp_names_line(self, tmp_path, shift):
        path = tmp_path / "stream.csv"
        save_stream(make_stream(6), path)
        lines = path.read_text().splitlines()
        previous = float(lines[4].split(",")[0])
        lines[5] = ",".join([repr(previous + shift), *lines[5].split(",")[1:]])
        lines.insert(3, "")     # a blank line still counts in the line numbers
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 7: timestamps must be strictly increasing$"):
            load_stream(path)


class TestUtf8:
    """Every CSV file is UTF-8 text; undecodable bytes name their line."""

    @staticmethod
    def replace_line(path, index, edit):
        lines = path.read_bytes().split(b"\n")
        lines[index] = edit(lines[index])
        path.write_bytes(b"\n".join(lines))

    def test_dataset_header_byte_names_its_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(window(make_stream(8), 4, source_tag="cafe"), path)
        self.replace_line(path, 3, lambda line: line.replace(b"cafe", b"caf\xe9"))
        with pytest.raises(ParseError, match="^line 4: not UTF-8 text: .*0xe9"):
            load_dataset(path)

    def test_dataset_row_byte_names_its_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(window(make_stream(8), 4), path)
        self.replace_line(path, 6, lambda line: b"\xff" + line)
        with pytest.raises(ParseError, match="^line 7: not UTF-8 text: .*0xff"):
            load_dataset(path)

    def test_stream_header_byte_names_its_line(self, tmp_path):
        path = tmp_path / "stream.csv"
        save_stream(make_stream(5), path)
        self.replace_line(path, 1, lambda line: line.replace(b"timestamp", b"tim\xe9stamp"))
        with pytest.raises(ParseError, match="^line 2: not UTF-8 text"):
            load_stream(path)

    def test_matrix_byte_names_its_line(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_bytes(b"#dims=2\n1.0,0.0\n0.0,\xff1.0\n")
        with pytest.raises(ParseError, match="^line 3: not UTF-8 text"):
            load_matrix(path)

    def test_non_ascii_source_round_trips_on_an_ascii_locale(self, tmp_path):
        script = ("import sys; from gesturemetrics.pipeline import load_dataset, save_dataset, window; "
                  "from gesturemetrics.synth import beat_gesture_stream; "
                  "ds = window(beat_gesture_stream(40), 4, source_tag='caf\\u00e9 \\u52d5\\u304d'); "
                  "save_dataset(ds, sys.argv[1]); "
                  "assert load_dataset(sys.argv[1]).source_tag == ds.source_tag")
        path = tmp_path / "ds.csv"
        src_dir = os.path.dirname(os.path.dirname(pipeline.__file__))
        python_path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": python_path}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "#source=caf\u00e9 \u52d5\u304d\n" in path.read_text(encoding="utf-8")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# -0.0, the smallest subnormal, the smallest normal and doubles near ±1e308
EDGE_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e308]
VALUES = st.one_of(FINITE, st.sampled_from(EDGE_VALUES))
EDGE_ROW = (EDGE_VALUES * N_JOINTS)[:N_JOINTS]
ROUND_TRIP = settings(max_examples=40, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestRoundTripProperties:
    @ROUND_TRIP
    @given(rows=st.integers(1, 2).flatmap(lambda mu: st.lists(
        st.lists(VALUES, min_size=N_JOINTS * mu, max_size=N_JOINTS * mu), min_size=1, max_size=3)))
    @example(rows=[EDGE_ROW])
    def test_dataset_save_load_is_exact(self, tmp_path, rows):
        ds = GestureDataset(matrix=np.array(rows), dt=0.25)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.matrix.shape == ds.matrix.shape
        assert back.matrix.tobytes() == ds.matrix.tobytes()

    @ROUND_TRIP
    @given(poses=st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(FINITE, min_size=n, max_size=n, unique=True).map(sorted),
        st.lists(st.lists(VALUES, min_size=N_JOINTS, max_size=N_JOINTS),
                 min_size=n, max_size=n))))
    @example(poses=([-1e308, 5e-324, 1.7976931348623157e308], [EDGE_ROW] * 3))
    def test_stream_save_load_is_exact(self, tmp_path, poses):
        timestamps, values = poses
        stream = PoseStream(values=values, timestamps=timestamps, native_rate_hz=3.0)
        path = tmp_path / "stream.csv"
        save_stream(stream, path)
        back = load_stream(path)
        assert back.values.tobytes() == stream.values.tobytes()
        assert back.timestamps.tobytes() == stream.timestamps.tobytes()


# cells written otherwise than by repr, which numpy's reader reads (it strips
# the spaces of one)
ODD_CELLS = [" 2.5 ", "+1.", ".5e-3", "-0.0"]
CELLS = st.one_of(FINITE.map(repr), st.sampled_from(ODD_CELLS))
BLANK_LINES = st.sampled_from(["", "   ", "\t"])
# non-numeric cells (one hides a comment from a reader that cuts at "#"; three
# only Python's float() reads), an empty cell, non-finite values and a cell
# that splits the row into one column too many
BAD_CELLS = ["abc", "1#5", "", "1_0", "\uff11", "\u0663.5", "nan", "inf", "-inf", "1e400",
             "1,0"]
FIRST_LINE = 3


def bodies(width):
    row = st.lists(CELLS, min_size=width, max_size=width).map(",".join)
    return st.lists(st.one_of(row, BLANK_LINES), max_size=5)


def reference_rows(lines, width):
    """The array a body of readable cells must read to: ``float()`` of each
    cell, after checking that numpy's reader accepts the cell."""
    rows = []
    for line in lines:
        if line.strip():
            cells = line.split(",")
            assert len(cells) == width
            for cell in cells:
                np.loadtxt([cell], delimiter=",", comments=None, dtype=float)
            rows.append([float(cell) for cell in cells])
    return np.array(rows, dtype=float).reshape(len(rows), width)


def expected_error(bad, width):
    """The message ``_read_rows`` raises for a line whose one bad cell is ``bad``."""
    if bad in ("1,0", "trailing comma"):
        return f"expected {width} columns, got {width + 1}"
    if bad in ("nan", "inf", "-inf", "1e400"):
        return f"non-finite cell {bad!r}"
    return f"non-numeric cell {bad!r}"


class TestReaderParity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=st.integers(1, 4).flatmap(lambda width: st.tuples(st.just(width),
                                                                  bodies(width))))
    def test_readable_bodies_read_as_the_reference_reads_them(self, case):
        width, lines = case
        expected = reference_rows(lines, width)
        if not len(expected):
            with pytest.raises(ParseError, match="^no rows$"):
                pipeline._read_rows(lines, FIRST_LINE, width, "no rows")
            return
        rows = pipeline._read_rows(lines, FIRST_LINE, width, "no rows")
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bad_line_raises_at_its_line(self, data):
        width = data.draw(st.integers(1, 4))
        lines = data.draw(bodies(width))
        cells = data.draw(st.lists(CELLS, min_size=width, max_size=width))
        bad = data.draw(st.sampled_from([*BAD_CELLS, "trailing comma"]))
        if bad == "trailing comma":
            line = ",".join(cells) + ","
        else:
            cells[data.draw(st.integers(0, width - 1))] = bad
            line = ",".join(cells)
        assume(line.strip())
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, line)
        with pytest.raises(ParseError) as caught:
            pipeline._read_rows(lines, FIRST_LINE, width, "no rows")
        assert str(caught.value) == f"line {FIRST_LINE + at}: {expected_error(bad, width)}"
        assert caught.value.line == FIRST_LINE + at

    def test_first_bad_line_is_named_whatever_its_fault(self):
        lines = ["1.0,2.0", "nan,2.0", "abc,2.0", "1.0"]
        with pytest.raises(ParseError, match="^line 4: non-finite cell 'nan'$"):
            pipeline._read_rows(lines, FIRST_LINE, 2, "no rows")

    def test_clean_file_is_read_in_one_loadtxt_call(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        path = tmp_path / "ds.csv"
        save_dataset(window(make_stream(16, fn=lambda t: float(rng.normal())), 4), path)
        expected = load_dataset(path).matrix
        calls = []
        loadtxt = np.loadtxt

        def spy(lines, **kwargs):
            calls.append(lines)
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(pipeline.np, "loadtxt", spy)
        assert load_dataset(path).matrix.tobytes() == expected.tobytes()
        # one call per numeric header (#mu, #dt, #rate_hz), then one for the whole body
        assert [len(lines) for lines in calls] == [1, 1, 1, len(expected)]
