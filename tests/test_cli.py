import csv
import json
import os
import platform
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import gesturemetrics
from gesturemetrics.cli import main
from gesturemetrics.gmm import load_model
from gesturemetrics.mapping import OPENPOSE_KEYPOINTS
from gesturemetrics.pipeline import load_dataset, load_stream, save_dataset
from gesturemetrics.report import STAGES, Run, dump_json
from gesturemetrics.synth import beat_gesture_corpus

OPENNI_BODY = {
    "Head": [0.0, 0.45, 2.0],
    "Neck": [0.0, 0.30, 2.0],
    "Torso": [0.0, 0.0, 2.0],
    "LShoulder": [0.2, 0.30, 2.0],
    "LElbow": [0.2, 0.05, 2.0],
    "LHand": [0.2, -0.20, 2.0],
    "RShoulder": [-0.2, 0.30, 2.0],
    "RElbow": [-0.2, 0.05, 2.0],
    "RHand": [-0.2, -0.20, 2.0],
    "LHip": [0.1, -0.30, 2.0],
    "RHip": [-0.1, -0.30, 2.0],
    "LKnee": [0.1, -0.70, 2.0],
    "RKnee": [-0.1, -0.70, 2.0],
    "LFoot": [0.1, -1.10, 2.0],
    "RFoot": [-0.1, -1.10, 2.0],
}


def write_openni_jsonl(path, n_frames=6):
    with open(path, "w") as fh:
        for i in range(n_frames):
            body = {k: [v[0], v[1] + 0.01 * i * (k in ("LHand", "RHand")), v[2]]
                    for k, v in OPENNI_BODY.items()}
            rec = {
                "layout": "openni15",
                "timestamp": i * 0.25,
                "body": body,
                "head_orientation": [0.1, 0.05],
                "left_pixels": [300, 100],
                "right_pixels": [100, 300],
            }
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture
def corpus(tmp_path):
    """Small synthetic stream plus a mu=4 dataset cut from it."""
    stream = tmp_path / "stream.csv"
    ds = tmp_path / "ds.csv"
    assert main(["synth-corpus", "--poses", "160", "--out", str(stream)]) == 0
    assert main(["window", "--mu", "4", str(stream), str(ds)]) == 0
    return stream, ds


PRESCOTT = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                              reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")


def outputs_on_both_kernels(commands, tmp_path):
    """Run the CLI argv lists ``commands``, each of which must exit 0, in one subprocess
    on the default BLAS kernel and in one under ``OPENBLAS_CORETYPE=Prescott``, the SSE3
    kernel every x86-64 host can run (by default OpenBLAS picks the host's own: Haswell,
    SkylakeX, ...). ``{out}`` in an argument names the run's own output directory.
    Returns ``{kernel: {file name: bytes}}`` for the files each run wrote there."""
    script = ("import json, sys; from gesturemetrics.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n")
    src_dir = os.path.dirname(os.path.dirname(gesturemetrics.__file__))
    outputs = {}
    for kernel in ("default", "Prescott"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        out = tmp_path / kernel
        out.mkdir()
        argvs = [[arg.format(out=out) for arg in argv] for argv in commands]
        subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                       env=env, check=True, timeout=300)
        outputs[kernel] = {path.name: path.read_bytes() for path in out.iterdir()}
    return outputs


class TestMap:
    def test_openni_stream(self, tmp_path):
        src = tmp_path / "frames.jsonl"
        out = tmp_path / "mapped.csv"
        write_openni_jsonl(src, n_frames=6)
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 0
        stream = load_stream(out)
        assert len(stream) == 6
        assert stream.native_rate_hz == pytest.approx(4.0)

    def test_layout_mismatch_is_input_failure(self, tmp_path):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src)
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openpose", str(src), str(out)]) == 2

    def test_record_of_another_layout_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src, n_frames=6)
        records = [json.loads(line) for line in src.read_text().splitlines()]
        records[3] = {"layout": "openpose25", "timestamp": records[3]["timestamp"],
                      "body": {name: [0.0, 0.0, 0.0] for name in OPENPOSE_KEYPOINTS}}
        src.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2
        assert "line 4: frame layout 'openpose25'" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_json_is_input_failure(self, tmp_path):
        src = tmp_path / "frames.jsonl"
        src.write_text('{"layout": "openni15", "body": {\n')
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2

    def test_line_nested_too_deep_is_input_failure(self, tmp_path, capsys):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src, n_frames=3)
        with open(src, "a") as fh:
            fh.write("[" * 5000 + "\n")
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: invalid JSON") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: {k: v for k, v in rec.items() if k != "timestamp"},
         "skeleton record has no timestamp"),
        (lambda rec: [1, 2], "skeleton record must be a JSON object"),
        (lambda rec: {**rec, "body": list(rec["body"].values())}, "body must be a JSON object"),
    ], ids=["no-timestamp", "array", "array-body"])
    def test_record_that_is_not_a_frame_is_input_failure(self, tmp_path, capsys, edit, message):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src, n_frames=3)
        lines = src.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["map", "--layout", "openni", "--seed", "5", str(src), str(out1)]) == 0
        assert main(["map", "--layout", "openni", "--seed", "5", str(src), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_equal_first_and_last_timestamps_is_input_failure(self, tmp_path, capsys):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src, n_frames=3)
        records = [json.loads(line) for line in src.read_text().splitlines()]
        src.write_text("".join(json.dumps({**rec, "timestamp": 1.0}) + "\n"
                               for rec in records))
        assert main(["map", "--layout", "openni", str(src),
                     str(tmp_path / "mapped.csv")]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_repeated_middle_timestamp_is_input_failure(self, tmp_path, capsys):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src, n_frames=6)
        records = [json.loads(line) for line in src.read_text().splitlines()]
        records[3]["timestamp"] = records[2]["timestamp"]
        src.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 4: frame timestamps must be strictly increasing" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("body", {"LElbow": [0.2, float("nan"), 2.0]}),
        ("left_pixels", ["a", 3]),
        ("right_pixels", [-5, 3]),
        ("head_orientation", [0.1]),
        ("left_hand", [[0.0, 0.0, 0.0]] * 21),     # OpenPose frames alone carry hands
    ])
    def test_malformed_capture_is_input_failure(self, tmp_path, capsys, field, value):
        src = tmp_path / "frames.jsonl"
        write_openni_jsonl(src, n_frames=6)
        records = [json.loads(line) for line in src.read_text().splitlines()]
        records[4][field] = {**records[4][field], **value} if field == "body" else value
        src.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2
        assert "line 5" in capsys.readouterr().err
        assert not out.exists()

    @PRESCOTT
    def test_output_does_not_depend_on_the_blas_kernel(self, gen_inputs, tmp_path):
        layouts = ("openpose", "openni")
        for layout in layouts:
            getattr(gen_inputs, f"write_{layout}_capture")(tmp_path / f"{layout}.jsonl", 300,
                                                           seed=1)
        outputs = outputs_on_both_kernels(
            [["map", "--layout", layout, str(tmp_path / f"{layout}.jsonl"), "{out}/" + layout]
             for layout in layouts], tmp_path)
        assert sorted(outputs["default"]) == sorted(layouts)
        assert all(len(data.splitlines()) == 302 for data in outputs["default"].values())
        assert outputs["Prescott"] == outputs["default"]

    # keypoints far apart but finite: their difference would overflow to inf and map to NaN
    @pytest.mark.parametrize("layout, far", [("openni", ("LElbow", "LHand")),
                                             ("openpose", ("Nose", "Neck"))],
                             ids=["openni", "openpose"])
    def test_keypoints_whose_distance_overflows_are_input_failure(self, gen_inputs, tmp_path,
                                                                  capsys, layout, far):
        src = tmp_path / "frames.jsonl"
        getattr(gen_inputs, f"write_{layout}_capture")(src, 6, seed=1)
        records = [json.loads(line) for line in src.read_text().splitlines()]
        for name, x in zip(far, (1e308, -1e308)):
            records[2]["body"][name][0] = x
        src.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", layout, str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 3: bad skeleton record: keypoint {far[0]} must be "
                              "finite") and err.count("\n") == 1
        assert not out.exists()


class TestStreamCommands:
    def test_synth_corpus_windowed_directly(self, tmp_path):
        out = tmp_path / "ds.csv"
        assert main(["synth-corpus", "--poses", "80", "--mu", "4",
                     "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.mu == 4
        assert len(ds) == 20

    def test_resample_halves_count(self, corpus, tmp_path):
        stream, _ = corpus
        out = tmp_path / "resampled.csv"
        assert main(["resample", "--rate", "2.0", str(stream), str(out)]) == 0
        resampled = load_stream(out)
        assert resampled.native_rate_hz == 2.0
        assert len(resampled) == 80  # 159 intervals at 4 Hz span 39.75 s

    @pytest.mark.parametrize("rate", ["inf", "nan", "0"])
    def test_bad_resample_rate_is_input_failure(self, corpus, tmp_path, capsys, rate):
        stream, _ = corpus
        out = tmp_path / "resampled.csv"
        assert main(["resample", "--rate", rate, str(stream), str(out)]) == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["1e20", "1e300", "1.7e308"])
    def test_resample_rate_with_oversized_grid_is_input_failure(self, corpus, tmp_path,
                                                                capsys, rate):
        stream, _ = corpus
        out = tmp_path / "resampled.csv"
        assert main(["resample", "--rate", rate, str(stream), str(out)]) == 2
        assert capsys.readouterr().err == (f"error: target rate {float(rate)} Hz gives "
                                           "more than 10000000 poses over the stream\n")
        assert not out.exists()

    def test_window_floor_division(self, corpus):
        _, ds_path = corpus
        ds = load_dataset(ds_path)
        assert len(ds) == 40

    def test_match_lengths(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["synth-corpus", "--poses", "50", "--out", str(a)]) == 0
        assert main(["synth-corpus", "--poses", "30", "--seed", "1",
                     "--out", str(b)]) == 0
        out_a = tmp_path / "a2.csv"
        out_b = tmp_path / "b2.csv"
        assert main(["match-lengths", str(a), str(b), str(out_a), str(out_b)]) == 0
        assert len(load_stream(out_a)) == len(load_stream(out_b)) == 30

    def test_repeated_calls_write_what_fresh_processes_write(self, corpus, tmp_path):
        # main() reuses one parser; a second call must not see the first's options
        stream, _ = corpus
        runs = [["window", "--mu", "4"], ["window", "--mu", "2", "--stride", "1"]]
        for k, argv in enumerate(runs):
            assert main([*argv, str(stream), str(tmp_path / f"in_process_{k}.csv")]) == 0
        src_dir = os.path.dirname(os.path.dirname(gesturemetrics.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
        for k, argv in enumerate(runs):
            subprocess.run([sys.executable, "-m", "gesturemetrics.cli", *argv, str(stream),
                            str(tmp_path / f"fresh_{k}.csv")], env=env, check=True, timeout=120)
            assert ((tmp_path / f"in_process_{k}.csv").read_bytes()
                    == (tmp_path / f"fresh_{k}.csv").read_bytes())


class TestMetricCommands:
    def test_pcoa_self_comparison(self, corpus, tmp_path, capsys):
        _, ds = corpus
        out = tmp_path / "fidelity.json"
        spectra = tmp_path / "spectra.csv"
        svg = tmp_path / "spectra.svg"
        assert main(["pcoa", str(ds), str(ds), "--out", str(out),
                     "--spectrum-csv", str(spectra), "--svg", str(svg)]) == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["r2"], 1.0, atol=1e-8)
        assert spectra.read_text().startswith("dimension,")
        assert svg.read_text().startswith("<svg")

    def test_procrustes_self_comparison(self, corpus, tmp_path):
        _, ds = corpus
        out = tmp_path / "orig.json"
        assert main(["procrustes", str(ds), str(ds), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ss"] == pytest.approx(0.0, abs=1e-8)
        assert doc["ss_normalized"] == pytest.approx(0.0, abs=1e-8)

    def test_procrustes_without_reflections(self, corpus, tmp_path):
        _, ds = corpus
        gen = tmp_path / "gen.csv"
        assert main(["synth-corpus", "--poses", "160", "--mu", "4", "--seed", "1",
                     "--out", str(gen)]) == 0
        docs = {}
        for flags in ([], ["--no-reflections"]):
            out = tmp_path / "orig.json"
            assert main(["procrustes", *flags, str(ds), str(gen), "--out", str(out)]) == 0
            docs[bool(flags)] = out.read_text()
        run = Run(load_dataset(ds), load_dataset(gen), allow_reflections=False)
        assert docs[True] == dump_json(STAGES["originality"](run))
        # on this pair the best orthogonal map is a reflection, so a proper rotation fits worse
        assert json.loads(docs[True])["ss"] > json.loads(docs[False])["ss"]

    def test_procrustes_coordinates_need_mu(self, tmp_path):
        a = tmp_path / "a.csv"
        np.savetxt(a, np.random.default_rng(0).normal(size=(6, 2)), delimiter=",")
        assert main(["procrustes", "--coordinates", str(a), str(a)]) == 2

    @pytest.mark.parametrize("cell, message", [("abc", "non-numeric cell"),
                                               ("nan", "non-finite cell")])
    def test_procrustes_bad_coordinate_is_input_failure(self, tmp_path, capsys, cell, message):
        good = tmp_path / "good.csv"
        np.savetxt(good, np.random.default_rng(0).normal(size=(6, 2)), delimiter=",")
        lines = good.read_text().splitlines()
        lines[3] = cell + lines[3][lines[3].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "orig.json"
        assert main(["procrustes", "--coordinates", "--mu", "1", str(good), str(bad),
                     "--out", str(out)]) == 2
        assert f"line 4: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["0", "-1"])
    def test_procrustes_coordinates_mu_below_one_is_input_failure(self, tmp_path, capsys, mu):
        coords = tmp_path / "coords.csv"
        coords.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        out = tmp_path / "orig.json"
        assert main(["procrustes", "--coordinates", "--mu", mu, str(coords), str(coords),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: mu must be at least 1, got {mu}\n"
        assert not out.exists()

    def test_motion_stats(self, corpus, tmp_path):
        _, ds = corpus
        out = tmp_path / "motion.json"
        assert main(["motion-stats", str(ds), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["jerk_available"] is True
        assert set(doc["jerk_by_site"]) == {"Lhand", "Rhand", "Lelbow", "Relbow"}

    def test_csv_format_output(self, corpus, tmp_path):
        _, ds = corpus
        out = tmp_path / "motion.csv"
        assert main(["motion-stats", str(ds), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("jerk_by_site.Lhand,") for line in lines)


class TestModelCommands:
    def test_train_generate_fgd(self, corpus, tmp_path):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        gen = tmp_path / "gen.csv"
        assert main(["generate", "--model", str(model), "-n", "50",
                     "--out", str(gen)]) == 0
        assert len(load_dataset(gen)) == 50
        out = tmp_path / "fgd.json"
        assert main(["fgd", "--model", str(model), str(ds), str(ds),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["value"] == pytest.approx(0.0, abs=1e-8)

    def test_gmm_train_deterministic(self, corpus, tmp_path):
        _, ds = corpus
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        assert main(["gmm-train", "--k", "3", "--seed", "7", str(ds),
                     "--out", str(m1)]) == 0
        assert main(["gmm-train", "--k", "3", "--seed", "7", str(ds),
                     "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("command", ["synth-corpus", "generate"])
    def test_pose_count_above_the_cap_is_input_failure(self, corpus, tmp_path, capsys, command):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "2", str(ds), "--out", str(model)]) == 0
        out = tmp_path / "out.csv"
        argv, message = {
            "synth-corpus": (["synth-corpus", "--poses", str(10 ** 12), "--out", str(out)],
                             "n_poses 1000000000000 is more than 10000000 poses"),
            "generate": (["generate", "--model", str(model), "-n", str(10 ** 12),
                          "--out", str(out)],
                         "n 1000000000000 units of 4 poses give more than 10000000 poses"),
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_too_few_units_is_metric_failure(self, tmp_path):
        ds = tmp_path / "tiny.csv"
        assert main(["synth-corpus", "--poses", "8", "--mu", "4",
                     "--out", str(ds)]) == 0
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "24", str(ds), "--out", str(model)]) == 2

    def test_overflowing_squared_distances_are_input_failure(self, tmp_path, capsys):
        ds = tmp_path / "corpus.csv"
        assert main(["synth-corpus", "--poses", "240", "--mu", "4", "--seed", "0",
                     "--out", str(ds)]) == 0
        with_cell(ds, ds, "1e308")
        capsys.readouterr()
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "2", str(ds), "--out", str(model)]) == 2
        assert capsys.readouterr().err == (
            "error: dataset values lie too far apart: their squared distances overflow\n")
        assert not model.exists()

    # a fit that round-off makes hopeless is refused like any other input
    @pytest.mark.parametrize("options", [["--k", "2"], ["--k", "3"], ["--k", "2", "--seed", "1"]])
    def test_outlier_that_breaks_the_fit_is_input_failure(self, tmp_path, capsys, options):
        ds = tmp_path / "corpus.csv"
        save_dataset(beat_gesture_corpus(60, 4, seed=0), ds)
        lines = ds.read_text().splitlines()
        lines[5] = ",".join(["9999999", *lines[5].split(",")[1:]])
        ds.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.json"
        assert main(["gmm-train", *options, str(ds), "--out", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: EM iteration ") and err.count("\n") == 1
        assert "round-off made the covariance indefinite" in err
        assert not model.exists()


def with_cell(clean, path, value, rows=(0,), column=3):
    """A copy of the dataset file ``clean`` at ``path`` whose cell ``column`` (by
    default the 4th, ``LShoulderRoll[0]``) is ``value`` on the given body rows."""
    lines = clean.read_text().splitlines()
    for row in rows:
        cells = lines[5 + row].split(",")
        cells[column] = value
        lines[5 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def overflow_corpus(tmp_path):
    """``synth-corpus --poses 240 --mu 4 --seed 0`` (60 units), a copy whose 4th cell
    of the first body row is 1e308, and a model trained on the clean corpus."""
    clean, model = tmp_path / "clean.csv", tmp_path / "model.json"
    assert main(["synth-corpus", "--poses", "240", "--mu", "4", "--seed", "0",
                 "--out", str(clean)]) == 0
    bad = with_cell(clean, tmp_path / "bad.csv", "1e308")
    assert main(["gmm-train", "--k", "2", "--out", str(model), str(clean)]) == 0
    return clean, bad, model


class TestOverflow:
    SPREAD = "dataset values lie too far apart: their squared distances overflow"
    COLUMN_SUM = "dataset values are too large: a column sum overflows"
    FAR = "dataset values lie too far from the model's components: "
    WHITENED = FAR + "their whitened squared distances overflow"

    @pytest.mark.parametrize("argv, message", [
        (["pcoa"], SPREAD),
        (["procrustes"], SPREAD),
        (["fgd", "--model", "{model}"], WHITENED),
    ])
    @pytest.mark.parametrize("bad_side", [0, 1])
    def test_single_stage_is_input_failure(self, overflow_corpus, tmp_path, capsys,
                                           argv, message, bad_side):
        clean, bad, model = overflow_corpus
        pair = [bad, clean] if bad_side == 0 else [clean, bad]
        out = tmp_path / "out.json"
        capsys.readouterr()
        argv = [a.format(model=model) for a in argv]
        assert main([*argv, *map(str, pair), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_evaluate_records_each_stage(self, overflow_corpus, tmp_path):
        clean, bad, model = overflow_corpus
        out = tmp_path / "summary.json"
        assert main(["evaluate", "--model", str(model), str(bad), str(clean),
                     "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["errors"] == {
            "fidelity": self.SPREAD,
            "originality": "skipped: fidelity stage failed, no coordinates",
            "fgd": self.WHITENED,
        }
        assert doc["motion_original"] is not None and doc["motion_generated"] is not None

    # every cell of LShoulderRoll[0] near the float maximum: the column's spread
    # is 0, but its sum, and so its mean, overflows
    @pytest.mark.parametrize("command", ["pcoa", "procrustes", "gmm-train"])
    def test_column_whose_sum_overflows_is_input_failure(self, overflow_corpus, tmp_path,
                                                         capsys, command):
        clean, _, _ = overflow_corpus
        column = with_cell(clean, tmp_path / "column.csv", "1.7e308", rows=range(60))
        out = tmp_path / "out.json"
        capsys.readouterr()
        argv = (["gmm-train", "--k", "2", str(column)] if command == "gmm-train"
                else [command, str(column), str(clean)])
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {self.COLUMN_SUM}\n"
        assert not out.exists()

    def test_evaluate_records_a_column_whose_sum_overflows(self, overflow_corpus, tmp_path):
        clean, _, model = overflow_corpus
        column = with_cell(clean, tmp_path / "column.csv", "1.7e308", rows=range(60))
        out = tmp_path / "summary.json"
        assert main(["evaluate", "--model", str(model), str(column), str(clean),
                     "--out", str(out)]) == 1
        assert json.loads(out.read_text())["errors"] == {
            "fidelity": self.COLUMN_SUM,
            "originality": "skipped: fidelity stage failed, no coordinates",
            "fgd": self.WHITENED,
        }

    # a unit far out of scale but finite: the log-likelihoods grow so large that
    # rounding them pushes its posterior row off the simplex (it reads [1, 1]), and
    # FGD would read a shrinking distance. A far LShoulderRoll[0] alone does so from
    # 1e15 on; at 1e12 and 1e14 a second far cell moves the unit orthogonally to
    # cov^-1 (m0 - m1), so that its log-likelihoods under both components grow alike
    @pytest.mark.parametrize("value, alike", [("1e12", True), ("1e14", True),
                                              ("1e15", False), ("1e20", False)],
                             ids=["1e12", "1e14", "1e15", "1e20"])
    def test_posteriors_off_the_simplex_are_input_failure(self, overflow_corpus, tmp_path,
                                                          capsys, value, alike):
        clean, _, model = overflow_corpus
        far = with_cell(clean, tmp_path / "far.csv", value)
        if alike:
            fitted = load_model(model)
            pull = np.linalg.solve(fitted.covariance, fitted.means[0] - fitted.means[1])
            k = int(np.argmax(np.abs(pull)))
            assert k != 3
            with_cell(far, far, str(float(-float(value) * pull[3] / pull[k])), column=k)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["fgd", "--model", str(model), str(far), str(clean),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {self.FAR}a posterior row's sum differs from 1 by ")
        assert err.count("\n") == 1 and not out.exists()
        assert main(["evaluate", "--model", str(model), str(far), str(clean),
                     "--out", str(out)]) == 1
        assert json.loads(out.read_text())["errors"] == {"fgd": err[len("error: "):-1]}

    # posteriors are centred on a point the model fixes, so a far unit moves no other
    # unit's row; its own row rounds to [1, 0], and the feature statistics equal the
    # clean corpus's on every kernel
    @PRESCOTT
    def test_far_copy_reads_zero_fgd_on_every_blas_kernel(self, overflow_corpus, tmp_path):
        clean, _, model = overflow_corpus
        values = ("1e9", "1e12", "1e14")
        outputs = outputs_on_both_kernels(
            [["fgd", "--model", str(model), str(with_cell(clean, tmp_path / f"{v}.csv", v)),
              str(clean), "--out", "{out}/" + v] for v in values], tmp_path)
        assert [json.loads(outputs["default"][v])["value"] for v in values] == [0.0] * 3
        assert outputs["Prescott"] == outputs["default"]


class TestEvaluate:
    def test_self_comparison_full(self, corpus, tmp_path):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        out = tmp_path / "summary.json"
        assert main(["evaluate", str(ds), str(ds), "--model", str(model),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["errors"] == {}
        assert np.allclose(doc["fidelity"]["r2"], 1.0, atol=1e-8)
        assert doc["originality"]["ss"] == pytest.approx(0.0, abs=1e-8)
        assert doc["fgd"]["value"] == pytest.approx(0.0, abs=1e-8)
        assert doc["metadata"]["mu"] == 4

    def test_without_model_records_skip(self, corpus, tmp_path):
        _, ds = corpus
        out = tmp_path / "summary.json"
        assert main(["evaluate", str(ds), str(ds), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert "fgd" in doc["errors"]
        assert doc["fidelity"] is not None

    def test_mu_mismatch_is_input_failure(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        assert main(["synth-corpus", "--poses", "64", "--out", str(stream)]) == 0
        ds4 = tmp_path / "ds4.csv"
        ds8 = tmp_path / "ds8.csv"
        model = tmp_path / "model.json"
        assert main(["window", "--mu", "4", str(stream), str(ds4)]) == 0
        assert main(["window", "--mu", "8", str(stream), str(ds8)]) == 0
        assert main(["gmm-train", "--k", "1", str(ds4), "--out", str(model)]) == 0
        capsys.readouterr()
        # the run is checked before any stage, so fgd does not get to compare widths
        for argv in (["evaluate"], ["pcoa"], ["procrustes"], ["fgd", "--model", str(model)]):
            assert main([*argv, str(ds4), str(ds8)]) == 2, argv[0]
            err = capsys.readouterr().err
            assert err == "error: mu mismatch: original has 4, generated has 8\n", argv[0]

    def test_model_of_another_mu_is_input_failure(self, tmp_path, capsys):
        a, b, mu2, model = (tmp_path / name for name in ("a.csv", "b.csv", "mu2.csv", "m.json"))
        for path, mu, seed in ((a, "4", "0"), (b, "4", "1"), (mu2, "2", "2")):
            assert main(["synth-corpus", "--poses", "400", "--mu", mu, "--seed", seed,
                         "--out", str(path)]) == 0
        assert main(["gmm-train", "--k", "2", str(mu2), "--out", str(model)]) == 0
        out = tmp_path / "out.json"
        capsys.readouterr()
        for command in ("fgd", "evaluate"):
            assert main([command, "--model", str(model), str(a), str(b), "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: mu mismatch: original has 4, model has 2\n"
            assert not out.exists()

    def test_summary_blocks_equal_single_stage_documents(self, corpus, tmp_path):
        _, ds = corpus
        gen = tmp_path / "gen.csv"
        model = tmp_path / "model.json"
        assert main(["synth-corpus", "--poses", "160", "--mu", "4", "--seed", "1",
                     "--out", str(gen)]) == 0
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        evaluate = ["evaluate", str(ds), str(gen), "--model", str(model), "--dims", "5",
                    "--bootstrap", "3", "--seed", "2"]
        summary = tmp_path / "summary.json"
        summary_csv = tmp_path / "summary.csv"
        assert main([*evaluate, "--out", str(summary)]) == 0
        assert main([*evaluate, "--format", "csv", "--out", str(summary_csv)]) == 0
        doc = json.loads(summary.read_text())
        rows = summary_csv.read_text().splitlines()
        assert rows[0] == "key,value"
        fgd = ["--model", str(model), "--bootstrap", "3", "--seed", "2"]
        for block, argv in (("fidelity", ["pcoa", "--dims", "5", str(ds), str(gen)]),
                            ("originality", ["procrustes", "--dims", "5", str(ds), str(gen)]),
                            ("motion_original", ["motion-stats", str(ds)]),
                            ("motion_generated", ["motion-stats", str(gen)]),
                            ("fgd", ["fgd", *fgd, str(ds), str(gen)])):
            out = tmp_path / f"{block}.json"
            assert main([*argv, "--out", str(out)]) == 0, block
            assert out.read_text() == dump_json(doc[block]), block
            out_csv = tmp_path / f"{block}.csv"
            assert main([*argv, "--format", "csv", "--out", str(out_csv)]) == 0, block
            prefix = f"{block}."
            assert out_csv.read_text().splitlines() == ["key,value"] + [
                row[len(prefix):] for row in rows if row.startswith(prefix)], block

    def test_failed_fidelity_stage_skips_originality_only(self, corpus, tmp_path):
        # two units of movement are too few for correlations, enough for the other stages
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        pair = []
        for seed in ("0", "1"):
            path = tmp_path / f"two_units_{seed}.csv"
            assert main(["synth-corpus", "--poses", "8", "--mu", "4", "--seed", seed,
                         "--out", str(path)]) == 0
            pair.append(str(path))
        out = tmp_path / "summary.json"
        assert main(["evaluate", *pair, "--model", str(model), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["errors"] == {
            "fidelity": "need at least 3 samples for correlations",
            "originality": "skipped: fidelity stage failed, no coordinates"}
        assert doc["fidelity"] is None and doc["originality"] is None
        for block in ("motion_original", "motion_generated", "fgd"):
            assert doc[block] is not None, block
        # the single-stage commands that need no PCoA run none
        for argv in (["motion-stats", pair[0]], ["fgd", "--model", str(model), *pair]):
            assert main([*argv, "--out", str(tmp_path / "stage.json")]) == 0, argv[0]

    def test_csv_value_with_a_comma_is_quoted(self, tmp_path):
        pair = []
        for seed in ("0", "1"):
            path = tmp_path / f"two_units_{seed}.csv"
            assert main(["synth-corpus", "--poses", "8", "--mu", "4", "--seed", seed,
                         "--out", str(path)]) == 0
            pair.append(str(path))
        out = tmp_path / "summary.csv"
        assert main(["evaluate", *pair, "--format", "csv", "--out", str(out)]) == 1
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert ["errors.originality",
                repr("skipped: fidelity stage failed, no coordinates")] in rows

    def test_deterministic_output(self, corpus, tmp_path):
        _, ds = corpus
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        for out in (out1, out2):
            assert main(["evaluate", str(ds), str(ds), "--seed", "3",
                         "--out", str(out)]) == 1  # no model: fgd stage skipped
        assert out1.read_bytes() == out2.read_bytes()


# a profile value that breaks the one JSON-number rule (errors.json_numbers)
PROFILE_NOT_NUMBERS = "malformed robot profile: joint limits and link lengths must be JSON numbers"


class TestErrors:
    def test_missing_input_file(self, tmp_path):
        assert main(["motion-stats", str(tmp_path / "nope.csv")]) == 2

    def test_cell_only_python_float_reads_is_input_failure(self, corpus, tmp_path, capsys):
        _, ds = corpus
        lines = ds.read_text().splitlines()
        cells = lines[6].split(",")
        cells[3] = "1_0"
        lines[6] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["motion-stats", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 7: non-numeric cell '1_0'\n"

    # a line break and a lone surrogate (an argument the locale could not decode)
    @pytest.mark.parametrize("tag", ["a\nb", "a\rb", "caf\udcc3\udca9"])
    def test_source_tag_a_dataset_file_cannot_carry_is_input_failure(
            self, corpus, tmp_path, capsys, tag):
        stream, _ = corpus
        out = tmp_path / "windowed.csv"
        assert main(["window", "--mu", "4", "--source", tag, str(stream), str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: source tag ")
        assert not out.exists()

    def test_missing_dataset_is_named_before_missing_model(self, corpus, tmp_path, capsys):
        # every analysis command loads its datasets first, then the model
        _, ds = corpus
        missing = tmp_path / "no_dataset.csv"
        assert main(["fgd", "--model", str(tmp_path / "no_model.json"), str(missing),
                     str(ds)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no_dataset.csv" in err
        assert "no_model.json" not in err

    @pytest.mark.parametrize("command", ["motion-stats", "evaluate"])
    def test_non_finite_cell_is_input_failure(self, corpus, tmp_path, capsys, command):
        _, ds = corpus
        lines = ds.read_text().splitlines()
        lines[-1] = "nan" + lines[-1][lines[-1].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        inputs = [str(bad)] if command == "motion-stats" else [str(ds), str(bad)]
        out = tmp_path / "out.json"
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert f"line {len(lines)}: non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["motion-stats", "resample", "procrustes"])
    def test_non_utf8_byte_is_input_failure(self, corpus, tmp_path, capsys, command):
        stream, ds = corpus
        source = stream if command == "resample" else ds
        lines = source.read_bytes().split(b"\n")
        lines[1] += b"\xe9"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "out.csv"
        argv = {"motion-stats": ["motion-stats", str(bad), "--out", str(out)],
                "resample": ["resample", "--rate", "2", str(bad), str(out)],
                "procrustes": ["procrustes", "--coordinates", "--mu", "1", str(bad), str(bad),
                               "--out", str(out)]}[command]
        assert main(argv) == 2
        assert "line 2: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.0", "-4.0", "inf"])
    def test_bad_stream_rate_header_is_input_failure(self, corpus, tmp_path, capsys, value):
        stream, _ = corpus
        text = stream.read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace("#rate_hz=4.0\n", f"#rate_hz={value}\n"))
        assert bad.read_text() != text
        out = tmp_path / "windowed.csv"
        assert main(["window", "--mu", "4", str(bad), str(out)]) == 2
        assert "line 1: #rate_hz must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "0.0", "1e-300"])
    def test_bad_dt_header_is_input_failure(self, corpus, tmp_path, capsys, value):
        _, ds = corpus
        text = ds.read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace("#dt=0.25\n", f"#dt={value}\n"))
        assert bad.read_text() != text
        out = tmp_path / "motion.json"
        assert main(["motion-stats", str(bad), "--out", str(out)]) == 2
        assert "line 2: #dt" in capsys.readouterr().err
        assert not out.exists()

    # header cells that Python's int() and float() read but numpy's reader refuses
    @pytest.mark.parametrize("command, old, new, line", [
        ("motion-stats", "#mu=4\n", "#mu=0_4\n", 1),
        ("motion-stats", "#dt=0.25\n", "#dt=2_5e-1\n", 2),
        ("motion-stats", "#rate_hz=4.0\n", "#rate_hz=\u0664\n", 3),
        ("resample", "#rate_hz=4.0\n", "#rate_hz=\u0664\n", 1),
    ])
    def test_header_cell_only_python_reads_is_input_failure(self, corpus, tmp_path, capsys,
                                                            command, old, new, line):
        path = corpus[0] if command == "resample" else corpus[1]
        bad = tmp_path / "bad.csv"
        bad.write_text(path.read_text().replace(old, new))
        out = tmp_path / "out"
        argv = ["resample", "--rate", "2", str(bad), str(out)] if command == "resample" else [
            command, str(bad), "--out", str(out)]
        assert main(argv) == 2
        key = old[1:].partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: line {line}: invalid #{key} header: ")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_metric_failure(self, corpus, tmp_path, capsys, fmt):
        # valid input, but dt**3 is subnormal (about 1e-315) and the jerk overflows
        _, ds = corpus
        text = ds.read_text()
        tiny_dt = tmp_path / "tiny_dt.csv"
        tiny_dt.write_text(text.replace("#dt=0.25\n", "#dt=1e-105\n"))
        assert tiny_dt.read_text() != text
        out = tmp_path / f"out.{fmt}"
        assert main(["motion-stats", str(tiny_dt), "--format", fmt, "--out", str(out)]) == 1
        assert "non-finite value" in capsys.readouterr().err
        assert not out.exists()
        assert main(["motion-stats", str(tiny_dt), "--format", fmt]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("dims", ["0", "-1"])
    @pytest.mark.parametrize("command", ["pcoa", "procrustes", "evaluate"])
    def test_dims_below_one_is_input_failure(self, corpus, tmp_path, capsys, monkeypatch,
                                             command, dims):
        _, ds = corpus
        analyzed = []
        monkeypatch.setattr(gesturemetrics.report, "analyze_dataset_structure", analyzed.append)
        out = tmp_path / "out.json"
        assert main([command, "--dims", dims, str(ds), str(ds), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dims must be at least 1, got {dims}\n"
        assert not out.exists()
        assert analyzed == []   # rejected when the run is built, before any PCoA

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_is_input_failure(self, corpus, tmp_path, capsys, k):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", k, str(ds), "--out", str(model)]) == 2
        assert capsys.readouterr().err == f"error: k must be at least 1, got {k}\n"
        assert not model.exists()

    @pytest.mark.parametrize("command", ["fgd", "evaluate"])
    def test_negative_bootstrap_is_input_failure(self, corpus, tmp_path, capsys, command):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        out = tmp_path / "out.json"
        assert main([command, "--model", str(model), "--bootstrap", "-1", str(ds), str(ds),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bootstrap must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map", "gmm-train", "generate", "synth-corpus",
                                         "fgd", "evaluate"])
    def test_negative_seed_is_usage_error(self, corpus, tmp_path, capsys, command):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "2", str(ds), "--out", str(model)]) == 0
        capture = tmp_path / "capture.jsonl"
        write_openni_jsonl(capture)
        out = tmp_path / "out"
        argv = {
            "map": ["map", "--layout", "openni", str(capture), str(out)],
            "gmm-train": ["gmm-train", "--k", "2", str(ds), "--out", str(out)],
            "generate": ["generate", "--model", str(model), "--out", str(out)],
            "synth-corpus": ["synth-corpus", "--poses", "40", "--out", str(out)],
            "fgd": ["fgd", "--model", str(model), "--bootstrap", "2", str(ds), str(ds),
                    "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(model), "--bootstrap", "2", str(ds),
                         str(ds), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_that_is_not_an_integer_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        assert main(["synth-corpus", "--poses", "40", "--seed", "x", "--out", str(out)]) == 2
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("weights", float("nan"), "must be finite"),
        ("means", float("inf"), "must be finite"),
        ("covariance", float("nan"), "must be finite"),
        ("dt", float("inf"), "must be finite"),
        ("mu", 3, "is not 14 * mu"),
        ("dt", 0.0, "dt must be finite and positive"),
    ])
    @pytest.mark.parametrize("command", ["generate", "fgd"])
    def test_bad_model_file_is_input_failure(self, corpus, tmp_path, capsys, command,
                                             key, value, message):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        if key in ("mu", "dt"):
            doc[key] = value
        else:
            cells = np.array(doc[key])
            cells.flat[0] = value
            doc[key] = cells.tolist()
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.csv"
        argv = (["generate", "--model", str(model), "-n", "10", "--out", str(out)]
                if command == "generate" else
                ["fgd", "--model", str(model), str(ds), str(ds), "--out", str(out)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "fgd"])
    def test_model_entry_too_large_for_a_float_is_input_failure(self, corpus, tmp_path, capsys,
                                                                command):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["covariance"][0][0] = 10 ** 400
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.csv"
        argv = (["generate", "--model", str(model), "-n", "10", "--out", str(out)]
                if command == "generate" else
                ["fgd", "--model", str(model), str(ds), str(ds), "--out", str(out)])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: malformed model file: int too large to convert to float\n")
        assert not out.exists()

    def test_asymmetric_model_covariance_is_input_failure(self, corpus, tmp_path, capsys):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        cov = np.array(doc["covariance"])
        cov[0, 1] = cov[1, 0] * (1 + 8e-6)
        assert np.allclose(cov, cov.T, atol=1e-10)     # numpy's default rtol would pass it
        doc["covariance"] = cov.tolist()
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "fgd.json"
        assert main(["fgd", "--model", str(model), str(ds), str(ds), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: covariance must be symmetric\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "fgd", "evaluate"])
    def test_non_positive_definite_model_is_input_failure(self, corpus, tmp_path, capsys,
                                                          command):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["covariance"] = np.zeros_like(doc["covariance"]).tolist()
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {
            "generate": ["generate", "--model", str(model), "-n", "10", "--out", str(out)],
            "fgd": ["fgd", "--model", str(model), str(ds), str(ds), "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(model), str(ds), str(ds),
                         "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: covariance must be positive definite\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {k: v for k, v in doc.items() if k != "weights"},
         "model file has no 'weights' entry"),
        (lambda doc: {**doc, "weights": "abc"}, "malformed model file"),
        (lambda doc: {**doc, "mu": "four"}, "malformed model file"),
        (lambda doc: {**doc, "mu": 4.5}, "malformed model file"),
        (lambda doc: {**doc, "mu": True}, "mu must be a JSON integer, not a boolean"),
        (lambda doc: {**doc, "dt": True}, "dt and every array entry must be JSON numbers"),
        (lambda doc: {**doc, "means": doc["means"][0]}, "error: means must be K x d\n"),
        (lambda doc: [doc], "model file must hold a JSON object"),
        (lambda doc: {**doc, "means": []}, "error: means must be K x d\n"),
        (lambda doc: {**doc, "dt": [0.25]}, "dt and every array entry must be JSON numbers"),
    ], ids=["missing-key", "non-numeric-array", "non-integer-mu", "fractional-mu",
            "boolean-mu", "boolean-dt", "one-dimensional-means", "not-an-object",
            "empty-means", "array-dt"])
    def test_malformed_model_file_is_input_failure(self, corpus, tmp_path, capsys, edit,
                                                   message):
        _, ds = corpus
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main(["generate", "--model", str(model), "-n", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("write, message", [
        (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "link_lengths"}),
         "robot profile has no 'link_lengths' entry"),
        (lambda doc: json.dumps({**doc, "joints": {**doc["joints"], "HeadYaw": [1.0]}}),
         "malformed robot profile: HeadYaw limit must be a [lo, hi] pair"),
        (lambda doc: json.dumps({**doc, "link_lengths": {**doc["link_lengths"],
                                                         "forearm": "abc"}}),
         PROFILE_NOT_NUMBERS),
        (lambda doc: json.dumps({**doc, "joints": {**doc["joints"], "HeadYaw": ["-2", 2]}}),
         PROFILE_NOT_NUMBERS),
        (lambda doc: json.dumps({**doc, "joints": {**doc["joints"], "HeadYaw": [-2, True]}}),
         PROFILE_NOT_NUMBERS),
        (lambda doc: json.dumps({**doc, "link_lengths": {**doc["link_lengths"],
                                                         "forearm": "0.15"}}),
         PROFILE_NOT_NUMBERS),
        (lambda doc: json.dumps(doc)[:-1], "robot profile is not valid JSON"),
        (lambda doc: "[" * 5000, "robot profile is not valid JSON"),
        (lambda doc: json.dumps([doc]), "robot profile must hold a JSON object"),
        (lambda doc: json.dumps({**doc, "joints": {**doc["joints"], "HeadYaw": [1, 2, 3]}}),
         "malformed robot profile: HeadYaw limit must be a [lo, hi] pair"),
        (lambda doc: json.dumps({**doc, "link_lengths": 5}),
         "malformed robot profile: link_lengths must be a JSON object"),
        (lambda doc: json.dumps({**doc, "joints": 5}),
         "malformed robot profile: joints must be a JSON object"),
        (lambda doc: json.dumps({**doc, "joints": {**doc["joints"], "HeadYaw": 5}}),
         PROFILE_NOT_NUMBERS),
    ], ids=["missing-link-lengths", "one-value-limit", "non-numeric-length",
            "string-limit", "boolean-limit", "numeric-string-length",
            "invalid-json", "deeply-nested", "not-an-object", "three-value-limit",
            "scalar-link-lengths", "scalar-joints", "scalar-limit"])
    def test_malformed_profile_is_input_failure(self, corpus, tmp_path, capsys, write,
                                                message):
        _, ds = corpus
        profile = tmp_path / "profile.json"
        profile.write_text(write(json.loads(
            resources.files("gesturemetrics.profiles").joinpath("pepper.json").read_text())))
        capture = tmp_path / "frames.jsonl"
        write_openni_jsonl(capture)
        out = tmp_path / "out"
        capsys.readouterr()
        for argv in (["map", "--layout", "openni", str(capture), str(out)],
                     ["motion-stats", str(ds), "--out", str(out)],
                     ["evaluate", str(ds), str(ds), "--out", str(out)],
                     ["synth-corpus", "--poses", "40", "--out", str(out)]):
            assert main([*argv, "--profile", str(profile)]) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and message in err
            assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mu", ["0", "4"])
    def test_non_finite_amplitude_is_input_failure(self, tmp_path, capsys, amplitude, mu):
        out = tmp_path / "corpus.csv"
        assert main(["synth-corpus", f"--amplitude={amplitude}", "--mu", mu,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: amplitude must be finite, got {amplitude}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--amplitude", "1e308"], "amplitude 1e+308 overflows the joint values"),
        (["--amplitude=-1e308"], "amplitude -1e+308 overflows the joint values"),
        (["--rate", "1e-320"], "rate must be positive and keep timestamps finite, got 1e-320"),
        (["--rate", "inf"], "rate must be positive and keep timestamps finite, got inf"),
    ], ids=["huge-amplitude", "huge-negative-amplitude", "subnormal-rate", "infinite-rate"])
    @pytest.mark.parametrize("mu", ["0", "4"])
    def test_overflowing_synth_argument_is_input_failure(self, tmp_path, capsys, argv,
                                                         message, mu):
        out = tmp_path / "corpus.csv"
        assert main(["synth-corpus", "--poses", "40", *argv, "--mu", mu,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth-corpus", "window"])
    def test_rate_whose_dt_cubed_underflows_is_input_failure(self, tmp_path, capsys, command):
        out = tmp_path / "corpus.csv"
        if command == "synth-corpus":
            argv = ["synth-corpus", "--poses", "40", "--mu", "4", "--rate", "1e308",
                    "--out", str(out)]
        else:
            stream = tmp_path / "stream.csv"
            assert main(["synth-corpus", "--poses", "40", "--out", str(stream)]) == 0
            stream.write_text(stream.read_text().replace("#rate_hz=4.0\n", "#rate_hz=1e308\n"))
            argv = ["window", "--mu", "4", str(stream), str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: dt=1e-308 cubed (the jerk's scale) is not a positive finite number\n")
        assert not out.exists()

    def test_bad_usage_exit_two(self):
        assert main(["window"]) == 2

    def test_unknown_command_exit_two(self):
        assert main(["frobnicate"]) == 2
