import json
from importlib import resources

import numpy as np
import pytest

from gesturemetrics.cli import main
from gesturemetrics.pipeline import load_dataset, load_stream
from gesturemetrics.report import dump_json

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

    def test_corrupt_json_is_input_failure(self, tmp_path):
        src = tmp_path / "frames.jsonl"
        src.write_text('{"layout": "openni15", "body": {\n')
        out = tmp_path / "mapped.csv"
        assert main(["map", "--layout", "openni", str(src), str(out)]) == 2

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

    def test_too_few_units_is_metric_failure(self, tmp_path):
        ds = tmp_path / "tiny.csv"
        assert main(["synth-corpus", "--poses", "8", "--mu", "4",
                     "--out", str(ds)]) == 0
        model = tmp_path / "model.json"
        assert main(["gmm-train", "--k", "24", str(ds), "--out", str(model)]) == 2


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

    def test_mu_mismatch_is_input_failure(self, tmp_path):
        stream = tmp_path / "stream.csv"
        assert main(["synth-corpus", "--poses", "64", "--out", str(stream)]) == 0
        ds4 = tmp_path / "ds4.csv"
        ds8 = tmp_path / "ds8.csv"
        assert main(["window", "--mu", "4", str(stream), str(ds4)]) == 0
        assert main(["window", "--mu", "8", str(stream), str(ds8)]) == 0
        assert main(["evaluate", str(ds4), str(ds8)]) == 2

    def test_summary_blocks_equal_single_stage_documents(self, corpus, tmp_path):
        _, ds = corpus
        gen = tmp_path / "gen.csv"
        model = tmp_path / "model.json"
        assert main(["synth-corpus", "--poses", "160", "--mu", "4", "--seed", "1",
                     "--out", str(gen)]) == 0
        assert main(["gmm-train", "--k", "4", str(ds), "--out", str(model)]) == 0
        summary = tmp_path / "summary.json"
        assert main(["evaluate", str(ds), str(gen), "--model", str(model), "--dims", "5",
                     "--bootstrap", "3", "--seed", "2", "--out", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        fgd = ["--model", str(model), "--bootstrap", "3", "--seed", "2"]
        for block, argv in (("fidelity", ["pcoa", "--dims", "5", str(ds), str(gen)]),
                            ("originality", ["procrustes", "--dims", "5", str(ds), str(gen)]),
                            ("motion_generated", ["motion-stats", str(gen)]),
                            ("fgd", ["fgd", *fgd, str(ds), str(gen)])):
            out = tmp_path / f"{block}.json"
            assert main([*argv, "--out", str(out)]) == 0, block
            assert out.read_text() == dump_json(doc[block]), block

    def test_deterministic_output(self, corpus, tmp_path):
        _, ds = corpus
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        for out in (out1, out2):
            assert main(["evaluate", str(ds), str(ds), "--seed", "3",
                         "--out", str(out)]) == 1  # no model: fgd stage skipped
        assert out1.read_bytes() == out2.read_bytes()


class TestErrors:
    def test_missing_input_file(self, tmp_path):
        assert main(["motion-stats", str(tmp_path / "nope.csv")]) == 2

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_result_is_metric_failure(self, corpus, tmp_path, capsys):
        # valid input, but dt**3 is subnormal (about 1e-315) and the jerk overflows
        _, ds = corpus
        text = ds.read_text()
        tiny_dt = tmp_path / "tiny_dt.csv"
        tiny_dt.write_text(text.replace("#dt=0.25\n", "#dt=1e-105\n"))
        assert tiny_dt.read_text() != text
        out = tmp_path / "out.json"
        assert main(["motion-stats", str(tiny_dt), "--out", str(out)]) == 1
        assert "non-finite value" in capsys.readouterr().err
        assert not out.exists()
        assert main(["motion-stats", str(tiny_dt)]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("dims", ["0", "-1"])
    @pytest.mark.parametrize("command", ["pcoa", "procrustes", "evaluate"])
    def test_dims_below_one_is_input_failure(self, corpus, tmp_path, capsys, command, dims):
        _, ds = corpus
        out = tmp_path / "out.json"
        assert main([command, "--dims", dims, str(ds), str(ds), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dims must be at least 1, got {dims}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("key, value, message", [
        ("weights", float("nan"), "must be finite"),
        ("means", float("inf"), "must be finite"),
        ("covariance", float("nan"), "must be finite"),
        ("dt", float("inf"), "must be finite"),
        ("mu", 3, "is not 14 * mu"),
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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {k: v for k, v in doc.items() if k != "weights"},
         "model file has no 'weights' entry"),
        (lambda doc: {**doc, "weights": "abc"}, "malformed model file"),
        (lambda doc: {**doc, "mu": "four"}, "malformed model file"),
        (lambda doc: {**doc, "mu": 4.5}, "malformed model file"),
        (lambda doc: {**doc, "means": doc["means"][0]}, "malformed model file"),
        (lambda doc: [doc], "model file must hold a JSON object"),
    ], ids=["missing-key", "non-numeric-array", "non-integer-mu", "fractional-mu",
            "one-dimensional-means", "not-an-object"])
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
         "malformed robot profile"),
        (lambda doc: json.dumps({**doc, "link_lengths": {**doc["link_lengths"],
                                                         "forearm": "abc"}}),
         "malformed robot profile"),
        (lambda doc: json.dumps(doc)[:-1], "robot profile is not valid JSON"),
        (lambda doc: json.dumps([doc]), "robot profile must hold a JSON object"),
    ], ids=["missing-link-lengths", "one-value-limit", "non-numeric-length",
            "invalid-json", "not-an-object"])
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

    def test_bad_usage_exit_two(self):
        assert main(["window"]) == 2

    def test_unknown_command_exit_two(self):
        assert main(["frobnicate"]) == 2
