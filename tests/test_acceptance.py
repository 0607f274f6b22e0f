"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the status lines.
"""

import json
import math
import time

import numpy as np
import pytest

from test_mapping import arm_oracle, make_hand, random_arm_frame
from test_pcoa import euclidean_distances
from test_procrustes import grid_search_ss

from gesturemetrics.cli import main
from gesturemetrics.fgd import fgd, frechet_distance
from gesturemetrics.gmm import GmmModel, fit, sample
from gesturemetrics.mapping import (
    HAND_OPEN_SRC,
    HAND_YAW_SRC,
    HEAD_PITCH_SRC,
    MAX_WRIST_YAW,
    N_PIXELS,
    OPENPOSE_LAYOUT,
    arm_angles,
    map_hand_opening_openpose,
    map_hand_yaw_openni,
    map_hand_yaw_openpose,
    map_head_openni,
    map_head_openpose,
)
from gesturemetrics.model import (
    N_JOINTS,
    GestureDataset,
    RobotProfile,
)
from gesturemetrics.motion import jerk, path_length
from gesturemetrics.pcoa import analyze_dataset_structure, fidelity_report, pcoa
from gesturemetrics.procrustes import procrustes
from gesturemetrics.synth import beat_gesture_corpus


def _run(number, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    print(f"criterion {number:2d} [{name}]: PASS")


def test_criterion_01_metric_identity_suite():
    def body():
        start = time.perf_counter()
        ds = beat_gesture_corpus(400, 4, seed=0)
        assert len(ds) == 100
        matrix = ds.matrix
        res_o = analyze_dataset_structure(matrix)
        res_g = analyze_dataset_structure(matrix.copy())
        report = fidelity_report(res_o, res_g)
        assert np.allclose(report["r2"], 1.0, atol=1e-8)
        d = report["dims"]
        res = procrustes(res_o.coordinates[:, :d], res_g.coordinates[:, :d], 4)
        assert res["ss"] == pytest.approx(0.0, abs=1e-8)
        model = fit(ds, k=4, seed=0)
        assert fgd(model, ds, ds)["value"] == pytest.approx(0.0, abs=1e-8)
        assert time.perf_counter() - start < 5.0

    _run(1, "metric identity suite", body)


def test_criterion_02_pcoa_embedding_oracle():
    def body():
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 21))
            dim = int(rng.integers(2, 6))
            pts = rng.normal(size=(n, dim))
            d = euclidean_distances(pts)
            res = pcoa(d)
            rebuilt = euclidean_distances(res.coordinates)
            assert np.allclose(rebuilt, d, rtol=1e-8, atol=1e-9)

    _run(2, "pcoa embedding oracle", body)


def test_criterion_03_procrustes_grid_oracle():
    def body():
        rng = np.random.default_rng(1)
        for _ in range(100):
            y_o = rng.normal(size=(4, 2))
            y_o -= y_o.mean(axis=0)
            y_g = rng.normal(size=(4, 2))
            y_g -= y_g.mean(axis=0)
            res = procrustes(y_o, y_g, mu=4)
            assert res["ss"] == pytest.approx(grid_search_ss(y_o, y_g), abs=1e-4)

    _run(3, "procrustes grid oracle", body)


def test_criterion_04_frechet_closed_forms():
    def body():
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            got = frechet_distance((np.array([m1]), np.array([[s1 ** 2]])),
                                   (np.array([m2]), np.array([[s2 ** 2]])))
            assert got == pytest.approx((m1 - m2) ** 2 + (s1 - s2) ** 2, abs=1e-10)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            mu1, mu2 = rng.normal(size=(2, dim))
            v1, v2 = rng.uniform(0.1, 2.0, size=(2, dim))
            got = frechet_distance((mu1, np.diag(v1)), (mu2, np.diag(v2)))
            want = np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(v1) - np.sqrt(v2)) ** 2)
            assert got == pytest.approx(want, abs=1e-8)

    _run(4, "frechet closed forms", body)


def test_criterion_05_em_monotonicity_and_recovery():
    def body():
        sigma = 0.5
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(2000, N_JOINTS)) * sigma
            b = rng.normal(size=(2000, N_JOINTS)) * sigma
            a[:, 0] -= 4.0
            b[:, 0] += 4.0
            ds = GestureDataset(matrix=np.vstack([a, b]), dt=0.25)
            model = fit(ds, k=2, seed=seed)
            lls = np.array(model.log_likelihoods)
            assert np.all(np.diff(lls) >= 0)
            order = np.argsort(model.means[:, 0])
            true = np.zeros((2, N_JOINTS))
            true[0, 0], true[1, 0] = -4.0, 4.0
            assert np.max(np.abs(model.means[order] - true)) < 0.1 * sigma

    _run(5, "em monotonicity and recovery", body)


def test_criterion_06_jerk_lpath_exactness():
    def body():
        t = np.arange(8.0)
        zeros = np.zeros(8)
        assert jerk(np.tile([1.0, -2.0, 0.5], (8, 1)), 1.0) <= 1e-12
        assert jerk(np.column_stack([3 * t ** 2, t ** 2, zeros]), 1.0) <= 1e-12
        assert abs(jerk(np.column_stack([t ** 3, zeros, zeros]), 1.0) - 6.0) <= 1e-12
        # piecewise-linear path: 3-4-5 triangle legs traversed in sequence
        pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]])
        assert abs(path_length(pts) - 7.0) <= 1e-12

    _run(6, "jerk and lpath exactness", body)


def test_criterion_07_fgd_ordering_experiment():
    # Corpus A is drawn from a clustered ground-truth mixture (8 tight
    # gesture modes inside the joint limits). A smooth single-stream corpus
    # has no cluster structure, so its posterior features barely react to
    # sigma=0.1 noise and the ordering drowns in the FGD sampling floor.
    def body():
        start = time.perf_counter()
        profile = RobotProfile.default()
        limits = profile.limits_array()
        lo = np.tile(limits[:, 0], 4)
        hi = np.tile(limits[:, 1], 4)
        dim = lo.size
        center = np.tile(limits.mean(axis=1), 4)
        successes = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dirs = rng.normal(size=(8, dim))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            truth = GmmModel(weights=np.full(8, 1.0 / 8), means=center + 0.2 * dirs,
                             covariance=0.04 ** 2 * np.eye(dim), mu=4, dt=0.25)
            pool = sample(truth, 5000, seed=seed).matrix
            train = GestureDataset(matrix=pool[:2500], dt=0.25)
            held = pool[2500:]
            heldout = GestureDataset(matrix=held, dt=0.25)
            noisy = GestureDataset(matrix=held + rng.normal(0.0, 0.1, held.shape),
                                   dt=0.25)
            uniform = GestureDataset(matrix=rng.uniform(lo, hi, size=(2500, dim)),
                                     dt=0.25)
            model = fit(train, k=8, seed=seed)
            d_held = fgd(model, train, heldout)["value"]
            d_noise = fgd(model, train, noisy)["value"]
            d_unif = fgd(model, train, uniform)["value"]
            if d_held < d_noise < d_unif:
                successes += 1
        assert successes >= 19, f"strict ordering held in only {successes}/20 runs"
        assert time.perf_counter() - start < 60.0

    _run(7, "fgd ordering experiment", body)


def test_criterion_08_mapping_suite():
    def body():
        profile = RobotProfile.default()
        # head, depth-camera path: yaw is beta, pitch from the rotated vector
        neck = np.array([0.25, 1.5, 0.2])
        head = neck + np.array([0.03, 0.21, 0.05])
        yaw, pitch = map_head_openni((0.4, 0.0), neck, head)
        assert yaw == pytest.approx(0.4, abs=1e-9)
        hn = head - neck
        rot = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]) @ hn
        assert pitch == pytest.approx(math.atan2(rot[2], rot[1]), abs=1e-9)
        # head, rgb path: affine pitch from the nose-neck distance
        nose = np.array([0.0, 1.5 + 0.175, 0.0])
        _, pitch2 = map_head_openpose(nose, np.array([0.0, 1.5, 0.0]), profile)
        s0, s1 = HEAD_PITCH_SRC
        lo_p, hi_p = profile.joint_limits[1]
        assert pitch2 == pytest.approx(lo_p + (0.175 - s0) / (s1 - s0) * (hi_p - lo_p),
                                       abs=1e-9)
        # wrist yaw from thumb-pinky spread: affine oracle
        hand = make_hand(spread=0.06)
        got = map_hand_yaw_openpose(hand, profile.joint_limits[6])
        s0, s1 = HAND_YAW_SRC
        lo_y, hi_y = profile.joint_limits[6]
        assert got == pytest.approx(lo_y + (0.12 - s0) / (s1 - s0) * (hi_y - lo_y),
                                    abs=1e-9)
        # hand opening: affine oracle on the wrist-middle distance
        opening = map_hand_opening_openpose(make_hand(opening=0.125))
        s0, s1 = HAND_OPEN_SRC
        assert opening == pytest.approx((0.125 - s0) / (s1 - s0), abs=1e-9)
        # glove pixel counts: both branch formulas
        assert map_hand_yaw_openni(800, 200) == pytest.approx(
            800 / N_PIXELS * MAX_WRIST_YAW, abs=1e-9)
        assert map_hand_yaw_openni(200, 800) == pytest.approx(
            (800 - N_PIXELS) / N_PIXELS * MAX_WRIST_YAW, abs=1e-9)
        # arm angles against the independent acos/atan2 oracle
        for seed in range(10):
            kp = random_arm_frame(np.random.default_rng(seed))
            angles = arm_angles(kp, OPENPOSE_LAYOUT)
            for name, val in arm_oracle(kp).items():
                assert angles[name] == pytest.approx(val, abs=1e-9), name

    _run(8, "mapping suite", body)


def test_criterion_09_mu_sweep_smoke_test(tmp_path):
    def body():
        start = time.perf_counter()
        stream = tmp_path / "stream.csv"
        assert main(["synth-corpus", "--poses", "2018", "--out", str(stream)]) == 0
        for mu in (4, 6, 8):
            ds = tmp_path / f"ds{mu}.csv"
            gen = tmp_path / f"gen{mu}.csv"
            model = tmp_path / f"model{mu}.json"
            summary = tmp_path / f"summary{mu}.json"
            assert main(["window", "--mu", str(mu), str(stream), str(ds)]) == 0
            assert main(["gmm-train", "--k", "8", str(ds), "--out", str(model)]) == 0
            assert main(["generate", "--model", str(model), "-n", "200",
                         "--out", str(gen)]) == 0
            assert main(["evaluate", str(ds), str(gen), "--model", str(model),
                         "--out", str(summary)]) == 0
            doc = json.loads(summary.read_text())
            assert set(doc) == {"fidelity", "originality", "motion_original",
                                "motion_generated", "fgd", "errors", "metadata"}
            assert doc["errors"] == {}
            assert doc["metadata"]["mu"] == mu
            assert len(doc["fidelity"]["r2"]) == doc["fidelity"]["dims"]
            assert doc["originality"]["ss"] >= 0.0
            assert doc["fgd"]["value"] >= 0.0
            assert all(np.isfinite(v)
                       for v in doc["motion_original"]["jerk_by_site"].values())
        assert time.perf_counter() - start < 120.0

    _run(9, "mu sweep smoke test", body)


def test_criterion_10_cli_determinism(tmp_path):
    def body():
        from test_cli import write_openni_jsonl

        frames = tmp_path / "frames.jsonl"
        write_openni_jsonl(frames, n_frames=8)
        outputs = {}
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            stream = d / "stream.csv"
            ds = d / "ds.csv"
            model = d / "model.json"
            assert main(["synth-corpus", "--poses", "200", "--seed", "4",
                         "--out", str(stream)]) == 0
            assert main(["resample", "--rate", "2.0", str(stream),
                         str(d / "resampled.csv")]) == 0
            assert main(["window", "--mu", "4", str(stream), str(ds)]) == 0
            assert main(["match-lengths", str(stream), str(d / "resampled.csv"),
                         str(d / "ma.csv"), str(d / "mb.csv")]) == 0
            assert main(["map", "--layout", "openni", "--seed", "4",
                         str(frames), str(d / "mapped.csv")]) == 0
            assert main(["gmm-train", "--k", "4", "--seed", "4", str(ds),
                         "--out", str(model)]) == 0
            assert main(["generate", "--model", str(model), "-n", "30",
                         "--seed", "4", "--out", str(d / "gen.csv")]) == 0
            assert main(["pcoa", str(ds), str(d / "gen.csv"),
                         "--out", str(d / "pcoa.json")]) == 0
            assert main(["procrustes", str(ds), str(d / "gen.csv"),
                         "--out", str(d / "proc.json")]) == 0
            assert main(["motion-stats", str(ds), "--out", str(d / "motion.json")]) == 0
            assert main(["fgd", "--model", str(model), "--bootstrap", "10",
                         "--seed", "4", str(ds), str(d / "gen.csv"),
                         "--out", str(d / "fgd.json")]) == 0
            assert main(["evaluate", str(ds), str(d / "gen.csv"),
                         "--model", str(model), "--seed", "4",
                         "--out", str(d / "summary.json")]) == 0
            outputs[run] = sorted(p for p in d.iterdir())
        for file_a, file_b in zip(outputs["a"], outputs["b"]):
            assert file_a.name == file_b.name
            assert file_a.read_bytes() == file_b.read_bytes(), file_a.name

    _run(10, "cli determinism", body)
