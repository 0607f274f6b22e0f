"""Self-tests of the benchmark, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import gen_inputs
import hostspeed
import run
import spans
from workloads import SIZES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_all(workdir, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "tiny", "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return out.stdout, dict(zip(WORKLOADS, results))


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return {trace: _run_all(workdir, trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny_runs, trace, section):
    stdout, results = tiny_runs[trace]
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert len(results) == len(WORKLOADS)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected, name
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for key, unit in expected.items():
        assert stdout.count(f"  {key} ") == len(WORKLOADS), key
    if trace == 0:
        for key, unit in (("op_s.p50", "s"), ("items_per_s", "1/s"), ("failed_frac", "ratio")):
            lines = [line.split() for line in stdout.splitlines() if line.startswith(f"  {key} ")]
            assert len(lines) == len(WORKLOADS) and all(line[2] == unit for line in lines), key


def test_benchmark_spec_lists_the_traced_metrics():
    spec = _benchmark_spec()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_layers_that_do_not_run_report_zero_calls(tiny_runs):
    _, results = tiny_runs[1]
    layers = {name: {k: m["value"] for k, m in r["metrics"].items()} for name, r in results.items()}
    assert layers["evaluate"]["gmm.fit.calls"] == 0
    assert layers["evaluate"]["gmm.em_stop"] == 0
    for name, value in layers["retarget"].items():
        if name.startswith(("motion.", "gmm.", "fgd.", "pcoa.", "synth.")) and name.endswith(".calls"):
            assert value == 0, name
    sizes = SIZES["tiny"]["evaluate"]
    assert layers["evaluate"]["fgd.frechet_distance.calls"] == 1 + sizes["bootstrap"]
    assert layers["evaluate"]["motion.forward_kinematics.calls"] == 2 * (
        sizes["poses"] // sizes["mu"]) * sizes["mu"]
    assert layers["train"]["gmm.fit.calls"] == 1
    assert layers["train"]["gmm.em_stop"] in (1, 2, 3)
    assert layers["retarget"]["mapping.frames"] == 2 * SIZES["tiny"]["retarget"]["frames"]
    assert layers["train"]["synth.beat_gesture_corpus.calls"] == 1


@pytest.fixture(scope="module")
def evaluate_loop(tmp_path_factory):
    gm = run.load_toolkit(ROOT)
    wl = WORKLOADS["evaluate"](str(tmp_path_factory.mktemp("evaluate")),
                               SIZES["tiny"]["evaluate"], seed=5)
    wl.setup(gm)
    return gm, wl


def test_clean_operations_pass(evaluate_loop):
    gm, wl = evaluate_loop
    loop = run.Loop(gm, wl)
    loop.run(0)
    loop.run(0)
    assert loop.attempted == 2 and loop.problems == []
    assert wl.run_checks(gm, gm.cli.main) == []


def test_nan_in_summary_counts_as_failed(evaluate_loop, monkeypatch):
    gm, wl = evaluate_loop
    real_main = gm.cli.main

    def main_writing_nan(argv):
        code = real_main(argv)
        with open(wl.path("summary.json")) as fh:
            doc = json.load(fh)
        doc["fgd"]["value"] = float("nan")
        with open(wl.path("summary.json"), "w") as fh:
            json.dump(doc, fh)
        return code

    monkeypatch.setattr(gm.cli, "main", main_writing_nan)
    loop = run.Loop(gm, wl)
    loop.run(0)
    assert loop.attempted == 1 and len(loop.problems) == 1
    assert "NaN" in loop.problems[0]


def test_nonzero_exit_counts_as_failed(evaluate_loop, monkeypatch):
    gm, wl = evaluate_loop
    monkeypatch.setattr(gm.cli, "main", lambda argv: 1)
    loop = run.Loop(gm, wl)
    loop.run(0)
    assert loop.attempted == 1 and len(loop.problems) == 1
    assert "exit codes [1]" in loop.problems[0]


def test_refuses_to_run_without_the_toolkit(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                          "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_captures_depend_only_on_the_seed(tmp_path):
    paths = [tmp_path / f"{i}.jsonl" for i in range(3)]
    for path, seed in zip(paths, (7, 7, 8)):
        gen_inputs.write_openpose_capture(path, 40, seed=seed)
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()
    frames = [json.loads(line) for line in paths[0].read_text().splitlines()]
    assert all(len(f["body"]) == 25 and len(next(iter(f["body"].values()))) == 4 for f in frames)


def test_reference_keeps_its_blas_threads_and_the_toolkits():
    if hostspeed.BLAS_THREADS is None:
        pytest.skip("the OpenBLAS thread count cannot be queried")
    other = 1 if hostspeed.BLAS_THREADS != 1 else 2
    hostspeed._SET_THREADS(other)
    try:
        assert hostspeed.reference_s() > 0
        assert hostspeed.blas_threads() == other
    finally:
        hostspeed._SET_THREADS(hostspeed.BLAS_THREADS)


def test_scaled_times_are_at_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    assert hostspeed.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert run.scaled_total([1.0, 3.0], [(ref, 2 * ref), (ref, 2 * ref)]) == pytest.approx(8 / 3)
