"""Token-mutation fuzzing of every input kind through ``cli.main``.

Each test takes a small valid file, replaces one to three of its tokens with
values from ``POOL`` and runs a command on it. Whatever the mutation, ``main``
returns 0, 1 or 2 and never raises; an input failure (2) prints one
``error:`` line; a metric failure (1) prints one or writes a report whose
``errors`` block is not empty; and no ``RuntimeWarning`` is emitted.

The examples are derandomized. ``GESTUREMETRICS_FUZZ_EXAMPLES=N`` runs N
examples per command instead of the default few.
"""

import json
import os
import re
import shutil
import warnings
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gesturemetrics.cli import main

POOL = ("nan", "1e308", "1" + "0" * 400, "true", "[]", '""', "\n", "٣")
TOKEN = re.compile(r'[^\s,:=\[\]{}"]+')
EXAMPLES = int(os.environ.get("GESTUREMETRICS_FUZZ_EXAMPLES", "50"))
FUZZ = settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
MUTATIONS = st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(POOL)),
                     min_size=1, max_size=3)


def mutate(text, mutations):
    """``text`` with the token at each relative position replaced by its pool value."""
    spans = [m.span() for m in TOKEN.finditer(text)]
    chosen = {spans[int(at * len(spans))]: value for at, value in mutations}
    for (start, end), value in sorted(chosen.items(), reverse=True):
        text = text[:start] + value + text[end:]
    return text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, gen_inputs):
    """One small valid file of each input kind, and a model trained on the dataset."""
    d = tmp_path_factory.mktemp("fuzz")
    run = [["synth-corpus", "--poses", "60", "--mu", "4", "--out", d / "dataset.csv"],
           ["synth-corpus", "--poses", "60", "--mu", "4", "--seed", "1", "--out", d / "other.csv"],
           ["synth-corpus", "--poses", "20", "--out", d / "stream.csv"],
           ["gmm-train", "--k", "2", "--out", d / "model.json", d / "dataset.csv"]]
    for argv in run:
        assert main([str(a) for a in argv]) == 0
    (d / "coords.csv").write_text("1.5,0.25\n-1.0,0.5\n0.5,-1.25\n-1.0,0.5\n")
    (d / "profile.json").write_text(
        resources.files("gesturemetrics.profiles").joinpath("pepper.json").read_text())
    gen_inputs.write_openpose_capture(d / "openpose.jsonl", 3, seed=1)
    gen_inputs.write_openni_capture(d / "openni.jsonl", 3, seed=1)
    return d


def check(inputs, tmp_path, capsys, kind, mutations, argv):
    """Run ``argv`` (``{in}`` is the mutated file, ``{d}/`` the clean inputs) and apply the oracle."""
    src = inputs / kind
    bad = tmp_path / f"bad{src.suffix}"
    bad.write_bytes(mutate(src.read_text(), mutations).encode("utf-8"))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = [a.format(d=inputs, out=out, **{"in": bad}) for a in argv]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if code == 1:
        report = out / "report.json"
        errors = json.loads(report.read_text())["errors"] if report.exists() else {}
        assert err.startswith("error: ") or errors, (argv, err)


DATASET_COMMANDS = [
    ["evaluate", "--model", "{d}/model.json", "--out", "{out}/report.json", "{in}", "{d}/other.csv"],
    ["evaluate", "--out", "{out}/report.json", "{d}/other.csv", "{in}"],
    ["gmm-train", "--k", "2", "--out", "{out}/model.json", "{in}"],
    ["fgd", "--model", "{d}/model.json", "--bootstrap", "2", "{in}", "{d}/other.csv"],
    ["motion-stats", "--format", "csv", "{in}"],
]


@pytest.mark.parametrize("argv", DATASET_COMMANDS, ids=lambda argv: argv[0])
@FUZZ
@given(mutations=MUTATIONS)
def test_dataset_csv(inputs, tmp_path, capsys, argv, mutations):
    check(inputs, tmp_path, capsys, "dataset.csv", mutations, argv)


STREAM_COMMANDS = [
    ["resample", "--rate", "2", "{in}", "{out}/r.csv"],
    ["window", "--mu", "4", "{in}", "{out}/w.csv"],
    ["match-lengths", "{in}", "{d}/stream.csv", "{out}/a.csv", "{out}/b.csv"],
]


@pytest.mark.parametrize("argv", STREAM_COMMANDS, ids=lambda argv: argv[0])
@FUZZ
@given(mutations=MUTATIONS)
def test_stream_csv(inputs, tmp_path, capsys, argv, mutations):
    check(inputs, tmp_path, capsys, "stream.csv", mutations, argv)


@FUZZ
@given(mutations=MUTATIONS)
def test_coordinate_matrix(inputs, tmp_path, capsys, mutations):
    check(inputs, tmp_path, capsys, "coords.csv", mutations,
          ["procrustes", "--coordinates", "--mu", "1", "{in}", "{d}/coords.csv"])


@pytest.mark.parametrize("layout", ["openpose", "openni"])
@FUZZ
@given(mutations=MUTATIONS)
def test_capture(inputs, tmp_path, capsys, layout, mutations):
    check(inputs, tmp_path, capsys, f"{layout}.jsonl", mutations,
          ["map", "--layout", layout, "{in}", "{out}/mapped.csv"])


MODEL_COMMANDS = [
    ["fgd", "--model", "{in}", "{d}/dataset.csv", "{d}/other.csv"],
    ["generate", "--model", "{in}", "-n", "5", "--out", "{out}/g.csv"],
]


@pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=lambda argv: argv[0])
@FUZZ
@given(mutations=MUTATIONS)
def test_model_json(inputs, tmp_path, capsys, argv, mutations):
    check(inputs, tmp_path, capsys, "model.json", mutations, argv)


PROFILE_COMMANDS = [
    ["synth-corpus", "--poses", "12", "--profile", "{in}", "--out", "{out}/s.csv"],
    ["motion-stats", "--profile", "{in}", "{d}/dataset.csv"],
    ["map", "--layout", "openni", "--profile", "{in}", "{d}/openni.jsonl", "{out}/m.csv"],
]


@pytest.mark.parametrize("argv", PROFILE_COMMANDS, ids=lambda argv: argv[0])
@FUZZ
@given(mutations=MUTATIONS)
def test_profile_json(inputs, tmp_path, capsys, argv, mutations):
    check(inputs, tmp_path, capsys, "profile.json", mutations, argv)
