"""Committed reference outputs: the bytes that three command sets write must hash to the
SHA-256 sums in ``reference_outputs.sha256``, or, for the outputs that the BLAS kernel
moves in the last bits, match the texts in ``reference_outputs/`` to round-off.

- Retargeting: ``map``, ``resample --rate 4`` and ``window --mu 4`` on 300-frame
  benchmark captures (``perfbench/gen_inputs.py``) at seeds 1 and 2, in both layouts.
- Criterion 10's stream commands: ``synth-corpus --poses 200 --seed 4``, as a stream and
  with ``--mu 4``; ``resample --rate 2.0``; ``window --mu 4`` with and without
  ``--stride 1``; ``match-lengths``; and ``motion-stats`` in JSON and CSV.
- The model, sample and analysis commands: ``synth-corpus --poses 200 --mu 2 --seed 4``
  (byte-stable, so summed), then ``gmm-train --k 2``, ``generate -n 10``,
  ``pcoa --spectrum-csv``, ``procrustes``, ``fgd --bootstrap 10`` and
  ``evaluate --bootstrap 10`` in JSON and CSV, all at seed 4. Each of these 8 files must
  read as its reference once every number is a placeholder, and each pair of numbers must
  pass ``math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)``.

An output change that is meant rewrites the sums and the texts with
``PYTHONPATH=src python tests/test_reference_outputs.py``; CHANGES.md then names it.
"""

import hashlib
import math
import re
import shutil
from pathlib import Path

import pytest

from gesturemetrics.cli import main

SUMS = Path(__file__).with_name("reference_outputs.sha256")
REFERENCES = Path(__file__).with_name("reference_outputs")
N_FRAMES = 300
REL_TOL, ABS_TOL = 1e-9, 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def write_retarget_outputs(gen_inputs, directory):
    for layout in ("openni", "openpose"):
        for seed in (1, 2):
            stem = f"{directory}/{layout}-seed{seed}"
            getattr(gen_inputs, f"write_{layout}_capture")(f"{stem}.jsonl", N_FRAMES, seed=seed)
            for argv in (["map", "--layout", layout, f"{stem}.jsonl", f"{stem}.mapped.csv"],
                         ["resample", "--rate", "4", f"{stem}.mapped.csv",
                          f"{stem}.resampled.csv"],
                         ["window", "--mu", "4", f"{stem}.resampled.csv",
                          f"{stem}.windowed.csv"]):
                assert main(argv) == 0, argv


def write_stream_outputs(directory):
    stem = f"{directory}/synth"
    for argv in (["synth-corpus", "--poses", "200", "--seed", "4", "--out", f"{stem}.csv"],
                 ["synth-corpus", "--poses", "200", "--seed", "4", "--mu", "4",
                  "--out", f"{stem}.corpus.csv"],
                 ["resample", "--rate", "2.0", f"{stem}.csv", f"{stem}.resampled.csv"],
                 ["window", "--mu", "4", f"{stem}.csv", f"{stem}.windowed.csv"],
                 ["window", "--mu", "4", "--stride", "1", f"{stem}.csv",
                  f"{stem}.stride1.csv"],
                 ["match-lengths", f"{stem}.csv", f"{stem}.resampled.csv",
                  f"{stem}.matched-a.csv", f"{stem}.matched-b.csv"],
                 ["motion-stats", f"{stem}.windowed.csv", "--out", f"{stem}.motion.json"],
                 ["motion-stats", "--format", "csv", f"{stem}.windowed.csv",
                  "--out", f"{stem}.motion.csv"]):
        assert main(argv) == 0, argv


def write_analysis_outputs(directory):
    stem = f"{directory}/analysis"
    ds, model, gen = f"{stem}.ds.csv", f"{stem}.model.json", f"{stem}.gen.csv"
    scored = ["--model", model, "--bootstrap", "10", "--seed", "4", ds, gen]
    for argv in (["synth-corpus", "--poses", "200", "--mu", "2", "--seed", "4", "--out", ds],
                 ["gmm-train", "--k", "2", "--seed", "4", ds, "--out", model],
                 ["generate", "--model", model, "-n", "10", "--seed", "4", "--out", gen],
                 ["pcoa", ds, gen, "--spectrum-csv", f"{stem}.spectra.csv",
                  "--out", f"{stem}.pcoa.json"],
                 ["procrustes", ds, gen, "--out", f"{stem}.proc.json"],
                 ["fgd", *scored, "--out", f"{stem}.fgd.json"],
                 ["evaluate", *scored, "--out", f"{stem}.summary.json"],
                 ["evaluate", *scored, "--format", "csv", "--out", f"{stem}.summary.csv"]):
        assert main(argv) == 0, argv


def by_tolerance(name):
    """Whether the output ``name`` is compared with its text in ``REFERENCES``, not summed:
    the analysis outputs apart from the corpus they start from."""
    return name.startswith("analysis.") and name != "analysis.ds.csv"


def sums(directory):
    """``{file name: SHA-256}`` of the outputs in ``directory``, the captures and the
    outputs compared :func:`by_tolerance` left out."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())
            if path.suffix != ".jsonl" and not by_tolerance(path.name)}


def pinned(*prefixes):
    """The committed sums of the outputs whose names start with one of ``prefixes``."""
    pairs = (line.split()[::-1] for line in SUMS.read_text().splitlines())
    return {name: digest for name, digest in pairs if name.startswith(prefixes)}


def round_off_differences(text, reference):
    """How ``text`` differs from ``reference`` beyond round-off: ``["text"]`` if they differ
    once every number is a placeholder, else the pairs of numbers that fail
    ``math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)``."""
    if NUMBER.sub("#", text) != NUMBER.sub("#", reference):
        return ["text"]
    return [(a, b) for a, b in zip(NUMBER.findall(text), NUMBER.findall(reference))
            if not math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)]


def test_retarget_outputs_keep_their_bytes(gen_inputs, tmp_path):
    write_retarget_outputs(gen_inputs, tmp_path)
    assert len(pinned("openni-", "openpose-")) == 12
    assert sums(tmp_path) == pinned("openni-", "openpose-")


def test_stream_outputs_keep_their_bytes(tmp_path):
    write_stream_outputs(tmp_path)
    assert len(pinned("synth.")) == 9
    assert sums(tmp_path) == pinned("synth.")


def test_analysis_outputs_match_their_references_to_round_off(tmp_path):
    write_analysis_outputs(tmp_path)
    assert sums(tmp_path) == pinned("analysis.")
    written = sorted(path.name for path in tmp_path.iterdir() if by_tolerance(path.name))
    assert len(written) == 8
    # a committed reference that the commands no longer write fails here too
    assert written == sorted(path.name for path in REFERENCES.iterdir())
    for name in written:
        assert round_off_differences((tmp_path / name).read_text(),
                                     (REFERENCES / name).read_text()) == [], name


@pytest.mark.parametrize("text, differences", [
    ('{"a": 1.0000000000001, "b": [2e-13]}', []),
    ('{"a": 1.00000001, "b": [2e-13]}', [("1.00000001", "1.0")]),
    ('{"a": 1.0, "b": [2e-11]}', [("2e-11", "0.0")]),
    ('{"a": 1.0, "c": [0.0]}', ["text"]),
    ('{"a": 1.0, "b": [0.0, 0.0]}', ["text"]),
], ids=["round-off", "relative", "absolute", "key", "length"])
def test_round_off_rule_refuses_larger_differences(text, differences):
    assert round_off_differences(text, '{"a": 1.0, "b": [0.0]}') == differences


if __name__ == "__main__":
    import tempfile

    from conftest import load_gen_inputs

    with tempfile.TemporaryDirectory() as directory:
        write_retarget_outputs(load_gen_inputs(), directory)
        write_stream_outputs(directory)
        write_analysis_outputs(directory)
        digests = sums(directory)
        shutil.rmtree(REFERENCES, ignore_errors=True)
        REFERENCES.mkdir()
        texts = [shutil.copy(path, REFERENCES)
                 for path in sorted(Path(directory).iterdir()) if by_tolerance(path.name)]
    SUMS.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
    print(f"wrote {len(digests)} sums to {SUMS} and {len(texts)} texts to {REFERENCES}")
