"""Committed reference outputs: the bytes that two command sets write must hash to the
SHA-256 sums in ``reference_outputs.sha256``.

- Retargeting: ``map``, ``resample --rate 4`` and ``window --mu 4`` on 300-frame
  benchmark captures (``perfbench/gen_inputs.py``) at seeds 1 and 2, in both layouts.
- Criterion 10's stream commands: ``synth-corpus --poses 200 --seed 4``, as a stream and
  with ``--mu 4``; ``resample --rate 2.0``; ``window --mu 4`` with and without
  ``--stride 1``; ``match-lengths``; and ``motion-stats`` in JSON and CSV.

An output change that is meant rewrites the sums with
``PYTHONPATH=src python tests/test_reference_outputs.py``; CHANGES.md then names it.
"""

import hashlib
from pathlib import Path

from gesturemetrics.cli import main

SUMS = Path(__file__).with_name("reference_outputs.sha256")
N_FRAMES = 300


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


def sums(directory):
    """``{file name: SHA-256}`` of the outputs in ``directory``, the captures left out."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir()) if path.suffix != ".jsonl"}


def pinned(stream):
    """The committed sums of the stream outputs (``stream``) or the retarget outputs."""
    pairs = (line.split()[::-1] for line in SUMS.read_text().splitlines())
    return {name: digest for name, digest in pairs if name.startswith("synth.") == stream}


def test_retarget_outputs_keep_their_bytes(gen_inputs, tmp_path):
    write_retarget_outputs(gen_inputs, tmp_path)
    assert len(pinned(stream=False)) == 12
    assert sums(tmp_path) == pinned(stream=False)


def test_stream_outputs_keep_their_bytes(tmp_path):
    write_stream_outputs(tmp_path)
    assert len(pinned(stream=True)) == 9
    assert sums(tmp_path) == pinned(stream=True)


if __name__ == "__main__":
    import tempfile

    from conftest import load_gen_inputs

    with tempfile.TemporaryDirectory() as directory:
        write_retarget_outputs(load_gen_inputs(), directory)
        write_stream_outputs(directory)
        digests = sums(directory)
    SUMS.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
    print(f"wrote {len(digests)} sums to {SUMS}")
