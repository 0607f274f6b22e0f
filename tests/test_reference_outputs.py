"""Committed reference outputs: the bytes that ``map``, ``resample --rate 4`` and
``window --mu 4`` write for 300-frame benchmark captures (``perfbench/gen_inputs.py``)
at seeds 1 and 2, in both layouts, must hash to the SHA-256 sums in
``reference_outputs.sha256``.

An output change that is meant rewrites the sums with
``PYTHONPATH=src python tests/test_reference_outputs.py``; CHANGES.md then names it.
"""

import hashlib
from pathlib import Path

from gesturemetrics.cli import main

SUMS = Path(__file__).with_name("reference_outputs.sha256")
N_FRAMES = 300


def build_outputs(gen_inputs, directory):
    """Write the pinned files into ``directory``; return ``{file name: SHA-256}``."""
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
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).glob("*.csv"))}


def test_retarget_outputs_keep_their_bytes(gen_inputs, tmp_path):
    pinned = dict(line.split()[::-1] for line in SUMS.read_text().splitlines())
    assert len(pinned) == 12
    assert build_outputs(gen_inputs, tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    from conftest import load_gen_inputs

    with tempfile.TemporaryDirectory() as directory:
        sums = build_outputs(load_gen_inputs(), directory)
    SUMS.write_text("".join(f"{digest}  {name}\n" for name, digest in sums.items()))
    print(f"wrote {len(sums)} sums to {SUMS}")
