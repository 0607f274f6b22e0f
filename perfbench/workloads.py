"""The benchmark workloads: their inputs, one operation, and its output checks.

An operation is a fixed list of CLI calls, made in-process through
``gesturemetrics.cli.main(argv)``. Every check below holds for any correct
version of the toolkit; none compares against stored outputs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os

import numpy as np

import gen_inputs

# Sizes are part of each workload's definition; "tiny" only serves the
# benchmark's self-tests.
SIZES = {
    "full": {
        "evaluate": {"poses": 10000, "mu": 4, "k": 24, "bootstrap": 100},
        "train": {"poses": 2400, "mu": 4, "k": 24, "generate": 2500},
        "retarget": {"frames": 2000, "rate": 4, "mu": 4},
    },
    "tiny": {
        "evaluate": {"poses": 400, "mu": 4, "k": 4, "bootstrap": 3},
        "train": {"poses": 240, "mu": 4, "k": 3, "generate": 50},
        "retarget": {"frames": 90, "rate": 4, "mu": 4},
    },
}

# The train workload fits the same corpus on every seed: at this size the EM
# iteration count swings between 65 and 146 with the corpus seed, and between
# 80 and 440 with the k-means seed, which would swamp any timing. The run
# seed drives the generate draw instead.
TRAIN_CORPUS_SEED = 0
TRAIN_FIT_SEED = 0

SELF_CHECK_TOL = 1e-8       # |ss|, 1 - r2 and |fgd| of a dataset against itself
WEIGHT_SUM_TOL = 1e-9
LL_DECREASE_TOL = 1e-9      # relative slack on the non-decreasing EM trace


def read_rows(path):
    """Data rows of a toolkit CSV (comment lines and the column header skipped)."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"{os.path.basename(path)} has no header row")
    if len(lines) == 1:
        return np.empty((0, len(lines[0].split(","))))
    return np.array([line.split(",") for line in lines[1:]], dtype=float)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def load_strict_json(path):
    """Parse JSON, refusing NaN and Infinity (which RFC 8259 does not allow)."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


class Workload:
    """Inputs, the CLI calls of one operation, and the checks on their outputs."""

    name = ""
    RUN_CHECK_OPS = 0       # operations that ``run_checks`` makes

    def __init__(self, workdir, sizes, seed):
        self.dir = workdir
        self.sizes = sizes
        self.seed = seed

    def path(self, name):
        return os.path.join(self.dir, name)

    @contextlib.contextmanager
    def watch(self, gm):
        """Observers the checks need while operations run (none by default)."""
        yield

    def run_checks(self, gm, main):
        """Checks made once per run, outside the timed loop."""
        return []


class Evaluate(Workload):
    name = "evaluate"
    RUN_CHECK_OPS = 1

    def setup(self, gm):
        s = self.sizes
        original = gm.synth.beat_gesture_corpus(s["poses"], s["mu"], seed=self.seed)
        generated = gm.synth.beat_gesture_corpus(s["poses"], s["mu"], seed=self.seed + 1)
        gm.pipeline.save_dataset(original, self.path("original.csv"))
        gm.pipeline.save_dataset(generated, self.path("generated.csv"))
        gm.gmm.save_model(gen_inputs.reference_model(gm, original, s["k"]),
                          self.path("model.json"))

    @property
    def items(self):
        """Units of movement scored per operation (original and generated)."""
        return 2 * (self.sizes["poses"] // self.sizes["mu"])

    def commands(self):
        return [["evaluate", self.path("original.csv"), self.path("generated.csv"),
                 "--model", self.path("model.json"),
                 "--bootstrap", str(self.sizes["bootstrap"]),
                 "--out", self.path("summary.json")]]

    @property
    def outputs(self):
        return [self.path("summary.json")]

    def check(self, gm, codes):
        if codes != [0]:
            return [f"exit codes {codes}"]
        try:
            doc = load_strict_json(self.path("summary.json"))
            problems = []
            if doc["errors"] != {}:
                problems.append(f"errors {doc['errors']}")
            if not all(0.0 <= r <= 1.0 for r in doc["fidelity"]["r2"]):
                problems.append("r2 outside [0, 1]")
            if not doc["originality"]["ss"] >= 0.0:
                problems.append("ss < 0")
            fgd = doc["fgd"]
            for key in ("value", "bootstrap_mean", "bootstrap_std"):
                if not fgd[key] >= 0.0:
                    problems.append(f"fgd {key} < 0")
            return problems
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"summary unreadable: {exc!r}"]

    def run_checks(self, gm, main):
        """The original scored against itself: ss, 1 - r2 and fgd all vanish."""
        out = self.path("self_summary.json")
        code = main(["evaluate", self.path("original.csv"), self.path("original.csv"),
                     "--model", self.path("model.json"), "--out", out])
        if code != 0:
            return [f"self-evaluation exit code {code}"]
        try:
            doc = load_strict_json(out)
            problems = []
            if not abs(doc["originality"]["ss"]) <= SELF_CHECK_TOL:
                problems.append(f"self ss {doc['originality']['ss']}")
            if not all(r >= 1.0 - SELF_CHECK_TOL for r in doc["fidelity"]["r2"]):
                problems.append("self r2 below 1")
            if not abs(doc["fgd"]["value"]) <= SELF_CHECK_TOL:
                problems.append(f"self fgd {doc['fgd']['value']}")
            return problems
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"self summary unreadable: {exc!r}"]


class Train(Workload):
    name = "train"

    def setup(self, gm):
        s = self.sizes
        corpus = gm.synth.beat_gesture_corpus(s["poses"], s["mu"], seed=TRAIN_CORPUS_SEED)
        gm.pipeline.save_dataset(corpus, self.path("reference.csv"))

    @property
    def items(self):
        """Units of movement fitted per operation."""
        return self.sizes["poses"] // self.sizes["mu"]

    def commands(self):
        return [
            ["gmm-train", "--k", str(self.sizes["k"]), "--seed", str(TRAIN_FIT_SEED),
             self.path("reference.csv"), "--out", self.path("model.json")],
            ["generate", "--model", self.path("model.json"), "-n", str(self.sizes["generate"]),
             "--seed", str(self.seed), "--out", self.path("gen.csv")],
        ]

    @property
    def outputs(self):
        return [self.path("model.json"), self.path("gen.csv")]

    @contextlib.contextmanager
    def watch(self, gm):
        """Keep the model each ``gmm.fit`` returns: the saved file has no LL trace."""
        self.fitted = []
        original = gm.gmm.fit

        @functools.wraps(original)
        def keep_result(*args, **kwargs):
            model = original(*args, **kwargs)
            self.fitted.append(model)
            return model

        gm.gmm.fit = keep_result
        try:
            yield
        finally:
            gm.gmm.fit = original

    def check(self, gm, codes):
        fitted, self.fitted = self.fitted, []
        if codes != [0, 0]:
            return [f"exit codes {codes}"]
        problems = []
        try:
            gm.gmm.load_model(self.path("model.json"))
            weights = load_strict_json(self.path("model.json"))["weights"]
            if abs(math.fsum(weights) - 1.0) > WEIGHT_SUM_TOL:
                problems.append(f"weights sum to {math.fsum(weights)}")
        except Exception as exc:  # any failure to load the model is a failed check
            problems.append(f"model does not load: {exc!r}")
        if len(fitted) != 1:
            problems.append(f"{len(fitted)} fits in one operation")
        else:
            lls = list(fitted[0].log_likelihoods)
            if not lls or any(b < a - LL_DECREASE_TOL * abs(a) for a, b in zip(lls, lls[1:])):
                problems.append("log-likelihood trace decreases")
        try:
            rows = read_rows(self.path("gen.csv"))
            if rows.shape != (self.sizes["generate"], 14 * self.sizes["mu"]):
                problems.append(f"generated dataset has shape {rows.shape}")
            if not np.all(np.isfinite(rows)):
                problems.append("generated dataset has non-finite values")
        except (OSError, ValueError) as exc:
            problems.append(f"generated dataset unreadable: {exc!r}")
        return problems


class Retarget(Workload):
    name = "retarget"
    CAPTURES = (("openpose", gen_inputs.write_openpose_capture),
                ("openni", gen_inputs.write_openni_capture))

    def setup(self, gm):
        for i, (layout, write) in enumerate(self.CAPTURES):
            write(self.path(f"{layout}.jsonl"), self.sizes["frames"], seed=2 * self.seed + i)

    @property
    def items(self):
        """Capture frames mapped per operation."""
        return len(self.CAPTURES) * self.sizes["frames"]

    def commands(self):
        calls = [["map", "--layout", layout, self.path(f"{layout}.jsonl"),
                  self.path(f"{layout}_mapped.csv")] for layout, _ in self.CAPTURES]
        for layout, _ in self.CAPTURES:
            calls.append(["resample", "--rate", str(self.sizes["rate"]),
                          self.path(f"{layout}_mapped.csv"), self.path(f"{layout}_resampled.csv")])
            calls.append(["window", "--mu", str(self.sizes["mu"]),
                          self.path(f"{layout}_resampled.csv"), self.path(f"{layout}_units.csv")])
        return calls

    @property
    def outputs(self):
        return [self.path(f"{layout}_{kind}.csv") for layout, _ in self.CAPTURES
                for kind in ("mapped", "resampled", "units")]

    def check(self, gm, codes):
        if codes != [0] * len(self.commands()):
            return [f"exit codes {codes}"]
        limits = gm.model.RobotProfile.default().limits_array()
        problems = []
        try:
            for layout, _ in self.CAPTURES:
                mapped = read_rows(self.path(f"{layout}_mapped.csv"))
                if mapped.shape[0] != self.sizes["frames"]:
                    problems.append(f"{layout}: {mapped.shape[0]} poses "
                                    f"for {self.sizes['frames']} frames")
                for rows in (mapped[:, 1:], read_rows(self.path(f"{layout}_resampled.csv"))[:, 1:]):
                    if not np.all((rows >= limits[:, 0]) & (rows <= limits[:, 1])):
                        problems.append(f"{layout}: joint value outside the profile limits")
                n_poses = read_rows(self.path(f"{layout}_resampled.csv")).shape[0]
                n_units = read_rows(self.path(f"{layout}_units.csv")).shape[0]
                if n_units != n_poses // self.sizes["mu"]:
                    problems.append(f"{layout}: {n_units} units from {n_poses} poses")
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"output unreadable: {exc!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Evaluate, Train, Retarget)}
