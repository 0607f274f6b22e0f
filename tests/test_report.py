import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemetrics.errors import StructuralError
from gesturemetrics.gmm import fit
from gesturemetrics.model import GestureDataset, RobotProfile
from gesturemetrics.report import STAGES, Run, evaluate
from gesturemetrics.synth import beat_gesture_corpus


class TestRun:
    def test_arguments_are_checked_when_built_mu_first(self):
        ds4 = beat_gesture_corpus(64, 4)
        ds8 = beat_gesture_corpus(64, 8)
        model2 = fit(beat_gesture_corpus(64, 2), k=1)
        for generated, kwargs, message in (
                (ds8, {"model": model2, "dims": 0, "bootstrap": -1},
                 "mu mismatch: original has 4, generated has 8"),
                (ds4, {"model": model2, "dims": 0, "bootstrap": -1},
                 "mu mismatch: original has 4, model has 2"),
                (ds4, {"dims": 0, "bootstrap": -1}, "dims must be at least 1, got 0"),
                (ds4, {"bootstrap": -1}, "bootstrap must be at least 0, got -1")):
            with pytest.raises(StructuralError, match=message):
                Run(ds4, generated, **kwargs)

    def test_one_dataset_has_no_mu_to_match(self):
        ds = beat_gesture_corpus(64, 4)
        assert Run(ds).generated is None
        with pytest.raises(StructuralError, match="dims must be at least 1"):
            Run(ds, dims=0)

    def test_evaluate_needs_a_generated_dataset(self):
        # motion-stats builds a Run without one; evaluate cannot score it
        with pytest.raises(StructuralError, match="^evaluate needs a generated dataset"):
            evaluate(Run(beat_gesture_corpus(64, 4)))

    def test_profile_defaults_to_the_packaged_one(self):
        original = beat_gesture_corpus(240, 4, seed=0)
        generated = beat_gesture_corpus(240, 4, seed=1)
        model = fit(original, k=3, seed=0)
        doc = evaluate(Run(original, generated, model=model, dims=5))
        assert doc["errors"] == {}
        want = evaluate(Run(original, generated, model=model, dims=5,
                            profile=RobotProfile.default()))
        assert doc["motion_original"] == want["motion_original"]
        assert doc["motion_generated"] == want["motion_generated"]


class TestUnitOrder:
    """Metamorphic relation: the PCoA stages do not depend on the order of a dataset's units."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 4), mu=st.sampled_from([4, 6]),
           side=st.sampled_from(["original", "generated"]), order=st.randoms())
    def test_permuting_units_keeps_fidelity_and_ss(self, seed, mu, side, order):
        datasets = {"original": beat_gesture_corpus(240, mu, seed=seed),
                    "generated": beat_gesture_corpus(240, mu, seed=(seed + 1) % 5)}
        want = Run(**datasets)
        rows = list(range(len(datasets[side])))
        order.shuffle(rows)
        datasets[side] = GestureDataset(matrix=datasets[side].matrix[rows], dt=datasets[side].dt)
        got = Run(**datasets)
        fidelity, want_fidelity = STAGES["fidelity"](got), STAGES["fidelity"](want)
        for key in ("eigen_spectrum_original", "eigen_spectrum_generated",
                    "explained_variance_original_pct", "explained_variance_generated_pct"):
            assert fidelity[key] == pytest.approx(want_fidelity[key], rel=1e-12), key
        assert fidelity["r2"] == pytest.approx(want_fidelity["r2"], rel=0, abs=1e-12)
        assert STAGES["originality"](got)["ss"] == pytest.approx(
            STAGES["originality"](want)["ss"], rel=1e-12)
