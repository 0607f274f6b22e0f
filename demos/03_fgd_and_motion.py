"""Distribution distance and smoothness walkthrough.

Trains the tied-covariance reference mixture on a synthetic corpus, then
scores candidate datasets with the Frechet gesture distance (smaller is
better) alongside jerk and path-length statistics of the induced hand and
elbow trajectories.
"""

import numpy as np

from gesturemetrics.gmm import fit, sample
from gesturemetrics.model import GestureDataset, RobotProfile
from gesturemetrics.report import STAGES, Run
from gesturemetrics.synth import beat_gesture_corpus

MU = 4


def main():
    profile = RobotProfile.default()
    corpus = beat_gesture_corpus(4000, MU, seed=0)
    x = corpus.matrix
    train = GestureDataset(matrix=x[:800], dt=corpus.dt)
    heldout = GestureDataset(matrix=x[800:], dt=corpus.dt)

    model = fit(train, k=8, seed=0)
    print(f"reference mixture: k={model.k}, d={model.d}, "
          f"{len(model.log_likelihoods)} EM iterations")

    rng = np.random.default_rng(1)
    limits = profile.limits_array()
    lo, hi = np.tile(limits[:, 0], MU), np.tile(limits[:, 1], MU)
    held_x = heldout.matrix
    candidates = {
        "held-out corpus": heldout,
        "mixture samples": sample(model, 200, seed=1),
        "noisy corpus (sigma=0.1)": GestureDataset(
            matrix=held_x + rng.normal(0.0, 0.1, held_x.shape), dt=corpus.dt),
        "uniform noise": GestureDataset(
            matrix=rng.uniform(lo, hi, size=(200, lo.size)), dt=corpus.dt),
    }

    print(f"\n{'candidate':28s} {'FGD':>9s} {'E (boot)':>9s} {'sigma':>8s} "
          f"{'Rhand jerk':>11s} {'Rhand lpath':>12s}")
    for name, ds in candidates.items():
        run = Run(train, ds, model=model, profile=profile, bootstrap=30, seed=0)
        res, motion = STAGES["fgd"](run), STAGES["motion_generated"](run)
        print(f"{name:28s} {res['value']:9.4f} {res['bootstrap_mean']:9.4f} "
              f"{res['bootstrap_std']:8.4f} {motion['jerk_by_site']['Rhand']:11.3f} "
              f"{motion['path_length_by_site']['Rhand']:12.4f}")

    print("\nsmaller FGD = feature distribution closer to the reference corpus;"
          "\njerk and path length expose unnaturally rough or hyperactive motion.")


if __name__ == "__main__":
    main()
