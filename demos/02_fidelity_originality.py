"""Fidelity and originality walkthrough.

Compares a reference gesture corpus against three synthetic "generators":
an exact copy, a noisy copy, and an unrelated corpus. Fidelity is the
PCoA-structure recovery (R^2 per embedding axis, eigenvalue spectra);
originality is the Procrustes residual ss and its ss/(14 mu) normalization.
"""

import numpy as np

from gesturemetrics.model import GestureDataset
from gesturemetrics.report import STAGES, Run
from gesturemetrics.synth import beat_gesture_corpus

MU = 4


def compare(name, original, generated):
    run = Run(original, generated)
    report = STAGES["fidelity"](run)
    proc = STAGES["originality"](run)
    r2 = np.array(report["r2"])
    print(f"\n== {name} ==")
    print(f"  R^2 per axis      : {np.round(r2, 3)}")
    print(f"  mean R^2          : {r2.mean():.4f}")
    print(f"  explained var (%) : original {report['explained_variance_original_pct']:.1f}"
          f" / generated {report['explained_variance_generated_pct']:.1f}")
    print(f"  procrustes ss     : {proc['ss']:.5f}  ss/(14 mu): {proc['ss_normalized']:.7f}")
    lam_o = np.array(report["eigen_spectrum_original"][:5])
    lam_g = np.array(report["eigen_spectrum_generated"][:5])
    print(f"  top eigenvalues   : original {np.round(lam_o, 3)}")
    print(f"                      generated {np.round(lam_g, 3)}")


def main():
    rng = np.random.default_rng(0)
    original = beat_gesture_corpus(2000, MU, seed=0)
    x = original.matrix
    print(f"reference corpus: {len(original)} units of movement, mu={MU}")

    compare("exact copy (perfect fidelity, zero originality)",
            original, GestureDataset(matrix=x, dt=original.dt))
    compare("noisy copy (sigma=0.05)",
            original, GestureDataset(matrix=x + rng.normal(0.0, 0.05, x.shape), dt=original.dt))
    compare("unrelated corpus (different generator seed)",
            original, beat_gesture_corpus(2000, MU, seed=99))


if __name__ == "__main__":
    main()
