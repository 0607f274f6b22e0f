"""Fidelity and originality walkthrough.

Compares a reference gesture corpus against three synthetic "generators":
an exact copy, a noisy copy, and an unrelated corpus. Fidelity is the
PCoA-structure recovery (R^2 per embedding axis, eigenvalue spectra);
originality is the Procrustes residual ss and its ss/(14 mu) normalization.
"""

import numpy as np

from gesturemetrics.model import as_matrix
from gesturemetrics.pcoa import analyze_dataset_structure, fidelity_report
from gesturemetrics.report import originality
from gesturemetrics.synth import beat_gesture_corpus

MU = 4


def compare(name, matrix_o, matrix_g):
    res_o = analyze_dataset_structure(matrix_o, MU)
    res_g = analyze_dataset_structure(matrix_g, MU)
    report = fidelity_report(res_o, res_g)
    proc = originality(res_o, res_g, MU, report.dims)
    r2 = np.array(report.r2)
    print(f"\n== {name} ==")
    print(f"  R^2 per axis      : {np.round(r2, 3)}")
    print(f"  mean R^2          : {r2.mean():.4f}")
    print(f"  explained var (%) : original {report.explained_variance_original_pct:.1f}"
          f" / generated {report.explained_variance_generated_pct:.1f}")
    print(f"  procrustes ss     : {proc.ss:.5f}  ss/(14 mu): {proc.ss_normalized:.7f}")
    lam_o = np.array(report.eigen_spectrum_original[:5])
    lam_g = np.array(report.eigen_spectrum_generated[:5])
    print(f"  top eigenvalues   : original {np.round(lam_o, 3)}")
    print(f"                      generated {np.round(lam_g, 3)}")


def main():
    rng = np.random.default_rng(0)
    original = as_matrix(beat_gesture_corpus(2000, MU, seed=0))
    print(f"reference corpus: {original.shape[0]} units of movement, mu={MU}")

    compare("exact copy (perfect fidelity, zero originality)",
            original, original.copy())
    compare("noisy copy (sigma=0.05)",
            original, original + rng.normal(0.0, 0.05, original.shape))
    compare("unrelated corpus (different generator seed)",
            original, as_matrix(beat_gesture_corpus(2000, MU, seed=99)))


if __name__ == "__main__":
    main()
