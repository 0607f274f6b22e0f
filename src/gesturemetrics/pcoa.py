"""Fidelity analysis: correlation distances, PCoA, spectra and R2 recovery.

The analysis treats the columns of the N x (14*mu) dataset matrix (each
column is one joint at one time offset within the unit of movement) as the
units of a distance matrix. Correlation distance here is d = sqrt(1 - r)
with r the Pearson correlation; this choice is Euclidean-embeddable and
keeps the PCoA spectrum essentially non-negative, and all absolute
eigenvalues quoted anywhere depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, StructuralError
from .model import N_JOINTS, column_labels

EIG_TOL = 1e-10
SPECTRUM_LEN = 28   # spectra are zero-padded or cut to this many eigenvalues


@dataclass
class DistanceMatrix:
    """Symmetric non-negative distances with zero diagonal."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructuralError("distance matrix must be square")
        if not np.allclose(d, d.T, atol=1e-12):
            raise StructuralError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise StructuralError("distance matrix diagonal must be zero")
        if np.any(d < 0):
            raise StructuralError("distances must be non-negative")
        self.d = d

    @property
    def n(self):
        return self.d.shape[0]


@dataclass
class PcoaResult:
    """Principal coordinates with their eigenvalue spectrum.

    Column j of ``coordinates`` has squared norm ``eigenvalues[j]``.
    Numerical negative eigenvalues are dropped; their absolute mass is
    reported, not silently discarded.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    dropped_negative_mass: float


def correlation_distance(data, labels=None):
    """Pairwise sqrt(1 - Pearson r) distances between data columns.

    Zero-variance columns get r = 0 (d = 1) against everything else, with
    a warning naming them.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise StructuralError("expected an N x p data matrix")
    n_rows, n_cols = data.shape
    if n_rows < 3:
        raise StructuralError("need at least 3 samples for correlations")
    if labels is None:
        labels = [str(i) for i in range(n_cols)]
    # ptp, not std: the std of a constant whose mean is inexact is ~1e-16
    dead = np.flatnonzero(np.ptp(data, axis=0) == 0)
    if dead.size:
        warnings.warn(
            "zero-variance columns treated as uncorrelated (d=1): "
            + ", ".join(labels[i] for i in dead))
    # dead columns divide 0 by 0 here; their r is forced to 0 below
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.corrcoef(data, rowvar=False)
    r[dead, :] = 0.0
    r[:, dead] = 0.0
    np.fill_diagonal(r, 1.0)
    d = np.sqrt(np.clip(1.0 - r, 0.0, None))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d=d)


def geometric_variability(dm):
    """V = sum d_ij^2 / (2 n^2), the dispersion of the distance matrix."""
    d = dm.d
    return float(np.sum(d ** 2) / (2.0 * dm.n ** 2))


def scale_to_unit_geometric_variability(dm):
    """Rescale distances so the geometric variability equals 1 (idempotent)."""
    v = geometric_variability(dm)
    if v <= 0:
        raise DegenerateGeometryError("all-zero distance matrix cannot be scaled")
    return DistanceMatrix(d=dm.d / np.sqrt(v))


def pcoa(dm):
    """Principal Coordinate Analysis of a distance matrix.

    Double-centers the squared distances into the Gram matrix
    B = -0.5 * (I - 11'/n) D2 (I - 11'/n), takes its symmetric
    eigendecomposition, keeps eigenpairs above ``EIG_TOL * lambda_max``
    and scales eigenvectors by sqrt(lambda). For Euclidean-embeddable
    distances the row distances of the result reproduce the input.
    """
    d = dm.d
    n = dm.n
    if n < 2:
        raise StructuralError("need at least 2 units")
    d2 = d ** 2
    centerer = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centerer @ d2 @ centerer
    gram = (gram + gram.T) / 2.0
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    dropped = float(np.sum(np.abs(evals[evals < 0])))
    cutoff = EIG_TOL * max(evals[0], 0.0) if evals.size else 0.0
    keep = evals > cutoff
    evals, evecs = evals[keep], evecs[:, keep]
    # deterministic sign: largest-magnitude component of each axis positive
    pivots = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])]
    evecs = np.where(pivots < 0, -evecs, evecs)
    coords = evecs * np.sqrt(evals)
    return PcoaResult(coordinates=coords, eigenvalues=evals,
                      dropped_negative_mass=dropped)


def explained_variance(result, dims):
    """Percentage of positive eigenvalue mass carried by the first dims axes."""
    lam = result.eigenvalues
    if dims > lam.size:
        raise StructuralError(f"only {lam.size} dimensions retained")
    total = float(np.sum(lam))
    return 100.0 * float(np.sum(lam[:dims])) / total


def r2_recovery(y_o, y_g):
    """Determination coefficients of each original coordinate regressed on
    all generated coordinates (ordinary least squares with intercept).

    Rank-deficient predictors fall back to the minimum-norm solution;
    the returned flag records that condition.
    """
    y_o = np.asarray(y_o, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    if y_o.shape[0] != y_g.shape[0]:
        raise StructuralError("configurations must have the same number of rows")
    n = y_o.shape[0]
    design = np.column_stack([np.ones(n), y_g])
    coef, _, rank, _ = np.linalg.lstsq(design, y_o, rcond=None)
    rank_deficient = bool(rank < design.shape[1])
    resid = y_o - design @ coef
    ssr = np.sum(resid ** 2, axis=0)
    sst = np.sum((y_o - y_o.mean(axis=0)) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(sst > 0, 1.0 - ssr / sst, np.where(ssr <= 1e-24, 1.0, 0.0))
    return np.clip(r2, 0.0, 1.0), rank_deficient


def analyze_dataset_structure(matrix):
    """Correlation-distance -> unit variability -> PCoA for one N x (14*mu)
    dataset matrix; warnings name columns as ``Joint[k]``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] % N_JOINTS:
        raise StructuralError(f"expected an N x (14*mu) dataset matrix, got shape {matrix.shape}")
    dm = correlation_distance(matrix, labels=column_labels(matrix.shape[1] // N_JOINTS))
    dm = scale_to_unit_geometric_variability(dm)
    return pcoa(dm)


def check_dims(dims):
    """Reject a requested number of principal coordinates below 1."""
    if dims < 1:
        raise StructuralError(f"dims must be at least 1, got {dims}")


def leading_coordinates(res_original, res_generated, dims):
    """The first ``dims`` principal coordinates of both results, or fewer
    when either result retained fewer dimensions."""
    check_dims(dims)
    d = min(dims, res_original.eigenvalues.size, res_generated.eigenvalues.size)
    return res_original.coordinates[:, :d], res_generated.coordinates[:, :d]


def fidelity_report(res_original, res_generated, dims=10):
    """Fidelity of a generated dataset's structure to the original's.

    Takes the two :func:`analyze_dataset_structure` results and returns the
    report document. Each of the original's leading coordinates (see
    :func:`leading_coordinates`) is regressed on all of the generated ones;
    spectra are zero-padded or cut to ``SPECTRUM_LEN`` entries.
    """
    y_o, y_g = leading_coordinates(res_original, res_generated, dims)
    dims = y_o.shape[1]
    r2, rank_deficient = r2_recovery(y_o, y_g)

    def spectrum(res):
        lam = res.eigenvalues[:SPECTRUM_LEN]
        return np.pad(lam, (0, SPECTRUM_LEN - lam.size)).tolist()

    return {
        "eigen_spectrum_original": spectrum(res_original),
        "eigen_spectrum_generated": spectrum(res_generated),
        "r2": r2.tolist(),
        "explained_variance_original_pct": explained_variance(res_original, dims),
        "explained_variance_generated_pct": explained_variance(res_generated, dims),
        "dims": dims,
        "rank_deficient": rank_deficient,
    }
