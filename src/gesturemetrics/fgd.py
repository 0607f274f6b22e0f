"""Fréchet gesture distance between posterior-feature distributions.

Each unit of movement is pushed through a reference mixture model; its
responsibility vector is the feature. The distance between two datasets is
the squared 2-Wasserstein distance between Gaussians fitted to those
features:

    ||M_a - M_b||^2 + Tr(S_a) + Tr(S_b) - 2 Tr((S_b^1/2 S_a S_b^1/2)^1/2)

The matrix square roots come from symmetric eigendecompositions with
negative eigenvalues clamped to zero; features live on the probability
simplex, so the covariances are singular along the all-ones direction and
get a tiny jitter when needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, StructuralError
from .gmm import posterior_matrix

JITTER = 1e-10
NEG_CLAMP = 1e-8


@dataclass
class FeatureStats:
    """Mean and unbiased covariance of a set of feature vectors."""

    mean: np.ndarray
    covariance: np.ndarray
    n: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.n < 2:
            raise InsufficientDataError("need at least 2 samples for feature stats")
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise StructuralError("covariance shape does not match mean")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-12):
            raise StructuralError("covariance must be symmetric")


def stats_from_features(features):
    features = np.asarray(features, dtype=float)
    if features.shape[0] < 2:
        raise InsufficientDataError("need at least 2 feature vectors")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (features.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
    return FeatureStats(mean=mean, covariance=cov, n=features.shape[0])


def _psd_sqrt(mat):
    evals, evecs = np.linalg.eigh((mat + mat.T) / 2.0)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.T


def frechet_distance(a, b):
    """Squared Fréchet (2-Wasserstein) distance between two Gaussians."""
    if a.mean.shape != b.mean.shape:
        raise StructuralError("feature dimensions do not match")
    cov_a, cov_b = a.covariance, b.covariance
    dim = cov_a.shape[0]
    scale = max(float(np.trace(cov_a)), float(np.trace(cov_b)), 1.0)
    min_eig = min(float(np.linalg.eigvalsh(cov_a)[0]), float(np.linalg.eigvalsh(cov_b)[0]))
    if min_eig < JITTER * scale:
        cov_a = cov_a + JITTER * np.eye(dim)
        cov_b = cov_b + JITTER * np.eye(dim)
    sqrt_a = _psd_sqrt(cov_a)
    sqrt_b = _psd_sqrt(cov_b)
    # Tr((S_b^1/2 S_a S_b^1/2)^1/2) equals the nuclear norm of S_a^1/2 S_b^1/2,
    # which avoids square roots of near-zero sandwich eigenvalues
    cross_trace = float(np.sum(np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False)))
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    trace_term = float(np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross_trace)
    value = mean_term + trace_term
    if value < 0:
        if value < -NEG_CLAMP:
            raise StructuralError(f"distance {value} below numerical-noise floor")
        value = 0.0
    return value


def check_bootstrap(bootstrap):
    """Reject a negative number of bootstrap draws."""
    if bootstrap < 0:
        raise StructuralError(f"bootstrap must be at least 0, got {bootstrap}")


def fgd(model, ds_a, ds_b, bootstrap=0, seed=0):
    """FGD between two datasets through a reference mixture.

    Returns the document ``{"value", "bootstrap_mean", "bootstrap_std"}``.
    With ``bootstrap > 0`` both datasets are resampled with replacement
    that many times, and the bootstrap entries hold the mean and standard
    deviation of the distance over those draws; otherwise they are ``None``.
    """
    check_bootstrap(bootstrap)
    feats_a = posterior_matrix(model, ds_a)
    feats_b = posterior_matrix(model, ds_b)
    value = frechet_distance(stats_from_features(feats_a), stats_from_features(feats_b))
    if bootstrap == 0:
        return {"value": value, "bootstrap_mean": None, "bootstrap_std": None}
    rng = np.random.Generator(np.random.Philox(seed))
    draws = []
    for _ in range(bootstrap):
        idx_a = rng.integers(feats_a.shape[0], size=feats_a.shape[0])
        idx_b = rng.integers(feats_b.shape[0], size=feats_b.shape[0])
        draws.append(frechet_distance(
            stats_from_features(feats_a[idx_a]),
            stats_from_features(feats_b[idx_b]),
        ))
    draws = np.asarray(draws)
    return {
        "value": value,
        "bootstrap_mean": float(draws.mean()),
        "bootstrap_std": float(draws.std(ddof=1)) if bootstrap > 1 else 0.0,
    }
