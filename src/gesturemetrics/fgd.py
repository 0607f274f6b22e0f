"""Fréchet gesture distance between posterior-feature distributions.

Each unit of movement is pushed through a reference mixture model; its
responsibility vector is the feature. The distance between two datasets is
the squared 2-Wasserstein distance between Gaussians fitted to those
features:

    ||M_a - M_b||^2 + Tr(S_a) + Tr(S_b) - 2 Tr((S_b^1/2 S_a S_b^1/2)^1/2)

The square roots come from symmetric eigendecompositions (negative
eigenvalues clamped to zero) and the cross trace is the nuclear norm of
S_a^1/2 S_b^1/2, exact for the singular covariances of simplex features:
no jitter is added, as a jitter eps would move the distance by ~sqrt(eps).
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, StructuralError
from .gmm import posterior_matrix
from .model import check_symmetric, philox

NEG_CLAMP = 1e-8


def stats_from_features(features):
    """``(mean, covariance)`` of the rows of ``features``; the covariance is unbiased."""
    return _centred_stats(np.array(features, dtype=float))


def _centred_stats(x):
    """:func:`stats_from_features` of the float rows ``x``, which it centres in place."""
    if x.shape[0] < 2:
        raise InsufficientDataError("need at least 2 feature vectors")
    mean = x.mean(axis=0)
    x -= mean
    cov = x.T @ x / (x.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
    return mean, cov


def _psd_sqrt(mat):
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.T


def frechet_distance(a, b):
    """Squared Fréchet (2-Wasserstein) distance between two Gaussians.

    ``a`` and ``b`` are ``(mean, covariance)`` pairs as from
    :func:`stats_from_features`; mismatched dimensions and covariances that are
    not square, not finite or not symmetric (an entry differs from its
    transpose by more than ``1e-12 * max(1, max |cov|)``) raise
    ``StructuralError``. A negative result is round-off and reads 0.0 when it
    lies within ``NEG_CLAMP * max(1, |Tr S_a| + |Tr S_b|)`` of zero; below
    that (an indefinite covariance) it raises ``StructuralError``.
    Statistics with equal mean and covariance arrays are at distance exactly
    0.0; the eigen- and singular-value route would leave round-off whose size
    depends on the BLAS kernel.
    """
    mean_a, cov_a, mean_b, cov_b = (np.asarray(x, dtype=float) for x in (*a, *b))
    if mean_a.shape != mean_b.shape:
        raise StructuralError("feature dimensions do not match")
    for cov in (cov_a, cov_b):
        if cov.shape != (mean_a.size, mean_a.size):
            raise StructuralError("covariance shape does not match mean")
        if not np.all(np.isfinite(cov)):
            raise StructuralError("covariance must be finite")
        check_symmetric(cov, "covariance")
    if np.array_equal(mean_a, mean_b) and np.array_equal(cov_a, cov_b):
        return 0.0
    sqrt_a = _psd_sqrt(cov_a)
    sqrt_b = _psd_sqrt(cov_b)
    # Tr((S_b^1/2 S_a S_b^1/2)^1/2) equals the nuclear norm of S_a^1/2 S_b^1/2,
    # which avoids square roots of near-zero sandwich eigenvalues
    cross_trace = float(np.sum(np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False)))
    mean_term = float(np.sum((mean_a - mean_b) ** 2))
    trace_a, trace_b = float(np.trace(cov_a)), float(np.trace(cov_b))
    value = mean_term + (trace_a + trace_b - 2.0 * cross_trace)
    if value < 0:
        # the round-off of the trace difference grows with the traces
        if value < -NEG_CLAMP * max(1.0, abs(trace_a) + abs(trace_b)):
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
    rng = philox(seed)
    rows_a, rows_b = np.empty_like(feats_a), np.empty_like(feats_b)
    draws = []
    for _ in range(bootstrap):
        idx_a = rng.integers(feats_a.shape[0], size=feats_a.shape[0])
        idx_b = rng.integers(feats_b.shape[0], size=feats_b.shape[0])
        # the indices are in range by construction; with mode="raise" numpy
        # would gather into a temporary and copy it to out
        np.take(feats_a, idx_a, axis=0, out=rows_a, mode="clip")
        np.take(feats_b, idx_b, axis=0, out=rows_b, mode="clip")
        draws.append(frechet_distance(_centred_stats(rows_a), _centred_stats(rows_b)))
    draws = np.asarray(draws)
    return {
        "value": value,
        "bootstrap_mean": float(draws.mean()),
        "bootstrap_std": float(draws.std(ddof=1)) if bootstrap > 1 else 0.0,
    }
