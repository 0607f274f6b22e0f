"""Tied-covariance Gaussian mixture over unit-of-movement vectors.

All components share a single covariance matrix, pooled across the
responsibility-weighted scatter in the M step. The mixture doubles as the
reference feature extractor for the Fréchet gesture distance and as the
in-repo reference generator.

Randomness comes from :func:`model.philox`, numpy's counter-based Philox
generator, so fits and samples are reproducible from a seed alone.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .errors import ParseError, StructuralError, parse_json
from .model import (N_JOINTS, GestureDataset, check_dt, check_spread, check_symmetric, philox,
                    read_only)

MODEL_FORMAT_VERSION = 1
DEFAULT_K = 24
DEFAULT_MAX_ITER = 500
DEFAULT_REL_TOL = 1e-7
COV_REG = 1e-6
# largest |row sum - 1| of a posterior matrix: 4.4e-13 at most on the benchmark's
# evaluate inputs (seeds 1-10), 0 up to a far cell of 1e14 in a 240-pose corpus, 1 from 1e15
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GmmModel:
    """A checked mixture that cannot change: its arrays are :func:`read_only` views.
    It compares and hashes by identity."""

    weights: np.ndarray
    means: np.ndarray
    covariance: np.ndarray      # shared by all components
    mu: int
    dt: float
    log_likelihoods: tuple = ()

    def __post_init__(self):
        for name in ("weights", "means", "covariance"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        object.__setattr__(self, "log_likelihoods", tuple(self.log_likelihoods))
        if not all(np.all(np.isfinite(a)) for a in (self.weights, self.means, self.covariance)):
            raise StructuralError("model weights, means and covariance must be finite")
        object.__setattr__(self, "dt", check_dt(self.dt))
        if self.mu < 1:
            raise StructuralError(f"model mu must be at least 1, got {self.mu}")
        if (self.weights.ndim != 1 or abs(self.weights.sum() - 1.0) > 1e-10
                or np.any(self.weights < 0)):
            raise StructuralError("weights must be a non-negative vector that sums to 1")
        if self.means.shape != (self.k, self.d):
            raise StructuralError("means must be K x d")
        if self.d != N_JOINTS * self.mu:
            raise StructuralError(f"model dimension d={self.d} is not 14 * mu (mu={self.mu})")
        if self.covariance.shape != (self.d, self.d):
            raise StructuralError("covariance must be d x d")
        check_symmetric(self.covariance, "covariance")
        try:
            np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError:
            raise StructuralError("covariance must be positive definite") from None

    @property
    def k(self):
        return self.weights.shape[0]

    @property
    def d(self):
        return self.means.shape[1]


def _kmeanspp_centers(x, k, rng):
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    d2 = np.full(n, np.inf)     # squared distance to the nearest center so far
    for _ in range(1, k):
        d2 = np.minimum(d2, np.sum((x - centers[-1]) ** 2, axis=1))
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        probs = d2 / total
        centers.append(x[rng.choice(n, p=probs)])
    return np.array(centers)


def _sq_dists(y, z):
    """Squared distances (N x K) between the rows of y and z; pass both centred on the data."""
    return np.sum(y * y, axis=1)[:, None] - 2.0 * (y @ z.T) + np.sum(z * z, axis=1)


def _log_gaussian(block, n, covariance):
    """Log density of the first n rows of block under components centred at the rest
    (shared cov), and tr(cov^-1) = ||L^-1||_F^2 from the same Cholesky factor L. Centre
    block on the data: on offset, ill-conditioned data the whitened distances would cancel."""
    d = block.shape[1]
    chol = np.linalg.cholesky(covariance)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    inv_chol = np.linalg.inv(chol)
    white = block @ inv_chol.T
    maha = _sq_dists(white[:n], white[n:])
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha), np.sum(inv_chol * inv_chol)


def _e_step(block, n, covariance, log_weights):
    """Responsibilities (n x K), the log-likelihood of every data row and ``tr(cov^-1)``."""
    log_prob, trace_inv = _log_gaussian(block, n, covariance)
    log_prob += log_weights
    top = log_prob.max(axis=1)
    log_norm = top + np.log(np.sum(np.exp(log_prob - top[:, None]), axis=1))
    return np.exp(log_prob - log_norm[:, None]), log_norm, trace_inv


def _m_step(xc, gram, resp):
    """Weights, means and pooled covariance, all in the centred coordinates of ``xc``."""
    nk = resp.sum(axis=0) + 1e-300
    means = (resp.T @ xc) / nk[:, None]
    # sum_k sum_i r_ik (x_i - m_k)(x_i - m_k)' = X'X - sum_k n_k m_k m_k', gram = X'X
    scatter = gram - (means * nk[:, None]).T @ means
    return nk / len(xc), means, (scatter + scatter.T) / (2.0 * len(xc))


def fit(ds, k=DEFAULT_K, seed=0, max_iter=DEFAULT_MAX_ITER, rel_tol=DEFAULT_REL_TOL):
    """MAP-EM fit of a K-component tied-covariance mixture to a dataset.

    k-means++ seeding on the given seed, refined by Lloyd, starts the fit.
    Every covariance is the pooled scatter plus one ridge, fixed from the
    initial within-cluster covariance (``COV_REG`` times its mean variance).
    That is EM under a conjugate prior, whose penalized objective
    ``sum_i log p(x_i) - (n * ridge / 2) tr(cov^-1)`` never decreases;
    ``log_likelihoods`` traces it. A step that gains less than
    ``rel_tol * |objective|`` ends the fit and is traced only if it did not
    fall (a fall that small is round-off).
    """
    x = ds.matrix
    n, d = x.shape
    if k < 1:
        raise StructuralError(f"k must be at least 1, got {k}")
    if n < k:
        raise StructuralError(f"need at least k={k} units, got {n}")
    check_spread(x)
    rng = philox(seed)
    # fit in centred coordinates: there the expanded forms do not cancel
    center = x.mean(axis=0)
    xc = x - center
    gram = xc.T @ xc
    means = _kmeanspp_centers(x, k, rng) - center
    # Lloyd refinement of the seeding; empty clusters keep their old center
    for _ in range(50):
        assign = np.argmin(_sq_dists(xc, means), axis=1)
        onehot = assign[:, None] == np.arange(k)
        counts = onehot.sum(axis=0)[:, None]
        new_means = np.where(counts > 0, (onehot.T @ xc) / np.maximum(counts, 1), means)
        if np.allclose(new_means, means, atol=1e-12):
            break
        means = new_means
    weights = np.full(k, 1.0 / k)
    # within-cluster scatter of the initial assignment; the total covariance
    # would swamp the between-cluster separation and merge the components
    centered = xc - means[assign]
    covariance = centered.T @ centered / n
    ridge = COV_REG * float(np.mean(np.diag(covariance))) or COV_REG
    prior = ridge * np.eye(d)
    covariance = covariance + prior

    shift = xc.mean(axis=0)
    block = np.vstack([xc - shift, means])     # data rows centred once; mean rows set per step
    lls = []
    for _ in range(max_iter):
        np.subtract(means, shift, out=block[n:])
        try:
            resp, log_norm, trace_inv = _e_step(block, n, covariance, np.log(weights))
        except np.linalg.LinAlgError:
            raise StructuralError(f"EM iteration {len(lls) + 1}: round-off made the covariance "
                                  "indefinite (an outlier or a column far out of scale?)") from None
        penalty = 0.5 * n * ridge * trace_inv
        objective = float(np.sum(log_norm)) - penalty
        if lls and objective - lls[-1] < rel_tol * abs(objective):
            if objective >= lls[-1]:
                lls.append(objective)
            break
        lls.append(objective)
        weights, means, pooled = _m_step(xc, gram, resp)
        covariance = pooled + prior

    return GmmModel(
        weights=weights,
        means=means + center,
        covariance=covariance,
        mu=ds.mu,
        dt=ds.dt,
        log_likelihoods=lls,
    )


def posterior_matrix(model, ds):
    """Responsibility vectors for every unit of a dataset (N x K); rows sum to 1.
    A unit's row depends on that unit and the model alone, not on the other units.

    A unit whose log-likelihood is not finite, because its whitened squared
    distances to the components overflow, raises ``StructuralError``. So does a
    row whose sum strays from 1 by more than ``SIMPLEX_TOL``: far out of scale,
    the log-likelihoods grow so large that rounding them absorbs the terms of
    the log-sum that normalizes the row."""
    x = ds.matrix
    if x.shape[1] != model.d:
        raise StructuralError(f"dataset dimension {x.shape[1]} does not match model d={model.d}")
    # centred on a point the model fixes, so a unit's row depends on that unit alone;
    # an overflow shows as a NaN or infinite log-likelihood, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        block = np.vstack([x, model.means]) - model.weights @ model.means
        resp, log_norm, _ = _e_step(block, len(x), model.covariance,
                                    np.log(model.weights + 1e-300))
    if not np.isfinite(log_norm).all():
        raise StructuralError("dataset values lie too far from the model's components: "
                              "their whitened squared distances overflow")
    stray = np.abs(resp.sum(axis=1) - 1.0).max()
    if stray > SIMPLEX_TOL:
        raise StructuralError("dataset values lie too far from the model's components: "
                              f"a posterior row's sum differs from 1 by {stray:.1e}")
    return resp


def sample(model, n, seed=0):
    """Draw n units of movement (component choice, then shared-cov Gaussian).
    More than ``pipeline.MAX_POSES`` poses in all is rejected before any allocation."""
    if n < 1:
        raise StructuralError("need n >= 1 samples")
    if n > pipeline.MAX_POSES // model.mu:       # n * mu poses, without a numpy int overflow
        raise StructuralError(f"n {n} units of {model.mu} poses give more than "
                              f"{pipeline.MAX_POSES} poses")
    rng = philox(seed)
    comps = rng.choice(model.k, size=n, p=model.weights)
    chol = np.linalg.cholesky(model.covariance)
    noise = rng.standard_normal((n, model.d))
    rows = model.means[comps] + noise @ chol.T
    return GestureDataset(matrix=rows, dt=model.dt, source_tag="gmm-sample")


def save_model(model, path):
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "d": model.d,
        "mu": model.mu,
        "dt": model.dt,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariance": model.covariance.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")   # one pass of the C encoder


def load_model(path):
    """Read a :func:`save_model` file; a malformed one raises ``ParseError``."""
    with open(path, "rb") as fh:
        doc = parse_json(fh.read(), "corrupted model file")
    if not isinstance(doc, dict):
        raise ParseError("model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {version!r}")
    try:
        for key in ("mu", "k", "d"):
            if isinstance(doc[key], bool):      # JSON true, which operator.index reads as 1
                raise ParseError(f"{key} must be a JSON integer, not a boolean")
        arrays = [np.array(doc[key], dtype=object)     # keeps each entry's JSON type
                  for key in ("weights", "means", "covariance", "dt")]
        if not {type(v) for a in arrays for v in a.flat} <= {int, float}:
            raise ParseError("malformed model file: dt and every array entry must be JSON numbers")
        model = GmmModel(*arrays[:3], mu=operator.index(doc["mu"]), dt=float(doc["dt"]))
        if (model.k, model.d) != (operator.index(doc["k"]), operator.index(doc["d"])):
            raise ParseError("model matrix shapes disagree with declared k/d")
    except KeyError as exc:
        raise ParseError(f"model file has no {exc} entry") from exc
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed model file: {exc}") from exc
    return model
