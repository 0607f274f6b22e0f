"""Tied-covariance Gaussian mixture over unit-of-movement vectors.

All components share a single covariance matrix, pooled across the
responsibility-weighted scatter in the M step. The mixture doubles as the
reference feature extractor for the Fréchet gesture distance and as the
in-repo reference generator.

Randomness is pinned to numpy's Philox counter-based generator so fits and
samples are reproducible from a seed alone.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, StructuralError
from .model import N_JOINTS, GestureDataset, as_matrix

MODEL_FORMAT_VERSION = 1
DEFAULT_K = 24
DEFAULT_MAX_ITER = 500
DEFAULT_REL_TOL = 1e-7
COV_REG = 1e-6


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    covariance: np.ndarray      # shared by all components
    mu: int
    dt: float
    log_likelihoods: list = field(default_factory=list)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in
                   (self.weights, self.means, self.covariance, self.dt)):
            raise StructuralError("model weights, means, covariance and dt must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-10 or np.any(self.weights < 0):
            raise StructuralError("weights must be non-negative and sum to 1")
        if self.means.shape != (self.k, self.d):
            raise StructuralError("means must be K x d")
        if self.d != N_JOINTS * self.mu:
            raise StructuralError(f"model dimension d={self.d} is not 14 * mu (mu={self.mu})")
        if self.covariance.shape != (self.d, self.d):
            raise StructuralError("covariance must be d x d")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-10):
            raise StructuralError("covariance must be symmetric")

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


def _log_gaussian(x, means, covariance):
    """Log density of every row of x under every component (shared cov)."""
    d = x.shape[1]
    chol = np.linalg.cholesky(covariance)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    # centre before whitening: on offset, ill-conditioned data the whitened
    # coordinates would otherwise be huge and the expanded distance cancel
    white = (np.vstack([x, means]) - x.mean(axis=0)) @ np.linalg.inv(chol).T
    maha = _sq_dists(white[:len(x)], white[len(x):])
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def _e_step(x, means, covariance, log_weights):
    """Responsibilities (N x K) and the log-likelihood of every row of x."""
    log_prob = _log_gaussian(x, means, covariance) + log_weights
    top = log_prob.max(axis=1)
    log_norm = top + np.log(np.sum(np.exp(log_prob - top[:, None]), axis=1))
    return np.exp(log_prob - log_norm[:, None]), log_norm


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
    x = as_matrix(ds)
    n, d = x.shape
    if k < 1:
        raise StructuralError(f"k must be at least 1, got {k}")
    if n < k:
        raise StructuralError(f"need at least k={k} units, got {n}")
    rng = _rng(seed)
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

    lls = []
    for _ in range(max_iter):
        resp, log_norm = _e_step(xc, means, covariance, np.log(weights))
        penalty = 0.5 * n * ridge * np.trace(np.linalg.inv(covariance))
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
    """Responsibility vectors for every unit of a dataset (N x K); rows sum to 1."""
    x = as_matrix(ds)
    if x.shape[1] != model.d:
        raise StructuralError(f"dataset dimension {x.shape[1]} does not match model d={model.d}")
    return _e_step(x, model.means, model.covariance, np.log(model.weights + 1e-300))[0]


def sample(model, n, seed=0):
    """Draw n units of movement (component choice, then shared-cov Gaussian)."""
    if n < 1:
        raise StructuralError("need n >= 1 samples")
    rng = _rng(seed)
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
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Read a :func:`save_model` file; a malformed one raises ``ParseError``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupted model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {version!r}")
    try:
        model = GmmModel(weights=doc["weights"], means=doc["means"], covariance=doc["covariance"],
                         mu=operator.index(doc["mu"]), dt=float(doc["dt"]))
        if (model.k, model.d) != (doc["k"], doc["d"]):
            raise ParseError("model matrix shapes disagree with declared k/d")
    except KeyError as exc:
        raise ParseError(f"model file has no {exc} entry") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from exc
    return model
