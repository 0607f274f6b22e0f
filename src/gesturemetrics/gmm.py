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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, StructuralError
from .model import GestureDataset, as_matrix

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
    covariance_floored: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-10 or np.any(self.weights < 0):
            raise StructuralError("weights must be non-negative and sum to 1")
        if self.means.shape != (self.k, self.d):
            raise StructuralError("means must be K x d")
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

    def mixture_mean(self):
        return self.weights @ self.means


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
    log_norm = np.logaddexp.reduce(log_prob, axis=1)
    return np.exp(log_prob - log_norm[:, None]), log_norm


def _m_step(xc, gram, resp):
    """Weights, means and pooled covariance, all in the centred coordinates of ``xc``."""
    nk = resp.sum(axis=0) + 1e-300
    means = (resp.T @ xc) / nk[:, None]
    # sum_k sum_i r_ik (x_i - m_k)(x_i - m_k)' = X'X - sum_k n_k m_k m_k', gram = X'X
    scatter = gram - (means * nk[:, None]).T @ means
    return nk / len(xc), means, (scatter + scatter.T) / (2.0 * len(xc))


def _regularize(cov):
    floor = COV_REG * float(np.mean(np.diag(cov)))
    if floor <= 0:
        floor = COV_REG
    cov = cov + floor * np.eye(cov.shape[0])
    floored = False
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    if min_eig < floor / 2:
        cov = cov + (floor - min_eig) * np.eye(cov.shape[0])
        floored = True
    return cov, floored


def fit(ds, k=DEFAULT_K, seed=0, max_iter=DEFAULT_MAX_ITER, rel_tol=DEFAULT_REL_TOL):
    """EM fit of a K-component tied-covariance mixture to a dataset.

    Initialization is k-means++ seeding on the given seed; iteration stops
    when the per-step log-likelihood gain drops below ``rel_tol * |LL|``.
    The recorded log-likelihood trace is non-decreasing.
    """
    x = as_matrix(ds)
    n = x.shape[0]
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
    covariance, floored = _regularize(centered.T @ centered / n)

    lls = []
    prev_params = None
    for _ in range(max_iter):
        resp, log_norm = _e_step(xc, means, covariance, np.log(weights))
        ll = float(np.sum(log_norm))
        if lls and ll < lls[-1]:
            # the regularization floor can break exact EM monotonicity on
            # tiny or degenerate data; keep the best parameters and stop
            weights, means, covariance = prev_params
            break
        lls.append(ll)
        if len(lls) > 1 and lls[-1] - lls[-2] < rel_tol * abs(lls[-1]):
            break
        prev_params = (weights, means, covariance)
        weights, means, pooled = _m_step(xc, gram, resp)
        covariance, step_floored = _regularize(pooled)
        floored = floored or step_floored

    return GmmModel(
        weights=weights,
        means=means + center,
        covariance=covariance,
        mu=ds.mu,
        dt=ds.dt,
        log_likelihoods=lls,
        covariance_floored=floored,
    )


def posterior_matrix(model, ds):
    """Responsibility vectors for every unit of a dataset (N x K); rows sum to 1."""
    x = as_matrix(ds)
    if x.shape[1] != model.d:
        raise StructuralError(f"dataset dimension {x.shape[1]} does not match model d={model.d}")
    return _e_step(x, model.means, model.covariance, np.log(model.weights + 1e-300))[0]


def sample(model, n, seed=0, source_tag="gmm-sample"):
    """Draw n units of movement (component choice, then shared-cov Gaussian)."""
    if n < 1:
        raise StructuralError("need n >= 1 samples")
    rng = _rng(seed)
    comps = rng.choice(model.k, size=n, p=model.weights)
    chol = np.linalg.cholesky(model.covariance)
    noise = rng.standard_normal((n, model.d))
    rows = model.means[comps] + noise @ chol.T
    return GestureDataset(matrix=rows, dt=model.dt, source_tag=source_tag)


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
        "covariance_floored": model.covariance_floored,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupted model file: {exc}") from exc
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ParseError(f"unsupported model format version {version!r}")
    model = GmmModel(
        weights=np.array(doc["weights"]),
        means=np.array(doc["means"]),
        covariance=np.array(doc["covariance"]),
        mu=int(doc["mu"]),
        dt=float(doc["dt"]),
        covariance_floored=bool(doc.get("covariance_floored", False)),
    )
    if model.k != doc["k"] or model.d != doc["d"]:
        raise ParseError("model matrix shapes disagree with declared k/d")
    return model
