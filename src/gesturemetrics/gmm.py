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
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((x - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        probs = d2 / total
        centers.append(x[rng.choice(n, p=probs)])
    return np.array(centers)


def _log_gaussian(x, means, covariance):
    """Log density of every row of x under every component (shared cov)."""
    d = x.shape[1]
    chol = np.linalg.cholesky(covariance)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    out = np.empty((x.shape[0], means.shape[0]))
    for j, m in enumerate(means):
        sol = np.linalg.solve(chol, (x - m).T)
        maha = np.sum(sol ** 2, axis=0)
        out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
    return out


def _e_step(x, means, covariance, log_weights):
    """Responsibilities (N x K) and the log-likelihood of every row of x."""
    log_prob = _log_gaussian(x, means, covariance) + log_weights
    log_norm = np.logaddexp.reduce(log_prob, axis=1)
    return np.exp(log_prob - log_norm[:, None]), log_norm


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
    n, d = x.shape
    if n < k:
        raise StructuralError(f"need at least k={k} units, got {n}")
    rng = _rng(seed)
    means = _kmeanspp_centers(x, k, rng)
    # Lloyd refinement of the seeding; empty clusters keep their old center
    for _ in range(50):
        d2 = np.stack([np.sum((x - c) ** 2, axis=1) for c in means], axis=1)
        assign = np.argmin(d2, axis=1)
        new_means = np.array([
            x[assign == j].mean(axis=0) if np.any(assign == j) else means[j]
            for j in range(k)])
        if np.allclose(new_means, means, atol=1e-12):
            break
        means = new_means
    weights = np.full(k, 1.0 / k)
    # within-cluster scatter of the initial assignment; the total covariance
    # would swamp the between-cluster separation and merge the components
    centered = x - means[assign]
    covariance, floored = _regularize(centered.T @ centered / n)

    lls = []
    prev_params = None
    for _ in range(max_iter):
        resp, log_norm = _e_step(x, means, covariance, np.log(weights))
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
        # M step
        nk = resp.sum(axis=0) + 1e-300
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        scatter = np.zeros((d, d))
        for j in range(k):
            diff = x - means[j]
            scatter += (resp[:, j][:, None] * diff).T @ diff
        covariance, step_floored = _regularize(scatter / n)
        floored = floored or step_floored

    return GmmModel(
        weights=weights,
        means=means,
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
