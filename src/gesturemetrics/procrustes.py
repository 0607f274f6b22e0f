"""Orthogonal Procrustes statistic between two coordinate configurations.

The statistic is the residual sum of squares ss = ||A - s B Q||_F^2
minimized over orthogonal Q and positive scale s; larger ss means the two
configurations (here: joints along the unit of movement, embedded by PCoA)
differ more, i.e. the generator is more original. ss is normalized by
14*mu to stay commeasurable across unit-of-movement lengths.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, StructuralError
from .model import N_JOINTS, check_spread

SCALE_EPS = 1e-12
CENTER_TOL = 1e-6


def procrustes(y_o, y_g, mu, allow_reflections=True):
    """Align ``y_g`` onto ``y_o`` by scale and orthogonal rotation.

    Returns the document ``{"ss", "scale", "ss_normalized", "anti_correlated"}``.
    Both configurations must be column-centered already (PCoA output is);
    this is asserted rather than silently re-centered. With
    ``allow_reflections=False`` Q is restricted to proper rotations.
    ``mu`` below 1 raises ``StructuralError``, and so do configurations
    whose squared distances overflow (see :func:`check_spread`).
    """
    if mu < 1:
        raise StructuralError(f"mu must be at least 1, got {mu}")
    y_o = np.asarray(y_o, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    if y_o.shape != y_g.shape:
        raise StructuralError("configurations must have identical shapes")
    # overflows here are refused by the checks below: an infinite mean is off centre
    with np.errstate(over="ignore"):
        norm_g2 = float(np.sum(y_g ** 2))
        means = y_o.mean(axis=0), y_g.mean(axis=0)
    if norm_g2 <= 0:
        raise DegenerateGeometryError("all-zero configuration: scale undefined")
    for name, mat, mean in zip(("first", "second"), (y_o, y_g), means):
        spread = np.max(np.abs(mat)) or 1.0
        if np.max(np.abs(mean)) > CENTER_TOL * spread:
            raise StructuralError(f"{name} configuration is not column-centered")
        check_spread(mat, f"{name} configuration's values")

    u, sigma, vt = np.linalg.svd(y_g.T @ y_o)
    q = u @ vt
    trace = float(np.sum(sigma))
    if not allow_reflections and np.linalg.det(q) < 0:
        flip = np.ones(len(sigma))
        flip[-1] = -1.0
        q = (u * flip) @ vt
        trace = float(np.sum(sigma * flip))

    anti_correlated = trace <= 0
    if anti_correlated:
        scale = SCALE_EPS  # best positive scale collapses toward zero
    else:
        scale = trace / norm_g2
    ss = float(np.sum((y_o - scale * y_g @ q) ** 2))
    return {
        "ss": ss,
        "scale": float(scale),
        "ss_normalized": ss / (N_JOINTS * mu),
        "anti_correlated": anti_correlated,
    }
