"""Evaluation summary assembly and report emission (JSON / CSV / SVG)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .errors import GestureError, StructuralError
from .fgd import fgd as compute_fgd
from .model import as_matrix
from .motion import motion_report
from .pcoa import fidelity_report
from .procrustes import procrustes


@dataclass
class EvaluationSummary:
    """All evaluation signals for one original/generated dataset pair.

    Any stage that fails is marked skipped with its error message; the
    remaining stages still run.
    """

    fidelity: dict | None = None
    originality: dict | None = None
    motion_original: dict | None = None
    motion_generated: dict | None = None
    fgd: dict | None = None
    errors: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "fidelity": self.fidelity,
            "originality": self.originality,
            "motion_original": self.motion_original,
            "motion_generated": self.motion_generated,
            "fgd": self.fgd,
            "errors": self.errors,
            "metadata": self.metadata,
        }


def originality(res_original, res_generated, mu, dims, allow_reflections=True):
    """Procrustes statistic between the leading principal coordinates of two PCoA results.

    Both coordinate sets are cut to ``dims`` columns, or fewer when either
    result retained fewer dimensions.
    """
    d = min(dims, res_original.eigenvalues.size, res_generated.eigenvalues.size)
    return procrustes(res_original.coordinates[:, :d], res_generated.coordinates[:, :d],
                      mu, allow_reflections=allow_reflections)


def evaluate(ds_original, ds_generated, model, profile, dims=10,
             bootstrap=0, seed=0):
    """Run fidelity, originality, motion and FGD analyses jointly."""
    if ds_original.mu != ds_generated.mu:
        raise StructuralError(
            f"mu mismatch: original has {ds_original.mu}, generated has {ds_generated.mu}")
    summary = EvaluationSummary(metadata={
        "mu": ds_original.mu,
        "dt": ds_original.dt,
        "n_original": len(ds_original),
        "n_generated": len(ds_generated),
        "dims": dims,
        "bootstrap": bootstrap,
        "seed": seed,
        "toolkit_version": __version__,
    })

    coords = {}
    try:
        report, res_o, res_g = fidelity_report(
            as_matrix(ds_original), as_matrix(ds_generated), ds_original.mu, dims=dims)
        summary.fidelity = report.to_dict()
        coords["o"], coords["g"] = res_o, res_g
    except Exception as exc:  # stage isolation: record and continue
        summary.errors["fidelity"] = str(exc)

    try:
        if not coords:
            raise StructuralError("skipped: fidelity stage failed, no coordinates")
        summary.originality = originality(coords["o"], coords["g"], ds_original.mu,
                                          dims).to_dict()
    except Exception as exc:
        summary.errors["originality"] = str(exc)

    for name, ds in (("motion_original", ds_original), ("motion_generated", ds_generated)):
        try:
            setattr(summary, name, motion_report(ds, profile).to_dict())
        except Exception as exc:
            summary.errors[name] = str(exc)

    try:
        if model is None:
            raise StructuralError("skipped: no reference model supplied")
        summary.fgd = compute_fgd(model, ds_original, ds_generated,
                                  bootstrap=bootstrap, seed=seed).to_dict()
    except Exception as exc:
        summary.errors["fgd"] = str(exc)

    return summary


def dump_json(doc, path=None):
    """Canonical JSON: sorted keys, fixed separators, trailing newline.

    Identical inputs serialize to byte-identical files. A non-finite number
    raises ``GestureError``: JSON (RFC 8259) has no NaN or Infinity.
    """
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GestureError(f"report has a non-finite value (NaN or infinity): {exc}") from exc
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_spectra_csv(path, spectrum_original, spectrum_generated):
    with open(path, "w") as fh:
        fh.write("dimension,eigenvalue_original,eigenvalue_generated\n")
        for i, (a, b) in enumerate(zip(spectrum_original, spectrum_generated), start=1):
            fh.write(f"{i},{a!r},{b!r}\n")


def write_spectrum_svg(path, spectrum_original, spectrum_generated,
                       width=640, height=320):
    """Paired-bar chart of two eigenvalue spectra (static, no dependencies)."""
    n = len(spectrum_original)
    top = max(max(spectrum_original, default=0.0),
              max(spectrum_generated, default=0.0), 1e-12)
    margin = 30
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    group_w = plot_w / max(n, 1)
    bar_w = group_w * 0.4
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i in range(n):
        x0 = margin + i * group_w
        for offset, value, color in ((0.05, spectrum_original[i], "#1f77b4"),
                                     (0.5, spectrum_generated[i], "#ff7f0e")):
            h = plot_h * value / top
            parts.append(
                f'<rect x="{x0 + offset * group_w:.2f}" '
                f'y="{height - margin - h:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}"/>')
    parts.append('<text x="35" y="20" font-size="12" fill="#1f77b4">original</text>')
    parts.append('<text x="95" y="20" font-size="12" fill="#ff7f0e">generated</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
