"""Evaluation summary assembly and report emission (JSON / CSV / SVG)."""

from __future__ import annotations

import json

from . import __version__
from .errors import GestureError, StructuralError
from .fgd import check_bootstrap
from .fgd import fgd as compute_fgd
from .model import N_JOINTS, as_matrix
from .motion import motion_report
from .pcoa import analyze_dataset_structure, check_dims, fidelity_report, leading_coordinates
from .procrustes import procrustes


def originality(res_original, res_generated, dims, allow_reflections=True):
    """Procrustes document between the leading principal coordinates of two
    :func:`analyze_dataset_structure` results, cut as by :func:`leading_coordinates`.

    PCoA has one row per dataset column, so the rows number 14*mu."""
    y_o, y_g = leading_coordinates(res_original, res_generated, dims)
    return procrustes(y_o, y_g, len(y_o) // N_JOINTS, allow_reflections=allow_reflections)


def check_same_mu(ds_original, ds_generated):
    """Reject two datasets whose units of movement differ in length."""
    if ds_original.mu != ds_generated.mu:
        raise StructuralError(
            f"mu mismatch: original has {ds_original.mu}, generated has {ds_generated.mu}")


def evaluate(ds_original, ds_generated, model, profile, dims=10,
             bootstrap=0, seed=0):
    """Run fidelity, originality, motion and FGD analyses jointly.

    Each dataset is analyzed once (:func:`analyze_dataset_structure`); the
    fidelity and originality stages both read that pair. Returns the summary
    document: one entry per stage, ``errors`` and ``metadata``. A stage that
    fails is ``None`` and its message is kept under ``errors``; the remaining
    stages still run. Bad arguments raise before any stage runs.
    """
    check_same_mu(ds_original, ds_generated)
    check_dims(dims)
    check_bootstrap(bootstrap)
    mu = ds_original.mu
    doc = {"fidelity": None, "originality": None, "motion_original": None,
           "motion_generated": None, "fgd": None, "errors": {}, "metadata": {
               "mu": mu,
               "dt": ds_original.dt,
               "n_original": len(ds_original),
               "n_generated": len(ds_generated),
               "dims": dims,
               "bootstrap": bootstrap,
               "seed": seed,
               "toolkit_version": __version__,
           }}
    errors = doc["errors"]

    pair = None
    try:
        pair = (analyze_dataset_structure(as_matrix(ds_original)),
                analyze_dataset_structure(as_matrix(ds_generated)))
        doc["fidelity"] = fidelity_report(*pair, dims=dims)
    except Exception as exc:  # stage isolation: record and continue
        errors["fidelity"] = str(exc)

    try:
        if pair is None:
            raise StructuralError("skipped: fidelity stage failed, no coordinates")
        doc["originality"] = originality(*pair, dims)
    except Exception as exc:
        errors["originality"] = str(exc)

    for name, ds in (("motion_original", ds_original), ("motion_generated", ds_generated)):
        try:
            doc[name] = motion_report(ds, profile)
        except Exception as exc:
            errors[name] = str(exc)

    try:
        if model is None:
            raise StructuralError("skipped: no reference model supplied")
        doc["fgd"] = compute_fgd(model, ds_original, ds_generated,
                                 bootstrap=bootstrap, seed=seed)
    except Exception as exc:
        errors["fgd"] = str(exc)

    return doc


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


def write_spectrum_svg(path, spectrum_original, spectrum_generated):
    """Paired-bar chart of two eigenvalue spectra (static, no dependencies)."""
    width, height = 640, 320
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
