"""Evaluation summary assembly and report emission (JSON / CSV / SVG)."""

from __future__ import annotations

import csv
import io
import json
import math
import sys

from . import __version__
from .errors import GestureError, StructuralError
from .fgd import check_bootstrap
from .fgd import fgd as compute_fgd
from .model import N_JOINTS, RobotProfile
from .motion import motion_report
from .pcoa import (DEFAULT_DIMS, analyze_dataset_structure, check_dims, check_spectra,
                   fidelity_report, leading_coordinates)
from .procrustes import procrustes


def originality(res_original, res_generated, dims, allow_reflections=True):
    """Procrustes document between the leading principal coordinates of two
    :func:`analyze_dataset_structure` results, cut as by :func:`leading_coordinates`.

    PCoA has one row per dataset column, so the rows number 14*mu."""
    y_o, y_g = leading_coordinates(res_original, res_generated, dims)
    return procrustes(y_o, y_g, len(y_o) // N_JOINTS, allow_reflections=allow_reflections)


class Run:
    """One run's inputs to the :data:`STAGES` entries, checked when built.

    Two datasets of different ``mu``, a model of another ``mu`` than the
    original's, ``dims`` below 1 or a negative ``bootstrap`` raise
    ``StructuralError``, in that order. Without a ``profile`` the motion
    stages use :meth:`RobotProfile.default`. Each dataset's PCoA runs at most
    once per run, in :meth:`pair`, and only for the stages that read it."""

    def __init__(self, original, generated=None, model=None, profile=None, dims=DEFAULT_DIMS,
                 bootstrap=0, seed=0, allow_reflections=True):
        if generated is not None and original.mu != generated.mu:
            raise StructuralError(
                f"mu mismatch: original has {original.mu}, generated has {generated.mu}")
        if model is not None and original.mu != model.mu:
            raise StructuralError(f"mu mismatch: original has {original.mu}, model has {model.mu}")
        check_dims(dims)
        check_bootstrap(bootstrap)
        if profile is None:
            profile = RobotProfile.default()
        self.original, self.generated, self.model, self.profile = original, generated, model, profile
        self.dims, self.bootstrap, self.seed = dims, bootstrap, seed
        self.allow_reflections, self._pair = allow_reflections, None

    def pair(self):
        """Both datasets' :func:`analyze_dataset_structure` results, made on first use;
        after a failed attempt, raises without a retry."""
        if self._pair is None:
            self._pair = ()
            self._pair = (analyze_dataset_structure(self.original.matrix),
                          analyze_dataset_structure(self.generated.matrix))
        if not self._pair:
            raise StructuralError("skipped: fidelity stage failed, no coordinates")
        return self._pair


def _fgd_stage(run):
    if run.model is None:
        raise StructuralError("skipped: no reference model supplied")
    return compute_fgd(run.model, run.original, run.generated,
                       bootstrap=run.bootstrap, seed=run.seed)


# Summary key -> function of a Run that returns the stage's document. Entries
# look the layer functions up by name when called, so a wrapper installed on
# this module's names after import sees every call.
STAGES = {
    "fidelity": lambda run: fidelity_report(*run.pair(), dims=run.dims),
    "originality": lambda run: originality(*run.pair(), run.dims,
                                           allow_reflections=run.allow_reflections),
    "motion_original": lambda run: motion_report(run.original, run.profile),
    "motion_generated": lambda run: motion_report(run.generated, run.profile),
    "fgd": _fgd_stage,
}


def evaluate(run):
    """Run every :data:`STAGES` entry on one :class:`Run`.

    Returns the summary document: one entry per stage, ``errors`` and
    ``metadata``. A stage that fails is ``None`` and its message is kept
    under ``errors``; the remaining stages still run. A run without a
    generated dataset raises ``StructuralError`` before any stage runs.
    """
    if run.generated is None:
        raise StructuralError("evaluate needs a generated dataset; the run has only the original")
    doc = {**dict.fromkeys(STAGES), "errors": {}, "metadata": {
        "mu": run.original.mu,
        "dt": run.original.dt,
        "n_original": len(run.original),
        "n_generated": len(run.generated),
        "dims": run.dims,
        "bootstrap": run.bootstrap,
        "seed": run.seed,
        "toolkit_version": __version__,
    }}
    for name, stage in STAGES.items():
        try:
            doc[name] = stage(run)
        except Exception as exc:  # stage isolation: record and continue
            doc["errors"][name] = str(exc)
    return doc


def dump_json(doc):
    """Canonical JSON: sorted keys, fixed separators, trailing newline.

    Identical inputs serialize to byte-identical text. A non-finite number
    raises ``GestureError``: JSON (RFC 8259) has no NaN or Infinity.
    """
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GestureError(f"report has a non-finite value (NaN or infinity): {exc}") from exc


def _flatten(doc, prefix=""):
    for key in sorted(doc):
        val, name = doc[key], f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, name + ".")
        elif isinstance(val, (list, tuple)):
            yield from ((f"{name}[{i}]", v) for i, v in enumerate(val))
        else:
            yield name, val


def write_report(doc, path, fmt):
    """Write ``doc`` to ``path``, or to stdout when ``path`` is empty.

    ``fmt`` is ``"json"`` (:func:`dump_json`) or ``"csv"``: a ``key,value``
    header, then one row per leaf in sorted key order, with nested keys
    joined by ``.`` and list items as ``name[i]``; each value is its ``repr``,
    quoted as CSV when it holds a comma or a double quote. Either format
    raises ``GestureError`` on a non-finite number before anything is written.
    """
    if fmt == "csv":
        rows = list(_flatten(doc))
        for key, value in rows:
            if isinstance(value, float) and not math.isfinite(value):
                raise GestureError(
                    f"report has a non-finite value (NaN or infinity): {key}={value!r}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows((k, repr(v)) for k, v in rows)
        text = buf.getvalue()
    else:
        text = dump_json(doc)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_spectrum_svg(path, spectrum_original, spectrum_generated):
    """Paired-bar chart of two eigenvalue spectra of equal length (static, no dependencies)."""
    width, height = 640, 320
    n = check_spectra(spectrum_original, spectrum_generated)
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
