"""Command-line entry point exposing every pipeline as a subcommand.

Exit codes: 0 success, 1 metric-stage failure, 2 input/validation failure.
All outputs are deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, gmm, pipeline, synth
from .errors import GestureError, ParseError, StructuralError
from .fgd import fgd as compute_fgd
from .mapping import (
    OPENNI_LAYOUT,
    OPENPOSE_LAYOUT,
    StreamMapper,
    load_skeleton_frames,
)
from .model import RobotProfile, as_matrix
from .motion import motion_report
from .pcoa import analyze_dataset_structure, fidelity_report
from .procrustes import procrustes
from .report import (
    dump_json,
    evaluate,
    originality,
    write_spectra_csv,
    write_spectrum_svg,
)

EXIT_OK = 0
EXIT_METRIC_FAILURE = 1
EXIT_INPUT_FAILURE = 2


def _flatten(doc, prefix=""):
    items = []
    for key in sorted(doc):
        val = doc[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            items.extend(_flatten(val, prefix=name + "."))
        elif isinstance(val, (list, tuple)):
            for i, v in enumerate(val):
                items.append((f"{name}[{i}]", v))
        else:
            items.append((name, val))
    return items


def _write_output(doc, out, fmt):
    if fmt == "csv":
        lines = ["key,value"] + [f"{k},{v!r}" for k, v in _flatten(doc)]
        text = "\n".join(lines) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        text = dump_json(doc, out)
        if not out:
            sys.stdout.write(text)


def _load_profile(args):
    if getattr(args, "profile", None):
        return RobotProfile.from_file(args.profile)
    return RobotProfile.default()


def _cmd_map(args):
    frames = load_skeleton_frames(args.input)
    layout = OPENNI_LAYOUT if args.layout == "openni" else OPENPOSE_LAYOUT
    for frame in frames:
        if frame.layout != layout:
            raise StructuralError(
                f"frame layout {frame.layout!r} does not match --layout {args.layout}")
    if not frames:
        raise StructuralError("no frames in input")
    span = frames[-1].timestamp - frames[0].timestamp
    mapper = StreamMapper(profile=_load_profile(args), seed=args.seed)
    values = np.array([mapper.map_frame(frame).values for frame in frames])
    rate = (len(frames) - 1) / span if len(frames) > 1 else 1.0
    stream = pipeline.PoseStream(values=values, timestamps=[f.timestamp for f in frames],
                                 native_rate_hz=rate)
    pipeline.save_stream(stream, args.output)
    return EXIT_OK


def _cmd_resample(args):
    stream = pipeline.load_stream(args.input)
    pipeline.save_stream(pipeline.resample(stream, args.rate), args.output)
    return EXIT_OK


def _cmd_window(args):
    stream = pipeline.load_stream(args.input)
    ds = pipeline.window(stream, args.mu, stride=args.stride, source_tag=args.source)
    pipeline.save_dataset(ds, args.output)
    return EXIT_OK


def _cmd_match_lengths(args):
    a = pipeline.load_stream(args.input_a)
    b = pipeline.load_stream(args.input_b)
    a, b = pipeline.match_lengths(a, b)
    pipeline.save_stream(a, args.output_a)
    pipeline.save_stream(b, args.output_b)
    return EXIT_OK


def _analyze_pair(args):
    """Load both datasets, check that their ``mu`` agree and analyze each: (res_o, res_g)."""
    ds_o = pipeline.load_dataset(args.original)
    ds_g = pipeline.load_dataset(args.generated)
    if ds_o.mu != ds_g.mu:
        raise StructuralError(f"mu mismatch: {ds_o.mu} vs {ds_g.mu}")
    return analyze_dataset_structure(as_matrix(ds_o)), analyze_dataset_structure(as_matrix(ds_g))


def _write_spectra(args, fidelity):
    spectra = (fidelity["eigen_spectrum_original"], fidelity["eigen_spectrum_generated"])
    if args.spectrum_csv:
        write_spectra_csv(args.spectrum_csv, *spectra)
    if args.svg:
        write_spectrum_svg(args.svg, *spectra)


def _cmd_pcoa(args):
    doc = fidelity_report(*_analyze_pair(args), dims=args.dims)
    _write_output(doc, args.out, args.format)
    _write_spectra(args, doc)
    return EXIT_OK


def _cmd_procrustes(args):
    reflections = not args.no_reflections
    if args.coordinates:
        if args.mu is None:
            raise StructuralError("--mu is required with --coordinates")
        y_o = pipeline.load_matrix(args.original)
        y_g = pipeline.load_matrix(args.generated)
        doc = procrustes(y_o, y_g, args.mu, allow_reflections=reflections).to_dict()
    else:
        doc = originality(*_analyze_pair(args), args.dims, allow_reflections=reflections)
    _write_output(doc, args.out, args.format)
    return EXIT_OK


def _cmd_motion_stats(args):
    ds = pipeline.load_dataset(args.dataset)
    _write_output(motion_report(ds, _load_profile(args)), args.out, args.format)
    return EXIT_OK


def _cmd_gmm_train(args):
    ds = pipeline.load_dataset(args.dataset)
    model = gmm.fit(ds, k=args.k, seed=args.seed)
    gmm.save_model(model, args.out)
    return EXIT_OK


def _cmd_generate(args):
    model = gmm.load_model(args.model)
    ds = gmm.sample(model, args.n, seed=args.seed)
    pipeline.save_dataset(ds, args.out)
    return EXIT_OK


def _cmd_fgd(args):
    model = gmm.load_model(args.model)
    ds_a = pipeline.load_dataset(args.dataset_a)
    ds_b = pipeline.load_dataset(args.dataset_b)
    doc = compute_fgd(model, ds_a, ds_b, bootstrap=args.bootstrap, seed=args.seed)
    _write_output(doc, args.out, args.format)
    return EXIT_OK


def _cmd_evaluate(args):
    ds_o = pipeline.load_dataset(args.original)
    ds_g = pipeline.load_dataset(args.generated)
    model = gmm.load_model(args.model) if args.model else None
    doc = evaluate(ds_o, ds_g, model, _load_profile(args),
                   dims=args.dims, bootstrap=args.bootstrap, seed=args.seed)
    _write_output(doc, args.out, args.format)
    if doc["fidelity"]:
        _write_spectra(args, doc["fidelity"])
    return EXIT_METRIC_FAILURE if doc["errors"] else EXIT_OK


def _cmd_synth_corpus(args):
    profile = _load_profile(args)
    if args.mu:
        ds = synth.beat_gesture_corpus(args.poses, args.mu, rate_hz=args.rate,
                                       seed=args.seed, profile=profile,
                                       amplitude=args.amplitude)
        pipeline.save_dataset(ds, args.out)
    else:
        stream = synth.beat_gesture_stream(args.poses, rate_hz=args.rate,
                                           seed=args.seed, profile=profile,
                                           amplitude=args.amplitude)
        pipeline.save_stream(stream, args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gesturemetrics",
        description="Retarget captured skeletons to robot joints and evaluate "
                    "gesture generators (fidelity, originality, smoothness, FGD).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=True, seed=True, out=True, fmt=True):
        if profile:
            p.add_argument("--profile", help="robot profile JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", help="output file (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("map", help="map skeleton frames to a robot pose stream")
    p.add_argument("--layout", choices=("openni", "openpose"), required=True)
    p.add_argument("input", help="line-delimited JSON skeleton frames")
    p.add_argument("output", help="pose stream CSV")
    common(p, out=False, fmt=False)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("resample", help="resample a pose stream to a uniform rate")
    p.add_argument("--rate", type=float, required=True, help="target rate (Hz)")
    p.add_argument("input")
    p.add_argument("output")
    common(p, profile=False, seed=False, out=False, fmt=False)
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("window", help="cut a pose stream into units of movement")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--stride", type=int, default=None,
                   help="window stride (default: mu, non-overlapping)")
    p.add_argument("--source", default="", help="source tag stored in the dataset")
    p.add_argument("input")
    p.add_argument("output")
    common(p, profile=False, seed=False, out=False, fmt=False)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("match-lengths", help="truncate two streams to equal length")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("output_a")
    p.add_argument("output_b")
    common(p, profile=False, seed=False, out=False, fmt=False)
    p.set_defaults(func=_cmd_match_lengths)

    p = sub.add_parser("pcoa", help="fidelity analysis of two datasets")
    p.add_argument("--dims", type=int, default=10)
    p.add_argument("--spectrum-csv", help="write eigenvalue spectra CSV here")
    p.add_argument("--svg", help="write spectrum bar chart SVG here")
    p.add_argument("original")
    p.add_argument("generated")
    common(p, profile=False, seed=False)
    p.set_defaults(func=_cmd_pcoa)

    p = sub.add_parser("procrustes", help="originality statistic between datasets")
    p.add_argument("--mu", type=int, default=None,
                   help="mu for normalization (required with --coordinates)")
    p.add_argument("--dims", type=int, default=10)
    p.add_argument("--coordinates", action="store_true",
                   help="inputs are precomputed coordinate matrices, not datasets")
    p.add_argument("--no-reflections", action="store_true",
                   help="restrict the rotation to the proper orthogonal group")
    p.add_argument("original")
    p.add_argument("generated")
    common(p, profile=False, seed=False)
    p.set_defaults(func=_cmd_procrustes)

    p = sub.add_parser("motion-stats", help="jerk and path-length statistics")
    p.add_argument("dataset")
    common(p, seed=False)
    p.set_defaults(func=_cmd_motion_stats)

    p = sub.add_parser("gmm-train", help="fit the tied-covariance reference mixture")
    p.add_argument("--k", type=int, default=gmm.DEFAULT_K)
    p.add_argument("--out", required=True, help="model output file")
    p.add_argument("dataset")
    common(p, profile=False, out=False, fmt=False)
    p.set_defaults(func=_cmd_gmm_train)

    p = sub.add_parser("generate", help="sample units of movement from a mixture")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, default=1000)
    p.add_argument("--out", required=True, help="dataset output file")
    common(p, profile=False, out=False, fmt=False)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fgd", help="Fréchet gesture distance between two datasets")
    p.add_argument("--model", required=True)
    p.add_argument("--bootstrap", type=int, default=0)
    p.add_argument("dataset_a")
    p.add_argument("dataset_b")
    common(p, profile=False)
    p.set_defaults(func=_cmd_fgd)

    p = sub.add_parser("evaluate", help="run every analysis on a dataset pair")
    p.add_argument("--model", help="reference mixture for the FGD stage")
    p.add_argument("--dims", type=int, default=10)
    p.add_argument("--bootstrap", type=int, default=0)
    p.add_argument("--spectrum-csv")
    p.add_argument("--svg")
    p.add_argument("original")
    p.add_argument("generated")
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth-corpus",
                       help="generate the synthetic scripted-animation corpus")
    p.add_argument("--poses", type=int, default=1502)
    p.add_argument("--mu", type=int, default=0,
                   help="window into units of movement (0: emit a pose stream)")
    p.add_argument("--rate", type=float, default=4.0)
    p.add_argument("--amplitude", type=float, default=0.3)
    p.add_argument("--out", required=True, help="corpus output file")
    common(p, out=False, fmt=False)
    p.set_defaults(func=_cmd_synth_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage; keep that contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, StructuralError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FAILURE
    except GestureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METRIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
