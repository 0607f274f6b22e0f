"""Command-line entry point exposing every pipeline as a subcommand.

Exit codes: 0 success, 1 metric-stage failure, 2 input/validation failure.
All outputs are deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import os
import sys

import numpy as np

from . import __version__, gmm, pcoa, pipeline, synth
from .errors import GestureError, ParseError, StructuralError
from .mapping import OPENNI_LAYOUT, OPENPOSE_LAYOUT, load_skeleton_frames, map_capture
from .model import RobotProfile
from .procrustes import procrustes
from .report import STAGES, Run, evaluate, write_report, write_spectrum_svg

EXIT_OK = 0
EXIT_METRIC_FAILURE = 1
EXIT_INPUT_FAILURE = 2


def _load_profile(args):
    return RobotProfile.from_file(args.profile) if args.profile else RobotProfile.default()


def _cmd_map(args):
    capture = load_skeleton_frames(
        args.input, OPENNI_LAYOUT if args.layout == "openni" else OPENPOSE_LAYOUT)
    pipeline.save_stream(map_capture(capture, _load_profile(args), args.seed), args.output)
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


def _run(args):
    """The :class:`Run` of an analysis command: its datasets, then its model, then
    its profile (the packaged default unless ``args`` names one), and its options."""
    generated = getattr(args, "generated", None)
    model = getattr(args, "model", None)
    options = {k: v for k, v in vars(args).items()
               if k in ("dims", "bootstrap", "seed", "allow_reflections")}
    return Run(pipeline.load_dataset(args.original),
               None if generated is None else pipeline.load_dataset(generated),
               gmm.load_model(model) if model else None,
               _load_profile(args) if hasattr(args, "profile") else None, **options)


def _write_spectra(args, fidelity):
    spectra = (fidelity["eigen_spectrum_original"], fidelity["eigen_spectrum_generated"])
    if args.spectrum_csv:
        pipeline.save_spectra(args.spectrum_csv, *spectra)
    if args.svg:
        write_spectrum_svg(args.svg, *spectra)


def _cmd_stage(args):
    """Run the ``STAGES`` entry ``args.stage`` and write its document."""
    if getattr(args, "coordinates", False):
        if args.mu is None:
            raise StructuralError("--mu is required with --coordinates")
        doc = procrustes(pipeline.load_matrix(args.original), pipeline.load_matrix(args.generated),
                         args.mu, allow_reflections=args.allow_reflections)
    else:
        doc = STAGES[args.stage](_run(args))
    write_report(doc, args.out, args.format)
    if args.stage == "fidelity":
        _write_spectra(args, doc)
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


def _cmd_evaluate(args):
    doc = evaluate(_run(args))
    write_report(doc, args.out, args.format)
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


def _seed(text):
    """A ``--seed`` value: an integer of at least 0, as numpy's Philox needs."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


@functools.cache
def _parser():
    """The command-line parser, built once per process; ``parse_args`` leaves it unchanged."""
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
            p.add_argument("--seed", type=_seed, default=0)
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
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("window", help="cut a pose stream into units of movement")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--stride", type=int, default=None,
                   help="window stride (default: mu, non-overlapping)")
    p.add_argument("--source", default="", help="source tag stored in the dataset")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("match-lengths", help="truncate two streams to equal length")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("output_a")
    p.add_argument("output_b")
    p.set_defaults(func=_cmd_match_lengths)

    p = sub.add_parser("pcoa", help="fidelity analysis of two datasets")
    p.add_argument("--dims", type=int, default=pcoa.DEFAULT_DIMS)
    p.add_argument("--spectrum-csv", help="write eigenvalue spectra CSV here")
    p.add_argument("--svg", help="write spectrum bar chart SVG here")
    p.add_argument("original")
    p.add_argument("generated")
    common(p, profile=False, seed=False)
    p.set_defaults(func=_cmd_stage, stage="fidelity")

    p = sub.add_parser("procrustes", help="originality statistic between datasets")
    p.add_argument("--mu", type=int, default=None,
                   help="mu for normalization (required with --coordinates)")
    p.add_argument("--dims", type=int, default=pcoa.DEFAULT_DIMS)
    p.add_argument("--coordinates", action="store_true",
                   help="inputs are precomputed coordinate matrices, not datasets")
    p.add_argument("--no-reflections", dest="allow_reflections", action="store_false",
                   help="restrict the rotation to the proper orthogonal group")
    p.add_argument("original")
    p.add_argument("generated")
    common(p, profile=False, seed=False)
    p.set_defaults(func=_cmd_stage, stage="originality")

    p = sub.add_parser("motion-stats", help="jerk and path-length statistics")
    p.add_argument("original", metavar="dataset")
    common(p, seed=False)
    p.set_defaults(func=_cmd_stage, stage="motion_original")

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
    p.add_argument("original", metavar="dataset_a")
    p.add_argument("generated", metavar="dataset_b")
    common(p, profile=False)
    p.set_defaults(func=_cmd_stage, stage="fgd")

    p = sub.add_parser("evaluate", help="run every analysis on a dataset pair")
    p.add_argument("--model", help="reference mixture for the FGD stage")
    p.add_argument("--dims", type=int, default=pcoa.DEFAULT_DIMS)
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


@functools.cache
def _openblas_threads():
    """Get and set functions of the thread count of the OpenBLAS that numpy bundles, or
    None when it bundles none (MKL, Accelerate or a system BLAS)."""
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the caller's count.

    The toolkit's matrices are small: a second OpenBLAS thread gains nothing on them and
    spins on the second core after each product, where the row worker of a large table
    save (``pipeline.ROW_WORKER_CELLS``) then has to share it. The reference outputs and
    the benchmark's outputs are the same bytes on one thread as on two."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage; keep that contract
        return int(exc.code or 0)
    try:
        with _one_blas_thread():
            return args.func(args)
    except (ParseError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FAILURE
    except GestureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METRIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
