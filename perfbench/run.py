"""Benchmark of the gesturemetrics toolkit: evaluate, train and retarget.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload first writes its inputs from the seed (``gen_inputs``), timing
that set-up several times. A fresh interpreter then runs a closed loop with
one client for ``--seconds``: each operation is a fixed list of CLI calls
made in-process through ``gesturemetrics.cli.main(argv)``, so argument
parsing, CSV/JSON IO and output writing are timed but interpreter start-up
is not. Outputs are checked after every operation, outside the timed region.

Times are reported at a fixed host speed. A fixed reference computation
(``hostspeed``) is timed right before and right after every operation and
every set-up, and times are scaled by the reference's nominal duration over
its measured one: each set-up by the two references around it (``setup_s`` is
the median), the timed phase's total by the mean of all its references
(``items_per_s``). On a shared host whose cores swing in speed by a factor of
up to two for seconds to minutes, this cancels most of the swings that raw
wall times carry. The raw times and the reference times are printed and saved
with every result; per-layer times are raw.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs the
loop untraced for half the time, then with every public function of the
toolkit wrapped in spans (``spans``) for the other half, and prints the
per-layer metrics derived from those spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The machine and
environment are printed above it and saved with the result under
``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types

import hostspeed
import spans
from workloads import SIZES, WORKLOADS

# Set-up is timed at least SETUP_MIN_REPEATS times and for SETUP_MIN_S in all,
# so the median of a set-up of 0.1 s rests on as much time as one of 0.8 s.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_S = 7.0
DEADLINE_S = 170             # a run must end within 180 s
TOOLKIT_MODULES = ("cli", "gmm", "model", "pipeline", "synth")
# The gated end-to-end metrics, all at the reference host speed. The median
# operation time (op_s.p50) and failed_frac are printed too, but not gated:
# failed_frac is 0 on correct code, and op_s.p50 is items_per_s inverted.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def load_toolkit(root):
    """Import gesturemetrics from ``root/src``, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gesturemetrics", "__init__.py")):
        raise FileNotFoundError(
            f"no src/gesturemetrics under {root}: run from the root of a checkout")
    sys.path.insert(0, src)
    package = importlib.import_module("gesturemetrics")
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"gesturemetrics was imported from {package.__file__}, not {src}")
    gm = types.SimpleNamespace(package=package)
    for name in TOOLKIT_MODULES:
        setattr(gm, name, importlib.import_module(f"gesturemetrics.{name}"))
    return gm


def environment():
    """Machine and library settings the numbers were measured under."""
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": hostspeed.blas_threads(),
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail_percentile(n):
    """Highest reported percentile with at least ten samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), None)


def output_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Loop:
    """Closed loop with one client, in the process that times it."""

    def __init__(self, gm, workload):
        self.gm = gm
        self.workload = workload
        self.attempted = 0
        self.problems = []
        self.reference = None        # output digest of the first operation

    def run(self, seconds, tracer=None, label="op"):
        """Run operations until ``seconds`` have passed.

        Returns each operation's wall time and the reference times measured
        right before and right after it (``hostspeed``).
        """
        wl, cli = self.workload, self.gm.cli
        times, refs = [], []
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            op = f"{label}{len(times)}"
            error = None
            ref_before = hostspeed.reference_s()
            start = time.perf_counter()
            try:
                with tracer.operation(op) if tracer else contextlib.nullcontext():
                    codes = [cli.main(argv) for argv in wl.commands()]
            except Exception as exc:  # a crash is a failed operation, not a failed run
                traceback.print_exc()
                error = f"raised {exc!r}"
            times.append(time.perf_counter() - start)
            refs.append((ref_before, hostspeed.reference_s()))
            self.record(op, [error] if error else self.check(codes))
            if time.perf_counter() >= deadline:
                return times, refs

    def check(self, codes):
        problems = self.workload.check(self.gm, codes)
        try:
            digest = output_digest(self.workload.outputs)
        except OSError as exc:
            return problems + [f"output missing: {exc!r}"]
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("outputs differ from the first operation's")
        return problems

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{op}: {'; '.join(problems)}")


def time_setups(gm, wl):
    """Wall times of repeated set-ups, until both the repeat and the time floor are met.

    Returns the times and, for each set-up, the reference times measured
    right before and right after it.
    """
    times, refs = [], []
    hostspeed.reference_s()  # warm-up: BLAS threads start, buffers are allocated
    ref_before = hostspeed.reference_s()
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        gc.collect()
        start = time.perf_counter()
        wl.setup(gm)
        times.append(time.perf_counter() - start)
        ref_after = hostspeed.reference_s()
        refs.append((ref_before, ref_after))
        ref_before = ref_after
    return times, refs


def scaled_median(times, refs):
    """Median of the times, each scaled by the reference times around it."""
    return statistics.median(hostspeed.scaled(t, *ref) for t, ref in zip(times, refs))


def scaled_total(times, refs):
    """Sum of the times, scaled by the mean of all reference times of the run.

    The host's speed changes within a single operation, which two references
    around it sample poorly; the mean over the run averages that out.
    """
    return hostspeed.scaled(sum(times), statistics.fmean(r for pair in refs for r in pair))


def measure(gm, wl, seconds, trace):
    """The timed phase, run in its own interpreter so its peak RSS is its own."""
    loop = Loop(gm, wl)
    result = {}
    hostspeed.reference_s()  # warm-up, as in time_setups
    with wl.watch(gm):
        result["times"], result["refs"] = loop.run(seconds / 2 if trace else seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer = spans.Tracer()
            tracer.install(gm.package)
            try:
                result["traced_times"], result["traced_refs"] = loop.run(
                    seconds / 2, tracer, label="traced")
            finally:
                tracer.uninstall()
            ops = [f"traced{i}" for i in range(len(result["traced_times"]))]
            result["layers"] = tracer.layer_metrics(ops)
            tracer.write(wl.path("spans_ops.tsv"))
    problems = wl.run_checks(gm, gm.cli.main)
    loop.attempted += wl.RUN_CHECK_OPS
    if problems:
        loop.problems.append(f"run check: {'; '.join(problems)}")
    result.update(attempted=loop.attempted, problems=loop.problems)
    return result


def run_workload(gm, args, name, deadline):
    wdir = os.path.abspath(os.path.join(args.workdir, name))
    os.makedirs(wdir, exist_ok=True)
    wl = WORKLOADS[name](wdir, SIZES[args.scale][name], args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(gm.package)
        try:
            with tracer.operation("setup"):
                wl.setup(gm)
        finally:
            tracer.uninstall()
        setup_times, setup_refs = [], []
    else:
        setup_times, setup_refs = time_setups(gm, wl)
    cmd = [sys.executable, os.path.abspath(__file__), "--measure", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", args.workdir]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(deadline - time.monotonic(), 1.0))
    if child.returncode != 0:
        raise RuntimeError(f"timed phase exited with code {child.returncode}")
    measured = json.loads(child.stdout.strip().splitlines()[-1])
    failed = len(measured["problems"])
    result = {"correct": failed == 0, "attempted": measured["attempted"], "failed": failed}
    times, refs = measured["times"], measured["refs"]
    if args.trace:
        layers = measured["layers"]
        setup_layers = tracer.layer_metrics(["setup"])
        for span in spans.SETUP_SPANS:
            for suffix in ("calls", "total_s", "self_s"):
                layers[f"{span}.{suffix}"] = setup_layers[f"{span}.{suffix}"]
        layers[spans.OVERHEAD] = (scaled_median(measured["traced_times"], measured["traced_refs"])
                                  / scaled_median(times, refs) - 1.0)
        tracer.write(wl.path("spans_setup.tsv"))
        units = spans.metric_units()
        result["metrics"] = {key: {"value": layers[key], "unit": units[key][0]} for key in units}
    else:
        values = {
            "setup_s": scaled_median(setup_times, setup_refs),
            "items_per_s": wl.items * len(times) / scaled_total(times, refs),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        result["metrics"] = {key: {"value": values[key], "unit": unit}
                             for key, (unit, _) in END_TO_END.items()}
    details = {"setup_times": setup_times, "setup_refs": setup_refs, "times": times,
               "refs": refs, "traced_times": measured.get("traced_times"),
               "traced_refs": measured.get("traced_refs"), "problems": measured["problems"]}
    return result, details


def report(name, args, result, details, env):
    times = [hostspeed.scaled(t, *ref) for t, ref in zip(details["times"], details["refs"])]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"one client, closed loop, {args.seconds:g} s")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    tail = tail_percentile(len(times))
    tail_text = (f"p{tail:g} {statistics.quantiles(times, n=1000)[int(tail * 10) - 1]:.6g} s"
                 if tail else "no percentile above p50 has ten samples beyond it")
    print(f"  {'op_s.p50':<44} {statistics.median(times):>14.6g} s "
          f"({len(times)} samples, {tail_text})")
    ref_s = statistics.median(r for pair in details["refs"] for r in pair)
    print(f"  raw wall times: op_s.p50 {statistics.median(details['times']):.6g} s, "
          f"reference {ref_s:.6g} s (nominal {hostspeed.REFERENCE_S:g} s)")
    if details["setup_times"]:
        print(f"  raw setup_s {statistics.median(details['setup_times']):.6g} s "
              f"({len(details['setup_times'])} set-ups)")
    if details["traced_times"]:
        traced = scaled_median(details["traced_times"], details["traced_refs"])
        print(f"  traced op_s.p50: {traced:.6g} s ({len(details['traced_times'])} samples)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<44} {result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    if args.trace:
        stop = spans.EM_STOP.get(round(result["metrics"]["gmm.em_stop"]["value"]), "mixed")
        print(f"  EM stop reason: {stop}")
    for problem in details["problems"][:10]:
        print(f"  problem: {problem}")
    results_dir = os.path.join(args.workdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "scale": args.scale, "environment": env,
                   **details, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's self-tests")
    parser.add_argument("--workdir", default=".perfbench",
                        help="where inputs, outputs, spans and results are written")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    try:
        gm = load_toolkit(os.getcwd())
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.measure:
        wdir = os.path.abspath(os.path.join(args.workdir, args.workload))
        wl = WORKLOADS[args.workload](wdir, SIZES[args.scale][args.workload], args.seed)
        print(json.dumps(measure(gm, wl, args.seconds, args.trace)))
        return 0
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, details = run_workload(gm, args, name, started + DEADLINE_S * len(names))
        report(name, args, result, details, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
