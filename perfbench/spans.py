"""Span tracing of the toolkit's public functions, installed from outside it.

``Tracer.install`` replaces every public function of each layer module (and
the methods in ``METHODS``) with a wrapper that records a span: name, start,
end, parent span and operation id. A name copied into another module by
``from ... import`` is replaced there too, so ``cli.evaluate`` records the
same ``report.evaluate`` span as a direct call. Wrappers record only while an
operation id is set; outside operations they pass straight through.

Spans stay in memory and are written out once, when the run ends. Per-layer
metrics are derived from them afterwards: calls, total time and self time
(duration minus the time covered by child spans), per operation, plus the
counts that hooks read from arguments and return values at the same
boundaries.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import os
import time

LAYERS = ("synth", "model", "mapping", "pipeline", "pcoa", "procrustes",
          "motion", "gmm", "fgd", "report", "cli")
METHODS = {"mapping": ("StreamMapper.map_frame",)}

# Spans whose per-layer numbers the benchmark reports. Each entry gives the
# end-to-end metrics the layer should move and the workloads it runs on; a
# layer that does not run on a workload reports zero calls there.
REPORTED = {
    "motion.motion_report": ("op_s.p50 items_per_s", "evaluate"),
    "motion.unit_tracks": ("op_s.p50 items_per_s", "evaluate"),
    "motion.forward_kinematics": ("op_s.p50 items_per_s", "evaluate"),
    "fgd.fgd": ("op_s.p50", "evaluate"),
    "fgd.frechet_distance": ("op_s.p50", "evaluate"),
    "fgd.stats_from_features": ("op_s.p50", "evaluate"),
    "gmm.posterior_matrix": ("op_s.p50", "evaluate"),
    "pcoa.fidelity_report": ("op_s.p50", "evaluate"),
    "pcoa.correlation_distance": ("op_s.p50", "evaluate"),
    "pcoa.pcoa": ("op_s.p50", "evaluate"),
    "pcoa.r2_recovery": ("op_s.p50", "evaluate"),
    "procrustes.procrustes": ("op_s.p50", "evaluate"),
    "gmm.fit": ("op_s.p50 items_per_s", "train"),
    "gmm.sample": ("op_s.p50", "train"),
    "gmm.save_model": ("op_s.p50", "train"),
    "gmm.load_model": ("op_s.p50", "train evaluate"),
    "model.as_matrix": ("op_s.p50 peak_rss_mb", "evaluate train"),
    "pipeline.load_dataset": ("op_s.p50 peak_rss_mb", "evaluate train"),
    "pipeline.save_dataset": ("op_s.p50 peak_rss_mb", "train retarget"),
    "mapping.load_skeleton_frames": ("op_s.p50 items_per_s", "retarget"),
    "mapping.StreamMapper.map_frame": ("op_s.p50 items_per_s", "retarget"),
    "model.validate_pose": ("op_s.p50 items_per_s", "retarget"),
    "pipeline.load_stream": ("op_s.p50", "retarget"),
    "pipeline.save_stream": ("op_s.p50", "retarget"),
    "pipeline.resample": ("op_s.p50", "retarget"),
    "pipeline.window": ("op_s.p50", "retarget"),
    "report.evaluate": ("op_s.p50", "evaluate"),
    "report.dump_json": ("op_s.p50", "evaluate"),
    "cli.main": ("op_s.p50", "evaluate train retarget"),
    # reported per set-up, not per operation: the set-up is the only caller
    "synth.beat_gesture_corpus": ("setup_s", "evaluate train"),
    "synth.beat_gesture_stream": ("setup_s", "evaluate train"),
}
SETUP_SPANS = ("synth.beat_gesture_corpus", "synth.beat_gesture_stream")

# Counts: name -> (unit, better, should move, on workloads).
COUNTS = {
    "pcoa.dims_retained": ("count", "higher", "op_s.p50", "evaluate"),
    "pcoa.dropped_negative_mass": ("mass", "lower", "op_s.p50", "evaluate"),
    "gmm.em_iters": ("count", "lower", "op_s.p50 items_per_s", "train"),
    "gmm.em_stop": ("code", "lower", "op_s.p50 items_per_s", "train"),
    "gmm.em_improving_frac": ("ratio", "higher", "op_s.p50 items_per_s", "train"),
    "pipeline.bytes_read": ("B", "lower", "op_s.p50 peak_rss_mb", "evaluate train retarget"),
    "pipeline.bytes_written": ("B", "lower", "op_s.p50 peak_rss_mb", "train retarget"),
    "mapping.frames": ("count", "higher", "op_s.p50 items_per_s", "retarget"),
    "mapping.clamped_poses": ("count", "lower", "op_s.p50 items_per_s", "retarget"),
}
OVERHEAD = "trace.overhead_frac"

# gmm.em_stop codes, derived from the returned log-likelihood trace
EM_STOP = {0: "no fit", 1: "converged", 2: "max_iter", 3: "reverted"}


def metric_units():
    """Every per-layer metric name with its unit and direction, in print order."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.total_s"] = ("s", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    for name, (unit, better, _, _) in COUNTS.items():
        units[name] = (unit, better)
    units[OVERHEAD] = ("ratio", "lower")
    return units


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _em_hook(add, fn, args, kwargs, model):
    arguments = _bound(fn, args, kwargs)
    lls = list(model.log_likelihoods)
    n = len(lls)
    if n >= 2 and lls[-1] - lls[-2] < arguments["rel_tol"] * abs(lls[-1]):
        stop = 1
    elif n >= arguments["max_iter"]:
        stop = 2
    else:
        stop = 3     # the next E step lowered the LL and the fit kept the last parameters
    add("gmm.em_iters", n)
    add("gmm.em_stop", stop)
    add("gmm.em_improving_frac", sum(b > a for a, b in zip(lls, lls[1:])))
    add("gmm.em_run", n + (stop == 3))


def _bytes_hook(key, param):
    def hook(add, fn, args, kwargs, result):
        add(key, os.path.getsize(_bound(fn, args, kwargs)[param]))
    return hook


def _pcoa_hook(add, fn, args, kwargs, result):
    add("pcoa.runs", 1)
    add("pcoa.dims_retained", result.eigenvalues.size)
    add("pcoa.dropped_negative_mass", result.dropped_negative_mass)


def _frames_hook(add, fn, args, kwargs, frames):
    add("mapping.frames", len(frames))


def _clamp_hook(add, fn, args, kwargs, pose):
    add("mapping.clamped_poses", int(pose.n_clamped > 0))


HOOKS = {
    "pcoa.pcoa": _pcoa_hook,
    "gmm.fit": _em_hook,
    "pipeline.load_dataset": _bytes_hook("pipeline.bytes_read", "path"),
    "pipeline.load_stream": _bytes_hook("pipeline.bytes_read", "path"),
    "pipeline.save_dataset": _bytes_hook("pipeline.bytes_written", "path"),
    "pipeline.save_stream": _bytes_hook("pipeline.bytes_written", "path"),
    "mapping.load_skeleton_frames": _frames_hook,
    "mapping.StreamMapper.map_frame": _clamp_hook,
}
# Counts reported as a mean over the calls of one operation, not their sum:
# count name -> the count of calls it is divided by.
PER_CALL = {"pcoa.dims_retained": "pcoa.runs", "pcoa.dropped_negative_mass": "pcoa.runs",
            "gmm.em_improving_frac": "gmm.em_run"}


class Tracer:
    """Records spans and counts of the operations run between install and uninstall."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = collections.defaultdict(float)   # (op id, count name) -> value
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if hook is not None:
                hook(lambda key, value: self._add(op, key, value), fn, args, kwargs, result)
            return result

        return traced

    def _add(self, op, key, value):
        self.counts[op, key] += value

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the public functions of every layer of ``package`` where they are bound."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for path in METHODS.get(layer, ()):
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(f"{layer}.{path}", vars(cls)[method]))
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(module, attr, wrappers[id(obj)][1])

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def operation(self, op):
        """Record the spans of the calls made inside this block under ``op``."""
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tparent\top\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start!r}\t{end!r}\n")

    def layer_metrics(self, ops):
        """Per-operation means of span calls, total and self time, and counts over ``ops``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        total = collections.defaultdict(float)
        own = collections.defaultdict(float)
        wanted = set(ops)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in wanted:
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - covered[i]
        n = len(ops)
        metrics = {}
        for name in REPORTED:
            metrics[f"{name}.calls"] = calls[name] / n
            metrics[f"{name}.total_s"] = total[name] / n
            metrics[f"{name}.self_s"] = own[name] / n
        for name in COUNTS:
            metrics[name] = sum(self._op_count(op, name) for op in ops) / n
        return metrics

    def _op_count(self, op, name):
        value = self.counts.get((op, name), 0.0)
        if name in PER_CALL:
            n_calls = self.counts.get((op, PER_CALL[name]), 0.0)
            return value / n_calls if n_calls else 0.0
        return value
