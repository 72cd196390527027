"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function of the ``metamargin``
modules under each name it is bound to, in every module namespace. The
package uses from-imports, so a function must be replaced where it is
looked up: for example the base-learner lambdas in ``harness`` look up
``harness.nearest_centroid_learn`` and ``meta_erm_select`` looks up
``learners.empirical_margin_loss``. A few methods are wrapped on their
classes (``METHODS``). ``Tracer.uninstall`` puts the originals back.

Each call records one span: its name, start, end, parent span and run
id (the spans under one root call, such as one CLI command, share it).
Spans stay in memory (flat arrays, one entry per span) until
``write_csv`` dumps them. A span's layer is the short name of the
module that defines the function (``core``, ``learners``, ...); a
layer's self time is its span durations minus the time covered by
child spans. Counters for the per-layer work counts are updated by
hooks that run after a span closes, so their cost falls on the caller.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "metamargin"

LAYERS = ("cli", "harness", "core", "learners", "losses", "complexity", "bounds")

# (module, class, method) wrapped on the class itself.
METHODS = (
    ("learners", "FeatureMap", "apply_matrix"),
    ("learners", "CentroidScorer", "scores_matrix"),
    ("learners", "LinearScorer", "scores_matrix"),
    ("complexity", "FunctionValueMatrix", "from_csv"),
    ("complexity", "FunctionValueMatrix", "to_csv"),
)

FIT_SPANS = frozenset({
    "learners.nearest_centroid_learn",
    "learners.linear_multimargin_learn",
    "learners.linear_softmax_learn",
})
SCORES_SPANS = frozenset({
    "learners.CentroidScorer.scores_matrix",
    "learners.LinearScorer.scores_matrix",
})
MC_SPANS = frozenset({"complexity.gaussian_complexity_mc", "complexity.rademacher_complexity_mc"})
COVER_SPANS = frozenset({
    "complexity.entropy_integral",
    "complexity.greedy_epsilon_cover",
    "complexity.dudley_bound",
})
CSV_SPANS = frozenset({"complexity.FunctionValueMatrix.from_csv", "complexity.FunctionValueMatrix.to_csv"})

# Per-layer metrics beyond <layer>.calls, <layer>.self_s and <layer>.share.
EXTRA_METRICS = {
    "core.episodes": "count",
    "core.examples": "count",
    "learners.fits": "count",
    "learners.fit_self_s": "s",
    "learners.fit_failures": "count",
    "learners.fit_repeat_frac": "frac",
    "learners.linear_multimargin_learn.steps": "count",
    "learners.apply_matrix.rows": "count",
    "learners.apply_matrix.self_s": "s",
    "learners.scores_matrix.calls": "count",
    "learners.scores_matrix.self_s": "s",
    "complexity.restriction.self_s": "s",
    "complexity.restriction.cells": "count",
    "complexity.mc.self_s": "s",
    "complexity.mc.gflop": "GFLOP",
    "complexity.mc.gflops_per_s": "GFLOP/s",
    "complexity.cover.self_s": "s",
    "complexity.csv.self_s": "s",
    "complexity.csv.mb": "MB",
    "harness.query_split_accuracy.episodes": "count",
    "harness.transfer_risk.draws": "count",
    "harness.transfer_risk.failed_draws": "count",
    "harness.write_result_rows.self_s": "s",
    "cli.nonzero_exits": "count",
    "bench.self_s": "s",
    "bench.share": "frac",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "frac"
    units.update(EXTRA_METRICS)
    return units


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


class Tracer:
    """In-memory span recorder with per-layer counters.

    Single-threaded: the benchmark runs ``workers=1``, so one stack of
    open spans is enough to find each span's parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._fitted: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer.run_id += 1  # spans under one root call share a run id
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            stack.append(idx)
            tracer.start.append(perf())
            tracer.end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = perf()
                stack.pop()
                if hook is not None:
                    hook(tracer, args, kwargs, None, True)
                raise
            tracer.end[idx] = perf()
            stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, False)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and the listed methods."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__ or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    layer = owner.split(".")[1]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[id(obj)])
                self._undo.append((module, attr, obj))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(cls, meth, wrapped)
            self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------

    def _durations(self) -> tuple[np.ndarray, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return end - start, np.frombuffer(self.parent, dtype=np.int64)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children.

        Children of one span never overlap (one thread), so this is the
        time the span spent outside every child span.
        """
        dur, parent = self._durations()
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return own

    def root_seconds(self) -> float:
        """Total duration of spans that have no parent."""
        dur, parent = self._durations()
        return float(dur[parent < 0].sum())

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced run of ``traced_wall_s`` seconds.

        ``bench.self_s`` is the residue: traced wall time outside every
        span, spent in the benchmark itself.
        """
        own = self.self_times()
        by_name: dict[str, float] = collections.defaultdict(float)
        for name, s in zip(self.names, own.tolist()):
            by_name[name] += s
        # A call into a layer is a span whose parent lies in another layer.
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        parent_layer = np.where(parent >= 0, layer_of[np.maximum(parent, 0)], -1)
        entries = layer_of[layer_of != parent_layer]
        out: dict[str, float] = {}
        for li, layer in enumerate(LAYERS):
            prefix = layer + "."
            self_s = sum(v for k, v in by_name.items() if k.startswith(prefix))
            out[f"{layer}.calls"] = int((entries == li).sum())
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / traced_wall_s

        def total(names) -> float:
            return sum(by_name.get(n, 0.0) for n in names)

        c = self.counts
        fits = c["learners.fits"]
        mc_self = total(MC_SPANS)
        bench_self = traced_wall_s - self.root_seconds()
        out.update({
            "core.episodes": c["core.episodes"],
            "core.examples": c["core.examples"],
            "learners.fits": fits,
            "learners.fit_self_s": total(FIT_SPANS),
            "learners.fit_failures": c["learners.fit_failures"],
            "learners.fit_repeat_frac": c["learners.fit_repeats"] / fits if fits else 0.0,
            "learners.linear_multimargin_learn.steps": c["learners.linear_multimargin_learn.steps"],
            "learners.apply_matrix.rows": c["learners.apply_matrix.rows"],
            "learners.apply_matrix.self_s": by_name.get("learners.FeatureMap.apply_matrix", 0.0),
            "learners.scores_matrix.calls": sum(1 for n in self.names if n in SCORES_SPANS),
            "learners.scores_matrix.self_s": total(SCORES_SPANS),
            "complexity.restriction.self_s": by_name.get("complexity.build_pi1f_restriction", 0.0),
            "complexity.restriction.cells": c["complexity.restriction.cells"],
            "complexity.mc.self_s": mc_self,
            "complexity.mc.gflop": c["complexity.mc.flop"] / 1e9,
            "complexity.mc.gflops_per_s": c["complexity.mc.flop"] / 1e9 / mc_self if mc_self > 0 else 0.0,
            "complexity.cover.self_s": total(COVER_SPANS),
            "complexity.csv.self_s": total(CSV_SPANS),
            "complexity.csv.mb": c["complexity.csv.mb"],
            "harness.query_split_accuracy.episodes": c["harness.query_split_accuracy.episodes"],
            "harness.transfer_risk.draws": c["harness.transfer_risk.draws"],
            "harness.transfer_risk.failed_draws": c["harness.transfer_risk.failed_draws"],
            "harness.write_result_rows.self_s": by_name.get("harness.write_result_rows", 0.0),
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "bench.self_s": bench_self,
            "bench.share": bench_self / traced_wall_s,
            "trace.spans": len(self.names),
        })
        return out

    def write_csv(self, path: str) -> None:
        """Dump every span as ``name,start,end,parent,run``."""
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,run\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.run):
                handle.write("%s,%.9f,%.9f,%d,%d\n" % row)


# -- counters, one hook per span name -----------------------------------

def _episode_hook(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.counts["core.episodes"] += 1
        tracer.counts["core.examples"] += result.m


def _fit_hook(tracer, args, kwargs, result, failed):
    c = tracer.counts
    c["learners.fits"] += 1
    episode, phi = _arg(args, kwargs, 0, "episode"), _arg(args, kwargs, 1, "phi")
    digest = hashlib.blake2b(episode.xs.tobytes(), digest_size=16)
    digest.update(episode.ys.tobytes())
    key = (digest.digest(), phi.id)
    if key in tracer._fitted:
        c["learners.fit_repeats"] += 1
    else:
        tracer._fitted.add(key)
    if failed:
        c["learners.fit_failures"] += 1


def _multimargin_hook(tracer, args, kwargs, result, failed):
    _fit_hook(tracer, args, kwargs, result, failed)
    if not failed:
        tracer.counts["learners.linear_multimargin_learn.steps"] += len(result.loss_history)


def _apply_hook(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.counts["learners.apply_matrix.rows"] += result.shape[0]


def _restriction_hook(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.counts["complexity.restriction.cells"] += result.values.size


def _mc_hook(tracer, args, kwargs, result, failed):
    if not failed:
        rows, cols = _arg(args, kwargs, 0, "A").values.shape
        tracer.counts["complexity.mc.flop"] += 2 * rows * cols * result.draws


def _from_csv_hook(tracer, args, kwargs, result, failed):
    # classmethod: args[0] is the class
    tracer.counts["complexity.csv.mb"] += _file_mb(_arg(args, kwargs, 1, "path_or_buf"))


def _to_csv_hook(tracer, args, kwargs, result, failed):
    tracer.counts["complexity.csv.mb"] += _file_mb(_arg(args, kwargs, 1, "path_or_buf"))


def _query_split_hook(tracer, args, kwargs, result, failed):
    tracer.counts["harness.query_split_accuracy.episodes"] += _arg(args, kwargs, 4, "episodes")


def _transfer_risk_hook(tracer, args, kwargs, result, failed):
    tracer.counts["harness.transfer_risk.draws"] += _arg(args, kwargs, 5, "task_draws")
    if not failed:
        tracer.counts["harness.transfer_risk.failed_draws"] += result.failures


def _cli_main_hook(tracer, args, kwargs, result, failed):
    if failed or result != 0:
        tracer.counts["cli.nonzero_exits"] += 1


_HOOKS = {
    "core.sample_episode": _episode_hook,
    "core.sample_kway_sshot_episode": _episode_hook,
    "learners.nearest_centroid_learn": _fit_hook,
    "learners.linear_softmax_learn": _fit_hook,
    "learners.linear_multimargin_learn": _multimargin_hook,
    "learners.FeatureMap.apply_matrix": _apply_hook,
    "complexity.build_pi1f_restriction": _restriction_hook,
    "complexity.gaussian_complexity_mc": _mc_hook,
    "complexity.rademacher_complexity_mc": _mc_hook,
    "complexity.FunctionValueMatrix.from_csv": _from_csv_hook,
    "complexity.FunctionValueMatrix.to_csv": _to_csv_hook,
    "harness.query_split_accuracy": _query_split_hook,
    "harness.estimate_transfer_risk": _transfer_risk_hook,
    "cli.main": _cli_main_hook,
}
