"""Per-layer tracing from outside the program.

``install`` replaces the public functions that ``perfdiag.pipeline`` and the
layer modules call by module-global name with wrappers that record spans
(name, start, end, parent) and counters in memory. Nothing under ``src/``
changes; ``uninstall`` puts the originals back. Untraced benchmark runs never
import this module.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import perfdiag.detectors as detectors
import perfdiag.detectors.ocsvm as ocsvm
import perfdiag.mlp as mlp
import perfdiag.pipeline as pipeline
import perfdiag.rca.graph as graph

# CI tests are counted per conditioning level up to this one; deeper tests
# are counted in its bucket
CI_LEVELS = 12
LEVEL_KEYS = [f"rca.graph.ci_tests.L{k}" for k in range(CI_LEVELS + 1)]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1  # index into Tracer.spans, -1 for the root
    child_ns: int = 0

    @property
    def layer(self) -> str:
        return layer_of(self.name)

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


def layer_of(name: str) -> str:
    """``rca.graph.pc`` -> ``rca.graph``; ``detectors.knn`` -> ``detectors``."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "rca" else parts[0]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.end_ns - span.start_ns

    def seconds(self, name: str) -> float:
        return sum(s.end_ns - s.start_ns for s in self.spans if s.name == name) / 1e9

    def layer_self_seconds(self) -> dict[str, float]:
        out: Counter = Counter()
        for s in self.spans:
            out[s.layer] += s.self_ns / 1e9
        return dict(out)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer.counters, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _kept(c, args, result):
    frame = result[0] if isinstance(result, tuple) else result
    c["preprocess.kept"] = frame.values.shape[1]


def _detector_input(c, args, result):
    c["detectors.rows"], c["detectors.features"] = args[1].values.shape


def _pairs(factor):
    # computed, not observed: the kernel's distance evaluations for d rows
    def after(c, args, result):
        c["detectors.neighbors.pairs"] += factor * args[0].shape[0] ** 2
    return after


def _ocsvm_model(c, args, result):
    c["detectors.ocsvm.smo_iters"] += result.iterations
    c["detectors.ocsvm.support_vectors"] += result.alphas.shape[0]
    c["detectors.ocsvm.fit_rows"] += args[0].shape[0]


def _graph(c, args, result):
    c["rca.graph.span_rows"] = args[0].shape[0]
    c["rca.graph.edges"] = len(result.directed) + len(result.undirected)


def _walks(c, args, result):
    c["rca.localize.walks"] += result.total_walks
    c["rca.localize.walks_discarded"] += result.total_walks - sum(n for _, n in result.entries)


def _ingested(c, args, result):
    c["ingest.cells"] += result[0].values.size


def _steps(c: Counter, fn):
    def wrapper(*args, **kwargs):
        c["mlp.steps"] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _ci_tests(c: Counter, fn):
    def wrapper(corr, i, j, S):
        level = len(S)
        c[LEVEL_KEYS[min(level, CI_LEVELS)]] += 1
        if level > c["rca.graph.max_level"]:
            c["rca.graph.max_level"] = level
        return fn(corr, i, j, S)

    wrapper.__wrapped__ = fn
    return wrapper


def _targets(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced name."""
    c = tracer.counters

    def span(name, after=None):
        return lambda fn: _spanned(tracer, name, fn, after)

    return [
        (pipeline, "load_smd", span("ingest.load", _ingested)),
        (pipeline, "load_csv", span("ingest.load", _ingested)),
        (pipeline, "zscore", span("preprocess.zscore", _kept)),
        (pipeline, "correlate_select", span("preprocess.select", _kept)),
        (pipeline, "pca_fit", span("preprocess.select")),
        (pipeline, "pca_transform", span("preprocess.select", _kept)),
        (pipeline, "SelectedFrame", span("preprocess.select", _kept)),
        (pipeline, "fit_score", span("detectors.fit_score", _detector_input)),
        (pipeline, "threshold", span("detectors.threshold")),
        (pipeline, "assemble", span("ensemble.assemble")),
        (pipeline, "ensemble_max", span("ensemble.combine")),
        (pipeline, "ensemble_avg", span("ensemble.combine")),
        (pipeline, "ensemble_weighted", span("ensemble.combine")),
        (pipeline, "mi_weights", span("ensemble.combine")),
        (pipeline, "split", span("ensemble.split")),
        (pipeline, "train_deep", span("mlp.train")),
        (pipeline, "predict_deep", span("mlp.predict")),
        (pipeline, "pc_build", span("rca.graph.pc", _graph)),
        (pipeline, "localize", span("rca.localize", _walks)),
        (detectors, "iforest_scores", span("detectors.iforest")),
        (detectors, "knn_scores", span("detectors.knn", _pairs(1))),
        (detectors, "lof_scores", span("detectors.lof", _pairs(2))),
        (detectors, "ocsvm_scores", span("detectors.ocsvm")),
        (ocsvm, "ocsvm_fit", span("detectors.ocsvm.fit", _ocsvm_model)),
        (mlp, "loss_and_grads", lambda fn: _steps(c, fn)),
        (graph, "partial_correlation", lambda fn: _ci_tests(c, fn)),
    ]


def install(tracer: Tracer):
    """Wrap every traced name; return a callable that restores the originals."""
    originals = []
    for module, attr, factory in _targets(tracer):
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, factory(fn))

    def uninstall():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return uninstall


def traced_call(tracer: Tracer, name: str, fn, *args):
    """Run ``fn(*args)`` as the root span ``name``."""
    index = tracer.begin(name)
    try:
        return fn(*args)
    finally:
        tracer.end(index)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pipeline run, as (value, unit)."""
    c = tracer.counters
    s = tracer.seconds
    ci = {k: c[k] for k in LEVEL_KEYS}
    train_s = s("mlp.train")
    root = next(sp for sp in tracer.spans if sp.parent == -1)
    return {
        "ingest.load_s": (s("ingest.load"), "s"),
        "ingest.cells": (c["ingest.cells"], "count"),
        "preprocess.zscore_s": (s("preprocess.zscore"), "s"),
        "preprocess.select_s": (s("preprocess.select"), "s"),
        "preprocess.kept": (c["preprocess.kept"], "count"),
        "detectors.iforest.s": (s("detectors.iforest"), "s"),
        "detectors.knn.s": (s("detectors.knn"), "s"),
        "detectors.lof.s": (s("detectors.lof"), "s"),
        "detectors.ocsvm.s": (s("detectors.ocsvm"), "s"),
        "detectors.rows": (c["detectors.rows"], "count"),
        "detectors.features": (c["detectors.features"], "count"),
        "detectors.neighbors.pairs": (c["detectors.neighbors.pairs"], "count"),
        "detectors.ocsvm.smo_iters": (c["detectors.ocsvm.smo_iters"], "count"),
        "detectors.ocsvm.support_vectors": (c["detectors.ocsvm.support_vectors"], "count"),
        "detectors.ocsvm.fit_rows": (c["detectors.ocsvm.fit_rows"], "count"),
        "ensemble.assemble_s": (s("ensemble.assemble"), "s"),
        "ensemble.combine_s": (s("ensemble.combine"), "s"),
        "mlp.train_s": (train_s, "s"),
        "mlp.steps": (c["mlp.steps"], "count"),
        "mlp.steps_per_s": (c["mlp.steps"] / train_s if train_s else 0.0, "1/s"),
        "mlp.predict_s": (s("mlp.predict"), "s"),
        "rca.graph.pc_s": (s("rca.graph.pc"), "s"),
        "rca.graph.ci_tests": (sum(ci.values()), "count"),
        **{k: (v, "count") for k, v in ci.items()},
        "rca.graph.max_level": (c["rca.graph.max_level"], "count"),
        "rca.graph.edges": (c["rca.graph.edges"], "count"),
        "rca.graph.span_rows": (c["rca.graph.span_rows"], "count"),
        "rca.localize.s": (s("rca.localize"), "s"),
        "rca.localize.walks": (c["rca.localize.walks"], "count"),
        "rca.localize.walks_discarded": (c["rca.localize.walks_discarded"], "count"),
        "pipeline.self_s": (root.self_ns / 1e9, "s"),
    }
