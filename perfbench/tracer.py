"""Spans around calls into the program's layers, recorded from outside.

:func:`install` wraps the public functions and methods behind each layer
(``repro.experiments`` ... ``repro.serving``) so every call records a span
``(id, parent, name, start, end, tag)``; ``tag`` is the cell or request
the span belongs to, inherited from the enclosing span.  Spans stay in
memory and are written as JSON lines when the run ends.  Nothing under
``src/`` changes: functions imported by name into other modules are
replaced there too, and :func:`install` returns the undo.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Drop every span (a forked child starts empty)."""
        self.pid = os.getpid()
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._next_request = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, tag=None):
        """``fn`` timed as a span.  ``name`` may be a callable of
        ``(args, kwargs)``; ``tag``, a callable of ``(recorder, args,
        kwargs)``, starts a new cell or request, else the tag is
        inherited from the parent span."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else (0, None)
            span_name = name(args, kwargs) if callable(name) else name
            span_tag = tag(recorder, args, kwargs) if tag else parent[1]
            sid = next(recorder._ids)
            stack.append((sid, span_tag))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (sid, parent[0], span_name, start, end, span_tag))

        return traced

    def dump(self, path) -> None:
        """Write this process's spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.as_dicts():
                fh.write(json.dumps(span) + "\n")

    def as_dicts(self) -> list:
        return [{"pid": self.pid, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end, "tag": tag}
                for sid, parent, name, start, end, tag in self.spans]


def _cls_name(prefix):
    return lambda args, kwargs: f"{prefix}.{type(args[0]).__name__}"


def _adam_name(args, kwargs):
    # BatchedAdam.step(active=...) is the per-fold ragged-tail fallback.
    active = kwargs.get("active", args[1] if len(args) > 1 else None)
    return "nn.adam.stacked" if active is None else "nn.adam.ragged"


def _cell_tag(recorder, args, kwargs):
    dataset = args[0] if args else kwargs.get("dataset")
    detector = args[1] if len(args) > 1 else kwargs.get("detector_name")
    return f"{getattr(dataset, 'name', dataset)}/{detector}"


def _request_tag(recorder, args, kwargs):
    return f"req-{recorder.pid}-{next(recorder._next_request)}"


def _targets():
    """(owner, attribute, span name, tag) for every wrapped entry point."""
    from repro.core import ensemble, labels, variance
    from repro.core.booster import UADBooster
    from repro.data import generators, preprocessing
    from repro.detectors.base import BaseDetector
    from repro.experiments import harness
    from repro.kernels import cache, distance
    from repro.metrics import ranking
    from repro.nn.batched import BatchedAdam
    from repro.nn.network import Sequential
    from repro.serving import artifacts, server, service
    from repro.serving.fleet import frontend

    scaler = preprocessing.StandardScaler
    return [
        (harness, "run_single", "experiments.cell", _cell_tag),
        (generators, "generate_standin", "data.generate", None),
        (scaler, "fit", "data.scale", None),
        (scaler, "transform", "data.scale", None),
        (scaler, "fit_transform", "data.scale", None),
        (BaseDetector, "fit", _cls_name("detectors.fit"), None),
        (BaseDetector, "score_samples", _cls_name("detectors.score"), None),
        (BaseDetector, "decision_function", _cls_name("detectors.score"),
         None),
        (cache.NeighborCache, "kneighbors", "kernels.cache", None),
        (cache.NeighborCache, "pairwise", "kernels.cache", None),
        (distance, "kneighbors", "kernels.knn", None),
        (distance, "pairwise_distances", "kernels.pairwise", None),
        (UADBooster, "fit", "core.fit", None),
        (UADBooster, "score_samples", "core.predict", None),
        (ensemble.FoldEnsemble, "train_round", "core.train_round", None),
        (ensemble.FoldEnsemble, "predict_per_fold", "core.predict", None),
        (variance, "variance_history", "core.variance", None),
        (labels, "variance_update", "core.variance", None),
        (Sequential, "forward", "nn.forward", None),
        (Sequential, "backward", "nn.backward", None),
        (BatchedAdam, "step", _adam_name, None),
        (ranking, "auc_roc", "metrics.auc", None),
        (ranking, "average_precision", "metrics.ap", None),
        (server._ServingHandler, "do_POST", "http.post", _request_tag),
        (frontend.ScoringFleet, "__init__", "fleet.boot", None),
        (frontend.ScoringFleet, "score", "fleet.score", None),
        (service.ScoringService, "get_model", "service.get_model", None),
        (service.ScoringService, "submit", "service.submit", None),
        (artifacts.ModelStore, "load", "artifacts.load", None),
        (artifacts, "load_model", "artifacts.load", None),
        (artifacts, "save_model", "artifacts.save", None),
    ]


def install(recorder: Recorder):
    """Wrap every target; returns a callable that restores the originals.

    Methods are replaced on their class.  Functions are replaced in
    their defining module *and* in every loaded ``repro``/``perfbench``
    module that imported them by name, so callers see the wrapper
    whichever way they reach it.
    """
    undo = []
    functions = {}
    for owner, attr, name, tag in _targets():
        original = owner.__dict__[attr]
        wrapped = recorder.wrap(original, name, tag)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        else:
            functions[id(original)] = (original, wrapped)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(("repro", "perfbench")):
            continue
        for attr, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and value is hit[0]:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


class Session:
    """How a workload runs its measured phase with or without tracing.

    Untraced runs never install a wrapper.  A traced run records its
    set-up, then times one untraced and one traced pass of the same
    work; the difference is the tracing overhead.
    """

    def __init__(self, enabled: bool, workload: str):
        self.enabled = bool(enabled)
        self.workload = workload
        self.recorder = Recorder() if self.enabled else None
        #: Span dicts read back from other traced processes.
        self.foreign: list = []

    def setup(self, fn, *args):
        if not self.enabled:
            return fn(*args)
        uninstall = install(self.recorder)
        try:
            return fn(*args)
        finally:
            uninstall()

    @staticmethod
    def untraced(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def traced(self, fn) -> float:
        uninstall = install(self.recorder)
        start = time.perf_counter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - start
            uninstall()
        return elapsed

    def spans(self) -> "SpanSet":
        return SpanSet(self.recorder.as_dicts() + self.foreign)

    def per_layer(self, *, overhead, **context) -> dict:
        """Per-layer metrics; ``overhead`` is (untraced, traced) time.

        Writes every span as JSON lines to ``perfbench/out`` first.
        """
        from perfbench import common, layers

        spans = self.spans()
        common.OUT.mkdir(parents=True, exist_ok=True)
        with open(common.OUT / f"trace-{self.workload}.jsonl", "w") as fh:
            for span in spans.spans:
                fh.write(json.dumps(span) + "\n")
        untraced, traced = overhead
        return layers.per_layer(
            spans, overhead=(traced - untraced,
                             (traced - untraced) / untraced),
            **context)


# -- analysis -------------------------------------------------------------

class SpanSet:
    """Spans from one or more processes, with nesting-aware totals."""

    def __init__(self, spans: list):
        self.spans = spans
        self._by_key = {(s["pid"], s["id"]): s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"]:
                child_time[(s["pid"], s["parent"])] += s["end"] - s["start"]
        self._child_time = child_time

    def ancestors(self, span):
        key = (span["pid"], span["parent"])
        while key[1]:
            parent = self._by_key.get(key)
            if parent is None:
                return
            yield parent
            key = (parent["pid"], parent["parent"])

    def outermost(self, prefix: str) -> list:
        """Spans named ``prefix*`` not nested inside another such span."""
        return [s for s in self.spans if s["name"].startswith(prefix)
                and not any(a["name"].startswith(prefix)
                            for a in self.ancestors(s))]

    def total(self, prefix: str) -> float:
        return sum(s["end"] - s["start"] for s in self.outermost(prefix))

    def durations(self, prefix: str) -> list:
        return [s["end"] - s["start"] for s in self.outermost(prefix)]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time_by_layer(self) -> dict:
        """Per layer (first name component): span time minus child spans."""
        out = defaultdict(float)
        for s in self.spans:
            own = (s["end"] - s["start"]
                   - self._child_time.get((s["pid"], s["id"]), 0.0))
            out[s["name"].split(".", 1)[0]] += own
        return dict(out)
