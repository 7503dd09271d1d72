"""The benchmark's metric catalogue and the per-layer metrics of a traced run.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` lists
(``selftest.py`` checks that the two agree).  Every run reports every
end-to-end metric; every traced run reports every per-layer metric, with
0 for a layer the workload does not exercise (the no-change prediction
for that layer).
"""

from __future__ import annotations

from perfbench.common import median, nearest_rank

#: The 20 registry detectors (14 paper + 6 extra), in registry order.
DETECTORS = (
    "IForest", "HBOS", "LOF", "KNN", "PCA", "OCSVM", "CBLOF", "COF", "SOD",
    "ECOD", "GMM", "LODA", "COPOD", "DeepSVDD",
    "ABOD", "MCD", "KDE", "INNE", "FeatureBagging", "Sampling",
)
#: The sweep's stand-ins: unequal folds (n=400) and equal folds (n=351).
SWEEP_DATASETS = ("cardio", "Ionosphere")
#: Span-name prefixes, one per program layer.
LAYERS = ("experiments", "data", "detectors", "kernels", "core", "nn",
          "metrics", "http", "fleet", "service", "artifacts")

#: (name, unit, better, bound): what a user of each workload sees.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("auc", "AUCROC", "higher", 0.1),
    ("ap", "AP", "higher", 0.2),
]

PER_LAYER = (
    [("experiments.cells", "count", "higher"),
     ("experiments.cell_s", "s", "lower"),
     ("data.generate_s", "s", "lower"),
     ("data.scale_s", "s", "lower")]
    + [(f"detectors.fit_s.{d}", "s", "lower") for d in DETECTORS]
    + [(f"detectors.score_s.{d}", "s", "lower") for d in DETECTORS]
    + [("kernels.compute_s", "s", "lower"),
       ("kernels.build_s", "s", "lower"),
       ("kernels.graph_builds", "count", "lower"),
       ("kernels.matrix_builds", "count", "lower"),
       ("kernels.hit_ratio", "ratio", "higher"),
       ("core.booster_fit_s", "s", "lower"),
       ("core.train_round_s", "s", "lower"),
       ("core.predict_s", "s", "lower"),
       ("core.variance_s", "s", "lower"),
       ("nn.steps_stacked", "count", "higher"),
       ("nn.steps_ragged", "count", "lower"),
       ("nn.stacked_share", "ratio", "higher"),
       ("nn.adam_s", "s", "lower"),
       ("nn.forward_s", "s", "lower"),
       ("nn.backward_s", "s", "lower")]
    + [(f"nn.ragged_per_cell.{d}", "count", "lower") for d in SWEEP_DATASETS]
    + [("metrics.s", "s", "lower"),
       ("http.self_ms", "ms", "lower"),
       ("fleet.score_p50_ms", "ms", "lower"),
       ("fleet.score_p99_ms", "ms", "lower"),
       ("fleet.ipc_ms", "ms", "lower"),
       ("fleet.boot_s", "s", "lower"),
       ("fleet.rejected", "count", "lower"),
       ("fleet.retries", "count", "lower"),
       ("fleet.timeouts", "count", "lower"),
       ("service.latency_p50_ms", "ms", "lower"),
       ("service.latency_p99_ms", "ms", "lower"),
       ("service.mean_batch_requests", "count", "higher"),
       ("service.hit_ratio", "ratio", "higher"),
       ("artifacts.loads", "count", "lower"),
       ("artifacts.load_p50_ms", "ms", "lower"),
       ("artifacts.save_s", "s", "lower")]
    + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"),
       ("trace.overhead_share", "ratio", "lower"),
       ("trace.spans", "count", "lower")]
)

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: dict) -> dict:
    """``{name: value}`` -> ``{name: (value, unit)}`` in catalogue order."""
    return {name: (values[name], _UNITS[name]) for name in _UNITS
            if name in values}


def per_layer(spans, *, cache=None, fleet=None, client_p50_ms=None,
              overhead=(0.0, 0.0)) -> dict:
    """Every ``PER_LAYER`` metric, as ``{name: (value, unit)}``.

    ``spans`` is a :class:`~perfbench.tracer.SpanSet` over every traced
    process; ``cache`` holds the neighbour-cache counters
    (``repro.kernels.cache_stats()`` summed over processes); ``fleet`` is
    the fleet's ``/stats`` payload on ``serve``; ``client_p50_ms`` the
    client round-trip median; ``overhead`` the traced minus untraced
    round time and its share of the untraced one.
    """
    v = {name: 0.0 for name, *_ in PER_LAYER}

    cells = spans.outermost("experiments.cell")
    v["experiments.cells"] = len(cells)
    if cells:
        v["experiments.cell_s"] = median([c["end"] - c["start"]
                                          for c in cells])
    v["data.generate_s"] = spans.total("data.generate")
    v["data.scale_s"] = spans.total("data.scale")
    for s in spans.outermost("detectors."):
        _, kind, name = s["name"].split(".", 2)
        key = f"detectors.{kind}_s.{name}"
        if key in v:
            v[key] += s["end"] - s["start"]

    kernel_spans = spans.outermost("kernels.knn") \
        + spans.outermost("kernels.pairwise")
    v["kernels.compute_s"] = spans.total("kernels.")
    v["kernels.build_s"] = sum(
        s["end"] - s["start"] for s in kernel_spans
        if any(a["name"] == "kernels.cache" for a in spans.ancestors(s)))
    if cache:
        v["kernels.graph_builds"] = cache.get("graph_builds", 0)
        v["kernels.matrix_builds"] = cache.get("matrix_builds", 0)
        queries = cache.get("hits", 0) + cache.get("misses", 0)
        v["kernels.hit_ratio"] = cache.get("hits", 0) / queries \
            if queries else 0.0

    v["core.booster_fit_s"] = spans.total("core.fit")
    v["core.train_round_s"] = spans.total("core.train_round")
    v["core.predict_s"] = spans.total("core.predict")
    v["core.variance_s"] = spans.total("core.variance")
    stacked = spans.count("nn.adam.stacked")
    ragged = spans.count("nn.adam.ragged")
    v["nn.steps_stacked"] = stacked
    v["nn.steps_ragged"] = ragged
    v["nn.stacked_share"] = stacked / (stacked + ragged) \
        if stacked + ragged else 0.0
    v["nn.adam_s"] = spans.total("nn.adam")
    v["nn.forward_s"] = spans.total("nn.forward")
    v["nn.backward_s"] = spans.total("nn.backward")
    for dataset in SWEEP_DATASETS:
        n_cells = sum(1 for c in cells
                      if c["tag"].split("/", 1)[0] == dataset)
        if n_cells:
            n_ragged = sum(1 for s in spans.spans
                           if s["name"] == "nn.adam.ragged" and s["tag"]
                           and s["tag"].split("/", 1)[0] == dataset)
            v[f"nn.ragged_per_cell.{dataset}"] = n_ragged / n_cells
    v["metrics.s"] = spans.total("metrics.")

    fleet_ms = [1e3 * d for d in spans.durations("fleet.score")]
    if fleet_ms:
        v["fleet.score_p50_ms"] = median(fleet_ms)
        v["fleet.score_p99_ms"] = nearest_rank(fleet_ms, 0.99)
        if client_p50_ms is not None:
            v["http.self_ms"] = client_p50_ms - v["fleet.score_p50_ms"]
    v["fleet.boot_s"] = spans.total("fleet.boot")
    if fleet:
        v["fleet.rejected"] = fleet.get("rejected", 0)
        v["fleet.retries"] = fleet.get("retries", 0)
        v["fleet.timeouts"] = fleet.get("timeouts", 0)
        workers = list(fleet.get("workers", {}).values())
        served = [w for w in workers if w.get("latency", {}).get("count")]
        n = sum(w["latency"]["count"] for w in served)
        if n:
            # Request-weighted mean of the workers' own p50s; the slowest
            # worker's p99.
            v["service.latency_p50_ms"] = sum(
                w["latency"]["count"] * w["latency"]["p50_ms"]
                for w in served) / n
            v["service.latency_p99_ms"] = max(w["latency"]["p99_ms"]
                                              for w in served)
            if fleet_ms:
                v["fleet.ipc_ms"] = (v["fleet.score_p50_ms"]
                                     - v["service.latency_p50_ms"])
        service = [w.get("service", {}) for w in workers]
        batches = sum(s.get("batches", 0) for s in service)
        if batches:
            v["service.mean_batch_requests"] = sum(
                s.get("requests", 0) for s in service) / batches
        looked_up = sum(s.get("cache_hits", 0) + s.get("cache_misses", 0)
                        for s in service)
        if looked_up:
            v["service.hit_ratio"] = sum(
                s.get("cache_hits", 0) for s in service) / looked_up
    loads = spans.durations("artifacts.load")
    v["artifacts.loads"] = len(loads)
    if loads:
        v["artifacts.load_p50_ms"] = 1e3 * median(loads)
    v["artifacts.save_s"] = spans.total("artifacts.save")

    for layer, seconds in spans.self_time_by_layer().items():
        if f"self_s.{layer}" in v:
            v[f"self_s.{layer}"] = seconds
    v["trace.overhead_s"], v["trace.overhead_share"] = overhead
    v["trace.spans"] = len(spans.spans)
    return with_units(v)
