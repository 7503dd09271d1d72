"""``sweep``: the Table IV protocol through ``repro.experiments.run_grid``.

Each of the 14 paper detectors runs one cell at the benchmark suite's
caps (400 rows, 24 features, T=10): the even-indexed detectors on
``cardio`` (n=400: the three fold training sets hold 266/267/267 rows, so
half of each cell's Adam steps take the per-fold ragged fallback) and the
odd-indexed ones on ``Ionosphere`` (n=351: equal folds, no ragged step).
A round is that grid, run in one process with one job, no result cache
and no journal, from an empty neighbour cache, as ``repro sweep`` runs it.
``--seed`` is the grid's seed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from perfbench import common, oracles
from perfbench.layers import DETECTORS, SWEEP_DATASETS

PAPER_DETECTORS = DETECTORS[:14]
SPLIT = {"cardio": PAPER_DETECTORS[0::2],
         "Ionosphere": PAPER_DETECTORS[1::2]}


def _load():
    from repro.data import registry

    return [registry.load_dataset(name, max_samples=common.MAX_SAMPLES,
                                  max_features=common.MAX_FEATURES)
            for name in SWEEP_DATASETS]


def _warm_up(seed: int) -> None:
    """One small cell (set-up): settles lazy imports, BLAS threads and
    first-call costs so the measured cells do not carry them."""
    from repro import kernels
    from repro.data import registry
    from repro.experiments import harness

    small = registry.load_dataset("glass", max_samples=60, max_features=6)
    harness.run_single(small, PAPER_DETECTORS[0], n_iterations=1, seed=seed)
    kernels.clear_cache()


def _grid_round(datasets, seed: int, cell_times: list, failures: list):
    """One whole grid; returns its RunResults (None for a failed cell)."""
    from repro import kernels
    from repro.experiments import harness

    kernels.clear_cache()
    results = []
    for dataset in datasets:
        detectors = SPLIT[dataset.name]
        marks = [time.perf_counter()]
        try:
            results += harness.run_grid(
                detectors=detectors, datasets=[dataset], seeds=(seed,),
                n_iterations=common.N_ITERATIONS,
                max_samples=common.MAX_SAMPLES,
                max_features=common.MAX_FEATURES,
                progress=lambda _msg: marks.append(time.perf_counter()),
                n_jobs=1, cache_dir=None, backend="serial", journal=None)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            failures.append(f"{dataset.name}: {type(exc).__name__}: {exc}")
            results += [None] * len(detectors)
            continue
        cell_times += list(np.diff(marks))
    return results


def _check_cells(results, checks: common.Checks) -> None:
    T = common.N_ITERATIONS
    for r in results:
        if r is None:
            continue
        values = [r.source_auc, r.source_ap, r.booster_auc, r.booster_ap,
                  *r.iteration_auc, *r.iteration_ap]
        checks.require(all(math.isfinite(x) and 0.0 <= x <= 1.0
                           for x in values),
                       f"{r.detector}/{r.dataset}: metric outside [0, 1]")
        checks.require(len(r.iteration_auc) == T
                       and len(r.iteration_ap) == T,
                       f"{r.detector}/{r.dataset}: not {T} iterations")


def _replay(dataset, detector: str, seed: int, reported,
            checks: common.Checks) -> None:
    """Re-run one cell through the public API, seeded as run_single is."""
    from repro.core.booster import UADBooster
    from repro.data.preprocessing import StandardScaler
    from repro.detectors.registry import make_detector

    where = f"replay {detector}/{dataset.name}"
    rng = np.random.default_rng(seed)
    X = StandardScaler().fit_transform(dataset.X)
    y = dataset.y
    source = make_detector(detector, random_state=rng).fit(X).fit_scores()
    booster = UADBooster(n_iterations=common.N_ITERATIONS,
                         random_state=rng).fit(X, source)
    pairs = [
        ("source_auc", oracles.rank_auc(y, source), reported.source_auc),
        ("source_ap", oracles.rank_ap(y, source), reported.source_ap),
        ("booster_auc", oracles.rank_auc(y, booster.scores_),
         reported.booster_auc),
        ("booster_ap", oracles.rank_ap(y, booster.scores_),
         reported.booster_ap),
    ]
    for t, scores in enumerate(booster.history_.booster_scores):
        pairs.append((f"iteration_auc[{t}]", oracles.rank_auc(y, scores),
                      reported.iteration_auc[t]))
        pairs.append((f"iteration_ap[{t}]", oracles.rank_ap(y, scores),
                      reported.iteration_ap[t]))
    for name, mine, theirs in pairs:
        checks.require(oracles.metrics_agree(mine, theirs),
                       f"{where}: {name} {theirs!r} != oracle {mine!r}")
    for problem in oracles.algorithm1_failures(booster.history_,
                                               common.N_ITERATIONS):
        checks.require(False, f"{where}: {problem}")


def run(args, clock, trace):
    """Run the workload; returns the report dict run.py prints."""
    checks = common.Checks()
    datasets = trace.setup(_load)
    _warm_up(args.seed)
    clock.stop()

    failures: list = []
    cell_times: list = []
    first: list = []

    def one_round(index):
        results = _grid_round(datasets, args.seed, cell_times, failures)
        if index == 0:
            first.extend(results)
        _check_cells(results, checks)

    if trace.enabled:
        durations = [trace.untraced(lambda: one_round(0))]
        durations.append(trace.traced(lambda: one_round(1)))
    else:
        durations = common.run_rounds(args.seconds, one_round)

    by_cell = {(r.dataset, r.detector): r for r in first if r is not None}
    for dataset in datasets:
        detector = SPLIT[dataset.name][0]
        reported = by_cell.get((dataset.name, detector))
        if checks.require(reported is not None,
                          f"no result for {detector}/{dataset.name}"):
            _replay(dataset, detector, args.seed, reported, checks)

    ok = [r for r in first if r is not None]
    cells = len(PAPER_DETECTORS)
    report = {
        "checks": checks, "attempted": cells * len(durations),
        "failed": cells * len(durations) - len(cell_times),
        "failures": failures,
        "summary": {
            "rounds": len(durations),
            "sweep_s": common.median(durations),
            "booster_auc": float(np.mean([r.booster_auc for r in ok])),
            "booster_ap": float(np.mean([r.booster_ap for r in ok])),
            "source_auc": float(np.mean([r.source_auc for r in ok])),
        },
    }
    if trace.enabled:
        from repro import kernels

        report["per_layer"] = trace.per_layer(
            cache=kernels.cache_stats(), overhead=durations)
        return report
    report["metrics"] = {
        "setup_s": clock.seconds,
        "round_s": common.median(durations),
        "p50_ms": 1e3 * common.median(cell_times),
        "p99_ms": 1e3 * common.p99_or_median(cell_times),
        "peak_rss_mb": common.self_peak_rss_mb(),
        "auc": report["summary"]["booster_auc"],
        "ap": report["summary"]["booster_ap"],
    }
    return report
