"""``bank``: fit all 20 registry detectors, then score a second draw.

The inputs are two disjoint 6 000-row halves of one 12 000-row draw of
the registry's ``satellite`` stand-in (same generator and structure as
``repro.data.load_dataset("satellite")``, 32 features); ``--seed`` picks
the split.  The detectors are seeded with 0 in every run, so a round does
the same work whatever the seed (FeatureBagging's feature subsets, for
one, are drawn from the detector seed).  A round fits each detector on
the first half and scores the second, from an empty neighbour cache.  No
booster runs, so ``repro.detectors`` and ``repro.kernels`` do all the
work: k-NN graphs (ten of them FeatureBagging's per-subset graphs),
INNE, CBLOF, MCD and KDE's transient 6 000 x 2 000 distance matrix,
above its 64 MiB cache gate.
"""

from __future__ import annotations

import numpy as np

from perfbench import common, oracles
from perfbench.layers import DETECTORS

DATASET = "satellite"
ROWS = 6000          # per half
FEATURES = 32
KNN_CHECK_ROWS = 32  # rows whose k-NN score is recomputed by brute force
WARMUP_ROWS = 300    # set-up pass that settles lazy imports and BLAS
DETECTOR_SEED = 0


def _inputs(seed: int):
    from repro.data import generators, registry
    from repro.data.preprocessing import StandardScaler
    from repro.utils.rng import stable_hash

    pool = generators.generate_standin(
        registry.get_spec(DATASET), n_samples=2 * ROWS,
        n_features=FEATURES, seed=stable_hash(DATASET))
    order = np.random.default_rng(seed).permutation(2 * ROWS)
    fit_rows, score_rows = order[:ROWS], order[ROWS:]
    scaler = StandardScaler().fit(pool.X[fit_rows])
    X_fit = scaler.transform(pool.X[fit_rows])
    X_score = scaler.transform(pool.X[score_rows])
    return X_fit, X_score, pool.y[score_rows]


def _warm_up(X_fit, X_score) -> None:
    """Fit and score every detector once on a small slice (set-up)."""
    from repro import kernels
    from repro.detectors import registry

    for name in DETECTORS:
        det = registry.make_detector(name, random_state=DETECTOR_SEED)
        det.fit(X_fit[:WARMUP_ROWS]).score_samples(X_score[:WARMUP_ROWS])
    kernels.clear_cache()


def run(args, clock, trace):
    """Run the workload; returns the report dict run.py prints."""
    from repro import kernels
    from repro.detectors import registry
    from repro.metrics import ranking

    checks = common.Checks()

    X_fit, X_score, y_score = trace.setup(_inputs, args.seed)
    _warm_up(X_fit, X_score)
    clock.stop()

    failures: list = []
    kept: dict = {}
    knn_params: dict = {}

    def one_round(index):
        kernels.clear_cache()
        for name in DETECTORS:
            try:
                det = registry.make_detector(name,
                                             random_state=DETECTOR_SEED)
                det.fit(X_fit)
                scores = det.score_samples(X_score)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            if index == 0:
                kept[name] = (det.decision_scores_, scores)
                if name == "KNN":
                    knn_params.update(det.get_params())

    if trace.enabled:
        durations = [trace.untraced(lambda: one_round(0))]
        durations.append(trace.traced(lambda: one_round(1)))
        cache = kernels.cache_stats()
    else:
        durations = common.run_rounds(args.seconds, one_round)

    aucs, aps = [], []
    for name, (train, scores) in kept.items():
        checks.require(train.shape == (ROWS,) and np.all(np.isfinite(train)),
                       f"{name}: training scores not {ROWS} finite values")
        checks.require(scores.shape == (len(X_score),)
                       and np.all(np.isfinite(scores)),
                       f"{name}: second-draw scores not finite")
        mine = oracles.rank_auc(y_score, scores)
        checks.require(oracles.metrics_agree(
            mine, ranking.auc_roc(y_score, scores)),
            f"{name}: repro.metrics.auc_roc disagrees with the oracle")
        aucs.append(mine)
        aps.append(oracles.rank_ap(y_score, scores))
    if checks.require("KNN" in kept, "KNN did not run"):
        train = kept["KNN"][0]
        checks.require(knn_params.get("n_neighbors") == 5
                       and knn_params.get("method") == "largest",
                       "KNN is no longer the 5th-neighbour distance")
        rows = np.random.default_rng(args.seed).choice(
            ROWS, KNN_CHECK_ROWS, replace=False)
        expected = oracles.kth_neighbor_distance(X_fit, rows, 5)
        checks.require(np.allclose(train[rows], expected, rtol=1e-9,
                                   atol=1e-12),
                       "KNN training scores != brute-force 5th-neighbour "
                       "distance")
    kept.clear()

    attempted = len(DETECTORS) * len(durations)
    report = {
        "checks": checks, "attempted": attempted,
        "failed": len(failures), "failures": failures,
        "summary": {"rounds": len(durations),
                    "bank_s": common.median(durations),
                    "source_auc": float(np.mean(aucs))},
    }
    if trace.enabled:
        report["per_layer"] = trace.per_layer(cache=cache,
                                              overhead=durations)
        return report
    report["metrics"] = {
        "setup_s": clock.seconds,
        "round_s": common.median(durations),
        # A user of the bank waits for the whole pass; single detectors
        # differ by three orders of magnitude (the per-layer metrics
        # carry them), so their median would only name a middle detector.
        "p50_ms": 1e3 * common.median(durations),
        "p99_ms": 1e3 * common.p99_or_median(durations),
        "peak_rss_mb": common.self_peak_rss_mb(),
        "auc": float(np.mean(aucs)),
        "ap": float(np.mean(aps)),
    }
    return report
