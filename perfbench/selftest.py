"""Self-tests of the benchmark's oracles: each accepts a correct input and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` and lives outside the tier-1 test
paths, so the repository's test command does not collect it.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, oracles  # noqa: E402


def _pairs_auc(y, s):
    """AUCROC straight from its definition, over every pair."""
    pos, neg = s[y == 1], s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_rank_metrics_reject_a_flipped_label():
    # Hand-worked case: AUC = 3.5 / 4; AP = (1/1 + 2/3) / 2 with the tied
    # inlier ranked before the tied anomaly.
    y = np.array([1, 0, 1, 0])
    s = np.array([0.9, 0.8, 0.8, 0.1])
    assert oracles.rank_auc(y, s) == 0.875
    assert abs(oracles.rank_ap(y, s) - (1 + 2 / 3) / 2) < 1e-15

    from repro.metrics.ranking import auc_roc, average_precision

    rng = np.random.default_rng(0)
    y = (rng.random(500) < 0.2).astype(int)
    s = np.round(rng.random(500) + 0.3 * y, 2)  # rounding makes ties
    auc, ap = auc_roc(y, s), average_precision(y, s)
    assert oracles.metrics_agree(oracles.rank_auc(y, s), auc)
    assert oracles.metrics_agree(oracles.rank_auc(y, s), _pairs_auc(y, s))
    assert oracles.metrics_agree(oracles.rank_ap(y, s), ap)
    flipped = y.copy()
    flipped[np.argmax(s)] ^= 1
    assert not oracles.metrics_agree(oracles.rank_auc(flipped, s), auc)
    assert not oracles.metrics_agree(oracles.rank_ap(flipped, s), ap)


def test_knn_oracle_rejects_an_off_by_one_neighbour():
    from repro.detectors.knn import KNN

    X = np.random.default_rng(1).normal(size=(300, 6))
    rows = np.arange(0, 300, 7)
    expected = oracles.kth_neighbor_distance(X, rows, 5)
    fifth = KNN(n_neighbors=5).fit(X).decision_scores_
    assert np.allclose(fifth[rows], expected, rtol=1e-9, atol=1e-12)
    for k in (4, 6):
        wrong = KNN(n_neighbors=k).fit(X).decision_scores_
        assert not np.allclose(wrong[rows], expected, rtol=1e-9,
                               atol=1e-12)


def test_algorithm1_oracle_rejects_a_perturbed_pseudo_label():
    from repro.core.booster import UADBooster

    X = np.random.default_rng(2).normal(size=(60, 4))
    source = np.abs(X).sum(axis=1)
    booster = UADBooster(n_iterations=3, hidden=8, random_state=0)
    history = booster.fit(X, source).history_
    assert oracles.algorithm1_failures(history, 3) == []
    history.pseudo_labels[2] = history.pseudo_labels[2].copy()
    history.pseudo_labels[2][5] += 1e-6
    assert oracles.algorithm1_failures(history, 3)


def test_score_comparison_rejects_one_changed_score():
    expected = np.random.default_rng(3).random(16)
    served = [float(x) for x in expected]  # what the JSON reply carries
    assert oracles.same_scores(served, expected)
    served[7] = float(np.nextafter(served[7], 2.0))
    assert not oracles.same_scores(served, expected)


def test_benchmark_json_matches_the_catalogue():
    from repro.detectors.registry import ALL_DETECTOR_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    assert layers.DETECTORS == ALL_DETECTOR_NAMES


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name} {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
