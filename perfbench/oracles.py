"""Computations made apart from the program, used to check its outputs.

Each oracle is written from the definition, not from the program's code:

* :func:`rank_auc` / :func:`rank_ap` — AUCROC by counting (anomaly,
  inlier) pairs with ties worth one half, and AP with the pessimistic tie
  order (inliers first inside a tied block) the paper's evaluation uses;
* :func:`kth_neighbor_distance` — brute-force distance from a row to its
  k-th nearest *other* row;
* :func:`algorithm1_failures` — Algorithm 1's update
  ``y(t+1) = minmax(y(t) + v(t))`` recomputed from a booster's history,
  plus the bounds the method guarantees;
* :func:`same_scores` — scores served over HTTP against scores computed
  in-process, exactly.

``python3 perfbench/selftest.py`` shows each oracle rejecting a
deliberately wrong input.
"""

from __future__ import annotations

import numpy as np

#: Largest variance values in [0, 1] can have (half at 0, half at 1).
MAX_VARIANCE = 0.25
#: Metric agreement tolerance: the program and the oracles sum in
#: different orders, so equal values may differ in the last bits.
METRIC_TOL = 1e-12


def _split(y, scores):
    y = np.asarray(y).ravel().astype(bool)
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValueError(f"{y.shape[0]} labels for {s.shape[0]} scores")
    if y.all() or not y.any():
        raise ValueError("labels must contain both classes")
    return y, s


def rank_auc(y, scores) -> float:
    """AUCROC: the share of (anomaly, inlier) pairs ranked correctly."""
    y, s = _split(y, scores)
    neg = np.sort(s[~y])
    pos = s[y]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size))


def rank_ap(y, scores) -> float:
    """Average precision, inliers ranked first within tied scores."""
    y, s = _split(y, scores)
    levels, block = np.unique(-s, return_inverse=True)  # best score first
    pos = np.bincount(block, weights=y, minlength=levels.size)
    size = np.bincount(block, minlength=levels.size)
    pos_above = np.cumsum(pos) - pos
    size_above = np.cumsum(size) - size
    terms = []
    for b in np.flatnonzero(pos):
        # The block's inliers come first, then its anomalies one by one.
        i = np.arange(1, int(pos[b]) + 1)
        hits = pos_above[b] + i
        ranks = size_above[b] + (size[b] - pos[b]) + i
        terms.append(hits / ranks)
    return float(np.concatenate(terms).sum() / y.sum())


def metrics_agree(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= METRIC_TOL


def kth_neighbor_distance(X, rows, k: int) -> np.ndarray:
    """Distance from each of ``rows`` to its ``k``-th nearest other row."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(rows))
    for j, i in enumerate(rows):
        dist = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        dist[i] = np.inf  # the row itself is not its own neighbour
        out[j] = np.partition(dist, k - 1)[k - 1]
    return out


def minmax(values) -> np.ndarray:
    """Rescale into [0, 1]; a constant vector maps to zeros."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = v.min(), v.max()
    return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)


def algorithm1_failures(history, n_iterations: int) -> list:
    """Where a booster history breaks Algorithm 1 (empty when it holds).

    Checks every recorded step: ``y(t+1) = minmax(y(t) + v(t))``
    recomputed here, ``0 <= v(t) <= 1/4``, and each ``y`` in [0, 1] with
    minimum 0.
    """
    labels, variances = history.pseudo_labels, history.variances
    failures = []
    if len(labels) != n_iterations + 1 or len(variances) != n_iterations \
            or len(history.booster_scores) != n_iterations:
        return [f"history has {len(labels)} label vectors and "
                f"{len(variances)} variances for T={n_iterations}"]
    for t, y in enumerate(labels):
        y = np.asarray(y, dtype=np.float64)
        if not (np.all(np.isfinite(y)) and y.min() == 0.0
                and y.max() <= 1.0):
            failures.append(f"y({t}) is not in [0, 1] with minimum 0")
    for t, v in enumerate(variances):
        v = np.asarray(v, dtype=np.float64)
        if not (np.all(v >= 0.0) and np.all(v <= MAX_VARIANCE)):
            failures.append(f"v({t}) leaves [0, 1/4]")
        expected = minmax(np.asarray(labels[t], dtype=np.float64) + v)
        if not np.allclose(labels[t + 1], expected, rtol=0.0,
                           atol=METRIC_TOL):
            failures.append(f"y({t + 1}) != minmax(y({t}) + v({t}))")
    return failures


def same_scores(served, expected) -> bool:
    """Served scores equal the in-process scores exactly."""
    return np.array_equal(np.asarray(served, dtype=np.float64),
                          np.asarray(expected, dtype=np.float64))
