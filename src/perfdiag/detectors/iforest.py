"""Isolation forest: random axis-aligned splits isolate anomalies quickly.

Score for a point is 2^(-E[h]/c(psi)) where E[h] averages its path length
over the trees and c(m) is the expected path length of an unsuccessful
binary-search-tree lookup among m points. Scores lie in (0, 1]; higher
means easier to isolate, hence more anomalous.
"""

from __future__ import annotations

import math

import numpy as np


def avg_path_length(m: int) -> float:
    """c(m): expected depth of an unsuccessful BST search among m points."""
    if m <= 1:
        return 0.0
    if m == 2:
        return 1.0
    h = math.log(m - 1) + np.euler_gamma
    return 2.0 * h - 2.0 * (m - 1) / m


def iforest_scores(
    X: np.ndarray,
    rng: np.random.Generator,
    n_trees: int = 100,
    subsample: int = 256,
) -> np.ndarray:
    """Fit n_trees trees on subsamples of X and score every row of X.

    Each tree is grown depth-first on its subsample while every row of X is
    routed down beside it, so a row's path length, depth + c(leaf size), is
    added where it lands and no tree outlives the pass that grew it.
    """
    d = X.shape[0]
    psi = min(subsample, d)
    height_limit = max(1, math.ceil(math.log2(psi))) if psi > 1 else 1
    total = np.zeros(d, dtype=np.float64)

    def grow(sub: np.ndarray, rows: np.ndarray, depth: int) -> None:
        """Split the subsample rows ``sub``; ``rows`` index the rows of X here."""
        if depth < height_limit and sub.shape[0] > 1:
            lo = sub.min(axis=0)
            hi = sub.max(axis=0)
            usable = np.flatnonzero(hi > lo)
            if usable.size:
                f = int(usable[rng.integers(usable.size)])
                s = float(rng.uniform(lo[f], hi[f]))
                left = sub[:, f] < s
                goes_left = X[rows, f] < s
                grow(sub[left], rows[goes_left], depth + 1)
                grow(sub[~left], rows[~goes_left], depth + 1)
                return
        total[rows] += depth + avg_path_length(sub.shape[0])

    for _ in range(n_trees):
        grow(X[rng.choice(d, size=psi, replace=False)], np.arange(d), 0)
    mean_depth = total / n_trees
    return np.power(2.0, -mean_depth / avg_path_length(psi))
