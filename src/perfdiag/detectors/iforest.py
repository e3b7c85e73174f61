"""Isolation forest: random axis-aligned splits isolate anomalies quickly.

Score for a point is 2^(-E[h]/c(psi)) where E[h] averages its path length
over the trees and c(m) is the expected path length of an unsuccessful
binary-search-tree lookup among m points. Scores lie in (0, 1]; higher
means easier to isolate, hence more anomalous.

Each tree grows depth-first, and every row of X is routed down it in the
same recursion, so the trees draw from the RNG in one fixed order: per
tree the subsample, then per split, left subtree first, a feature and a
threshold. Any other order changes the scores.
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
    known where it lands and no tree outlives the pass that grew it. A node
    costs a handful of numpy calls: two ufunc reductions for the column
    ranges, one gather from the chosen column, a ``compress`` per side, and
    c from a table.
    """
    d = X.shape[0]
    psi = min(subsample, d)
    height_limit = max(1, math.ceil(math.log2(psi))) if psi > 1 else 1
    columns = X.T  # a view: columns[f][rows] indexes one axis, not two
    path_length = [avg_path_length(m) for m in range(psi + 1)]
    total = np.zeros(d, dtype=np.float64)
    tree = np.empty(d, dtype=np.float64)  # each row's path length in the current tree

    def grow(sub: np.ndarray, rows: np.ndarray, depth: int) -> None:
        """Split the subsample rows ``sub``; ``rows`` index the rows of X here."""
        m = sub.shape[0]
        if depth < height_limit and m > 1:
            lo = np.minimum.reduce(sub)
            hi = np.maximum.reduce(sub)
            usable = (hi > lo).nonzero()[0]
            if usable.size:
                f = int(usable[rng.integers(usable.size)])
                s = float(rng.uniform(lo[f], hi[f]))
                left = sub[:, f] < s
                goes_left = columns[f][rows] < s
                grow(sub.compress(left, axis=0), rows.compress(goes_left), depth + 1)
                grow(sub.compress(~left, axis=0), rows.compress(~goes_left), depth + 1)
                return
        tree[rows] = depth + path_length[m]

    for _ in range(n_trees):
        grow(X[rng.choice(d, size=psi, replace=False)], np.arange(d), 0)
        total += tree
    mean_depth = total / n_trees
    return np.power(2.0, -mean_depth / avg_path_length(psi))
