"""Isolation forest: random axis-aligned splits isolate anomalies quickly.

Score for a point is 2^(-E[h]/c(psi)) where E[h] averages its path length
over the trees and c(m) is the expected path length of an unsuccessful
binary-search-tree lookup among m points. Scores lie in (0, 1]; higher
means easier to isolate, hence more anomalous.

Each tree grows depth-first on its subsample alone, so the trees draw from
the RNG in one fixed order: per tree the subsample, then per split, left
subtree first, a feature and a threshold. Any other order changes the
scores. A threshold is drawn as ``lo + (hi - lo) * rng.random()``, which
gives the bits and leaves the generator state of ``rng.uniform(lo, hi)``.

When no column of X holds a value twice (or a NaN), every node of two or
more subsample rows can split on every column, so a node draws its feature
from all of them and reduces only that column. Real continuous metrics
take this path; quantized ones, stalls and constant columns tie, and their
nodes reduce every column to find the ones with a range. The draws are the
same either way.
"""

from __future__ import annotations

import math

import numpy as np

from perfdiag.errors import NumericalFailure


def avg_path_length(m: int) -> float:
    """c(m): expected depth of an unsuccessful BST search among m points."""
    if m <= 1:
        return 0.0
    if m == 2:
        return 1.0
    h = math.log(m - 1) + np.euler_gamma
    return 2.0 * h - 2.0 * (m - 1) / m


def _tie_free(X: np.ndarray) -> bool:
    """True when no column of X holds a value twice or a NaN.

    Sorts one column at a time and stops at the first tie, so it never holds
    more than one column's copy.
    """
    for column in X.T:
        s = np.sort(column)
        if not (s[1:] > s[:-1]).all():  # NaN compares False, so it counts as a tie
            return False
    return True


def iforest_scores(
    X: np.ndarray,
    rng: np.random.Generator,
    n_trees: int = 100,
    subsample: int = 256,
) -> np.ndarray:
    """Fit n_trees trees on subsamples of X and score every row of X.

    A tree records each split's column and threshold in heap order (node i
    has children 2i + 1, left, and 2i + 2) and each leaf's path length,
    depth + c(leaf size), in every bottom-level slot beneath it. Then all
    rows of X go down the tree together, one level per round of whole-array
    calls, and each lands on its leaf's path length.
    """
    X = np.asarray(X, dtype=np.float64)
    d, p = X.shape
    psi = min(subsample, d)
    height_limit = max(1, math.ceil(math.log2(psi))) if psi > 1 else 1
    path_length = [avg_path_length(m) for m in range(psi + 1)]
    bottom = 1 << height_limit
    # one tree in heap order: node i splits on column feat[i] at thr[i]. A
    # leaf writes its path length into every bottom-level slot of ``leaf``
    # beneath it, so a row that passes through the stale split slots under a
    # shallow leaf still lands on that leaf's value
    feat = np.zeros(bottom - 1, dtype=np.intp)
    thr = np.zeros(bottom - 1, dtype=np.float64)
    leaf = np.empty(2 * bottom - 1, dtype=np.float64)
    tie_free = _tie_free(X)
    flat = X.reshape(-1)
    base = np.arange(0, d * p, p, dtype=np.intp)  # row r's column f is flat[r*p + f]
    # routing buffers, reused by every level of every tree
    node = np.empty(d, dtype=np.intp)
    at = np.empty(d, dtype=np.intp)
    x = np.empty(d, dtype=np.float64)
    t = np.empty(d, dtype=np.float64)
    left = np.empty(d, dtype=bool)
    total = np.zeros(d, dtype=np.float64)

    for _ in range(n_trees):
        # depth-first, left subtree first: a stack of the subsample rows that
        # reach each pending heap slot, which together hold the subsample once
        stack = [(X[rng.choice(d, size=psi, replace=False)], 0, 0)]
        while stack:
            sub, i, depth = stack.pop()
            m = sub.shape[0]
            f = -1
            if depth < height_limit and m > 1:
                if tie_free:
                    f = int(rng.integers(p))
                    column = sub[:, f]
                    lo, hi = np.minimum.reduce(column), np.maximum.reduce(column)
                else:
                    lo = np.minimum.reduce(sub)
                    hi = np.maximum.reduce(sub)
                    usable = (hi > lo).nonzero()[0]
                    if usable.size:
                        f = int(usable[rng.integers(usable.size)])
                        column = sub[:, f]
                        lo, hi = lo[f], hi[f]
            if f < 0:
                width = 1 << (height_limit - depth)
                first = (i + 1) * width - 1
                leaf[first:first + width] = depth + path_length[m]
                continue
            lo, hi = float(lo), float(hi)
            if not math.isfinite(hi - lo):
                raise NumericalFailure(
                    f"isolation forest cannot draw a split in [{lo!r}, {hi!r}] of column {f}: "
                    "the range overflows"
                )
            s = lo + (hi - lo) * rng.random()
            feat[i] = f
            thr[i] = s
            goes_left = column < s
            stack.append((sub.compress(~goes_left, axis=0), 2 * i + 2, depth + 1))
            stack.append((sub.compress(goes_left, axis=0), 2 * i + 1, depth + 1))
        node.fill(0)
        for _ in range(height_limit):
            # left = flat[base + feat[node]] < thr[node]; node = 2 node + 2 - left.
            # Every index is in range; mode="clip" only spares take an out buffer
            feat.take(node, out=at, mode="clip")
            at += base
            flat.take(at, out=x, mode="clip")
            thr.take(node, out=t, mode="clip")
            np.less(x, t, out=left)
            node *= 2
            node += 2
            node -= left
        leaf.take(node, out=x, mode="clip")
        total += x
    # 2^(-(total / n_trees) / c(psi)), one operation at a time in place
    total /= n_trees
    np.negative(total, out=total)
    total /= avg_path_length(psi)
    return np.power(2.0, total, out=total)
