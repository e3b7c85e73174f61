"""Distance-based detectors: k-th-neighbor distance (KNN) and LOF.

Both learners read one `neighbor_pass` of X, run at the larger of their
k. A pipeline run makes that pass once, after the isolation forest, and
drops it after LOF; a learner called without one runs its own. The pass
screens pairs with the Gram identity ||c_i - c_j||^2 = s_i + s_j -
2 c_i.c_j on column-centred rows, then re-ranks only the candidates with
the exact (x - y)^2 expansion on the original rows. The screen keeps
every pair within a float64 rounding bound of each row's k-th smallest
Gram value (derived in `neighbor_pass`), so it can add candidates but
never lose a neighbour: every returned distance is the exact expansion,
scores match a brute-force oracle, and they do not depend on how BLAS
orders its sums.

Memory is bounded by a fixed byte budget: the Gram matrix is built one
block of rows at a time, each block at most ``_BLOCK_BYTES`` (1 MiB) unless
that leaves fewer than ``_BLOCK_ROWS_MIN`` rows, into one buffer the pass
allocates once; the screen's mask has a reused buffer of its own. No block
is copied to find each row's k-th Gram value: a partition of every few
columns bounds it from above, and the few pairs under that bound give the
exact value. The exact re-rank runs over candidate pairs in slices of the
budget. Only the tie-inclusive neighbour lists grow with the input.

LOF's means run over groups of rows of equal neighbourhood size, one
block of rows at a time, not row by row, and round exactly as a per-row
``.mean()`` would (see `_row_means`).
"""

from __future__ import annotations

import numpy as np

from ..errors import TooFewSamples

_BLOCK_BYTES = 1 << 20
# a floor on the rows of a Gram block: at 28k rows the byte budget alone
# gives 4-row blocks, and the per-block calls then dominate the pass
_BLOCK_ROWS_MIN = 32


def _pair_distances(X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact ||X[rows] - X[cols]||, in budget-sized slices of pairs."""
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (8 * X.shape[1]))
    for lo in range(0, rows.size, step):
        diff = X[rows[lo:lo + step]]
        diff -= X[cols[lo:lo + step]]
        out[lo:lo + step] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def neighbor_pass(X: np.ndarray, ks):
    """Exact k-distances and tie-inclusive neighbourhoods of every row.

    The pass runs at k, the largest j of ks that X has room for (j < rows).
    Returns (kdists, indptr, indices, dist): kdists[j] holds every row's
    exact j-distance, for each such j. Row p's neighbourhood is
    indices[indptr[p]:indptr[p + 1]]: every other row within kdists[k][p]
    of p, in ascending index order, with its distance from p in dist.
    """
    d, f = X.shape
    ks = [j for j in ks if j < d]
    k = max(ks)
    C = X - X.mean(axis=0)
    s = np.einsum("ij,ij->i", C, C)
    # Screen margin. The screen ranks row i by G_ij = s_j - 2 c_i.c_j: in
    # exact arithmetic G_ij + s_i = ||c_i - c_j||^2, and s_i is constant
    # along the row. Let eps = 2u (u the unit roundoff), S_i = s_i + max(s)
    # and T_ij = ||x_i - x_j||^2 the true squared distance, T_ij <= 2 S_i.
    #   centring: fl(x - mean) moves ||c_i - c_j||^2 by <= 2 eps S_i;
    #   Gram: s_j and 2 c_i.c_j each err by <= gamma_f ~ f u of S_i (the
    #     factor -2 is exact), and the sum, at most 2 S_i, adds one rounding:
    #     |G_ij + s_i - T_ij| <= E_G = (f + 3) eps S_i;
    #   exact re-rank: fl(sum fl(x - y)^2) lies within gamma_(f+2) T_ij of
    #     T_ij: E_D = (f + 2) eps S_i;
    #   sqrt can merge squared distances up to 2 eps T_ij <= 4 eps S_i apart.
    # At least k rows have G_ij <= g_k (the k-th smallest), so the exact k-th
    # squared distance is <= g_k + s_i + E_G + E_D, and every row that ties
    # or beats it after sqrt has G_ij <= g_k + 2 E_G + 2 E_D + 4 eps S_i =
    # g_k + (4f + 14) eps S_i. The margin, 16 (f + 4) eps S_i, covers that
    # four times over, whatever order BLAS sums in.
    margin = 16.0 * (f + 4) * np.finfo(np.float64).eps * (s + s.max())
    block = min(d, max(_BLOCK_ROWS_MIN, _BLOCK_BYTES // (8 * d)))
    # every stride-th column still gives k + 1 or more sampled columns, so a
    # row's sample holds at least k finite values even with its own (inf) in
    # it. A sparser sample lets about stride * k pairs per row through to the
    # candidate stage; a stride of 4 measured faster than 2 or 8.
    stride = max(1, min(4, (d - 1) // (k + 1)))
    gram = np.empty((block, d))
    screen = np.empty((block, d), dtype=bool)
    kdists = {j: np.empty(d, dtype=np.float64) for j in ks}
    sizes = np.empty(d, dtype=np.int64)
    indices: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for start in range(0, d, block):
        stop = min(start + block, d)
        local = np.arange(stop - start)
        G, below = gram[:local.size], screen[:local.size]
        np.matmul(-2.0 * C[start:stop], C.T, out=G)
        G += s
        G[local, local + start] = np.inf  # exclude self
        lim = margin[start:stop]
        # the sample's k-th value bounds the row's k-th value g_k from above,
        # so the pairs within it plus the margin hold every pair within g_k
        # plus the margin: the pairs the screen keeps
        bound = np.partition(G[:, ::stride], k - 1, axis=1)[:, k - 1]
        np.less_equal(G, (bound + lim)[:, None], out=below)
        # row-major: rows ascending, columns ascending within each row
        hits = np.flatnonzero(below)
        vals = np.take(G, hits)
        rows, cols = np.divmod(hits, d)
        counts = np.bincount(rows, minlength=local.size)
        # each row's candidates, in order, at the start of a row of their
        # own, padded with inf
        width = counts.max()
        at = np.arange(hits.size) + (local * width - np.cumsum(counts) + counts)[rows]
        padded = np.full((local.size, width), np.inf)
        np.put(padded, at, vals)
        padded.partition(k - 1, axis=1)
        keep = vals <= (padded[:, k - 1] + lim)[rows]
        rows, cols, at = rows[keep], cols[keep], at[keep]
        dist = _pair_distances(X, rows + start, cols)
        # the candidates hold every row within the k-distance, so their j-th
        # smallest distance is the exact j-distance for every j <= k
        padded.fill(np.inf)
        np.put(padded, at, dist)
        padded.partition([j - 1 for j in kdists], axis=1)
        for j, kdist in kdists.items():
            kdist[start:stop] = padded[:, j - 1]
        keep = dist <= kdists[k][rows + start]
        sizes[start:stop] = np.bincount(rows[keep], minlength=local.size)
        indices.append(cols[keep])
        dists.append(dist[keep])
    del C, gram, screen  # not held while the lists are joined
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return kdists, indptr, np.concatenate(indices), np.concatenate(dists)


def _row_means(indptr: np.ndarray, values_at) -> np.ndarray:
    """Mean of ``values_at(entries)`` over each row's entries indptr[p]:indptr[p + 1].

    Rows of equal size are gathered into (rows x size) blocks of at most
    ``_BLOCK_BYTES``. A C-contiguous block's ``.sum(axis=1)`` runs numpy's
    pairwise summation along each row, as ``.mean()`` does on the row's
    slice, and dividing by the size finishes that mean: each row's mean
    rounds exactly as its slice's ``.mean()``.
    """
    sizes = np.diff(indptr)
    order = np.argsort(sizes, kind="stable")
    out = np.empty(sizes.size, dtype=np.float64)
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        size = int(sizes[group[0]])
        step = max(1, _BLOCK_BYTES // (8 * size))
        for lo in range(0, group.size, step):
            rows = group[lo:lo + step]
            out[rows] = values_at(indptr[rows, None] + np.arange(size)).sum(axis=1) / size
    return out


def knn_scores(X: np.ndarray, k: int, lists=None) -> np.ndarray:
    """Euclidean distance to the k-th nearest neighbor, self excluded.

    ``lists`` is a `neighbor_pass` of X at k among others; without it, the
    learner runs its own pass at k.
    """
    d = X.shape[0]
    if d < k + 1:
        raise TooFewSamples(f"knn with k={k} needs at least {k + 1} points, got {d}")
    if lists is None:
        lists = neighbor_pass(X, (k,))
    return lists[0][k]


def lof_scores(X: np.ndarray, k: int, lists=None) -> np.ndarray:
    """Local outlier factor with ties-inclusive k-neighborhoods.

    kdist(p) is the k-th smallest distance from p to other points; the
    neighborhood N(p) holds every point within kdist(p), so distance ties
    enlarge it. reach(p, o) = max(kdist(o), d(p, o)); the local reachability
    density lrd(p) is the reciprocal mean reach over N(p) (infinite when the
    mean is zero); LOF(p) = mean of neighbor lrd over lrd(p), with the
    all-duplicates case inf/inf taken as 1. A point next to a pile of more
    than k duplicates would score inf/finite; it takes the largest finite
    LOF of the series instead. ``lists`` is as in `knn_scores`.
    """
    d = X.shape[0]
    if d < k + 1:
        raise TooFewSamples(f"lof with k={k} needs at least {k + 1} points, got {d}")
    if lists is None:
        lists = neighbor_pass(X, (k,))
    kdists, indptr, nbrs, dist = lists
    kdist = kdists[k]
    if k < max(kdists):
        # a pass at a larger k: the entries within this k-distance, in the
        # same order, are this k's neighbourhoods bit for bit
        rows = np.repeat(np.arange(d), np.diff(indptr))
        keep = dist <= kdist[rows]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=d))))
        nbrs, dist = nbrs[keep], dist[keep]
    mean_reach = _row_means(indptr, lambda e: np.maximum(kdist[nbrs[e]], dist[e]))
    lrd = np.full(d, np.inf)
    np.divide(1.0, mean_reach, out=lrd, where=mean_reach != 0.0)
    # zero mean reach forces every neighbor into the same duplicate pile, so
    # their lrd is infinite as well: inf/inf := 1
    out = np.ones(d)
    np.divide(_row_means(indptr, lambda e: lrd[nbrs[e]]), lrd, out=out, where=np.isfinite(lrd))
    pile_edge = np.isinf(out)
    if pile_edge.any():
        out[pile_edge] = out[~pile_edge].max()
    return out
