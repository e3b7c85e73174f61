"""Distance-based detectors: k-th-neighbor distance (KNN) and LOF.

Each runs its own pass of ``_neighbors`` at its own k. It screens pairs
with the Gram identity ||c_i - c_j||^2 = s_i + s_j - 2 c_i.c_j on
column-centred rows, then re-ranks only the candidates with the exact
(x - y)^2 expansion on the original rows. The screen keeps every pair
within a float64 rounding bound of each row's k-th smallest Gram value
(derived in ``_neighbors``), so it can add candidates but never lose a
neighbour: every returned distance is the exact expansion, scores match a
brute-force oracle, and they do not depend on how BLAS orders its sums.

Memory is bounded by a fixed byte budget: the Gram matrix is built one
block of rows at a time, each block at most ``_BLOCK_BYTES``, and the exact
re-rank runs over candidate pairs in slices of the same size. A pass holds
at most two blocks at once, a Gram block and its partitioned copy. Only the
tie-inclusive neighbour lists grow with the input.
"""

from __future__ import annotations

import numpy as np

from ..errors import TooFewSamples

_BLOCK_BYTES = 8 << 20


def _pair_distances(X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact ||X[rows] - X[cols]||, in budget-sized slices of pairs."""
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (8 * X.shape[1]))
    for lo in range(0, rows.size, step):
        diff = X[rows[lo:lo + step]]
        diff -= X[cols[lo:lo + step]]
        out[lo:lo + step] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def _neighbors(X: np.ndarray, k: int):
    """Exact k-distance and tie-inclusive neighbourhoods of every row.

    Returns (kdist, indptr, indices, dist). Row p's neighbourhood is
    indices[indptr[p]:indptr[p + 1]]: every other row within kdist[p] of p,
    in ascending index order, with its distance from p in dist.
    """
    d, f = X.shape
    C = X - X.mean(axis=0)
    s = np.einsum("ij,ij->i", C, C)
    # Screen margin. Let eps = 2u (u the unit roundoff), S_i = s_i + max(s)
    # and T_ij = ||x_i - x_j||^2 the true squared distance, T_ij <= 2 S_i.
    #   centring: fl(x - mean) moves ||c_i - c_j||^2 by <= 2 eps S_i;
    #   Gram: s_i, s_j and c_i.c_j err by <= gamma_f ~ f u of S_i, and the
    #     sum adds three roundings: |G_ij - T_ij| <= E_G = (f + 5) eps S_i;
    #   exact re-rank: fl(sum fl(x - y)^2) lies within gamma_(f+2) T_ij of
    #     T_ij: E_D = (f + 2) eps S_i;
    #   sqrt can merge squared distances up to 2 eps T_ij <= 4 eps S_i apart.
    # At least k rows have G_ij <= g_k (the k-th smallest), so the exact k-th
    # squared distance is <= g_k + E_G + E_D, and every row that ties or
    # beats it after sqrt has G_ij <= g_k + 2 E_G + 2 E_D + 4 eps S_i =
    # g_k + (4f + 18) eps S_i. The margin, 16 (f + 4) eps S_i, covers that
    # more than three times over, whatever order BLAS sums in.
    margin = 16.0 * (f + 4) * np.finfo(np.float64).eps * (s + s.max())
    block = max(1, _BLOCK_BYTES // (8 * d))
    kdist = np.empty(d, dtype=np.float64)
    sizes = np.empty(d, dtype=np.int64)
    indices: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for start in range(0, d, block):
        stop = min(start + block, d)
        local = np.arange(stop - start)
        G = C[start:stop] @ C.T
        G *= -2.0
        G += s[start:stop, None]
        G += s[None, :]
        G[local, local + start] = np.inf  # exclude self
        g_k = np.partition(G, k - 1, axis=1)[:, k - 1].copy()  # frees the partitioned block
        # row-major: rows ascending, columns ascending within each row
        hits = np.flatnonzero(G <= (g_k + margin[start:stop])[:, None])
        rows, cols = np.divmod(hits, d)
        del G
        dist = _pair_distances(X, rows + start, cols)
        counts = np.bincount(rows, minlength=local.size)
        ranked = dist[np.lexsort((dist, rows))]
        kdist[start:stop] = ranked[np.cumsum(counts) - counts + k - 1]
        keep = dist <= kdist[rows + start]
        sizes[start:stop] = np.bincount(rows[keep], minlength=local.size)
        indices.append(cols[keep])
        dists.append(dist[keep])
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return kdist, indptr, np.concatenate(indices), np.concatenate(dists)


def knn_scores(X: np.ndarray, k: int) -> np.ndarray:
    """Euclidean distance to the k-th nearest neighbor, self excluded."""
    d = X.shape[0]
    if d < k + 1:
        raise TooFewSamples(f"knn with k={k} needs at least {k + 1} points, got {d}")
    return _neighbors(X, k)[0]


def lof_scores(X: np.ndarray, k: int) -> np.ndarray:
    """Local outlier factor with ties-inclusive k-neighborhoods.

    kdist(p) is the k-th smallest distance from p to other points; the
    neighborhood N(p) holds every point within kdist(p), so distance ties
    enlarge it. reach(p, o) = max(kdist(o), d(p, o)); the local reachability
    density lrd(p) is the reciprocal mean reach over N(p) (infinite when the
    mean is zero); LOF(p) = mean of neighbor lrd over lrd(p), with the
    all-duplicates case inf/inf taken as 1. A point next to a pile of more
    than k duplicates would score inf/finite; it takes the largest finite
    LOF of the series instead.
    """
    d = X.shape[0]
    if d < k + 1:
        raise TooFewSamples(f"lof with k={k} needs at least {k + 1} points, got {d}")
    kdist, indptr, nbrs, dist = _neighbors(X, k)
    reach = np.maximum(kdist[nbrs], dist)

    lrd = np.empty(d, dtype=np.float64)
    for p in range(d):
        mean_reach = reach[indptr[p]:indptr[p + 1]].mean()
        lrd[p] = np.inf if mean_reach == 0.0 else 1.0 / mean_reach

    out = np.empty(d, dtype=np.float64)
    for p in range(d):
        if np.isinf(lrd[p]):
            # zero mean reach forces every neighbor into the same duplicate
            # pile, so their lrd is infinite as well: inf/inf := 1
            out[p] = 1.0
        else:
            out[p] = lrd[nbrs[indptr[p]:indptr[p + 1]]].mean() / lrd[p]
    pile_edge = np.isinf(out)
    if pile_edge.any():
        out[pile_edge] = out[~pile_edge].max()
    return out
