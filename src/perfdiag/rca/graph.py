"""Causal structure discovery: partial-correlation CI test and PC algorithm.

pc_build starts from a complete skeleton, removes edges level by level via
conditional-independence tests, orients v-structures from the recorded
separating sets, then propagates orientations with the Meek rules. Edges
whose direction stays unresolved remain undirected. Both phases number the
nodes by their rank in name order, so every iteration runs in name order
and the output is deterministic. The skeleton is a boolean adjacency matrix
with separating sets as tuples of ranks, and orientation keeps the
undirected edges and the arrows as two boolean matrices.

The skeleton is PC-stable (Colombo & Maathuis, JMLR 2014): each level
draws its conditioning sets from the adjacency at the level's start, so
which edges fall does not depend on the names or the column order. At
each level, level 0 included, every open edge decides its next block of
sets in the same batched calls, round after round, and every edge found
independent in a batch falls in one array step. A test takes
rho(i, j | S) from the 2 x 2 Schur complement left after eliminating S. A
near-singular set, one with a pivot or final determinant at most
_PIVOT_MIN, counts as dependent: what it leaves of i or j is rounding
noise, no evidence of independence. The graph and the separating sets
are those of testing one set at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from math import comb
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ..core import load_json, standardize
from ..errors import InvalidConfig, ParseError, SingularSubmatrixWarning

# a batch of tests stacks at most this many bytes of correlation
# submatrices; `_level` alone bounds a batch
_BLOCK_BYTES = 1 << 19
# conditioning sets each pair decides in the first round of a PC level
_FIRST_BLOCK = 256
# a pivot or final 2 x 2 determinant at or below this flags a set as near
# singular
_PIVOT_MIN = 1e-10
# subset position tables by (candidate count, level), kept while small
_TABLE_CACHE_BYTES = 1 << 16
_SUBSET_TABLES: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True, eq=False)
class CausalGraph:
    """Partially directed graph: metric nodes plus the anomaly indicator."""

    nodes: tuple[str, ...]
    directed: tuple[tuple[str, str], ...]
    undirected: tuple[tuple[str, str], ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise InvalidConfig("duplicate node names")
        directed = tuple(sorted((str(u), str(v)) for u, v in self.directed))
        undirected = tuple(sorted(tuple(sorted((str(a), str(b)))) for a, b in self.undirected))
        for u, v in directed + undirected:
            if u == v:
                raise InvalidConfig(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise InvalidConfig(f"edge ({u}, {v}) references unknown node")
        pairs_d = {tuple(sorted(e)) for e in directed}
        if pairs_d & set(undirected):
            raise InvalidConfig("edge appears both directed and undirected")
        if len(pairs_d) != len(directed):
            raise InvalidConfig("edge directed both ways")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)
        preds: dict[str, set[str]] = {n: set() for n in nodes}
        for u, v in directed:
            preds[v].add(u)
        try:
            TopologicalSorter(preds).prepare()
        except CycleError:
            raise InvalidConfig("directed part contains a cycle") from None
        for a, b in undirected:
            preds[a].add(b)
            preds[b].add(a)
        object.__setattr__(
            self, "_preds", {n: tuple(sorted(p)) for n, p in preds.items()}
        )

    def predecessors(self, node: str) -> tuple[str, ...]:
        """Directed parents plus undirected neighbors, sorted."""
        return self._preds.get(node, ())

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "directed": [list(e) for e in self.directed],
            "undirected": [list(e) for e in self.undirected],
        }

    @classmethod
    def from_dict(cls, d: dict, source: str = "graph") -> "CausalGraph":
        """The graph of a `to_dict` document. A missing key, a key that is
        not a list of names or of name pairs, or a graph the constructor
        rejects raises a ParseError naming ``source``."""
        def pair(e):
            return isinstance(e, list) and len(e) == 2 and all(isinstance(s, str) for s in e)

        for key, ok, what in (
            ("nodes", lambda n: isinstance(n, str), "names"),
            ("directed", pair, "[from, to] pairs of names"),
            ("undirected", pair, "[a, b] pairs of names"),
        ):
            if key not in d:
                raise ParseError(f"{source}: missing key {key!r}")
            if not isinstance(d[key], list) or not all(map(ok, d[key])):
                raise ParseError(f"{source}: {key!r} must be a list of {what}")
        try:
            return cls(
                nodes=tuple(d["nodes"]),
                directed=tuple(map(tuple, d["directed"])),
                undirected=tuple(map(tuple, d["undirected"])),
            )
        except InvalidConfig as exc:
            raise ParseError(f"{source}: {exc}") from None

    @classmethod
    def load(cls, path) -> "CausalGraph":
        return cls.from_dict(load_json(path), source=str(path))

    def edge_list_text(self) -> str:
        lines = [f"{u} -> {v}" for u, v in self.directed]
        lines += [f"{a} -- {b}" for a, b in self.undirected]
        return "\n".join(lines) + ("\n" if lines else "")


def _correlation_matrix(data: np.ndarray) -> np.ndarray:
    z = standardize(data)[0]
    corr = (z.T @ z) / data.shape[0]
    np.fill_diagonal(corr, 1.0)
    return corr


def partial_correlation(corr: np.ndarray, i: int, j: int, S: Sequence[int]) -> float:
    """rho(i, j | S) from the inverse of the correlation submatrix: the
    scalar form of the skeleton's test, kept as `_schur_rho`'s reference."""
    idx = [i, j, *S]
    sub = corr[np.ix_(idx, idx)]
    try:
        prec = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        warnings.warn(
            f"singular correlation submatrix for ({i}, {j} | {list(S)}); "
            "regularizing with 1e-8 ridge",
            SingularSubmatrixWarning,
        )
        prec = np.linalg.inv(sub + 1e-8 * np.eye(sub.shape[0]))
    denom = prec[0, 0] * prec[1, 1]
    if denom <= 0.0:
        return 0.0
    # a near-singular matrix yields inf or NaN entries
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return float(np.clip(-prec[0, 1] / np.sqrt(denom), -1.0, 1.0))


def _independent(rho: np.ndarray, dof: int, q: float) -> np.ndarray:
    """Fisher z decision per entry: sqrt(dof) * |atanh(rho)| <= q.

    |rho| = 1 and NaN count as dependent. ``q`` is ``_z_quantile(alpha)``
    and ``dof`` is d - |S| - 3.
    """
    inside = np.abs(rho) < 1.0
    r = np.where(inside, rho, 0.0)
    z = 0.5 * np.log((1.0 + r) / (1.0 - r))
    return inside & (np.sqrt(dof) * np.abs(z) <= q)


def _schur_rho(corr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho(i, j | S) and a near-singular flag for each test idx[:, k] = (*S, i, j).

    Eliminates S from the stacked submatrices one pivot at a time, across
    the whole stack and on the upper triangle only, as the matrices are
    symmetric; rho is the correlation of the 2 x 2 Schur complement that
    is left. A set is flagged when a pivot or that complement's
    determinant is at most _PIVOT_MIN (the diagonal is 1); its rho is then
    not to be used.
    """
    m = idx.shape[0]
    # (m, m, K): the set axis last, so each step runs on contiguous rows
    A = corr[idx[:, None, :], idx[None, :, :]]
    flagged = np.zeros(idx.shape[1], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(m - 2):
            pivot = A[k, k]
            flagged |= ~(pivot > _PIVOT_MIN)
            f = A[k, k + 1:] / pivot
            for r in range(k + 1, m):
                A[r, r:] -= f[r - k - 1] * A[k, r:]
        m00, m11, m01 = A[-2, -2], A[-1, -1], A[-2, -1]
        flagged |= ~(m00 * m11 - m01 * m01 > _PIVOT_MIN)
        return m01 / np.sqrt(m00 * m11), flagged


def _decide(corr: np.ndarray, idx: np.ndarray, dof: int, q: float) -> np.ndarray:
    """Whether each test idx[:, k] = (*S, i, j) finds i and j independent given
    S; a near-singular set never does."""
    rho, flagged = _schur_rho(corr, idx)
    return _independent(rho, dof, q) & ~flagged


def _subsets(n: int, level: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the size-``level`` subsets of range(n), in
    combination order, built a first element at a time. A whole table is
    kept for reuse while it is at most _TABLE_CACHE_BYTES."""
    total = comb(n, level)
    stop = min(stop, total)
    table = _SUBSET_TABLES.get((n, level))
    if table is not None:
        return table[start:stop]
    rows = np.zeros((max(stop - start, 0), level), dtype=np.int32)
    if level:
        offset = 0
        for first in range(n - level + 1):
            count = comb(n - first - 1, level - 1)
            lo, hi = max(start - offset, 0), min(stop - offset, count)
            if lo < hi:
                piece = rows[offset + lo - start:offset + hi - start]
                piece[:, 0] = first
                piece[:, 1:] = _subsets(n - first - 1, level - 1, lo, hi) + (first + 1)
            offset += count
            if offset >= stop:
                break
    if start == 0 and stop == total and rows.nbytes <= _TABLE_CACHE_BYTES:
        rows.flags.writeable = False  # every later caller shares it
        _SUBSET_TABLES[n, level] = rows
    return rows


def _tests(S: np.ndarray, i, j) -> np.ndarray:
    """The tests (*S, i, j) for the sets S[..., :] of the pairs (i, j), one
    per column: the set axis last, as `_schur_rho` gathers them."""
    idx = np.empty((S.shape[-1] + 2,) + S.shape[:-1], dtype=np.intp)
    idx[:-2] = np.moveaxis(S, -1, 0)
    idx[-2] = i
    idx[-1] = j
    return idx.reshape(len(idx), -1)


def _z_quantile(alpha: float) -> float:
    """Two-sided standard normal quantile: Phi^-1(1 - alpha / 2)."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _skeleton(
    corr: np.ndarray, d: int, names: tuple[str, ...], alpha: float
) -> tuple[np.ndarray, dict[tuple[int, int], tuple[int, ...]]]:
    """PC skeleton over the nodes in name-rank order: the boolean adjacency
    matrix, and the separating set of each removed edge (a, b), a < b, as a
    tuple of ranks.

    At level l, edge (a, b) falls at the first size-l subset of a's
    neighbours at the level's start, b excluded, in combination order of
    the ranks, found independent; if there is none, at the first such
    subset of b's. A near-singular set is never found independent. `_level`
    runs each level on ``corr`` with rows and columns in rank order; level
    0 has one set, ().
    """
    q = _z_quantile(alpha)
    order = sorted(range(len(names)), key=names.__getitem__)  # input column by rank
    corr = corr[np.ix_(order, order)]
    adj = ~np.eye(len(order), dtype=bool)
    sepset: dict[tuple[int, int], tuple[int, ...]] = {}
    level = 0
    while (adj.sum(axis=1) > level).any() and d - level - 3 > 0:
        _level(corr, adj, sepset, level, d - level - 3, q)
        level += 1
    return adj, sepset


def _level(
    corr: np.ndarray, adj: np.ndarray, sepset: dict, level: int, dof: int, q: float,
) -> None:
    """One PC-stable level over the boolean adjacency ``adj``, with ``corr``
    and ``adj`` both in rank order. The sets come from each node's
    neighbours at the level's start. A first pass tests each edge (a, b),
    a < b, from a; a second tests the edges left from b. A pass runs in
    rounds: each open pair decides its next block of sets in shared batches
    of at most ``rows`` tests, and leaves when its edge falls or its sets run
    out. Blocks double from _FIRST_BLOCK sets to ``rows``. In a batch, every
    pair with an independent set falls at its first, in one array step; a
    near-singular set counts as dependent."""
    rows = max(1, _BLOCK_BYTES // (8 * (level + 2) ** 2))
    nbrs = [np.flatnonzero(row) for row in adj]
    total = [comb(max(len(nb) - 1, 0), level) for nb in nbrs]

    def settle(pending) -> None:
        idx = np.concatenate([_tests(S, a, bs[:, None]) for a, bs, S in pending], axis=1)
        hit = np.flatnonzero(_decide(corr, idx, dof, q))
        if not len(hit):  # every set dependent, as in most deep-level batches
            return
        # each pair's first independent set
        hit = hit[np.unique(idx[-2, hit] * len(adj) + idx[-1, hit], return_index=True)[1]]
        a, b = idx[-2, hit], idx[-1, hit]
        adj[a, b] = adj[b, a] = pairs[a, b] = False
        for a, b, S in zip(a.tolist(), b.tolist(), idx[:-2, hit].T.tolist()):
            sepset[min(a, b), max(a, b)] = tuple(S)

    for side in (np.triu, np.tril):
        pairs, start, size = side(adj), 0, min(_FIRST_BLOCK, rows)
        while (pairs := pairs & np.array([n > start for n in total])[:, None]).any():
            pending, held = [], 0
            for a in np.flatnonzero(pairs.any(axis=1)):
                table = _subsets(len(nbrs[a]) - 1, level, start, start + size)
                # the sets of pair (a, nbrs[a][t]) skip position t of nbrs[a]
                t = np.flatnonzero(pairs[a, nbrs[a]])[:, None, None]
                while len(t):
                    if held + len(table) > rows:
                        settle(pending)
                        pending, held = [], 0
                    room = (rows - held) // len(table)  # pairs that fit in the batch
                    tk, t = t[:room], t[room:]
                    pending.append((a, nbrs[a][tk[:, 0, 0]], nbrs[a][table + (table >= tk)]))
                    held += len(tk) * len(table)
            if pending:
                settle(pending)
            start, size = start + size, min(2 * size, rows)


def _orient(adj: np.ndarray, sepset: dict) -> tuple[np.ndarray, np.ndarray]:
    """Orient the skeleton ``adj``: the undirected edges ``und`` (symmetric,
    a -- b) and the arrows (``arrow[u, v]`` is u -> v), both in rank order.

    V-structures i -> k <- j come first, for nonadjacent i < j whose
    separating set excludes k; an edge oriented both ways reverts to
    undirected and stays so. The Meek rules then run to a fixpoint, each
    pass visiting every (a, b) with a < b, then every (b, a). An arrow that
    would close a directed cycle is never added.
    """
    und, arrow = adj.copy(), np.zeros_like(adj)

    def orient(u: int, v: int) -> bool:
        # spread from v along the arrows: u reached means a path v => u
        seen = frontier = arrow[v]
        while frontier.any() and not seen[u]:
            frontier = arrow[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if seen[u]:
            return False
        und[u, v] = und[v, u] = False
        arrow[u, v] = True
        return True

    conflicted = np.zeros_like(adj)
    # nonadjacent pairs with a common neighbour
    for i, j in np.argwhere(np.triu((adj @ adj) & ~adj, 1)).tolist():
        for k in np.flatnonzero(adj[i] & adj[j]).tolist():
            if k in sepset[i, j]:
                continue
            for parent in (i, j):
                if conflicted[parent, k]:
                    continue
                if arrow[k, parent]:
                    arrow[k, parent] = False
                    und[k, parent] = und[parent, k] = True
                    conflicted[k, parent] = conflicted[parent, k] = True
                elif not arrow[parent, k]:
                    orient(parent, k)

    changed = True
    while changed:
        changed = False
        # und only shrinks, so the pairs undirected at the start of a pass
        # hold every pair that is undirected when it is visited
        i, j = np.nonzero(np.triu(und))
        for a, b in zip(np.concatenate([i, j]).tolist(), np.concatenate([j, i]).tolist()):
            if und[a, b] and _meek_applies(und, arrow, a, b):
                changed |= orient(a, b)
    return und, arrow


def _meek_applies(und: np.ndarray, arrow: np.ndarray, a: int, b: int) -> bool:
    """Whether a Meek rule orients the undirected edge a -- b as a -> b."""
    into_b = arrow[:, b]
    apart_b = ~(und[b] | arrow[b] | into_b)  # not adjacent to b
    # R1: c -> a, c and b nonadjacent
    if (arrow[:, a] & apart_b).any():
        return True
    # R2: a -> c -> b
    if (arrow[a] & into_b).any():
        return True
    # R3: a -- c -> b and a -- e -> b, c and e nonadjacent
    c = np.flatnonzero(und[a] & into_b)
    sub = np.ix_(c, c)
    if not (und[sub] | arrow[sub] | arrow[sub].T | np.eye(len(c), dtype=bool)).all():
        return True
    # R4: a -- c -> e -> b with a -- e, c and b nonadjacent
    return bool(arrow[np.ix_(und[a] & apart_b, und[a] & into_b)].any())


def pc_build(values: np.ndarray, names: Sequence[str], alpha: float = 0.05) -> CausalGraph:
    """Run the PC algorithm on the columns of ``values``: the skeleton by
    `_skeleton`, oriented by `_orient`, with the ranks named again."""
    names = tuple(names)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise InvalidConfig("one name per data column required")
    adj, sepset = _skeleton(_correlation_matrix(values), values.shape[0], names, alpha)
    und, arrow = _orient(adj, sepset)
    ranked = sorted(names)
    return CausalGraph(
        nodes=names,
        directed=tuple((ranked[u], ranked[v]) for u, v in np.argwhere(arrow).tolist()),
        undirected=tuple((ranked[a], ranked[b]) for a, b in np.argwhere(np.triu(und)).tolist()),
    )
