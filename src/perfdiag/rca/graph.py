"""Causal structure discovery: partial-correlation CI test and PC algorithm.

pc_build starts from a complete skeleton, removes edges level by level via
conditional-independence tests, orients v-structures from the recorded
separating sets, then propagates orientations with the Meek rules. Edges
whose direction stays unresolved remain undirected. Every iteration runs
in sorted node-name order so the output is deterministic.

The skeleton decides all level-0 tests in one batch. At each deeper level
it decides the first conditioning sets of every edge up front, in a few
batched calls, then walks the edges in order; an edge that this prefix does
not settle goes on in doubling blocks. A test takes rho(i, j | S) from the
2 x 2 Schur complement left after eliminating S, and a near-singular set is
decided alone by partial_correlation. The first independent set in
combination order still decides the edge, so the graph and the separating
sets are those of testing one set at a time.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

from ..core import standardize
from ..errors import InvalidConfig, SingularSubmatrixWarning

# a decided block stacks at most this many bytes of correlation submatrices
_BLOCK_BYTES = 1 << 19
# conditioning sets of every pair decided at the start of a PC level. Most
# edges that survive a level test all of their sets, so the prefix wastes at
# most this many tests, on an edge that falls at an early set
_PREFIX = 256
# a pivot or final 2 x 2 determinant at or below this flags a set as near
# singular
_PIVOT_MIN = 1e-10
_DEPENDENT, _INDEPENDENT, _FLAGGED = 0, 1, 2
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
        if self._has_directed_cycle():
            raise InvalidConfig("directed part contains a cycle")
        preds: dict[str, set[str]] = {n: set() for n in nodes}
        for u, v in directed:
            preds[v].add(u)
        for a, b in undirected:
            preds[a].add(b)
            preds[b].add(a)
        object.__setattr__(
            self, "_preds", {n: tuple(sorted(p)) for n, p in preds.items()}
        )

    def _has_directed_cycle(self) -> bool:
        in_deg = {n: 0 for n in self.nodes}
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.directed:
            in_deg[v] += 1
            children[u].append(v)
        queue = sorted(n for n, deg in in_deg.items() if deg == 0)
        seen = 0
        while queue:
            n = queue.pop()
            seen += 1
            for c in children[n]:
                in_deg[c] -= 1
                if in_deg[c] == 0:
                    queue.append(c)
        return seen != len(self.nodes)

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
    def from_dict(cls, d: dict) -> "CausalGraph":
        return cls(
            nodes=tuple(d["nodes"]),
            directed=tuple((u, v) for u, v in d["directed"]),
            undirected=tuple((a, b) for a, b in d["undirected"]),
        )

    @classmethod
    def load(cls, path) -> "CausalGraph":
        return cls.from_dict(json.loads(Path(path).read_text()))

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
    """rho(i, j | S) from the inverse of the correlation submatrix."""
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
    return float(_partial_rho(prec[None])[0])


def _partial_rho(prec: np.ndarray) -> np.ndarray:
    """rho(0, 1 | rest) for each precision matrix of a (K, m, m) stack."""
    denom = prec[:, 0, 0] * prec[:, 1, 1]
    nonpositive = denom <= 0.0
    # a near-singular matrix yields inf or NaN entries; a batch may hold
    # such sets past an edge's first independent one, so they must not warn
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rho = -prec[:, 0, 1] / np.sqrt(np.where(nonpositive, 1.0, denom))
    return np.clip(np.where(nonpositive, 0.0, rho), -1.0, 1.0)


def _independent(rho: np.ndarray, dof: int, q: float) -> np.ndarray:
    """Fisher z decision per entry: sqrt(dof) * |atanh(rho)| <= q.

    |rho| = 1 and NaN count as dependent. ``q`` is ``_z_quantile(alpha)``
    and ``dof`` is d - |S| - 3.
    """
    inside = np.abs(rho) < 1.0
    r = np.where(inside, rho, 0.0)
    z = 0.5 * np.log((1.0 + r) / (1.0 - r))
    return inside & (np.sqrt(dof) * np.abs(z) <= q)


def _ci_from_corr(
    corr: np.ndarray, d: int, i: int, j: int, S: Sequence[int], q: float
) -> bool:
    rho = partial_correlation(corr, i, j, S)
    return bool(_independent(np.array([rho]), d - len(S) - 3, q)[0])


def _schur_rho(corr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho(i, j | S) and a near-singular flag for each test idx[k] = (*S, i, j).

    Eliminates S from the stacked submatrices one pivot at a time, across
    the whole stack and on the upper triangle only, as the matrices are
    symmetric; rho is the correlation of the 2 x 2 Schur complement that
    is left. A set is flagged when a pivot or that complement's
    determinant is at most _PIVOT_MIN (the diagonal is 1); its rho is then
    not to be used.
    """
    m = idx.shape[1]
    # (m, m, K): the set axis last, so each step runs on contiguous rows
    cols = np.ascontiguousarray(idx.T)
    A = corr[cols[:, None, :], cols[None, :, :]]
    flagged = np.zeros(len(idx), dtype=bool)
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
    """_DEPENDENT, _INDEPENDENT or _FLAGGED for each test idx[k] = (*S, i, j),
    in blocks that stack at most _BLOCK_BYTES of submatrices."""
    rows = max(1, _BLOCK_BYTES // (8 * idx.shape[1] ** 2))
    out = np.empty(len(idx), dtype=np.int8)
    for start in range(0, len(idx), rows):
        rho, flagged = _schur_rho(corr, idx[start:start + rows])
        out[start:start + len(rho)] = np.where(flagged, _FLAGGED, _independent(rho, dof, q))
    return out


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
    """Index rows (*S, i, j) for the sets S[..., :] of the pairs (i, j)."""
    idx = np.empty(S.shape[:-1] + (S.shape[-1] + 2,), dtype=np.intp)
    idx[..., :-2] = S
    idx[..., -2] = i
    idx[..., -1] = j
    return idx.reshape(-1, idx.shape[-1])


def _z_quantile(alpha: float) -> float:
    """Two-sided standard normal quantile: Phi^-1(1 - alpha / 2)."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _skeleton(
    corr: np.ndarray, d: int, names: tuple[str, ...], alpha: float
) -> tuple[dict[str, set[str]], dict[tuple[str, str], tuple[str, ...]]]:
    """PC skeleton: adjacency sets, and separating sets by sorted name pair.

    At level l, edge (a, b) falls at the first size-l subset of adj(a) - b,
    in combination order of the sorted names, found independent; the
    removal takes effect immediately.

    Nodes are handled by their rank in name order, so skeleton order is
    index order. Level 0 is one decision over all pairs. At a deeper level
    the first _PREFIX sets of every pair's level-start candidates are
    decided up front. Walking the pairs in order, a pair's valid sets are
    those holding no node removed since the level began: in combination
    order, exactly the subsets of its current candidates. So the first
    valid independent set is the separating set of testing one set at a
    time. A pair the prefix does not settle goes on through its current
    candidates' later subsets in doubling blocks.
    """
    q = _z_quantile(alpha)
    n = len(names)
    order = sorted(range(n), key=names.__getitem__)
    ranked = [names[k] for k in order]
    corr_r = corr[np.ix_(order, order)]
    adj = ~np.eye(n, dtype=bool)
    sepset: dict[tuple[str, str], tuple[str, ...]] = {}

    def separated(a, b, subsets, codes) -> bool:
        """Remove edge (a, b) at the first of ``subsets`` found independent."""
        for r in np.flatnonzero(codes):
            S = [int(s) for s in subsets[r]]
            if codes[r] == _INDEPENDENT or _ci_from_corr(
                corr, d, order[a], order[b], [order[s] for s in S], q
            ):
                adj[a, b] = adj[b, a] = False
                sepset[ranked[min(a, b)], ranked[max(a, b)]] = tuple(ranked[s] for s in S)
                return True
        return False

    level = 0
    while (adj.sum(axis=1) > level).any() and d - level - 3 > 0:
        dof = d - level - 3
        if level == 0:
            i, j = np.triu_indices(n, 1)
            codes = np.zeros((n, n), dtype=np.int8)
            codes[i, j] = _decide(corr_r, np.stack([i, j], axis=1), dof, q)
            codes |= codes.T
            for a, b in zip(*np.nonzero(np.triu(codes == _INDEPENDENT))):
                sepset[ranked[a], ranked[b]] = ()
            adj &= codes != _INDEPENDENT
            # flagged pairs, one at a time in skeleton order
            for a, b in zip(*np.nonzero(codes == _FLAGGED)):
                if adj[a, b]:
                    separated(a, b, [()], [_FLAGGED])
        else:
            _level(corr_r, adj, level, dof, q, separated)
        level += 1
    adjacency = {ranked[a]: {ranked[b] for b in np.flatnonzero(adj[a])} for a in range(n)}
    return adjacency, sepset


def _level(
    corr: np.ndarray, adj: np.ndarray, level: int, dof: int, q: float, separated
) -> None:
    """One PC level >= 1 over the rank-ordered boolean adjacency ``adj``;
    ``separated`` removes an edge at the first independent set it is given."""
    rows = max(1, _BLOCK_BYTES // (8 * (level + 2) ** 2))
    nodes = []  # (a, level-start neighbours, prefix positions)
    codes, pending, held = [], [], 0
    for a in np.flatnonzero(adj.sum(axis=1) > level):
        nbrs = np.flatnonzero(adj[a])
        table = _subsets(len(nbrs) - 1, level, 0, _PREFIX)
        # the prefix of pair (a, nbrs[t]) skips position t of nbrs
        t = np.arange(len(nbrs))[:, None, None]
        pending.append(_tests(nbrs[table + (table >= t)], a, nbrs[:, None]))
        nodes.append((a, nbrs, table))
        held += len(pending[-1])
        if held >= rows:
            codes.append(_decide(corr, np.concatenate(pending), dof, q))
            pending, held = [], 0
    if pending:
        codes.append(_decide(corr, np.concatenate(pending), dof, q))
    codes = np.concatenate(codes) if codes else np.empty(0, np.int8)

    offset = 0
    for a, nbrs, table in nodes:
        prefix = codes[offset:offset + len(nbrs) * len(table)].reshape(len(nbrs), -1)
        offset += prefix.size
        more = comb(len(nbrs) - 1, level) > len(table)
        for t in range(len(nbrs)) if more else np.flatnonzero(prefix.any(axis=1)):
            b = nbrs[t]
            if not adj[a, b]:
                continue
            cands = np.delete(nbrs, t)
            current = adj[a, cands]
            if current.sum() < level:
                continue
            valid = current[table].all(axis=1)
            if separated(a, b, cands[table], np.where(valid, prefix[t], _DEPENDENT)) or not more:
                continue
            cands = cands[current]
            total = comb(len(cands), level)
            start, size = int(valid.sum()), _PREFIX
            while start < total:
                size = min(2 * size, rows)
                S = cands[_subsets(len(cands), level, start, start + size)]
                if separated(a, b, S, _decide(corr, _tests(S, a, b), dof, q)):
                    break
                start += size


class _Pdag:
    """Mutable partially directed graph used during orientation."""

    def __init__(self, nodes: Sequence[str], und_pairs: Iterable[tuple[str, str]]):
        self.nodes = tuple(nodes)
        self.und: set[tuple[str, str]] = {tuple(sorted(p)) for p in und_pairs}
        self.dir: set[tuple[str, str]] = set()
        self.children: dict[str, set[str]] = {n: set() for n in self.nodes}

    def has_und(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.und

    def has_dir(self, u: str, v: str) -> bool:
        return (u, v) in self.dir

    def adjacent(self, a: str, b: str) -> bool:
        return self.has_und(a, b) or (a, b) in self.dir or (b, a) in self.dir

    def creates_cycle(self, u: str, v: str) -> bool:
        """Would directed edge u -> v close a cycle (path v => u)?"""
        stack = [v]
        seen = {v}
        while stack:
            x = stack.pop()
            if x == u:
                return True
            for b in self.children[x] - seen:
                seen.add(b)
                stack.append(b)
        return False

    def orient(self, u: str, v: str) -> bool:
        """Turn undirected u -- v into u -> v; skip if it would close a cycle."""
        if not self.has_und(u, v) or self.creates_cycle(u, v):
            return False
        self.und.discard(tuple(sorted((u, v))))
        self.dir.add((u, v))
        self.children[u].add(v)
        return True

    def unorient(self, a: str, b: str) -> None:
        self.dir.discard((a, b))
        self.dir.discard((b, a))
        self.children[a].discard(b)
        self.children[b].discard(a)
        self.und.add(tuple(sorted((a, b))))


def pc_build(values: np.ndarray, names: Sequence[str], alpha: float = 0.05) -> CausalGraph:
    """Run the PC algorithm on the columns of ``values``.

    Skeleton phase removes edge (i, j) at conditioning level l on the first
    size-l subset of adj(i) minus j found independent, recording it as the
    separating set (removal takes effect immediately). Each level's tests
    run in batches, some decided before that level's earlier removals; a
    set counts only while it holds no removed node, so the graph is that
    of testing one subset at a time. V-structures
    i -> k <- j are oriented for nonadjacent pairs whose separating set
    excludes k; conflicting orientations revert the edge to undirected.
    Meek rules then propagate directions until nothing changes.
    """
    names = tuple(names)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise InvalidConfig("one name per data column required")
    adj, sepset = _skeleton(_correlation_matrix(values), values.shape[0], names, alpha)

    g = _Pdag(names, ((a, b) for a in names for b in adj[a] if a < b))

    # v-structures: i -> k <- j for nonadjacent (i, j) with k outside sepset
    conflicted: set[tuple[str, str]] = set()
    for i, j in combinations(sorted(names), 2):
        if j in adj[i]:
            continue
        for k in sorted(adj[i] & adj[j]):
            if k in sepset.get((i, j) if i < j else (j, i), ()):
                continue
            for parent in (i, j):
                pair = tuple(sorted((parent, k)))
                if pair in conflicted:
                    continue
                if g.has_dir(k, parent):
                    g.unorient(k, parent)
                    conflicted.add(pair)
                elif not g.has_dir(parent, k):
                    g.orient(parent, k)

    _meek(g)
    return CausalGraph(nodes=names, directed=tuple(g.dir), undirected=tuple(g.und))


def _meek(g: _Pdag) -> None:
    """Apply the four orientation-propagation rules to fixpoint."""
    names = sorted(g.nodes)
    changed = True
    while changed:
        changed = False
        for a, b in [(x, y) for x, y in combinations(names, 2)] + [
            (y, x) for x, y in combinations(names, 2)
        ]:
            if not g.has_und(a, b):
                continue
            if _meek_applies(g, a, b, names):
                changed |= g.orient(a, b)


def _meek_applies(g: _Pdag, a: str, b: str, names: list[str]) -> bool:
    # R1: c -> a, a -- b, c and b nonadjacent => a -> b
    for c in names:
        if g.has_dir(c, a) and not g.adjacent(c, b):
            return True
    # R2: a -> c -> b with a -- b => a -> b
    for c in names:
        if g.has_dir(a, c) and g.has_dir(c, b):
            return True
    # R3: a -- c, a -- d, c -> b, d -> b, c and d nonadjacent => a -> b
    into_b = [c for c in names if g.has_dir(c, b) and g.has_und(a, c)]
    for c, e in combinations(into_b, 2):
        if not g.adjacent(c, e):
            return True
    # R4: a -- c, a -- d, c -> d -> b, c and b nonadjacent => a -> b
    for c in names:
        if not (g.has_und(a, c) and not g.adjacent(c, b)):
            continue
        for e in names:
            if g.has_dir(c, e) and g.has_dir(e, b) and g.has_und(a, e):
                return True
    return False
