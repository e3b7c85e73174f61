"""Causal structure discovery: partial-correlation CI test and PC algorithm.

pc_build starts from a complete skeleton, removes edges level by level via
conditional-independence tests, orients v-structures from the recorded
separating sets, then propagates orientations with the Meek rules. Edges
whose direction stays unresolved remain undirected. Every iteration runs
in sorted node-name order so the output is deterministic.

The skeleton decides all level-0 tests in one batch. At deeper levels it
tests an edge's conditioning sets in growing chunks, one batched inverse of
the stacked correlation submatrices per chunk. The first independent set in
combination order still decides the edge, so the graph and the separating
sets are those of testing one set at a time.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import combinations, islice
from pathlib import Path
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

from ..core import standardize
from ..errors import InvalidConfig, SingularSubmatrixWarning

# conditioning sets per batched inverse: an edge's first chunk is small
# because most edges fall at one of their first sets; later chunks double up
# to the cap, a (4096, l+2, l+2) float64 stack of about 3 MB at level 8
_CHUNK_MIN = 16
_CHUNK_MAX = 4096


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
    corr: np.ndarray, d: int, i: int, j: int, S: tuple[int, ...], q: float
) -> bool:
    rho = partial_correlation(corr, i, j, S)
    return bool(_independent(np.array([rho]), d - len(S) - 3, q)[0])


def _batch_independent(
    corr: np.ndarray, idx: np.ndarray, d: int, q: float
) -> np.ndarray:
    """Decide the tests idx[k] = (i, j, *S) at once.

    Raises LinAlgError when any of the stacked submatrices is singular.
    """
    prec = np.linalg.inv(corr[idx[:, :, None], idx[:, None, :]])
    return _independent(_partial_rho(prec), d - idx.shape[1] - 1, q)


def _pairwise_independent(corr: np.ndarray, d: int, q: float) -> np.ndarray | None:
    """Level-0 decisions for every ordered column pair in one batch.

    None when some pair is exactly collinear: those tests then run one at a
    time so their ridge warnings come in skeleton order.
    """
    n = corr.shape[0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    out = np.zeros((n, n), dtype=bool)
    try:
        out[i, j] = _batch_independent(corr, np.stack([i, j], axis=1), d, q)
    except np.linalg.LinAlgError:
        return None
    return out


def _first_independent(
    corr: np.ndarray, d: int, q: float, i: int, j: int, subsets, level: int
) -> tuple[int, ...] | None:
    """The first set of ``subsets`` that separates columns i and j, or None.

    A chunk holding a singular submatrix is redone one test at a time, in
    order and up to its first independent set, so the ridge fallback runs
    and warns exactly as when testing one set at a time.
    """
    size = _CHUNK_MIN
    while chunk := list(islice(subsets, size)):
        idx = np.empty((len(chunk), level + 2), dtype=np.intp)
        idx[:, 0], idx[:, 1] = i, j
        idx[:, 2:] = chunk
        try:
            hits = _batch_independent(corr, idx, d, q)
        except np.linalg.LinAlgError:
            for S in chunk:
                if _ci_from_corr(corr, d, i, j, S, q):
                    return S
        else:
            if hits.any():
                return chunk[int(hits.argmax())]
        size = min(2 * size, _CHUNK_MAX)
    return None


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
    """
    q = _z_quantile(alpha)
    col = {name: k for k, name in enumerate(names)}
    adj: dict[str, set[str]] = {n: set(names) - {n} for n in names}
    sepset: dict[tuple[str, str], tuple[str, ...]] = {}

    level = 0
    while any(len(adj[n]) > level for n in names):
        if d - level - 3 <= 0:
            break  # not enough samples to condition any deeper
        pairwise = _pairwise_independent(corr, d, q) if level == 0 else None
        for a in sorted(names):
            for b in sorted(adj[a]):
                candidates = [col[s] for s in sorted(adj[a] - {b})]
                if len(candidates) < level:
                    continue
                if pairwise is not None:
                    S = () if pairwise[col[a], col[b]] else None
                else:
                    subsets = combinations(candidates, level)
                    S = _first_independent(corr, d, q, col[a], col[b], subsets, level)
                if S is not None:
                    adj[a].discard(b)
                    adj[b].discard(a)
                    sepset[tuple(sorted((a, b)))] = tuple(names[k] for k in S)
        level += 1
    return adj, sepset


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
    separating set (removal takes effect immediately). The tests of one
    edge and level run in batches but stop at that same first subset, so
    the graph is that of testing one subset at a time. V-structures
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
