"""Root-cause localization by repeated random walks against the edges.

Walks start at the anomaly indicator and repeatedly step to a uniformly
chosen predecessor (directed parent or undirected neighbor). Already
visited nodes are excluded so undirected edges cannot bounce a walk back
and forth. The terminal node of each multi-step walk is a root-cause
candidate; candidates are ranked by how many walks end on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import EmptyGroundTruth, InvalidConfig, NoPredecessorsWarning
from ..seeding import derive_seed
from .graph import CausalGraph

INDICATOR = "indicator"


@dataclass(frozen=True)
class RootCauseRanking:
    """Nodes ordered by walk-terminal count desc, then name asc."""

    entries: tuple[tuple[str, int], ...]
    total_walks: int

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((str(n), int(c)) for n, c in self.entries)
        )
        if any(n == INDICATOR for n, _ in self.entries):
            raise InvalidConfig("indicator cannot be a root-cause candidate")
        if sum(c for _, c in self.entries) > self.total_walks:
            raise InvalidConfig("terminal counts exceed walk count")
        expected = tuple(sorted(self.entries, key=lambda e: (-e[1], e[0])))
        if self.entries != expected:
            raise InvalidConfig("entries must be sorted by count desc, name asc")

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)


def random_walk(
    graph: CausalGraph,
    length: Optional[int] = None,
    seed: int = 0,
) -> list[str]:
    """One walk from the indicator toward causes, at most ``length`` nodes.

    Stops early when the current node has no unvisited predecessor.
    """
    if INDICATOR not in graph.nodes:
        raise InvalidConfig("graph has no indicator node")
    if length is None:
        length = len(graph.nodes)
    if length < 1:
        raise InvalidConfig(f"walk length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    path = [INDICATOR]
    visited = {INDICATOR}
    while len(path) < length:
        options = [p for p in graph.predecessors(path[-1]) if p not in visited]
        if not options:
            break
        nxt = options[int(rng.integers(len(options)))]
        path.append(nxt)
        visited.add(nxt)
    return path


def localize(
    graph: CausalGraph,
    total_walks: int = 500,
    length: Optional[int] = None,
    seed: int = 0,
) -> RootCauseRanking:
    """Rank root-cause candidates by terminal counts over many walks.

    Walks that never leave the indicator are discarded. Each walk draws
    from its own RNG stream derived from (seed, walk index), so the result
    does not depend on execution order.
    """
    if INDICATOR not in graph.nodes:
        raise InvalidConfig("graph has no indicator node")
    if not graph.predecessors(INDICATOR):
        warnings.warn(
            "indicator has no predecessors; nothing to localize",
            NoPredecessorsWarning,
        )
        return RootCauseRanking(entries=(), total_walks=total_walks)
    counts: dict[str, int] = {}
    for w in range(total_walks):
        path = random_walk(graph, length, seed=derive_seed(seed, w))
        if len(path) < 2:
            continue
        counts[path[-1]] = counts.get(path[-1], 0) + 1
    ordered = sorted(counts.items(), key=lambda e: (-e[1], e[0]))
    return RootCauseRanking(entries=tuple(ordered), total_walks=total_walks)


def ac_at_k(ranking, root_causes: Sequence[str], k: int) -> float:
    """Fraction of true causes found in the top k, with the min(k, |V|) rule."""
    names = ranking.names() if isinstance(ranking, RootCauseRanking) else tuple(ranking)
    truth = set(root_causes)
    if not truth:
        raise EmptyGroundTruth("root-cause set is empty")
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    top = names[:k]
    hits = sum(1 for n in top if n in truth)
    return hits / min(k, len(truth))


def avg_at_k(ranking, root_causes: Sequence[str], k: int) -> float:
    """Mean of ac_at_j for j = 1..k."""
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    return sum(ac_at_k(ranking, root_causes, j) for j in range(1, k + 1)) / k
