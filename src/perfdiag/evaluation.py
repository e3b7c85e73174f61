"""Detection metrics and cross-dataset robustness scoring."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import LengthMismatch, MissingRank


def prf1(verdicts, labels) -> tuple[float, float, float]:
    """Precision, recall, F1; any zero denominator contributes 0."""
    v = np.asarray(verdicts, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if v.shape != y.shape or v.ndim != 1:
        raise LengthMismatch(f"verdicts {v.shape} vs labels {y.shape}")
    if not np.isin(y, (0, 1)).all() or not np.isin(v, (0, 1)).all():
        raise ValueError("verdicts and labels must be binary")
    tp = int(((v == 1) & (y == 1)).sum())
    fp = int(((v == 1) & (y == 0)).sum())
    fn = int(((v == 0) & (y == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return precision, recall, f1


def ranks_from_f1(f1_by_method: Mapping[str, float]) -> dict[str, float]:
    """Rank methods 1..n by F1 descending; ties share fractional ranks."""
    methods = sorted(f1_by_method)
    scores = np.array([f1_by_method[m] for m in methods])
    _, group, counts = np.unique(-scores, return_inverse=True, return_counts=True)
    # a group of c ties ending at rank e shares the mean rank e - (c - 1) / 2
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return {m: float(r) for m, r in zip(methods, ranks)}


def robustness(ranks_per_dataset: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Normalized average-rank score: best average rank 1, worst 0.

    Every method must carry one rank per dataset. With a single method (or
    all methods tied) the score is 1 by convention.
    """
    if not ranks_per_dataset:
        raise MissingRank("no methods given")
    lengths = {m: len(r) for m, r in ranks_per_dataset.items()}
    n_datasets = max(lengths.values())
    missing = [m for m, n in lengths.items() if n != n_datasets or n == 0]
    if missing:
        raise MissingRank(
            f"methods missing ranks on some dataset: {sorted(missing)}"
        )
    avg = {m: sum(r) / len(r) for m, r in ranks_per_dataset.items()}
    lo = min(avg.values())
    hi = max(avg.values())
    if lo == hi:
        return {m: 1.0 for m in avg}
    # + 0.0 turns the worst method's -0.0 into a plain 0.0
    return {m: (a - hi) / (lo - hi) + 0.0 for m, a in avg.items()}
