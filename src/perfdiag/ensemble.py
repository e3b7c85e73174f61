"""Score assembly and the three linear ensembles over base-learner scores.

Columns are z-scored so learners with different raw scales combine fairly;
the weighted ensemble derives its weights from pairwise mutual information,
rewarding learners that disagree with the rest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelSeries, ScoreMatrix, standardize
from .detectors import KINDS, ScoreVector
from .errors import (
    ConstantColumnWarning,
    DegenerateSplitWarning,
    InvalidConfig,
    LengthMismatch,
    ShapeMismatch,
)


def assemble(scores: Sequence[ScoreVector]) -> ScoreMatrix:
    """Stack score vectors into a column-normalized matrix.

    Columns follow the canonical learner order (iforest, knn, lof, ocsvm);
    unknown learner names sort after those alphabetically. Each column is
    z-scored with population std; a constant column becomes all zeros with
    a warning and its std is recorded as 0.
    """
    if not scores:
        raise LengthMismatch("need at least one score vector")
    names = [s.learner for s in scores]
    if len(set(names)) != len(names):
        raise InvalidConfig(f"duplicate learner names: {names}")
    lengths = {s.values.shape[0] for s in scores}
    if len(lengths) != 1:
        raise LengthMismatch(f"score vectors differ in length: {sorted(lengths)}")

    def rank(name: str):
        return (KINDS.index(name), "") if name in KINDS else (len(KINDS), name)

    ordered = sorted(scores, key=lambda s: rank(s.learner))
    raw = np.column_stack([s.values for s in ordered])
    values, means, stds, const = standardize(raw)
    if const.any():
        bad = [s.learner for s, c in zip(ordered, const) if c]
        warnings.warn(
            f"constant score columns zeroed: {', '.join(bad)}", ConstantColumnWarning
        )
    return ScoreMatrix(
        values=values,
        learner_names=tuple(s.learner for s in ordered),
        norm_means=means,
        norm_stds=stds,
    )


def ensemble_max(M: ScoreMatrix) -> ScoreVector:
    return ScoreVector(values=M.values.max(axis=1), learner="max")


def ensemble_avg(M: ScoreMatrix) -> ScoreVector:
    return ScoreVector(values=M.values.mean(axis=1), learner="avg")


@dataclass(frozen=True, eq=False)
class EnsembleWeights:
    """Nonnegative learner weights summing to 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if w.ndim != 1 or (w < 0).any():
            raise InvalidConfig("weights must be a nonnegative vector")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InvalidConfig(f"weights must sum to 1, got {w.sum()!r}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    def __eq__(self, other):
        return isinstance(other, EnsembleWeights) and np.array_equal(self.w, other.w)


def ensemble_weighted(M: ScoreMatrix, weights: EnsembleWeights) -> ScoreVector:
    if weights.w.shape[0] != M.n_learners:
        raise ShapeMismatch(
            f"{weights.w.shape[0]} weights for {M.n_learners} learners"
        )
    return ScoreVector(values=M.values @ weights.w, learner="weighted")


def _discretize(col: np.ndarray, bins: int) -> np.ndarray:
    lo = col.min()
    hi = col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.int64)
    idx = np.floor((col - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _mutual_info(a: np.ndarray, b: np.ndarray, bins: int) -> float:
    joint = np.zeros((bins, bins), dtype=np.float64)
    np.add.at(joint, (a, b), 1.0)
    p = joint / joint.sum()
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mask = p > 0
    outer = np.outer(pa, pb)
    return float((p[mask] * np.log(p[mask] / outer[mask])).sum())


def mi_weights(M: ScoreMatrix, bins: int = 10) -> EnsembleWeights:
    """Diversity weights from normalized pairwise mutual information.

    Each column is cut into equal-width bins over its own range; MI between
    column pairs (in nats) is normalized by sqrt(H_i * H_j), taken as 0 when
    either entropy is 0. A learner's diversity is one minus its mean
    normalized MI with the others; weights are diversities normalized to
    sum 1, falling back to uniform when all diversities vanish.
    """
    k = M.n_learners
    if k == 1:
        return EnsembleWeights(w=np.ones(1))
    disc = [_discretize(M.values[:, i], bins) for i in range(k)]
    ent = np.array([_entropy(np.bincount(c, minlength=bins).astype(float)) for c in disc])
    nmi = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if ent[i] > 0 and ent[j] > 0:
                nmi[i, j] = nmi[j, i] = _mutual_info(disc[i], disc[j], bins) / math.sqrt(
                    ent[i] * ent[j]
                )
    diversity = 1.0 - (nmi.sum(axis=1) / (k - 1))
    diversity = np.clip(diversity, 0.0, None)
    total = diversity.sum()
    if total <= 0.0:
        return EnsembleWeights(w=np.full(k, 1.0 / k))
    return EnsembleWeights(w=diversity / total)


def split(
    M: ScoreMatrix,
    labels: LabelSeries,
    train_fraction: float = 0.5,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Chronological split: prefix of ceil(fraction * d) rows is train.

    No shuffling: the data are time series. An empty side or a single-class
    train side is reported with DegenerateSplitWarning but still returned.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise InvalidConfig(f"train_fraction must lie in [0, 1], got {train_fraction}")
    d = M.n_samples
    if len(labels) != d:
        raise LengthMismatch(f"{d} score rows vs {len(labels)} labels")
    cut = math.ceil(train_fraction * d - 1e-9)
    train = (M.values[:cut], labels.labels[:cut])
    test = (M.values[cut:], labels.labels[cut:])
    if cut == 0 or cut == d:
        warnings.warn(
            f"split leaves one side empty (cut={cut}, d={d})", DegenerateSplitWarning
        )
    elif np.unique(train[1]).shape[0] < 2:
        warnings.warn(
            "train side contains a single class; supervised training will fail",
            DegenerateSplitWarning,
        )
    return train, test
