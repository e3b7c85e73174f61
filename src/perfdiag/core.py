"""Shared data model: metric frames, labels, scores, and diagnosis reports.

All types are immutable after construction (arrays are frozen) and
validate their invariants eagerly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyIntersection, LengthMismatch, NonUniformSpacing, ShapeMismatch


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.flags.writeable = False
    return out


def _check_finite(values: np.ndarray, names: Sequence[str]) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValueError(
            f"non-finite value at row {r}, column '{names[c]}' "
            f"({int(bad.sum())} offending cells total)"
        )


@dataclass(frozen=True, eq=False)
class MetricFrame:
    """d timestamps x N metric columns of monitoring data.

    Timestamps are integer epoch-seconds, strictly increasing with uniform
    spacing equal to ``interval``. Non-finite cells are rejected.
    """

    timestamps: np.ndarray
    values: np.ndarray
    names: tuple[str, ...]
    interval: int

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        names = tuple(self.names)
        if vals.ndim != 2:
            raise ShapeMismatch(f"values must be 2-D, got shape {vals.shape}")
        if ts.shape[0] != vals.shape[0]:
            raise ShapeMismatch(
                f"{ts.shape[0]} timestamps vs {vals.shape[0]} value rows"
            )
        if vals.shape[1] != len(names):
            raise ShapeMismatch(
                f"{vals.shape[1]} columns vs {len(names)} names"
            )
        if len(set(names)) != len(names):
            raise ValueError("metric names must be unique")
        if ts.shape[0] >= 2:
            diffs = np.diff(ts)
            if not (diffs > 0).all():
                raise NonUniformSpacing("timestamps must be strictly increasing")
            if not (diffs == self.interval).all():
                raise NonUniformSpacing(
                    f"spacing must equal interval={self.interval}, "
                    f"found {sorted(set(diffs.tolist()))}"
                )
        _check_finite(vals, names)
        object.__setattr__(self, "timestamps", _frozen(ts))
        object.__setattr__(self, "values", _frozen(vals))
        object.__setattr__(self, "names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_metrics(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, MetricFrame)
            and self.interval == other.interval
            and self.names == other.names
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class LabelSeries:
    """Binary anomaly labels aligned to a MetricFrame's timestamps."""

    timestamps: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if ts.shape != lab.shape or ts.ndim != 1:
            raise ShapeMismatch("timestamps and labels must be equal-length 1-D")
        if not np.isin(lab, (0, 1)).all():
            bad = lab[~np.isin(lab, (0, 1))][0]
            raise ValueError(f"labels must be 0 or 1, found {bad}")
        object.__setattr__(self, "timestamps", _frozen(ts))
        object.__setattr__(self, "labels", _frozen(lab))

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LabelSeries)
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True, eq=False)
class SelectedFrame:
    """Metric data after selection / dimension reduction.

    ``method`` is "correlation", "pca", or "none". The correlation path keeps
    original column identity (``source_indices`` into the parent frame); the
    PCA path records projection matrix plus per-column mean/std so new data
    can be projected identically.
    """

    timestamps: np.ndarray
    values: np.ndarray
    columns: tuple[str, ...]
    method: str
    source_indices: Optional[tuple[int, ...]] = None
    projection: Optional[np.ndarray] = None
    col_means: Optional[np.ndarray] = None
    col_stds: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        ts = np.asarray(self.timestamps, dtype=np.int64)
        if vals.ndim != 2 or vals.shape[0] != ts.shape[0]:
            raise ShapeMismatch("values must be d x n with one row per timestamp")
        if vals.shape[1] != len(self.columns):
            raise ShapeMismatch("column count must match names")
        if self.method not in ("correlation", "pca", "none"):
            raise ValueError(f"unknown selection method {self.method!r}")
        object.__setattr__(self, "timestamps", _frozen(ts))
        object.__setattr__(self, "values", _frozen(vals))
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.source_indices is not None:
            object.__setattr__(self, "source_indices", tuple(int(i) for i in self.source_indices))
        for name in ("projection", "col_means", "col_stds"):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(self, name, _frozen(np.asarray(arr, dtype=np.float64)))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SelectedFrame):
            return False
        def same(a, b):
            if a is None or b is None:
                return a is b
            return np.array_equal(a, b)
        return (
            self.method == other.method
            and self.columns == other.columns
            and self.source_indices == other.source_indices
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
            and same(self.projection, other.projection)
            and same(self.col_means, other.col_means)
            and same(self.col_stds, other.col_stds)
        )

    def to_dict(self) -> dict:
        """How the columns were chosen; the selected matrix itself is left out."""
        return {
            "columns": list(self.columns),
            "method": self.method,
            "source_indices": list(self.source_indices) if self.source_indices is not None else None,
            "projection": self.projection.tolist() if self.projection is not None else None,
            "col_means": self.col_means.tolist() if self.col_means is not None else None,
            "col_stds": self.col_stds.tolist() if self.col_stds is not None else None,
        }


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """d x k matrix of column-normalized base-learner anomaly scores."""

    values: np.ndarray
    learner_names: tuple[str, ...]
    norm_means: np.ndarray
    norm_stds: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeMismatch("score matrix must be 2-D")
        if vals.shape[1] != len(self.learner_names):
            raise ShapeMismatch("one learner name per column required")
        means = np.asarray(self.norm_means, dtype=np.float64)
        stds = np.asarray(self.norm_stds, dtype=np.float64)
        if means.shape != (vals.shape[1],) or stds.shape != (vals.shape[1],):
            raise ShapeMismatch("normalization stats must have one entry per column")
        object.__setattr__(self, "values", _frozen(vals))
        object.__setattr__(self, "learner_names", tuple(self.learner_names))
        object.__setattr__(self, "norm_means", _frozen(means))
        object.__setattr__(self, "norm_stds", _frozen(stds))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_learners(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, ScoreMatrix)
            and self.learner_names == other.learner_names
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.norm_means, other.norm_means)
            and np.array_equal(self.norm_stds, other.norm_stds)
        )


@dataclass(frozen=True)
class EvaluationBlock:
    """Detection quality on a labeled span."""

    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, eq=False)
class DiagnosisReport:
    """Verdicts, probabilities, and an optional evaluation.

    Verdicts are derived from probabilities: verdict = 1 iff probability
    is at or above ``threshold``.
    """

    probabilities: np.ndarray
    threshold: float
    verdicts: np.ndarray = field(default=None)  # derived when omitted
    evaluation: Optional[EvaluationBlock] = None

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1:
            raise ShapeMismatch("probabilities must be 1-D")
        if ((probs < 0) | (probs > 1)).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if self.verdicts is None:
            verdicts = (probs >= self.threshold).astype(np.int64)
        else:
            verdicts = np.asarray(self.verdicts, dtype=np.int64)
            if verdicts.shape != probs.shape:
                raise ShapeMismatch("verdicts must align with probabilities")
            if not np.array_equal(verdicts, (probs >= self.threshold).astype(np.int64)):
                raise ValueError("verdicts must equal probabilities >= threshold")
        object.__setattr__(self, "probabilities", _frozen(probs))
        object.__setattr__(self, "verdicts", _frozen(verdicts))

    def __eq__(self, other):
        return (
            isinstance(other, DiagnosisReport)
            and self.threshold == other.threshold
            and np.array_equal(self.probabilities, other.probabilities)
            and np.array_equal(self.verdicts, other.verdicts)
            and self.evaluation == other.evaluation
        )


def standardize(values: np.ndarray):
    """Column z-scores with population std: (z, means, stds, constant mask).

    A column is constant when its max equals its min. Its mean, summed in
    floating point, need not equal the constant, so its std is reported as
    0 and its z-scores are set to 0 outright. A spread whose std underflows
    to 0 counts as constant too, so no column is divided by 0.
    """
    means = values.mean(axis=0)
    stds = values.std(axis=0)
    const = (values.max(axis=0) == values.min(axis=0)) | (stds == 0.0)
    stds = np.where(const, 0.0, stds)
    z = (values - means) / np.where(const, 1.0, stds)
    z[:, const] = 0.0
    return z, means, stds, const


def align(frame: MetricFrame, labels: LabelSeries) -> tuple[MetricFrame, LabelSeries]:
    """Restrict frame and labels to their common timestamps, in time order.

    Raises EmptyIntersection when the two share no timestamp. Idempotent.
    """
    if frame.n_samples == 0 or len(labels) == 0:
        raise LengthMismatch("align requires nonempty inputs")
    common = np.intersect1d(frame.timestamps, labels.timestamps)
    if common.size == 0:
        raise EmptyIntersection("no common timestamps between frame and labels")
    if common.size == frame.n_samples == len(labels):
        return frame, labels
    f_idx = np.searchsorted(frame.timestamps, common)
    l_idx = np.searchsorted(labels.timestamps, common)
    new_frame = MetricFrame(
        timestamps=common,
        values=frame.values[f_idx],
        names=frame.names,
        interval=frame.interval,
    )
    new_labels = LabelSeries(timestamps=common, labels=labels.labels[l_idx])
    return new_frame, new_labels


def dumps_json(obj: dict) -> str:
    """Canonical JSON encoding: sorted keys, no NaN, repr-exact floats."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, indent=2)
