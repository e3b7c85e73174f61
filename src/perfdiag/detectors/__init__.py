"""Four unsupervised base learners behind one interface.

``fit_score`` fits the requested learner on a SelectedFrame and returns one
score per timestamp, oriented so that larger means more anomalous.
``threshold`` turns scores into verdicts by flagging the top anomaly
fraction. Each learner draws from its own RNG stream derived from
(seed, learner name), so results do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import SelectedFrame, check_fields
from ..errors import InvalidConfig, NumericalFailure, TooFewSamples
from ..seeding import derived_rng
from .iforest import iforest_scores
from .neighbors import knn_scores, lof_scores, neighbor_pass
from .ocsvm import ocsvm_scores

KINDS = ("iforest", "knn", "lof", "ocsvm")


@dataclass(frozen=True)
class DetectorSpec:
    """Which learner to run and with which hyperparameters."""

    kind: str
    anomaly_fraction: float = 0.1
    seed: int = 0
    n_trees: int = 100
    subsample: int = 256
    knn_k: int = 5
    lof_k: int = 20
    nu: Optional[float] = None  # defaults to anomaly_fraction
    gamma: Optional[float] = None  # defaults to the variance-scaled rule

    def __post_init__(self):
        check_fields(self, where=lambda name: f"detect.{name}")
        if self.kind not in KINDS:
            raise InvalidConfig(f"unknown detector kind {self.kind!r}")
        if not 0.0 < self.anomaly_fraction < 1.0:
            raise InvalidConfig("detect.anomaly_fraction must lie in (0, 1)")
        # a subsample of one row has c(1) = 0, so its iforest score is 2^(0/0)
        for name, least in (("n_trees", 1), ("subsample", 2), ("knn_k", 1), ("lof_k", 1)):
            if (value := getattr(self, name)) < least:
                raise InvalidConfig(f"detect.{name} must be >= {least}, got {value!r}")
        if self.nu is not None and not 0.0 < self.nu < 1.0:
            raise InvalidConfig(f"detect.nu must lie in (0, 1), got {self.nu!r}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise InvalidConfig(f"detect.gamma must be finite and > 0, got {self.gamma!r}")


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-timestamp anomaly scores of one learner; higher = more anomalous."""

    values: np.ndarray
    learner: str

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 1:
            raise ValueError("scores must be 1-D")
        if not np.isfinite(vals).all():
            raise NumericalFailure(
                f"{self.learner} produced non-finite scores (degenerate input?)"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def fit_score(spec: DetectorSpec, data: SelectedFrame, lists=None) -> ScoreVector:
    """Fit one base learner on the full series and score every timestamp.

    ``lists``, a `neighbor_pass` of ``data.values`` that a pipeline run
    makes after the isolation forest and drops after LOF, is read by the
    distance learners instead of running a pass of their own.
    """
    X = data.values
    d = X.shape[0]
    if spec.kind == "iforest":
        if d < 2:
            raise TooFewSamples(f"iforest needs at least 2 points, got {d}")
        rng = derived_rng(spec.seed, "iforest")
        scores = iforest_scores(X, rng, n_trees=spec.n_trees, subsample=spec.subsample)
    elif spec.kind == "knn":
        scores = knn_scores(X, spec.knn_k, lists)
    elif spec.kind == "lof":
        scores = lof_scores(X, spec.lof_k, lists)
    else:
        rng = derived_rng(spec.seed, "ocsvm")
        nu = spec.anomaly_fraction if spec.nu is None else spec.nu
        scores = ocsvm_scores(X, nu=nu, rng=rng, gamma=spec.gamma)
    return ScoreVector(values=scores, learner=spec.kind)


def threshold(scores: ScoreVector, anomaly_fraction: float) -> np.ndarray:
    """Flag exactly ceil(fraction * d) highest scores; ties favor earlier rows."""
    if not 0.0 < anomaly_fraction < 1.0:
        raise InvalidConfig("anomaly_fraction must lie in (0, 1)")
    d = scores.values.shape[0]
    m = math.ceil(anomaly_fraction * d - 1e-9)
    order = np.argsort(-scores.values, kind="stable")
    verdicts = np.zeros(d, dtype=np.int64)
    verdicts[order[:m]] = 1
    return verdicts
