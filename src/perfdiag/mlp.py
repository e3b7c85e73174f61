"""Weakly supervised deep ensemble: a small MLP over the score matrix.

Architecture is input -> 20 ReLU -> 20 ReLU -> 1 sigmoid giving P(anomaly),
trained with binary cross-entropy and the Adam optimizer. A prediction
shift s trains on pairs (scores at t, label at t+s) so the model forecasts
s samples ahead. Training is fully deterministic in (data, config).

``train_deep`` keeps W1..b3 as views into one flat float64 buffer and runs
one Adam step per minibatch over the flat parameter, gradient and moment
buffers with in-place ufuncs, in the operation order of a per-array update,
so the weights are bit-identical to it. Each epoch gathers the shuffled
rows once; its minibatches are contiguous slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import DiagnosisReport, ScoreMatrix, dumps_json
from .errors import (
    InvalidConfig,
    NonFiniteLoss,
    ShapeMismatch,
    SingleClassTraining,
    TooFewSamples,
)
from .seeding import derived_rng

SCHEMA_VERSION = 1

Params = tuple[np.ndarray, ...]  # (W1, b1, W2, b2, W3, b3)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch: int = 20
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    hidden: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidConfig(f"train.epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise InvalidConfig(f"train.batch must be >= 1, got {self.batch}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise InvalidConfig(f"train.lr must be finite and > 0, got {self.lr}")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs, "batch": self.batch, "lr": self.lr,
            "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
            "hidden": self.hidden, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass(frozen=True)
class NormStats:
    """Score-matrix normalization carried with a model for reapplication."""

    learner_names: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    @classmethod
    def from_matrix(cls, M: ScoreMatrix) -> "NormStats":
        return cls(
            learner_names=M.learner_names,
            means=tuple(float(x) for x in M.norm_means),
            stds=tuple(float(x) for x in M.norm_stds),
        )


@dataclass(frozen=True, eq=False)
class MlpModel:
    params: Params
    config: TrainConfig
    shift: int
    threshold: float = 0.5
    norm: Optional[NormStats] = None

    def __post_init__(self):
        frozen = []
        for p in self.params:
            arr = np.ascontiguousarray(np.asarray(p, dtype=np.float64))
            if not np.isfinite(arr).all():
                raise NonFiniteLoss("model parameters contain non-finite values")
            arr.flags.writeable = False
            frozen.append(arr)
        if len(frozen) != 6:
            raise ShapeMismatch("expected 6 parameter arrays (3 weights, 3 biases)")
        w1, b1, w2, b2, w3, b3 = frozen
        if (
            w1.shape[1] != b1.shape[0]
            or w2.shape != (w1.shape[1], b2.shape[0])
            or w3.shape != (w2.shape[1], 1)
            or b3.shape != (1,)
        ):
            raise ShapeMismatch("parameter shapes do not chain")
        object.__setattr__(self, "params", tuple(frozen))

    @property
    def layer_sizes(self) -> tuple[int, int, int, int]:
        w1, _, w2, _, w3, _ = self.params
        return (w1.shape[0], w1.shape[1], w2.shape[1], w3.shape[1])

    def __eq__(self, other):
        return (
            isinstance(other, MlpModel)
            and self.config == other.config
            and self.shift == other.shift
            and self.threshold == other.threshold
            and self.norm == other.norm
            and all(np.array_equal(a, b) for a, b in zip(self.params, other.params))
        )

    def to_dict(self) -> dict:
        w1, b1, w2, b2, w3, b3 = self.params
        return {
            "schema_version": SCHEMA_VERSION,
            "layers": list(self.layer_sizes),
            "weights": {
                "W1": w1.tolist(), "b1": b1.tolist(),
                "W2": w2.tolist(), "b2": b2.tolist(),
                "W3": w3.tolist(), "b3": b3.tolist(),
            },
            "config": self.config.to_dict(),
            "shift": self.shift,
            "threshold": self.threshold,
            "norm": None if self.norm is None else {
                "learner_names": list(self.norm.learner_names),
                "means": list(self.norm.means),
                "stds": list(self.norm.stds),
            },
        }

    def save(self, path) -> None:
        Path(path).write_text(dumps_json(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "MlpModel":
        doc = json.loads(Path(path).read_text())
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ShapeMismatch(
                f"unsupported model schema_version {doc.get('schema_version')!r}"
            )
        w = doc["weights"]
        params = tuple(
            np.asarray(w[k], dtype=np.float64)
            for k in ("W1", "b1", "W2", "b2", "W3", "b3")
        )
        norm = None
        if doc.get("norm"):
            norm = NormStats(
                learner_names=tuple(doc["norm"]["learner_names"]),
                means=tuple(doc["norm"]["means"]),
                stds=tuple(doc["norm"]["stds"]),
            )
        return cls(
            params=params,
            config=TrainConfig.from_dict(doc["config"]),
            shift=int(doc["shift"]),
            threshold=float(doc["threshold"]),
            norm=norm,
        )


def init_params(n_inputs: int, hidden: int, seed: int) -> Params:
    """He-style Gaussian weights, zero biases, from a derived RNG stream."""
    rng = derived_rng(seed, "mlp-init")
    sizes = [(n_inputs, hidden), (hidden, hidden), (hidden, 1)]
    params: list[np.ndarray] = []
    for fan_in, fan_out in sizes:
        params.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return tuple(params)


def forward(params: Params, X: np.ndarray) -> np.ndarray:
    """P(anomaly) per row."""
    w1, b1, w2, b2, w3, b3 = params
    h1 = np.maximum(X @ w1 + b1, 0.0)
    h2 = np.maximum(h1 @ w2 + b2, 0.0)
    z = (h2 @ w3 + b3)[:, 0]
    return _sigmoid(z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def loss_and_grads(params: Params, X: np.ndarray, y: np.ndarray) -> tuple[float, Params]:
    """Mean binary cross-entropy on the batch and its parameter gradients."""
    w1, b1, w2, b2, w3, b3 = params
    n = X.shape[0]
    z1 = X @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    z3 = (h2 @ w3 + b3)[:, 0]
    # stable BCE on logits: softplus(z) - y*z
    loss = float((np.logaddexp(0.0, z3) - y * z3).sum() / n)
    p = _sigmoid(z3)
    dz3 = ((p - y) / n)[:, None]
    gw3 = h2.T @ dz3
    gb3 = dz3.sum(axis=0)
    dh2 = dz3 @ w3.T
    dz2 = dh2 * (z2 > 0.0)
    gw2 = h1.T @ dz2
    gb2 = dz2.sum(axis=0)
    dh1 = dz2 @ w2.T
    dz1 = dh1 * (z1 > 0.0)
    gw1 = X.T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2, gw3, gb3)


def shifted_pairs(
    values: np.ndarray, labels: np.ndarray, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Training pairs (scores at t, label at t+shift); last `shift` rows drop."""
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if shift == 0:
        return values, labels
    if shift >= values.shape[0]:
        raise TooFewSamples(
            f"shift {shift} leaves no training rows out of {values.shape[0]}"
        )
    return values[:-shift], labels[shift:]


def train_deep(
    values: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
    shift: int = 0,
    norm: Optional[NormStats] = None,
) -> MlpModel:
    """Train the MLP on normalized score rows against (possibly shifted) labels."""
    X, y = shifted_pairs(np.asarray(values, dtype=np.float64),
                         np.asarray(labels, dtype=np.float64), shift)
    n = X.shape[0]
    if n < config.batch:
        raise TooFewSamples(
            f"{n} training rows after shift, need at least batch={config.batch}"
        )
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise SingleClassTraining(
            f"training labels are all {int(classes[0])}; both classes required"
        )
    init = init_params(X.shape[1], config.hidden, config.seed)
    # every parameter array is a view into one flat buffer, so one Adam
    # step updates all of them; m and v share its layout
    theta = np.concatenate(init, axis=None)
    cuts = np.cumsum([p.size for p in init])[:-1]
    params = tuple(
        part.reshape(p.shape) for part, p in zip(np.split(theta, cuts), init)
    )
    g = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    tmp = np.empty_like(theta)
    b1, b2 = config.beta1, config.beta2
    shuffle_rng = derived_rng(config.seed, "mlp-shuffle")
    step = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        Xs, ys = X[order], y[order]
        for start in range(0, n, config.batch):
            stop = start + config.batch
            loss, grads = loss_and_grads(params, Xs[start:stop], ys[start:stop])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss} at step {step}")
            step += 1
            np.concatenate(grads, axis=None, out=g)
            # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            m *= b1
            np.multiply(g, 1.0 - b1, out=tmp)
            m += tmp
            v *= b2
            np.multiply(g, 1.0 - b2, out=tmp)
            tmp *= g
            v += tmp
            # theta -= (lr*m_hat) / (sqrt(v_hat) + eps), with g as the denominator
            np.divide(v, 1.0 - b2**step, out=g)
            np.sqrt(g, out=g)
            g += config.eps
            np.divide(m, 1.0 - b1**step, out=tmp)
            tmp *= config.lr
            tmp /= g
            theta -= tmp
    return MlpModel(params=params, config=config, shift=shift, norm=norm)


def predict_deep(model: MlpModel, M: np.ndarray) -> DiagnosisReport:
    """Probabilities and verdicts on normalized score rows.

    With shift s, the verdict at row t is the forecast for time t+s.
    """
    values = np.asarray(M, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != model.layer_sizes[0]:
        raise ShapeMismatch(
            f"model expects {model.layer_sizes[0]} columns, got {values.shape}"
        )
    probs = forward(model.params, values)
    return DiagnosisReport(probabilities=probs, threshold=model.threshold)
