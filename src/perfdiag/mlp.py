"""Weakly supervised deep ensemble: a small MLP over the score matrix.

Architecture is input -> HIDDEN ReLU -> HIDDEN ReLU -> 1 sigmoid giving
P(anomaly), with HIDDEN = 20, trained with binary cross-entropy and the Adam
optimizer at BETA1 = 0.9, BETA2 = 0.999 and EPS = 1e-8. A row is flagged
when its probability reaches THRESHOLD = 0.5. A prediction shift s trains on
pairs (scores at t, label at t+s) so the model forecasts s samples ahead.
Training is fully deterministic in (data, config). A model is its weights
and its shift.

``train_deep`` keeps W1..b3 as views into one flat float64 buffer.
``loss_and_grads`` writes the gradients into views of a second flat buffer
of the same layout, and the Adam moments m and v are the two rows of one
stacked buffer. Each minibatch's Adam step is a few in-place ufuncs over
these buffers, in the operation order of a per-array update, so the
weights are bit-identical to it. Each epoch gathers the shuffled rows once;
its minibatches are contiguous slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DiagnosisReport, check_fields, load_json
from .errors import (
    InvalidConfig,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
    SingleClassTraining,
    TooFewSamples,
)
from .seeding import derived_rng

SCHEMA_VERSION = 2
HIDDEN = 20
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
THRESHOLD = 0.5

Params = tuple[np.ndarray, ...]  # (W1, b1, W2, b2, W3, b3)
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch: int = 20
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_fields(self, where=lambda name: f"train.{name}")
        for name, ok, rule in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch", self.batch >= 1, ">= 1"),
            ("lr", math.isfinite(self.lr) and self.lr > 0.0, "finite and > 0"),
        ):
            if not ok:
                raise InvalidConfig(f"train.{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class MlpModel:
    params: Params
    shift: int

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
        if not isinstance(self.shift, int) or isinstance(self.shift, bool):
            raise ValueError(f"shift must be an integer, got {self.shift!r}")
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        object.__setattr__(self, "params", tuple(frozen))

    @property
    def layer_sizes(self) -> tuple[int, int, int, int]:
        w1, _, w2, _, w3, _ = self.params
        return (w1.shape[0], w1.shape[1], w2.shape[1], w3.shape[1])

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "layers": list(self.layer_sizes),
            "weights": {name: p.tolist() for name, p in zip(PARAM_NAMES, self.params)},
            "shift": self.shift,
        }

    @classmethod
    def load(cls, path) -> "MlpModel":
        doc = load_json(path)
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ParseError(f"{path}: unsupported model schema_version {version!r}, expected "
                             f"{SCHEMA_VERSION}; run the train stage again")
        try:
            params = tuple(np.asarray(doc["weights"][k], dtype=np.float64) for k in PARAM_NAMES)
            return cls(params=params, shift=doc["shift"])
        except KeyError as exc:
            raise ParseError(f"{path}: missing key {exc}") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed model: {exc}") from exc


def init_params(n_inputs: int, hidden: int, seed: int) -> Params:
    """He-style Gaussian weights, zero biases, from a derived RNG stream."""
    rng = derived_rng(seed, "mlp-init")
    sizes = [(n_inputs, hidden), (hidden, hidden), (hidden, 1)]
    params: list[np.ndarray] = []
    for fan_in, fan_out in sizes:
        params.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return tuple(params)


def _layers(params: Params, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both hidden activations and the output logit of each row of X."""
    w1, b1, w2, b2, w3, b3 = params
    # biases and ReLUs apply in place; h > 0 exactly where its pre-activation is
    h1 = np.dot(X, w1)
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    h2 = np.dot(h1, w2)
    h2 += b2
    np.maximum(h2, 0.0, out=h2)
    z = np.dot(h2, w3)
    z += b3
    return h1, h2, z[:, 0]


def forward(params: Params, X: np.ndarray) -> np.ndarray:
    """P(anomaly) per row."""
    return _sigmoid(_layers(params, X)[2])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def loss_and_grads(
    params: Params, X: np.ndarray, y: np.ndarray, out: Optional[Params] = None
) -> tuple[float, Params]:
    """Mean binary cross-entropy on the batch and its parameter gradients.

    With ``out``, six C-contiguous arrays shaped like ``params``, the
    gradients are written into them and returned; without it they are new.
    """
    _, _, w2, _, w3, _ = params
    gw1, gb1, gw2, gb2, gw3, gb3 = (None,) * 6 if out is None else out
    n = X.shape[0]
    h1, h2, z3 = _layers(params, X)
    # stable BCE on logits: softplus(z) - y*z. The sums call np.add.reduce,
    # as ndarray.sum does, without its Python-level wrapper
    loss = float(np.add.reduce(np.logaddexp(0.0, z3) - y * z3) / n)
    p = _sigmoid(z3)
    dz3 = ((p - y) / n)[:, None]
    gw3 = np.dot(h2.T, dz3, out=gw3)
    gb3 = np.add.reduce(dz3, out=gb3)
    dz2 = np.dot(dz3, w3.T)
    dz2 *= h2 > 0.0
    gw2 = np.dot(h1.T, dz2, out=gw2)
    gb2 = np.add.reduce(dz2, out=gb2)
    dz1 = np.dot(dz2, w2.T)
    dz1 *= h1 > 0.0
    gw1 = np.dot(X.T, dz1, out=gw1)
    gb1 = np.add.reduce(dz1, out=gb1)
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
    init = init_params(X.shape[1], HIDDEN, config.seed)
    # every parameter array is a view into one flat buffer, so one Adam step
    # updates all of them; loss_and_grads writes into views of g, same layout
    theta = np.concatenate(init, axis=None)
    g = np.empty_like(theta)
    cuts = np.cumsum([p.size for p in init])[:-1]
    params, grads = (
        tuple(part.reshape(p.shape) for part, p in zip(np.split(flat, cuts), init))
        for flat in (theta, g)
    )
    # m and v are the rows of one buffer; (2, 1) columns hold each row's constant
    mv = np.zeros((2, theta.size))
    work = np.empty_like(mv)
    work_m, work_v = work
    decay = np.array([[BETA1], [BETA2]])
    gain = np.array([[1.0 - BETA1], [1.0 - BETA2]])
    correction = np.empty((2, 1))
    shuffle_rng = derived_rng(config.seed, "mlp-shuffle")
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        Xs, ys = X[order], y[order]
        for start in range(0, n, config.batch):
            stop = start + config.batch
            loss, _ = loss_and_grads(params, Xs[start:stop], ys[start:stop], grads)
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss} at step {step}")
            step += 1
            # m = BETA1*m + (1-BETA1)*g;  v = BETA2*v + ((1-BETA2)*g)*g
            mv *= decay
            np.multiply(g, gain, out=work)
            work_v *= g
            mv += work
            # theta -= (lr*m_hat) / (sqrt(v_hat) + EPS)
            correction[:, 0] = 1.0 - BETA1**step, 1.0 - BETA2**step
            np.divide(mv, correction, out=work)
            np.sqrt(work_v, out=work_v)
            work_v += EPS
            work_m *= config.lr
            work_m /= work_v
            theta -= work_m
        # an overflowing g*g makes v inf and silently zeroes its weight's steps
        if not np.isfinite(mv).all():
            raise NonFiniteLoss(f"Adam moments became non-finite in epoch {epoch}")
    return MlpModel(params=params, shift=shift)


def predict_deep(model: MlpModel, M: np.ndarray) -> DiagnosisReport:
    """Probabilities and verdicts on normalized score rows.

    With shift s, the verdict at row t is the forecast for time t+s.
    """
    values = np.asarray(M, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != model.layer_sizes[0]:
        raise ShapeMismatch(
            f"model expects {model.layer_sizes[0]} columns, got {values.shape}"
        )
    return DiagnosisReport(probabilities=forward(model.params, values), threshold=THRESHOLD)
