"""The weakly supervised MLP scorer: training, prediction, persistence."""

import re

import numpy as np
import pytest

from perfdiag.core import dumps_json
from perfdiag.detectors import ScoreVector
from perfdiag.ensemble import assemble
from perfdiag.errors import (
    InvalidConfig,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
    SingleClassTraining,
    TooFewSamples,
)
from perfdiag.mlp import (
    BETA1,
    BETA2,
    EPS,
    HIDDEN,
    MlpModel,
    TrainConfig,
    _sigmoid,
    forward,
    init_params,
    loss_and_grads,
    predict_deep,
    shifted_pairs,
    train_deep,
)
from perfdiag.seeding import derived_rng


def zero_params(n_in=2, h=20):
    return (
        np.zeros((n_in, h)), np.zeros(h),
        np.zeros((h, h)), np.zeros(h),
        np.zeros((h, 1)), np.zeros(1),
    )


def random_params(rng, n_in=3, h=4):
    # nonzero random biases keep pre-activations off the ReLU kinks
    return (
        rng.normal(0.0, np.sqrt(2.0 / n_in), (n_in, h)),
        rng.normal(0.0, 0.5, h),
        rng.normal(0.0, np.sqrt(2.0 / h), (h, h)),
        rng.normal(0.0, 0.5, h),
        rng.normal(0.0, np.sqrt(2.0 / h), (h, 1)),
        rng.normal(0.0, 0.5, 1),
    )


def numeric_grads(params, X, y, eps=1e-5):
    out = []
    for i, p in enumerate(params):
        g = np.zeros_like(p)
        gf = g.ravel()
        for j in range(p.size):
            work = [q.copy() for q in params]
            wf = work[i].ravel()
            orig = wf[j]
            wf[j] = orig + eps
            lp, _ = loss_and_grads(tuple(work), X, y)
            wf[j] = orig - eps
            lm, _ = loss_and_grads(tuple(work), X, y)
            gf[j] = (lp - lm) / (2.0 * eps)
        out.append(g)
    return tuple(out)


# --- forward / predict ----------------------------------------------------

def test_zero_parameters_give_half_probability():
    model = MlpModel(params=zero_params(), shift=0)
    report = predict_deep(model, np.random.default_rng(0).standard_normal((5, 2)))
    np.testing.assert_array_equal(report.probabilities, np.full(5, 0.5))
    np.testing.assert_array_equal(report.verdicts, np.ones(5, dtype=np.int64))


def test_forward_handles_extreme_logits():
    # one passthrough unit with a huge output weight must not overflow
    params = (
        np.array([[1.0]]), np.zeros(1),
        np.array([[1.0]]), np.zeros(1),
        np.array([[1000.0]]), np.zeros(1),
    )
    p = forward(params, np.array([[50.0], [0.0]]))
    assert p[0] == 1.0
    assert p[1] == 0.5


def masked_sigmoid(z):
    """The sigmoid evaluated separately on the two sides of 0 via boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_reference_exactly():
    special = np.array([800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324,
                        np.inf, -np.inf, np.nan])
    random = 30.0 * np.random.default_rng(0).standard_normal(100_000)
    for z in (special, random):
        got, want = _sigmoid(z), masked_sigmoid(z)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
        np.testing.assert_array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


def reference_forward(params, X):
    """forward as first written, with ``@`` products and new arrays."""
    w1, b1, w2, b2, w3, b3 = params
    h1 = np.maximum(X @ w1 + b1, 0.0)
    h2 = np.maximum(h1 @ w2 + b2, 0.0)
    return _sigmoid((h2 @ w3 + b3)[:, 0])


@pytest.mark.parametrize("rows", [1, 7, 300])
@pytest.mark.parametrize("width", [1, 4])
def test_forward_matches_reference_bit_for_bit(rows, width):
    rng = np.random.default_rng([rows, width])
    params = random_params(rng, n_in=width, h=20)
    X = rng.standard_normal((rows, width))
    want = reference_forward(params, X)
    got = forward(params, X)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_predict_rejects_wrong_width():
    model = MlpModel(params=zero_params(n_in=3), shift=0)
    with pytest.raises(ShapeMismatch):
        predict_deep(model, np.zeros((4, 2)))


# --- gradients ------------------------------------------------------------

def test_analytic_gradients_match_finite_differences():
    for draw in range(3):
        rng = np.random.default_rng(draw)
        X = rng.standard_normal((20, 3))
        y = rng.integers(0, 2, 20).astype(np.float64)
        params = random_params(rng)
        _, ana = loss_and_grads(params, X, y)
        num = numeric_grads(params, X, y)
        a = np.concatenate([g.ravel() for g in ana])
        n = np.concatenate([g.ravel() for g in num])
        rel = np.linalg.norm(a - n) / max(np.linalg.norm(a) + np.linalg.norm(n), 1e-12)
        assert rel < 1e-4, (draw, rel)


def test_loss_is_binary_cross_entropy():
    params = zero_params(n_in=1, h=2)
    X = np.zeros((4, 1))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    loss, _ = loss_and_grads(params, X, y)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def reference_loss_and_grads(params, X, y):
    """loss_and_grads as first written, with ``@`` products and new arrays."""
    w1, b1, w2, b2, w3, b3 = params
    n = X.shape[0]
    z1 = X @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    z3 = (h2 @ w3 + b3)[:, 0]
    loss = float(np.add.reduce(np.logaddexp(0.0, z3) - y * z3) / n)
    p = _sigmoid(z3)
    dz3 = ((p - y) / n)[:, None]
    gw3 = h2.T @ dz3
    gb3 = np.add.reduce(dz3)
    dz2 = (dz3 @ w3.T) * (z2 > 0.0)
    gw2 = h1.T @ dz2
    gb2 = np.add.reduce(dz2)
    dz1 = (dz2 @ w2.T) * (z1 > 0.0)
    gw1 = X.T @ dz1
    gb1 = np.add.reduce(dz1)
    return loss, (gw1, gb1, gw2, gb2, gw3, gb3)


def flat_views(params, fill):
    """Arrays shaped like ``params``, as views into one flat buffer of ``fill``."""
    flat = np.full(sum(p.size for p in params), fill)
    cuts = np.cumsum([p.size for p in params])[:-1]
    return tuple(part.reshape(p.shape) for part, p in zip(np.split(flat, cuts), params))


@pytest.mark.parametrize("batch", [1, 17, 20, 40])
@pytest.mark.parametrize("width", [1, 4, 12])
@pytest.mark.parametrize("hidden", [4, 20])
def test_loss_and_grads_match_reference_bit_for_bit(batch, width, hidden):
    for draw in range(5):
        rng = np.random.default_rng([batch, width, hidden, draw])
        params = random_params(rng, n_in=width, h=hidden)
        X = rng.standard_normal((batch, width))
        y = rng.integers(0, 2, batch).astype(np.float64)
        want_loss, want = reference_loss_and_grads(params, X, y)
        out = flat_views(params, np.nan)
        for kwargs in ({}, {"out": out}):
            loss, got = loss_and_grads(params, X, y, **kwargs)
            assert np.float64(loss).view(np.uint64) == np.float64(want_loss).view(np.uint64)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))
        assert all(g is o for g, o in zip(got, out))


# --- shifted pairs --------------------------------------------------------

def test_shifted_pairs_zero_shift_is_identity():
    vals = np.arange(10.0).reshape(5, 2)
    lab = np.array([0, 1, 0, 1, 0])
    out_v, out_l = shifted_pairs(vals, lab, 0)
    assert out_v is vals
    assert out_l is lab


def test_shifted_pairs_drops_tail_rows():
    vals = np.arange(10.0).reshape(5, 2)
    lab = np.array([0, 1, 0, 1, 1])
    out_v, out_l = shifted_pairs(vals, lab, 2)
    np.testing.assert_array_equal(out_v, vals[:3])
    np.testing.assert_array_equal(out_l, [0, 1, 1])


def test_shifted_pairs_validation():
    vals = np.zeros((3, 1))
    lab = np.zeros(3)
    with pytest.raises(ValueError):
        shifted_pairs(vals, lab, -1)
    with pytest.raises(TooFewSamples):
        shifted_pairs(vals, lab, 3)


# --- training -------------------------------------------------------------

def toy_data(seed, n=200):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    X = X[np.abs(X[:, 0]) > 0.1]
    y = (X[:, 0] > 0.0).astype(np.int64)
    return X, y


def test_training_learns_separable_data():
    for seed in range(10):
        X, y = toy_data(seed + 100)
        model = train_deep(X, y, TrainConfig(seed=seed))
        report = predict_deep(model, X)
        assert float((report.verdicts == y).mean()) >= 0.99


def test_training_is_deterministic():
    X, y = toy_data(0)
    a = train_deep(X, y, TrainConfig(seed=5, epochs=5))
    b = train_deep(X, y, TrainConfig(seed=5, epochs=5))
    c = train_deep(X, y, TrainConfig(seed=6, epochs=5))
    assert a.to_dict() == b.to_dict()
    assert a.to_dict()["weights"] != c.to_dict()["weights"]


def test_training_requires_both_classes():
    X = np.random.default_rng(0).standard_normal((50, 2))
    with pytest.raises(SingleClassTraining):
        train_deep(X, np.zeros(50), TrainConfig())


def test_training_requires_a_full_batch():
    X = np.random.default_rng(0).standard_normal((10, 2))
    y = np.arange(10) % 2
    with pytest.raises(TooFewSamples):
        train_deep(X, y, TrainConfig(batch=20))


def test_shift_is_recorded_and_changes_the_model():
    X, y = toy_data(1)
    plain = train_deep(X, y, TrainConfig(seed=0, epochs=5))
    shifted = train_deep(X, y, TrainConfig(seed=0, epochs=5), shift=3)
    assert plain.shift == 0
    assert shifted.shift == 3
    assert plain.to_dict()["weights"] != shifted.to_dict()["weights"]


def reference_train(values, labels, config, shift):
    """Adam over each parameter array separately, gathering X[rows] per step."""
    X, y = shifted_pairs(np.asarray(values, dtype=np.float64),
                         np.asarray(labels, dtype=np.float64), shift)
    n = X.shape[0]
    params = [p.copy() for p in init_params(X.shape[1], HIDDEN, config.seed)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    shuffle_rng = derived_rng(config.seed, "mlp-shuffle")
    step = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch):
            rows = order[start : start + config.batch]
            _, grads = loss_and_grads(tuple(params), X[rows], y[rows])
            step += 1
            for i, g in enumerate(grads):
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g
                m_hat = m[i] / (1.0 - BETA1**step)
                v_hat = v[i] / (1.0 - BETA2**step)
                params[i] = params[i] - config.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params


@pytest.mark.parametrize(
    "rows, batch, shift, seed",
    [
        (117, 20, 0, 0),  # last minibatch of each epoch holds 17 rows
        (117, 20, 3, 1),
        (40, 40, 0, 1),  # one minibatch per epoch
        (43, 40, 3, 0),
    ],
)
def test_training_matches_per_array_reference_bit_for_bit(rows, batch, shift, seed):
    rng = np.random.default_rng(rows + seed)
    X = rng.standard_normal((rows, 4))
    y = (X[:, 0] + 0.5 * rng.standard_normal(rows) > 0.5).astype(np.float64)
    config = TrainConfig(epochs=30, batch=batch, seed=seed)
    model = train_deep(X, y, config, shift=shift)
    expected = reference_train(X, y, config, shift)
    for got, want in zip(model.params, expected, strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "bad",
    [{"batch": 0}, {"batch": -5}, {"epochs": 0},
     {"lr": 0.0}, {"lr": -1e-3}, {"lr": float("nan")}, {"lr": float("inf")},
     {"epochs": 2.5}, {"batch": True}, {"lr": "x"}],
)
def test_training_rejects_bad_config(bad):
    X, y = toy_data(0)
    (name,) = bad
    with pytest.raises(InvalidConfig, match=rf"^train\.{name} must be "):
        train_deep(X, y, TrainConfig(**bad))


def test_training_stops_on_a_nan_input_row():
    X, y = toy_data(0)
    X[37, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
        NonFiniteLoss, match="loss became nan at step"
    ):
        train_deep(X, y, TrainConfig(seed=0, epochs=3))


def test_training_stops_when_adam_moments_overflow():
    # (1 - beta2) * g * g overflows to inf, which would zero the steps of
    # the weights it touches while the loss stays finite
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 3))
    y = (X[:, 0] > 0.0).astype(np.float64)
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteLoss, match="Adam moments became non-finite in epoch 0"
    ):
        train_deep(X * 1e200, y, TrainConfig(seed=0, epochs=3))


# --- persistence ----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    X, y = toy_data(2)
    M = assemble([
        ScoreVector(values=X[:, 0], learner="knn"),
        ScoreVector(values=X[:, 1], learner="lof"),
    ])
    model = train_deep(M.values, y, TrainConfig(seed=3, epochs=5))
    path = tmp_path / "model.json"
    path.write_text(dumps_json(model.to_dict()))
    loaded = MlpModel.load(path)
    assert loaded.to_dict() == model.to_dict()
    a = predict_deep(model, M.values)
    b = predict_deep(loaded, M.values)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)


def test_model_document_holds_weights_and_shift():
    X, y = toy_data(3)
    doc = train_deep(X, y, TrainConfig(seed=0, epochs=2), shift=2).to_dict()
    assert set(doc) == {"schema_version", "layers", "weights", "shift"}
    assert doc["schema_version"] == 2
    assert doc["layers"] == [2, HIDDEN, HIDDEN, 1]
    assert doc["shift"] == 2


@pytest.mark.parametrize("version", [1, 99, None])
def test_load_rejects_unknown_schema(tmp_path, version):
    X, y = toy_data(3)
    doc = train_deep(X, y, TrainConfig(seed=0, epochs=2)).to_dict()
    if version == 1:
        # the schema-1 document also carried the training config, the 0.5
        # threshold and the score normalization
        doc = {**doc, "schema_version": 1, "threshold": 0.5,
               "config": {"epochs": 2, "batch": 20, "lr": 1e-3, "beta1": 0.9,
                          "beta2": 0.999, "eps": 1e-8, "hidden": 20, "seed": 0},
               "norm": {"learner_names": ["knn", "lof"], "means": [0.0, 0.0],
                        "stds": [1.0, 1.0]}}
    elif version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    path = tmp_path / "model.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: unsupported model "
                       rf"schema_version {version}, expected 2"):
        MlpModel.load(path)


def malformed_models(doc):
    """(id, file text) of model.json files broken one way each."""
    yield "not json", "{"
    yield "not an object", "[]"
    yield "no weights", dumps_json({k: v for k, v in doc.items() if k != "weights"})
    yield "no b3", dumps_json({**doc, "weights": {k: v for k, v in doc["weights"].items() if k != "b3"}})
    yield "weights not an object", dumps_json({**doc, "weights": [1, 2]})
    yield "ragged W1", dumps_json({**doc, "weights": {**doc["weights"], "W1": [[1.0], [1.0, 2.0]]}})
    yield "shift not a number", dumps_json({**doc, "shift": "x"})
    yield "negative shift", dumps_json({**doc, "shift": -3})
    # a shift is an integer as written, not a float, a bool or a string
    yield "fractional shift", dumps_json({**doc, "shift": 2.7})
    yield "boolean shift", dumps_json({**doc, "shift": True})
    yield "string shift", dumps_json({**doc, "shift": "3"})


def test_load_rejects_malformed_models(tmp_path):
    X, y = toy_data(3)
    doc = train_deep(X, y, TrainConfig(seed=0, epochs=2)).to_dict()
    for case, text in malformed_models(doc):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            MlpModel.load(path)


# --- containers / stats ---------------------------------------------------

def test_model_validation():
    with pytest.raises(NonFiniteLoss):
        MlpModel(params=(np.full((2, 20), np.nan),) + zero_params()[1:], shift=0)
    with pytest.raises(ShapeMismatch):
        MlpModel(params=zero_params()[:4], shift=0)
    bad = list(zero_params())
    bad[2] = np.zeros((21, 20))  # does not chain after W1
    with pytest.raises(ShapeMismatch):
        MlpModel(params=tuple(bad), shift=0)


def test_init_params_deterministic_and_scaled():
    a = init_params(4, 20, seed=1)
    b = init_params(4, 20, seed=1)
    c = init_params(4, 20, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    assert a[0].std() == pytest.approx(np.sqrt(2.0 / 4.0), rel=0.3)
    np.testing.assert_array_equal(a[1], np.zeros(20))
