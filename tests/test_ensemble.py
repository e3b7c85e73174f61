"""Score assembly, linear ensembles, MI weighting, chronological split."""

import numpy as np
import pytest

from perfdiag.core import LabelSeries, ScoreMatrix
from perfdiag.detectors import ScoreVector
from perfdiag.ensemble import (
    EnsembleWeights,
    assemble,
    ensemble_avg,
    ensemble_max,
    ensemble_weighted,
    mi_weights,
    split,
)
from perfdiag.errors import (
    ConstantColumnWarning,
    DegenerateSplitWarning,
    InvalidConfig,
    LengthMismatch,
    ShapeMismatch,
)


def sv(vals, learner):
    return ScoreVector(values=np.asarray(vals, dtype=np.float64), learner=learner)


def sm(vals, names=None):
    vals = np.asarray(vals, dtype=np.float64)
    k = vals.shape[1]
    names = names or tuple(f"l{i}" for i in range(k))
    return ScoreMatrix(values=vals, learner_names=names)


# --- assemble -------------------------------------------------------------

def test_assemble_canonical_column_order():
    M = assemble([sv([1, 2, 3], "ocsvm"), sv([4, 5, 6], "iforest"), sv([7, 8, 9], "knn")])
    assert M.learner_names == ("iforest", "knn", "ocsvm")


def test_assemble_zscores_columns():
    M = assemble([sv([1.0, 2.0, 3.0], "knn")])
    expect = 1.224744871391589
    np.testing.assert_allclose(M.values[:, 0], [-expect, 0.0, expect], atol=1e-12)


def test_assemble_constant_column_zeroed_with_warning():
    with pytest.warns(ConstantColumnWarning):
        M = assemble([sv([5.0, 5.0, 5.0], "lof"), sv([1.0, 2.0, 3.0], "knn")])
    np.testing.assert_array_equal(M.values[:, M.learner_names.index("lof")], 0.0)


def test_assemble_rejects_mismatched_lengths():
    with pytest.raises(LengthMismatch):
        assemble([sv([1, 2], "knn"), sv([1, 2, 3], "lof")])
    with pytest.raises(LengthMismatch):
        assemble([])


def test_assemble_rejects_duplicate_learners():
    with pytest.raises(InvalidConfig):
        assemble([sv([1, 2], "knn"), sv([3, 4], "knn")])


def test_assemble_single_learner():
    M = assemble([sv([0.0, 10.0], "iforest")])
    assert M.n_learners == 1
    assert M.n_samples == 2


# --- max / avg / weighted -------------------------------------------------

def test_max_and_avg_rows():
    M = sm([[1.0, 2.0], [3.0, 0.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(ensemble_max(M).values, [2.0, 3.0, -1.0])
    np.testing.assert_array_equal(ensemble_avg(M).values, [1.5, 1.5, -1.0])


def test_max_equals_avg_on_equal_row():
    M = sm([[0.5, 0.5, 0.5]])
    assert ensemble_max(M).values[0] == ensemble_avg(M).values[0] == 0.5


def test_row_permutation_equivariance():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    w = EnsembleWeights(w=np.array([0.2, 0.3, 0.5]))
    for fn in (ensemble_max, ensemble_avg, lambda m: ensemble_weighted(m, w)):
        direct = fn(sm(vals)).values[perm]
        permuted = fn(sm(vals[perm])).values
        np.testing.assert_array_equal(direct, permuted)


def test_weighted_one_hot_selects_column():
    M = sm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    w = EnsembleWeights(w=np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(ensemble_weighted(M, w).values, [2.0, 5.0])


def test_weighted_uniform_matches_avg():
    rng = np.random.default_rng(1)
    M = sm(rng.standard_normal((15, 4)))
    w = EnsembleWeights(w=np.full(4, 0.25))
    np.testing.assert_allclose(
        ensemble_weighted(M, w).values, ensemble_avg(M).values, rtol=1e-12
    )


def test_weighted_plain_dot_product():
    M = sm([[2.0, -1.0, 0.5, 4.0]])
    w = EnsembleWeights(w=np.array([0.39, 0.28, 0.04, 0.29]))
    expect = 2.0 * 0.39 - 1.0 * 0.28 + 0.5 * 0.04 + 4.0 * 0.29
    assert ensemble_weighted(M, w).values[0] == pytest.approx(expect, rel=1e-12)


def test_weighted_shape_mismatch():
    M = sm([[1.0, 2.0]])
    with pytest.raises(ShapeMismatch):
        ensemble_weighted(M, EnsembleWeights(w=np.array([1.0])))


def test_ensemble_weights_validation():
    with pytest.raises(InvalidConfig):
        EnsembleWeights(w=np.array([0.5, 0.6]))
    with pytest.raises(InvalidConfig):
        EnsembleWeights(w=np.array([-0.5, 1.5]))
    with pytest.raises(InvalidConfig):
        EnsembleWeights(w=np.array([[1.0]]))


# --- mi weights -----------------------------------------------------------

def test_mi_weights_identical_columns_fall_back_to_uniform():
    a = np.random.default_rng(9).standard_normal(300)
    w = mi_weights(sm(np.column_stack([a, a, a])))
    np.testing.assert_allclose(w.w, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_mi_weights_reward_the_dissenting_learner():
    # two copies of one signal and one independent column: the normalized
    # MI between the copies is 1, so the algebra pins the weights at
    # (1/4, 1/4, 1/2) no matter how the copy-vs-noise MI comes out
    rng = np.random.default_rng(9)
    a = rng.standard_normal(300)
    b = rng.standard_normal(300)
    w = mi_weights(sm(np.column_stack([a, a, b])))
    np.testing.assert_allclose(w.w, [0.25, 0.25, 0.5], atol=1e-12)
    assert w.w.sum() == pytest.approx(1.0, abs=1e-12)


def test_mi_weights_affine_invariant():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(300)
    b = rng.standard_normal(300)
    base = mi_weights(sm(np.column_stack([a, a, b])))
    scaled = mi_weights(
        sm(np.column_stack([a * 7.0 - 3.0, a * 7.0 - 3.0, b * 0.1 + 5.0]))
    )
    np.testing.assert_array_equal(base.w, scaled.w)


def test_mi_weights_single_learner():
    w = mi_weights(sm(np.random.default_rng(2).standard_normal((50, 1))))
    np.testing.assert_array_equal(w.w, [1.0])


# --- chronological split --------------------------------------------------

def labels(bits):
    bits = np.asarray(bits)
    return LabelSeries(timestamps=np.arange(bits.shape[0], dtype=np.int64), labels=bits)


def test_split_half():
    M = sm(np.arange(20.0).reshape(10, 2))
    (Xtr, ytr), (Xte, yte) = split(M, labels([0, 1] * 5), 0.5)
    assert Xtr.shape == (5, 2) and Xte.shape == (5, 2)
    np.testing.assert_array_equal(Xtr, M.values[:5])
    np.testing.assert_array_equal(yte, [1, 0, 1, 0, 1])


def test_split_ceil_rounding():
    M = sm(np.arange(20.0).reshape(10, 2))
    (Xtr, _), (Xte, _) = split(M, labels([0, 1] * 5), 0.9)
    assert Xtr.shape[0] == 9
    assert Xte.shape[0] == 1


def test_split_empty_side_warns():
    M = sm(np.arange(8.0).reshape(4, 2))
    with pytest.warns(DegenerateSplitWarning):
        split(M, labels([0, 1, 0, 1]), 0.0)
    with pytest.warns(DegenerateSplitWarning):
        split(M, labels([0, 1, 0, 1]), 1.0)


def test_split_single_class_train_warns():
    M = sm(np.arange(8.0).reshape(4, 2))
    with pytest.warns(DegenerateSplitWarning):
        split(M, labels([0, 0, 1, 1]), 0.5)


def test_split_validation():
    M = sm(np.arange(8.0).reshape(4, 2))
    with pytest.raises(InvalidConfig):
        split(M, labels([0, 1, 0, 1]), 1.5)
    with pytest.raises(LengthMismatch):
        split(M, labels([0, 1]), 0.5)
