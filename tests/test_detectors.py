"""Base learners: isolation forest, KNN distance, LOF, one-class SVM."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from perfdiag.core import SelectedFrame
from perfdiag.detectors import DetectorSpec, ScoreVector, fit_score, threshold
from perfdiag.detectors.iforest import avg_path_length, iforest_scores
from perfdiag.detectors.neighbors import knn_scores, lof_scores
from perfdiag.detectors.ocsvm import ocsvm_fit, rbf_gamma, rbf_kernel
from perfdiag.errors import InvalidConfig, NumericalFailure, TooFewSamples


def sel(X):
    X = np.asarray(X, dtype=np.float64)
    return SelectedFrame(
        timestamps=np.arange(X.shape[0], dtype=np.int64) * 15,
        values=X,
        columns=tuple(f"m{i}" for i in range(X.shape[1])),
        method="none",
    )


def knn_oracle(X, k):
    """Quadratic-time k-th neighbor distance, no chunking or partition."""
    d = X.shape[0]
    out = np.empty(d)
    for i in range(d):
        dist = sorted(
            math.dist(X[i], X[j]) for j in range(d) if j != i
        )
        out[i] = dist[k - 1]
    return out


def lof_oracle(X, k):
    """Plain-loop LOF with ties-inclusive neighborhoods."""
    d = X.shape[0]
    dist = np.array([[math.dist(X[i], X[j]) for j in range(d)] for i in range(d)])
    np.fill_diagonal(dist, np.inf)
    kdist = np.sort(dist, axis=1)[:, k - 1]
    nbrs = [np.flatnonzero(dist[i] <= kdist[i]) for i in range(d)]
    lrd = np.empty(d)
    for i in range(d):
        reach = [max(kdist[j], dist[i, j]) for j in nbrs[i]]
        mean = sum(reach) / len(reach)
        lrd[i] = np.inf if mean == 0.0 else 1.0 / mean
    out = np.empty(d)
    for i in range(d):
        if np.isinf(lrd[i]):
            out[i] = 1.0
        else:
            out[i] = lrd[nbrs[i]].mean() / lrd[i]
    return out


# --- isolation forest -----------------------------------------------------

def test_avg_path_length_base_cases():
    assert avg_path_length(0) == 0.0
    assert avg_path_length(1) == 0.0
    assert avg_path_length(2) == 1.0


def test_avg_path_length_matches_closed_form():
    gamma = 0.5772156649015329
    expect = 2.0 * (math.log(255) + gamma) - 2.0 * 255 / 256
    assert avg_path_length(256) == pytest.approx(expect, rel=1e-12)
    # the log + gamma form tracks the exact harmonic number closely
    exact = 2.0 * sum(1.0 / i for i in range(1, 256)) - 2.0 * 255 / 256
    assert avg_path_length(256) == pytest.approx(exact, abs=0.01)


def test_iforest_deterministic_and_seed_sensitive():
    X = np.random.default_rng(3).standard_normal((80, 2))
    f = sel(X)
    a = fit_score(DetectorSpec(kind="iforest", seed=7), f)
    b = fit_score(DetectorSpec(kind="iforest", seed=7), f)
    c = fit_score(DetectorSpec(kind="iforest", seed=8), f)
    assert a == b
    assert a != c


def test_iforest_scores_in_unit_interval():
    X = np.random.default_rng(1).standard_normal((120, 3))
    scores = iforest_scores(X, np.random.default_rng(0))
    assert scores.shape == (120,)
    assert (scores > 0.0).all()
    assert (scores <= 1.0).all()


def test_every_learner_ranks_gross_outlier_first():
    # a 10-sigma point must take the top score for all learners and seeds
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((100, 3))
        X[-1] = 10.0
        f = sel(X)
        for kind in ("iforest", "knn", "lof", "ocsvm"):
            scores = fit_score(DetectorSpec(kind=kind, seed=seed), f)
            assert int(np.argmax(scores.values)) == 99, (kind, seed)


# --- knn ------------------------------------------------------------------

def test_knn_line_distances():
    X = np.array([[0.0], [1.0], [2.0], [100.0]])
    np.testing.assert_allclose(knn_scores(X, 1), [1.0, 1.0, 1.0, 98.0])


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for k in (1, 3, 7):
        X = rng.standard_normal((40, 4))
        np.testing.assert_allclose(knn_scores(X, k), knn_oracle(X, k), rtol=1e-9)


def test_knn_duplicate_point_never_raises_scores():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 2))
    base = knn_scores(X, 3)
    aug = knn_scores(np.vstack([X, X[:1]]), 3)
    assert (aug[:20] <= base + 1e-12).all()


def test_knn_too_few_points():
    with pytest.raises(TooFewSamples):
        knn_scores(np.zeros((3, 2)), 3)


def direct_reference(X, k):
    """KNN and LOF from the full (x - y)^2 expansion, no screening.

    Pile-edge points (inf LOF next to more than k duplicates) take the
    largest finite LOF, as in lof_scores.
    """
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    kdist = np.partition(dist, k - 1, axis=1)[:, k - 1]
    nbrs = [np.flatnonzero(row <= kd) for row, kd in zip(dist, kdist)]
    lrd = np.empty(len(X))
    for p, nb in enumerate(nbrs):
        mean = np.maximum(kdist[nb], dist[p, nb]).mean()
        lrd[p] = np.inf if mean == 0.0 else 1.0 / mean
    lof = np.array([
        1.0 if np.isinf(lrd[p]) else lrd[nb].mean() / lrd[p]
        for p, nb in enumerate(nbrs)
    ])
    lof[np.isinf(lof)] = lof[np.isfinite(lof)].max()
    return kdist, lof, max(len(nb) for nb in nbrs)


def test_neighbor_pass_exact_on_hostile_inputs():
    # duplicates, 0.25 quantization, a constant column and a +1e6 offset
    # (worst case for Gram-identity cancellation); small k lands in ties
    rng = np.random.default_rng(21)
    tied = 0
    for trial in range(6):
        X = np.round(rng.standard_normal((120, 3 + 5 * trial)) * 4.0) / 4.0
        X[:, 1] = 7.0
        X[40:43] = X[10]
        X[90:96] = X[60]
        X += 1e6
        for k in (1, 2, 3, 8):
            kdist, lof, widest = direct_reference(X, k)
            tied += widest > k
            np.testing.assert_array_equal(knn_scores(X, k), kdist)
            np.testing.assert_array_equal(lof_scores(X, k), lof)
            np.testing.assert_allclose(kdist, knn_oracle(X, k), rtol=1e-9, atol=0.0)
            want = lof_oracle(X, k)
            finite = np.isfinite(want)
            np.testing.assert_allclose(lof[finite], want[finite], rtol=1e-9, atol=0.0)
    assert tied >= 12  # most cases really cut through a distance tie


def test_neighbor_pass_memory_bounded():
    # SMD width, quantized values and 5-row stalls
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    X = np.round(rng.standard_normal((10_000, 38)) * 4.0) / 4.0
    for s in range(0, 10_000, 50):
        X[s + 1:s + 5] = X[s]
    tracemalloc.start()
    try:
        knn_scores(X, 5)
        lof_scores(X, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 20.0, f"runtime budget 20 s exceeded: {elapsed:.1f}s"


# --- lof ------------------------------------------------------------------

def test_lof_uniform_grid_near_one():
    G = np.arange(10.0)[:, None]
    scores = lof_scores(G, 2)
    assert (np.abs(scores[2:8] - 1.0) <= 0.2).all()


def test_lof_isolated_point_scores_high():
    G = np.vstack([np.arange(10.0)[:, None], [[100.0]]])
    scores = lof_scores(G, 2)
    assert scores[-1] > 10.0
    assert scores[-1] > 5.0 * scores[:-1].max()


def test_lof_duplicate_pile_is_one():
    scores = lof_scores(np.zeros((5, 2)), 2)
    np.testing.assert_array_equal(scores, np.ones(5))


def test_lof_survives_long_duplicate_stall():
    # 25 identical rows beside distinct ones: the pile's lrd is infinite, so
    # its finite-lrd neighbours would score inf and fail the run
    rng = np.random.default_rng(3)
    X = np.vstack([np.zeros((25, 2)), rng.standard_normal((100, 2))])
    raw = lof_oracle(X, 20)
    edge = np.isinf(raw)
    assert edge.any()
    scores = fit_score(DetectorSpec("lof"), sel(X)).values
    np.testing.assert_array_equal(scores[:25], 1.0)
    np.testing.assert_array_equal(scores[edge], raw[~edge].max())
    np.testing.assert_allclose(scores[~edge], raw[~edge], rtol=1e-9)


def test_lof_matches_bruteforce_oracle():
    rng = np.random.default_rng(13)
    for k in (2, 5):
        X = rng.standard_normal((35, 3))
        np.testing.assert_allclose(lof_scores(X, k), lof_oracle(X, k), rtol=1e-9)


def test_lof_too_few_points():
    with pytest.raises(TooFewSamples):
        lof_scores(np.zeros((4, 2)), 4)


# --- ocsvm ----------------------------------------------------------------

def test_ocsvm_identical_points_equal_decisions():
    model = ocsvm_fit(np.zeros((2, 1)), nu=0.5)
    dec = model.decision(np.zeros((2, 1)))
    assert dec[0] == dec[1]


def test_ocsvm_kkt_conditions():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 2))
    for nu in (0.1, 0.5):
        model = ocsvm_fit(X, nu=nu)
        C = 1.0 / (nu * 200)
        assert model.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        assert (model.alphas >= 0.0).all()
        assert (model.alphas <= C * (1.0 + 1e-9)).all()


def test_ocsvm_nu_bounds_outlier_fraction():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 2))
    for nu in (0.1, 0.2, 0.5):
        model = ocsvm_fit(X, nu=nu)
        dec = model.decision(X)
        frac_out = float((dec < 0.0).mean())
        frac_sv = model.alphas.shape[0] / 200
        assert frac_out <= nu + 0.05
        assert frac_sv >= nu - 0.05


def test_ocsvm_gamma_default_rule():
    X = np.random.default_rng(4).standard_normal((50, 3)) * 2.0
    assert rbf_gamma(X) == pytest.approx(1.0 / (3 * X.var()), rel=1e-12)
    assert rbf_gamma(np.zeros((4, 5))) == pytest.approx(1.0 / 5)


def test_rbf_kernel_diag_is_one():
    X = np.random.default_rng(6).standard_normal((20, 3))
    K = rbf_kernel(X, X, gamma=0.5)
    np.testing.assert_allclose(np.diag(K), np.ones(20), atol=1e-12)
    assert (K <= 1.0 + 1e-12).all()
    assert (K > 0.0).all()


def test_ocsvm_too_few_points():
    with pytest.raises(TooFewSamples):
        ocsvm_fit(np.zeros((1, 2)), nu=0.5)


# --- spec / threshold / score container -----------------------------------

def test_detector_spec_validation():
    with pytest.raises(InvalidConfig):
        DetectorSpec(kind="svm")
    with pytest.raises(InvalidConfig):
        DetectorSpec(kind="knn", anomaly_fraction=0.0)
    with pytest.raises(InvalidConfig):
        DetectorSpec(kind="knn", knn_k=0)
    with pytest.raises(InvalidConfig):
        DetectorSpec(kind="ocsvm", nu=1.5)


def test_threshold_flags_top_fraction():
    scores = ScoreVector(values=np.array([1.0, 2.0, 3.0, 4.0]), learner="knn")
    np.testing.assert_array_equal(threshold(scores, 0.25), [0, 0, 0, 1])


def test_threshold_ceil_rule():
    scores = ScoreVector(values=np.arange(10.0), learner="knn")
    verdicts = threshold(scores, 0.3)  # ceil(3.0) keeps exactly 3
    assert verdicts.sum() == 3
    np.testing.assert_array_equal(np.flatnonzero(verdicts), [7, 8, 9])


def test_threshold_ties_favor_earlier_rows():
    scores = ScoreVector(values=np.full(4, 5.0), learner="knn")
    np.testing.assert_array_equal(threshold(scores, 0.25), [1, 0, 0, 0])


def test_threshold_rejects_bad_fraction():
    scores = ScoreVector(values=np.array([1.0, 2.0]), learner="knn")
    with pytest.raises(InvalidConfig):
        threshold(scores, 1.0)


def test_score_vector_rejects_non_finite():
    with pytest.raises(NumericalFailure):
        ScoreVector(values=np.array([1.0, np.nan]), learner="lof")
    with pytest.raises(NumericalFailure):
        ScoreVector(values=np.array([np.inf]), learner="lof")
