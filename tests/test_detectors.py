"""Base learners: isolation forest, KNN distance, LOF, one-class SVM."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from perfdiag.core import SelectedFrame
from perfdiag.detectors import DetectorSpec, ScoreVector, fit_score, neighbors, threshold
from perfdiag.detectors.iforest import avg_path_length, iforest_scores
from perfdiag.detectors.neighbors import knn_scores, lof_scores, neighbor_pass
from perfdiag.detectors.ocsvm import ocsvm_fit, ocsvm_scores, rbf_gamma, rbf_kernel
from perfdiag.errors import InvalidConfig, NumericalFailure, TooFewSamples


def sel(X):
    X = np.asarray(X, dtype=np.float64)
    return SelectedFrame(
        timestamps=np.arange(X.shape[0], dtype=np.int64) * 15,
        values=X,
        columns=tuple(f"m{i}" for i in range(X.shape[1])),
        method="none",
    )


def stalled_quarter_steps(rng, n, f):
    """Values on a 0.25 grid, each 50-row stretch opening with a 5-row stall."""
    X = np.round(rng.standard_normal((n, f)) * 4.0) / 4.0
    for s in range(0, n, 50):
        X[s + 1:s + 5] = X[s]
    return X


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
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_iforest_scores_in_unit_interval():
    X = np.random.default_rng(1).standard_normal((120, 3))
    scores = iforest_scores(X, np.random.default_rng(0))
    assert scores.shape == (120,)
    assert (scores > 0.0).all()
    assert (scores <= 1.0).all()


# iforest_scores on the input below, recorded before the trees were grown and
# scored in one pass; any change to the RNG draw order or the routing shows
IFOREST_RECORDED = np.array([
    0.5126046890326689, 0.4286100735646346, 0.4819167269607285, 0.42791388576126993,
    0.48784537591359284, 0.45254468876244314, 0.3903386438825144, 0.38663187518622955,
    0.4633735226584392, 0.4578124965164866, 0.5047161851651898, 0.4892648926782654,
    0.42624746340109043, 0.4627499360465572, 0.404378363414085, 0.42320458803014843,
    0.4245646994689123, 0.4107419703443426, 0.4728035948496842, 0.4117721259167909,
    0.4027276218681765, 0.4278703543647238, 0.4243257484362878, 0.4192432923223173,
    0.48762963947282656, 0.5183258682567375, 0.5960931703984106, 0.42963890828339846,
    0.42035696882620494, 0.39341540070723313, 0.474579153268575, 0.4101659555367739,
    0.4217346950412171, 0.5483357529127572, 0.5896496980194115, 0.5646669749820957,
    0.3954241533663997, 0.4469121648344902, 0.41771690602668476, 0.47824525859596806,
    0.5757903528404792, 0.4436645849930575, 0.4271280300947976, 0.5278282891951961,
    0.5647282044596176, 0.39127424777190983, 0.40229097568740346, 0.5522641085145279,
    0.46819483557276553, 0.4409973730232838, 0.44201815736380423, 0.4203315678165304,
    0.45234018824448685, 0.5602881281534002, 0.48272635223306726, 0.4222404299982754,
    0.4043622649932153, 0.42712925291038634, 0.44039455500188196, 0.46412422902077993,
    0.46404089453931924, 0.43832509649135987, 0.40358270955489894, 0.4255530488673763,
    0.488130745409716, 0.4077843170522, 0.415928794671271, 0.3886718310297506,
    0.47453621137870167, 0.6332368543226847, 0.4502330800972944, 0.4101276309901165,
    0.4068290881317961, 0.40817705660597126, 0.4621300087039126, 0.45565448004452036,
    0.40657013670380127, 0.4105837280061388, 0.3984216055502654, 0.4218776329947698,
    0.4136599249458405, 0.4354604112329815, 0.5237863310082468, 0.5909405331755253,
    0.5818901814115369, 0.4295554416960576, 0.43201431013390523, 0.4458360946255388,
    0.44236605419766567, 0.4537145060318275, 0.4303550289202444, 0.4043622649932153,
    0.5467386979639656, 0.4552940526014305, 0.571582749283043, 0.5533272906137838,
    0.46961452211706645, 0.5254973172611264, 0.493918020141336, 0.3938684752190094,
    0.42768155081398057, 0.48162373099598976, 0.416683305132972, 0.5172000686168908,
    0.4128219496921384, 0.39528974492029095, 0.5566806925385361, 0.44552912084138274,
    0.3931450180836072, 0.44662575349795364, 0.42168401980452325, 0.38785716856751784,
    0.4994858623560956, 0.5373910616157086, 0.45104131269666536, 0.4009241205468351,
    0.46430540820684446, 0.4285552711858829, 0.45509999404742946, 0.4846906170445326,
    *[0.35246884618713115] * 60,  # rows 120-179, the stall
    0.4019871449200472, 0.48029801647713155, 0.44099178825724383, 0.43823762729635674,
    0.4054913332447212, 0.4378054999764553, 0.48402204081736006, 0.5095463023436964,
    0.46322848773162384, 0.4119893772370391, 0.5483181597806068, 0.4266204023324746,
    0.4547341699965907, 0.4729985516257004, 0.4203429476564308, 0.5126452585146145,
    0.4047783891306671, 0.4241340611862061, 0.5407475796355141, 0.5983678979455824,
    0.45673364727293964, 0.5115017620140898, 0.5825161076992875, 0.424906353261844,
    0.3946707559131267, 0.4479597653520746, 0.5377144053634415, 0.4503777401412309,
    0.42963890828339846, 0.40130259448368444, 0.4024312706796589, 0.497461132143921,
    0.5447154935220963, 0.38647211235033085, 0.4228095996615689, 0.47962519208956034,
    0.48545627788296186, 0.41770768662819957, 0.5895791896043673, 0.5167010501945521,
    0.4659160006730698, 0.5541702215429871, 0.3968423245365221, 0.5455241461290979,
    0.4221313930637339, 0.46845678086126386, 0.47050033384744133, 0.40188283238116945,
    0.44420306126750614, 0.4569326075312839, 0.46867776898089974, 0.40626422163079123,
    0.40092648659933255, 0.41129254095436846, 0.5289023312390261, 0.44753168329837884,
    0.41656082916833487, 0.4514487129523063, 0.530786211231935, 0.46982633577715066,
    0.4636156205878693, 0.43833820560388126, 0.4584317904794676, 0.5633832690605761,
    0.5286645696842932, 0.5541121860971161, 0.4136588306418157, 0.521423575674326,
    0.42417715916104437, 0.4020871754986505, 0.5110574381019227, 0.4512383453871344,
    0.46194165721907066, 0.5315670732772838, 0.5083749581415737, 0.4692245210924025,
    0.4964315210952459, 0.38412495875568176, 0.420297126338486, 0.4118775871139937,
    0.44287953300146055, 0.41513744869642155, 0.5232032617919741, 0.4020000018107739,
    0.4894260722749205, 0.4802927748172664, 0.4015920600869237, 0.4380807084002578,
    0.4667853392064658, 0.5143622524448251, 0.5429378414689098, 0.42993171925273416,
    0.44762172130407085, 0.4318829347311083, 0.4227640116229299, 0.44699995723886915,
    0.3966936933528464, 0.44464695848599584, 0.4133608543400956, 0.42826035161375725,
    0.4813130982816105, 0.4592013408040313, 0.5235276451198932, 0.518836281273001,
    0.46126698272285177, 0.4395765093421624, 0.4337181168342072, 0.43114320895577407,
    0.41971216513415516, 0.39278870994966225, 0.5268726518873732, 0.4562774275555668,
    0.44490963150306395, 0.4143586715071544, 0.4398525228436159, 0.4763402881544873,
    0.53965630846527, 0.4616173287447472, 0.4056336157567892, 0.43122145528964095,
])


def test_iforest_scores_match_recorded_values():
    X = np.round(np.random.default_rng(2024).standard_normal((300, 4)) * 4) / 4
    X[120:180] = X[120]  # a stall: 60 identical rows
    scores = iforest_scores(X, np.random.default_rng(9))
    np.testing.assert_allclose(scores, IFOREST_RECORDED, rtol=1e-15, atol=0)


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


def hostile_inputs():
    """The inputs of test_neighbor_pass_exact_on_hostile_inputs."""
    rng = np.random.default_rng(21)
    for trial in range(6):
        X = np.round(rng.standard_normal((120, 3 + 5 * trial)) * 4.0) / 4.0
        X[:, 1] = 7.0
        X[40:43] = X[10]
        X[90:96] = X[60]
        yield X + 1e6


def edge_inputs():
    """(X, k) at the edges of the pass's column sample and of its blocks."""
    rng = np.random.default_rng(33)
    for k in (3, 8):
        # at d = k + 1 the sample is the whole row with its own column in
        # it, so it holds exactly k finite values; k + 2 and 2k + 3 give
        # strides of 1 and 2
        for d in (k + 1, k + 2, 2 * k + 3):
            yield np.round(rng.standard_normal((d, 3)) * 2.0) / 2.0, k
    # a 595-row pile, wider than the 218-row blocks of 600 rows, so a row's
    # candidates span nearly every column
    X = np.round(rng.standard_normal((600, 3)) * 4.0) / 4.0
    X[5:] = X[5]
    yield X, 8


def test_neighbor_pass_exact_at_block_and_sample_edges(monkeypatch):
    cases = [(X, k, neighbors._BLOCK_BYTES, neighbors._BLOCK_ROWS_MIN) for X, k in edge_inputs()]
    # 25-row blocks: 120 rows span four full blocks and a partial fifth
    cases += [(X, k, 8 * 120 * 25, 1) for X in hostile_inputs() for k in (1, 8)]
    widest_pile = 0
    for X, k, budget, floor in cases:
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(neighbors, "_BLOCK_ROWS_MIN", floor)
        got = neighbor_pass(X, (k,)), lof_scores(X, k)
        # one block holds the whole input at the former 8 MiB budget
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 << 20)
        want = neighbor_pass(X, (k,)), lof_scores(X, k)
        np.testing.assert_array_equal(got[0][0][k], want[0][0][k])
        for a, b in zip((*got[0][1:], got[1]), (*want[0][1:], want[1])):
            np.testing.assert_array_equal(a, b)
        kdist, lof, widest = direct_reference(X, k)
        np.testing.assert_array_equal(got[0][0][k], kdist)
        np.testing.assert_array_equal(got[1], lof)
        widest_pile = max(widest_pile, widest)
    assert widest_pile >= 594  # the pile really fills its rows' lists


@pytest.mark.parametrize("knn_k, lof_k", [(5, 20), (20, 5), (3, 3), (1, 8)])
def test_shared_pass_equals_a_pass_per_k(knn_k, lof_k):
    # the pass runs at the larger k and serves the smaller one from the same
    # candidates; lof at the smaller k keeps the entries within its k-distance
    for X in hostile_inputs():
        shared = neighbor_pass(X, (knn_k, lof_k))
        np.testing.assert_array_equal(knn_scores(X, knn_k, shared), knn_scores(X, knn_k))
        np.testing.assert_array_equal(lof_scores(X, lof_k, shared), lof_scores(X, lof_k))
        for k in (knn_k, lof_k):
            np.testing.assert_array_equal(shared[0][k], neighbor_pass(X, (k,))[0][k])


def test_shared_pass_skips_a_k_the_input_has_no_room_for():
    X = np.random.default_rng(2).standard_normal((30, 2))
    shared = neighbor_pass(X, (5, 30))
    assert list(shared[0]) == [5]
    assert shared[2].dtype == np.int32  # neighbour ids
    np.testing.assert_array_equal(knn_scores(X, 5, shared), knn_scores(X, 5))
    with pytest.raises(TooFewSamples, match="lof with k=30"):
        lof_scores(X, 30, shared)


@pytest.mark.parametrize("ks", [(30,), (30, 40)])
def test_a_pass_without_room_for_any_k_raises_too_few_samples(ks):
    with pytest.raises(TooFewSamples) as err:
        neighbor_pass(np.zeros((30, 2)), ks)
    assert str(err.value) == "neighbour pass with k=30 needs at least 31 points, got 30"


def lof_per_row_reference(X, k):
    """LOF over the pass's lists with the per-row loops it once used."""
    d = X.shape[0]
    kdists, indptr, nbrs, dist = neighbor_pass(X, (k,))
    kdist = kdists[k]
    reach = np.maximum(kdist[nbrs], dist)
    lrd = np.empty(d)
    for p in range(d):
        mean_reach = reach[indptr[p]:indptr[p + 1]].mean()
        lrd[p] = np.inf if mean_reach == 0.0 else 1.0 / mean_reach
    out = np.empty(d)
    for p in range(d):
        if np.isinf(lrd[p]):
            out[p] = 1.0
        else:
            out[p] = lrd[nbrs[indptr[p]:indptr[p + 1]]].mean() / lrd[p]
    pile_edge = np.isinf(out)
    if pile_edge.any():
        out[pile_edge] = out[~pile_edge].max()
    return out, np.diff(indptr)


def test_lof_row_means_round_as_the_per_row_loop():
    # a half-step grid and piles of 4 to 151 rows: tens of neighbourhood
    # sizes, some past numpy's 8-wide and 128-wide pairwise-sum blocks, and
    # infinite lrd on the piles
    rng = np.random.default_rng(17)
    X = np.round(rng.standard_normal((700, 2)) * 2.0) / 2.0
    for start, length in ((100, 3), (200, 12), (300, 40), (400, 150)):
        X[start:start + length] = X[start - 1]
    for k in (3, 10):
        want, sizes = lof_per_row_reference(X, k)
        assert np.unique(sizes).size >= 20 and sizes.max() > 128
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = lof_scores(X, k)
        np.testing.assert_array_equal(got, want)


def test_neighbor_pass_memory_bounded():
    # SMD width, quantized values and 5-row stalls
    start = time.perf_counter()
    X = stalled_quarter_steps(np.random.default_rng(8), 10_000, 38)
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


def test_knn_pass_frees_each_partitioned_block():
    # the pass never holds more than two 8 MiB blocks' worth of Gram values
    # at once
    X = np.random.default_rng(4).standard_normal((3000, 3))
    tracemalloc.start()
    try:
        knn_scores(X, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_knn_pass_copies_no_block():
    # the pass writes 1 MiB Gram blocks into one reused buffer and copies
    # none of them: 2.1 MiB measured, against 16.4 MiB with 8 MiB blocks
    # each partitioned into a copy
    X = np.random.default_rng(4).standard_normal((3000, 3))
    tracemalloc.start()
    try:
        knn_scores(X, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def test_rbf_kernel_blocks_match_the_whole_matrix_formula():
    # each entry is computed with the same operations in the same order as
    # the formula, so the match is exact
    rng = np.random.default_rng(8)
    A, B = rng.standard_normal((1000, 4)), rng.standard_normal((300, 4))
    sq_a, sq_b = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
    want = np.exp(-0.3 * np.clip(sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T), 0.0, None))
    np.testing.assert_array_equal(rbf_kernel(A, B, gamma=0.3), want)


def full_gram_ocsvm(X, nu):
    """The SMO loop over the whole n x n Gram matrix: (alphas, rho, iterations)."""
    n = X.shape[0]
    gamma = rbf_gamma(X)
    C = 1.0 / (nu * n)
    Q = rbf_kernel(X, X, gamma)
    alpha = np.zeros(n)
    n_full = int(nu * n)
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C
    grad = Q @ alpha
    diag = np.diag(Q).copy()
    it = 0
    while True:
        can_up, can_down = alpha < C - 1e-15, alpha > 1e-15
        g_up = np.where(can_up, grad, np.inf)
        i = int(np.argmin(g_up))
        if np.max(np.where(can_down, grad, -np.inf)) - g_up[i] <= 1e-4:
            break
        diff = grad - grad[i]
        eta = np.maximum(diag + diag[i] - 2.0 * Q[:, i], 1e-12)
        j = int(np.argmax(np.where(can_down & (diff > 0.0), diff * diff / eta, -np.inf)))
        step = min(diff[j] / eta[j], C - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        grad += step * (Q[:, i] - Q[:, j])
        it += 1
    free = (alpha > 1e-12 * C) & (alpha < C * (1.0 - 1e-12))
    assert free.any()
    return alpha, float(grad[free].mean()), it


def test_ocsvm_fit_matches_full_gram_reference():
    rng = np.random.default_rng(17)
    for X in (rng.standard_normal((300, 4)), stalled_quarter_steps(rng, 300, 4)):
        for nu in (0.1, 0.5):
            alpha, rho, it = full_gram_ocsvm(X, nu)
            model = ocsvm_fit(X, nu=nu)
            keep = alpha > 1e-12 / (nu * 300)
            np.testing.assert_array_equal(model.support_vectors, X[keep])
            assert model.iterations == it
            want = rbf_kernel(X, X[keep], rbf_gamma(X)) @ alpha[keep] - rho
            np.testing.assert_allclose(model.decision(X), want, rtol=1e-9)


def test_ocsvm_decision_blocks_match_whole_kernel():
    # 3,000 rows against 300 support vectors span seven row blocks
    rng = np.random.default_rng(5)
    model = ocsvm_fit(rng.standard_normal((600, 4)), nu=0.5)
    X = rng.standard_normal((3000, 4))
    assert X.shape[0] * model.alphas.size * 8 > 4 * (1 << 20)
    want = rbf_kernel(X, model.support_vectors, model.gamma) @ model.alphas - model.rho
    np.testing.assert_allclose(model.decision(X), want, rtol=1e-12)


def test_ocsvm_memory_bounded():
    # 6,000 quantized rows at SMD width, fitted on a 4,096-row subsample: the
    # full Gram matrix alone would be 128 MiB
    start = time.perf_counter()
    X = stalled_quarter_steps(np.random.default_rng(8), 6000, 38)
    tracemalloc.start()
    try:
        ocsvm_scores(X, nu=0.1, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 10.0, f"runtime budget 10 s exceeded: {elapsed:.1f}s"


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
