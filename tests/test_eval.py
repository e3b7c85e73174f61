"""Detection metrics, rank aggregation, robustness scores."""

import numpy as np
import pytest

from perfdiag.errors import LengthMismatch, MissingRank
from perfdiag.evaluation import prf1, ranks_from_f1, robustness


# --- precision / recall / f1 ----------------------------------------------

def test_prf1_perfect_and_inverted():
    y = np.array([0, 1, 0, 1, 1])
    assert prf1(y, y) == (1.0, 1.0, 1.0)
    assert prf1(1 - y, y) == (0.0, 0.0, 0.0)


def test_prf1_zero_denominators():
    zeros = np.zeros(6, dtype=np.int64)
    assert prf1(zeros, zeros) == (0.0, 0.0, 0.0)
    # predictions without a single positive: recall 0, precision 0
    assert prf1(zeros, np.array([1, 0, 0, 0, 0, 1])) == (0.0, 0.0, 0.0)


def test_prf1_counts_example():
    p_target, r_target = 0.8996, 0.8861
    tp, positives = 8861, 10000
    predicted = round(tp / p_target)
    fp = predicted - tp
    fn = positives - tp
    n = positives + fp + 50
    labels = np.zeros(n, dtype=np.int64)
    labels[:positives] = 1
    verdicts = np.zeros(n, dtype=np.int64)
    verdicts[:tp] = 1
    verdicts[positives : positives + fp] = 1
    precision, recall, f1 = prf1(verdicts, labels)
    assert precision == pytest.approx(p_target, abs=1e-4)
    assert recall == pytest.approx(r_target, abs=1e-4)
    assert f1 == pytest.approx(0.8928, abs=1e-4)
    # the harmonic mean must agree with its own components
    assert f1 == pytest.approx(2 * precision * recall / (precision + recall), rel=1e-12)


def test_prf1_validation():
    with pytest.raises(LengthMismatch):
        prf1(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))
    with pytest.raises(LengthMismatch):
        prf1(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        prf1(np.array([0, 2]), np.array([0, 1]))


# --- ranks ----------------------------------------------------------------

def test_ranks_descending_by_f1():
    ranks = ranks_from_f1({"a": 0.5, "b": 0.9, "c": 0.7})
    assert ranks == {"b": 1.0, "c": 2.0, "a": 3.0}


def test_ranks_ties_share_fractional_rank():
    ranks = ranks_from_f1({"a": 0.9, "b": 0.9, "c": 0.5})
    assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}
    # a two-way and a three-way tie; recorded from scipy.stats.rankdata
    ranks = ranks_from_f1(
        {"a": 0.9, "b": 0.9, "c": 0.5, "d": 0.7, "e": 0.7, "f": 0.7, "g": 0.1}
    )
    assert ranks == {"a": 1.5, "b": 1.5, "c": 6.0, "d": 4.0, "e": 4.0, "f": 4.0, "g": 7.0}


# --- robustness -----------------------------------------------------------

def test_robustness_two_datasets():
    scores = robustness({"a": (1, 2), "b": (3, 1), "c": (2, 3)})
    assert scores["a"] == pytest.approx(1.0)
    assert scores["b"] == pytest.approx(0.5)
    assert scores["c"] == pytest.approx(0.0)


def test_robustness_worst_is_plain_zero():
    scores = robustness({"a": (1,), "b": (2,)})
    assert scores == {"a": 1.0, "b": 0.0}
    assert repr(scores["b"]) == "0.0"


def test_robustness_single_method_and_all_tied():
    assert robustness({"only": (1, 1)}) == {"only": 1.0}
    assert robustness({"a": (1, 2), "b": (2, 1)}) == {"a": 1.0, "b": 1.0}


def test_robustness_validation():
    with pytest.raises(MissingRank):
        robustness({})
    with pytest.raises(MissingRank):
        robustness({"a": (1, 2), "b": (1,)})
    with pytest.raises(MissingRank):
        robustness({"a": ()})
