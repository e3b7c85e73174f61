"""Core data model: frames, labels, reports, alignment, canonical JSON."""

import json

import numpy as np
import pytest

from perfdiag.core import (
    DiagnosisReport,
    LabelSeries,
    MetricFrame,
    align,
    dumps_json,
    standardize,
)
from perfdiag.errors import EmptyIntersection, NonUniformSpacing


def make_frame(d=4, n=2, start=0, interval=15):
    ts = np.arange(start, start + d * interval, interval, dtype=np.int64)
    vals = np.arange(d * n, dtype=np.float64).reshape(d, n)
    names = tuple(f"m{i}" for i in range(n))
    return MetricFrame(timestamps=ts, values=vals, names=names, interval=interval)


def test_frame_basic_props():
    f = make_frame(d=5, n=3)
    assert f.n_samples == 5
    assert f.n_metrics == 3
    assert f.interval == 15


def test_frame_rejects_nonuniform_spacing():
    ts = np.array([0, 15, 40], dtype=np.int64)
    with pytest.raises(NonUniformSpacing):
        MetricFrame(timestamps=ts, values=np.zeros((3, 1)), names=("a",), interval=15)


def test_frame_rejects_duplicate_names():
    with pytest.raises(ValueError):
        MetricFrame(
            timestamps=np.array([0, 15], dtype=np.int64),
            values=np.zeros((2, 2)),
            names=("a", "a"),
            interval=15,
        )


def test_frame_rejects_nonfinite_with_location():
    vals = np.zeros((3, 2))
    vals[1, 1] = np.nan
    with pytest.raises(ValueError, match=r"row 1.*'m1'"):
        MetricFrame(
            timestamps=np.array([0, 15, 30], dtype=np.int64),
            values=vals,
            names=("m0", "m1"),
            interval=15,
        )


def test_frame_values_read_only():
    f = make_frame()
    with pytest.raises(ValueError):
        f.values[0, 0] = 99.0


def test_labels_binary_only():
    ts = np.array([0, 1, 2], dtype=np.int64)
    assert len(LabelSeries(timestamps=ts, labels=np.array([0, 1, 0]))) == 3
    with pytest.raises(ValueError):
        LabelSeries(timestamps=ts, labels=np.array([0, 2, 0]))


def test_align_identity_returns_inputs():
    f = make_frame(d=3)
    lab = LabelSeries(timestamps=f.timestamps, labels=np.array([0, 1, 0]))
    f2, l2 = align(f, lab)
    assert f2 is f and l2 is lab


def test_align_truncates_to_intersection():
    f = make_frame(d=3)  # t = 0, 15, 30
    lab = LabelSeries(
        timestamps=np.array([15, 30, 45], dtype=np.int64),
        labels=np.array([1, 0, 1]),
    )
    f2, l2 = align(f, lab)
    assert list(f2.timestamps) == [15, 30]
    assert list(l2.timestamps) == [15, 30]
    assert list(l2.labels) == [1, 0]
    np.testing.assert_array_equal(f2.values, f.values[1:])


def test_align_disjoint_raises():
    f = make_frame(d=2)
    lab = LabelSeries(
        timestamps=np.array([1000, 1015], dtype=np.int64), labels=np.array([0, 1])
    )
    with pytest.raises(EmptyIntersection):
        align(f, lab)


def test_align_idempotent():
    f = make_frame(d=4)
    lab = LabelSeries(
        timestamps=np.array([15, 30, 45, 60], dtype=np.int64),
        labels=np.array([0, 0, 1, 1]),
    )
    f1, l1 = align(f, lab)
    f2, l2 = align(f1, l1)
    assert f2 is f1 and l2 is l1


def test_report_derives_verdicts_from_threshold():
    rep = DiagnosisReport(
        probabilities=np.array([0.2, 0.5, 0.9]), threshold=0.5
    )
    assert list(rep.verdicts) == [0, 1, 1]  # >= threshold


def test_report_rejects_inconsistent_verdicts():
    with pytest.raises(ValueError):
        DiagnosisReport(
            probabilities=np.array([0.2, 0.9]),
            threshold=0.5,
            verdicts=np.array([1, 1]),
        )


def test_dumps_json_sorted_and_stable():
    a = dumps_json({"b": 1, "a": [1.5, 2]})
    b = dumps_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [1.5, 2], "b": 1}


def test_dumps_json_rejects_nan():
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})


def test_standardize_decides_constant_by_range():
    # summed in floating point, the mean of 400 copies of 0.1 is not 0.1,
    # so the column's std is about 1e-15 although its range is 0
    vals = np.random.default_rng(0).standard_normal((400, 4))
    vals[:, 2] = 0.1
    assert vals.std(axis=0)[2] > 0.0
    z, means, stds, const = standardize(vals)
    assert const.tolist() == [False, False, True, False]
    assert stds[2] == 0.0 and not z[:, 2].any()
    np.testing.assert_allclose(z[:, [0, 1, 3]].std(axis=0), 1.0, rtol=1e-12)
