"""CSV/SMD loading and the synthetic fault generator."""

import re
import time
import tracemalloc

import numpy as np
import pytest

from perfdiag.errors import (
    EmptyGroundTruth,
    InvalidConfig,
    NonBinaryLabel,
    NonUniformSpacing,
    ParseError,
    RowCountMismatch,
)
from perfdiag.ingest import GenConfig, GroundTruth, generate, load_csv, load_smd


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_three_rows(tmp_path):
    p = write(tmp_path / "d.csv", "timestamp,a,b\n0,1.0,2.0\n15,3.0,4.0\n30,5.0,6.0\n")
    frame, labels = load_csv(p)
    assert labels is None
    assert frame.n_samples == 3
    assert frame.names == ("a", "b")
    assert frame.interval == 15
    assert frame.values[2, 1] == 6.0


def test_load_csv_with_labels(tmp_path):
    d = write(tmp_path / "d.csv", "timestamp,a\n0,1.0\n15,2.0\n")
    l = write(tmp_path / "l.csv", "timestamp,label\n0,0\n15,1\n")
    frame, labels = load_csv(d, l)
    assert list(labels.labels) == [0, 1]


def test_load_csv_label_two_rejected(tmp_path):
    d = write(tmp_path / "d.csv", "timestamp,a\n0,1.0\n15,2.0\n")
    l = write(tmp_path / "l.csv", "timestamp,label\n0,0\n15,2\n")
    with pytest.raises(NonBinaryLabel):
        load_csv(d, l)


def test_non_binary_label_names_its_file_line_past_blank_lines(tmp_path):
    d = write(tmp_path / "d.csv", "timestamp,a\n0,1.0\n15,2.0\n30,3.0\n")
    l = write(tmp_path / "l.csv", "\n\ntimestamp,label\n0,0\n\n15,1\n\n30,2\n")
    with pytest.raises(NonBinaryLabel, match=rf"^{re.escape(l)}:8: label must be 0 or 1, got 2$"):
        load_csv(d, l)
    v = write(tmp_path / "v.txt", "1.0\n2.0\n3.0\n")
    l = write(tmp_path / "l.txt", "\n0\n\n\n-1\n0\n")
    with pytest.raises(NonBinaryLabel, match=rf"^{re.escape(l)}:5: label must be 0 or 1, got -1$"):
        load_smd(v, l)


def test_load_csv_nonuniform_spacing(tmp_path):
    p = write(tmp_path / "d.csv", "timestamp,a\n0,1.0\n15,2.0\n40,3.0\n")
    with pytest.raises(NonUniformSpacing):
        load_csv(p)


def test_load_csv_bad_cell_diagnostic(tmp_path):
    p = write(tmp_path / "d.csv", "timestamp,a\n0,1.0\n15,oops\n")
    with pytest.raises(ParseError, match=r":3 col 2"):
        load_csv(p)


def test_load_smd_small(tmp_path):
    rows = "\n".join(",".join("0.5" for _ in range(38)) for _ in range(10))
    v = write(tmp_path / "v.txt", rows + "\n")
    l = write(tmp_path / "l.txt", "\n".join("0" for _ in range(10)) + "\n")
    frame, labels = load_smd(v, l)
    assert frame.n_samples == 10
    assert frame.n_metrics == 38
    assert frame.names[0] == "m0" and frame.names[-1] == "m37"
    assert frame.interval == 1
    assert not labels.labels.any()


def test_load_smd_row_mismatch(tmp_path):
    rows = "\n".join(",".join("0.1" for _ in range(38)) for _ in range(10))
    v = write(tmp_path / "v.txt", rows + "\n")
    l = write(tmp_path / "l.txt", "\n".join("0" for _ in range(9)) + "\n")
    with pytest.raises(RowCountMismatch):
        load_smd(v, l)


def test_load_smd_memory_bounded_at_smd_scale(tmp_path):
    # 28,000 rows x 38 quantized metrics, the size of one SMD machine: the
    # parse holds no Python object per cell, so its peak stays near the
    # 8.1 MiB of the values themselves
    rng = np.random.default_rng(7)
    values = np.round(rng.normal(0.0, 1.0, size=(28_000, 38)) * 4.0) / 4.0
    np.savetxt(tmp_path / "v.txt", values, fmt="%.2f", delimiter=",")
    (tmp_path / "l.txt").write_text("0\n" * 28_000)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        frame, _ = load_smd(tmp_path / "v.txt", tmp_path / "l.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert frame.values.tobytes() == values.tobytes()
    assert peak < 3 * values.nbytes, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 5.0, f"runtime budget 5 s exceeded: {elapsed:.1f}s"


def test_ground_truth_requires_causes_for_windows():
    with pytest.raises(EmptyGroundTruth):
        GroundTruth(edges=(), root_causes=(), windows=((0, 9),))


def test_ground_truth_roundtrip():
    gt = GroundTruth(
        edges=(("a", "b"),), root_causes=("a",), windows=((5, 9), (20, 24))
    )
    assert gt.to_dict() == {
        "edges": [["a", "b"]], "root_causes": ["a"], "windows": [[5, 9], [20, 24]],
    }


def test_generate_deterministic():
    cfg = GenConfig(n_metrics=5, n_samples=200, edge_prob=0.4, n_windows=2,
                    window_len=20, magnitude=6.0)
    a = generate(cfg, 123)
    b = generate(cfg, 123)
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[1].labels, b[1].labels)
    assert a[2] == b[2]


def test_generate_seed_changes_data():
    cfg = GenConfig(n_metrics=5, n_samples=200)
    a = generate(cfg, 1)
    b = generate(cfg, 2)
    assert not np.array_equal(a[0].values, b[0].values)


def test_generate_label_fraction_exact():
    cfg = GenConfig(n_metrics=4, n_samples=300, n_windows=3, window_len=25,
                    magnitude=5.0)
    frame, labels, truth = generate(cfg, 7)
    assert labels.labels.sum() == 75  # total window length, exactly
    assert len(truth.windows) == 3
    for s, e in truth.windows:
        assert e - s + 1 == 25


def test_generate_dag_acyclic():
    cfg = GenConfig(n_metrics=12, n_samples=50, edge_prob=0.5)
    _, _, truth = generate(cfg, 9)
    order = {f"m{i}": i for i in range(12)}
    # edges are emitted parent-first, so index order proves acyclicity
    for a, b in truth.edges:
        assert order[a] < order[b]


def test_generate_single_metric_no_windows():
    frame, labels, truth = generate(GenConfig(n_metrics=1, n_samples=100), 4)
    assert frame.n_metrics == 1
    assert labels.labels.sum() == 0
    assert truth.windows == ()


def test_generate_chain_shift_propagates():
    # A -> B with fault on A: window mean of B moves by about weight * magnitude
    cfg = GenConfig(n_metrics=2, n_samples=4000, n_windows=4, window_len=250,
                    magnitude=6.0, noise_std=1.0, edges=(("m0", "m1"),),
                    root_causes=("m0",))
    frame, labels, truth = generate(cfg, 21)
    a = frame.values[:, 0]
    b = frame.values[:, 1]
    inside = labels.labels == 1
    # estimate the edge weight from clean rows only
    a0, b0 = a[~inside], b[~inside]
    w = np.cov(a0, b0)[0, 1] / np.var(a0)
    shift = b[inside].mean() - b0.mean()
    assert shift == pytest.approx(w * 6.0, abs=0.35)


def test_generate_explicit_root_cause_respected():
    cfg = GenConfig(n_metrics=6, n_samples=400, n_windows=2, window_len=30,
                    magnitude=6.0, root_causes=("m2",))
    _, _, truth = generate(cfg, 5)
    assert truth.root_causes == ("m2",)


def test_generate_rejects_overlong_windows():
    with pytest.raises(InvalidConfig):
        GenConfig(n_metrics=3, n_samples=100, n_windows=4, window_len=30)


def test_generate_rejects_bad_edge_order():
    with pytest.raises(InvalidConfig):
        cfg = GenConfig(n_metrics=3, n_samples=50, edges=(("m2", "m1"),))
        generate(cfg, 0)


def test_generate_rejects_unknown_root_cause():
    with pytest.raises(InvalidConfig):
        generate(GenConfig(n_metrics=3, n_samples=50, root_causes=("m9",)), 0)
