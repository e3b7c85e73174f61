"""Seeded input generators for the benchmark workloads.

Each workload writes its input files (SMD text format or CSV) into a
directory and returns the pipeline config that reads them, the root causes
it injected, and the row count of the test split. The pipeline only ever
sees the files; the injected truth stays with the benchmark, which scores
``ranking.csv`` against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Inputs:
    """Generated series: values, 0/1 labels and the injected root causes."""

    values: np.ndarray
    labels: np.ndarray
    root_causes: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    metrics: int
    fmt: str  # "smd" or "csv"
    settings: dict  # pipeline config minus data, out and seed
    make: Callable[["Workload", np.random.Generator], Inputs]

    def test_rows(self) -> int:
        """Rows of ``verdicts.csv``: the whole series, or the shifted test side."""
        if self.settings["ensemble"] != "deep":
            return self.rows
        cut = math.ceil(self.settings["train_fraction"] * self.rows - 1e-9)
        return self.rows - cut - self.settings.get("shift", 0)


def _windows(rng: np.random.Generator, n: int, count: int, length: int) -> list[tuple[int, int]]:
    """One window per equal segment, preceded by at least ``length`` clean rows.

    The RCA span of a window is the window plus an equally long stretch
    before it, so spans of neighbouring windows never overlap.
    """
    seg = n // count
    if seg < 2 * length:
        raise ValueError(f"{count} windows of {length} rows do not fit in {n} rows")
    out = []
    for k in range(count):
        start = k * seg + length + int(rng.integers(0, seg - 2 * length + 1))
        out.append((start, start + length))
    return out


def _smd_wide(w: Workload, rng: np.random.Generator) -> Inputs:
    n, m = w.rows, w.metrics
    values = rng.normal(0.0, 1.0, size=(n, m)) + rng.uniform(-3.0, 3.0, size=m)
    # a 5-row stall every 97 rows repeats the last row: duplicate rows
    for s in range(97, n, 97):
        values[s : s + 5] = values[s - 1]
    values[:, m - 1] = 1.0
    labels = np.zeros(n, dtype=np.int64)
    length = max(4, n // 60)
    for s, e in _windows(rng, n, 6, length):
        # faults shift and jitter m0 and m1 independently, so faulty rows are
        # not each other's nearest neighbours and m0, m1 stay unlinked given the fault
        values[s:e, 0] += 12.0 + 20.0 * np.abs(rng.standard_normal(e - s))
        values[s:e, 1] -= 12.0 + 20.0 * np.abs(rng.standard_normal(e - s))
        labels[s:e] = 1
    values = np.round(values * 4.0) / 4.0
    return Inputs(values, labels, ("m0", "m1"))


def _pc_dense(w: Workload, rng: np.random.Generator) -> Inputs:
    n, m = w.rows, w.metrics
    sigma = 1.0
    # the loadings are fixed so that the seed varies the noise and the windows
    # but not the structure; the skeleton's cost then stays comparable
    loadings = np.random.default_rng(m).normal(0.0, 1.0, size=(m, 3))
    # m0 loads on no factor and m1 on all three, so m0 -> m1 <- (factor-driven
    # metrics) is a v-structure and the root cause is identifiable
    loadings[0] = 0.0
    loadings[1] = 1.0
    values = rng.normal(0.0, 1.0, size=(n, 3)) @ loadings.T
    values += rng.normal(0.0, sigma, size=(n, m))
    labels = np.zeros(n, dtype=np.int64)
    for s, e in _windows(rng, n, 4, max(4, n // 10)):
        values[s:e, 0] += 6.0 * sigma
        labels[s:e] = 1
    values[:, 1] += 0.3 * values[:, 0]
    return Inputs(values, labels, ("m0",))


def _deep_forecast(w: Workload, rng: np.random.Generator) -> Inputs:
    n, m = w.rows, w.metrics
    values = rng.normal(0.0, 1.0, size=(n, m))
    labels = np.zeros(n, dtype=np.int64)
    for s, e in _windows(rng, n, 30, max(2, n // 100)):
        values[s:e, 0] += 6.0 + 3.0 * rng.standard_normal(e - s)
        labels[s:e] = 1
    values[:, 2] += values[:, 0]
    values[:, 3] += values[:, 2]
    return Inputs(values, labels, ("m0",))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smd-wide",
            why=(
                "SMD width with quantized values, stall duplicates and a constant "
                "metric: the KNN/LOF neighbour pass dominates, MLP is bypassed, PC is sparse"
            ),
            rows=2500,
            metrics=38,
            fmt="smd",
            # with 703 metric pairs a CI level of 0.05 leaves a few false edges at
            # the indicator, and one is enough to reorient it away from m0 and m1
            settings={"select": {"method": "none"}, "ensemble": "max",
                      "detect": {"anomaly_fraction": 0.1}, "rca": {"alpha": 0.001}},
            make=_smd_wide,
        ),
        Workload(
            name="pc-dense",
            why=(
                "three shared hidden factors keep the PC skeleton dense, so CI tests "
                "dominate; MLP is bypassed and neighbours see tie-free columns"
            ),
            rows=1200,
            metrics=48,
            fmt="csv",
            # the windows cover 40% of the rows; at a CI level of 0.05 a false
            # edge at m0 reorients the indicator in about one input in twelve
            settings={"select": {"method": "none"}, "ensemble": "avg",
                      "detect": {"anomaly_fraction": 0.4}, "rca": {"alpha": 0.01}},
            make=_pc_dense,
        ),
        Workload(
            name="deep-forecast",
            why=(
                "labeled deep ensemble forecasting 4 steps ahead: MLP training "
                "dominates, neighbours see 3 narrow columns, PC is trivial"
            ),
            rows=3000,
            metrics=12,
            fmt="csv",
            # selection keeps m0, m2 and m3; PC cannot orient the chain m0 -> m2 -> m3
            # (it is Markov equivalent to its reverse), so full-length walks always
            # end at m3, and walks of two nodes rank the indicator's neighbours
            settings={"select": {"method": "correlation", "r_min": 0.5, "p_max": 0.05},
                      "detect": {"anomaly_fraction": 0.1}, "ensemble": "deep",
                      "train_fraction": 0.8, "shift": 4, "rca": {"length": 2}},
            make=_deep_forecast,
        ),
    )
}


def write_inputs(w: Workload, seed: int, index: int, directory: Path) -> tuple[dict, Inputs]:
    """Generate input ``index`` of ``seed`` into ``directory``; return config and truth."""
    inputs = w.make(w, np.random.default_rng([seed, index, w.rows, w.metrics]))
    n = inputs.values.shape[0]
    if w.fmt == "smd":
        values_path, labels_path = directory / "values.txt", directory / "labels.txt"
        np.savetxt(values_path, inputs.values, fmt="%.2f", delimiter=",")
        np.savetxt(labels_path, inputs.labels, fmt="%d")
        data = {"smd_values": str(values_path), "smd_labels": str(labels_path)}
    else:
        values_path, labels_path = directory / "metrics.csv", directory / "labels.csv"
        header = "timestamp," + ",".join(f"m{i}" for i in range(w.metrics))
        table = np.column_stack([np.arange(n), inputs.values])
        np.savetxt(values_path, table, fmt=["%d"] + ["%.17g"] * w.metrics,
                   delimiter=",", header=header, comments="")
        np.savetxt(labels_path, np.column_stack([np.arange(n), inputs.labels]),
                   fmt="%d", delimiter=",", header="timestamp,label", comments="")
        data = {"csv": str(values_path), "labels": str(labels_path)}
    return {"data": data, "seed": seed, **w.settings}, inputs
