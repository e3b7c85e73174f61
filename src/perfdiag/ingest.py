"""Dataset loading (generic CSV, SMD layout) and synthetic data generation.

The generator samples a linear-Gaussian structural-equation model over a
random DAG and injects sustained mean-shift faults into root-cause metrics
inside periodic anomaly windows, so detection and localization quality can
be measured against exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import LabelSeries, MetricFrame, check_fields
from .errors import (
    EmptyGroundTruth,
    InvalidConfig,
    NonBinaryLabel,
    ParseError,
    RowCountMismatch,
)
from .rca import INDICATOR
from .tables import Table


@dataclass(frozen=True)
class GroundTruth:
    """Known causal edges, fault origins, and anomaly windows of a dataset.

    ``windows`` are inclusive [start, end] timestamp pairs.
    """

    edges: tuple[tuple[str, str], ...]
    root_causes: tuple[str, ...]
    windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((str(a), str(b)) for a, b in self.edges))
        object.__setattr__(self, "root_causes", tuple(str(r) for r in self.root_causes))
        object.__setattr__(self, "windows", tuple((int(s), int(e)) for s, e in self.windows))
        if self.windows and not self.root_causes:
            raise EmptyGroundTruth("anomaly windows present but no root causes listed")
        for s, e in self.windows:
            if e < s:
                raise InvalidConfig(f"window [{s}, {e}] ends before it starts")

    def to_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "root_causes": list(self.root_causes),
            "windows": [list(w) for w in self.windows],
        }


TIMESTAMP = ("timestamp", int)
LABELS = (TIMESTAMP, ("label", int))


def load_csv(path, label_path=None) -> tuple[MetricFrame, Optional[LabelSeries]]:
    """Load `timestamp,<m1>,...,<mN>` CSV, optionally with a label CSV.

    The label file has header `timestamp,label` with 0/1 values. Sampling
    interval is inferred from the first timestamp gap and must be uniform.
    Metric names must be unique, and none may take the root-cause graph's
    node name `indicator`. Every cell must be finite.
    """
    table = Table(path)
    names = table.header[1:]
    if table.header[:1] != (TIMESTAMP[0],) or not names:
        raise table.error(table.header_line, "expected header 'timestamp,<name>,...'")
    for c, name in enumerate(names, start=2):
        if name == INDICATOR:
            raise table.error(table.header_line, f"metric name {name!r} is reserved for "
                              "the anomaly indicator node", c)
        if name in names[:c - 2]:
            raise table.error(table.header_line, f"duplicate metric name {name!r}", c)
    ts, *columns = table.columns((int,) + (float,) * len(names))
    frame = MetricFrame(
        timestamps=ts,
        values=_finite(table, np.column_stack(columns), 2),
        names=names,
        interval=int(ts[1] - ts[0]) if ts.shape[0] >= 2 else 1,
    )
    if label_path is None:
        return frame, None
    return frame, _load_label_csv(label_path)


def _finite(table: Table, values: np.ndarray, first_col: int) -> np.ndarray:
    """``values`` if finite; its column 0 is file column ``first_col`` of ``table``."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise table.error(table.line(r), f"expected a finite number, got {values[r, c]}",
                          c + first_col)
    return values


def _binary(table: Table, labels: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        i = bad[0]
        raise NonBinaryLabel(
            f"{table.path}:{table.line(i)}: label must be 0 or 1, got {labels[i]}"
        )
    return labels


def _load_label_csv(path) -> LabelSeries:
    table = Table(path)
    timestamps, labels = table.read(LABELS)
    return LabelSeries(timestamps=timestamps, labels=_binary(table, labels))


def load_smd(values_path, labels_path) -> tuple[MetricFrame, LabelSeries]:
    """Load one SMD machine: headerless float CSV plus one 0/1 label per line.

    Timestamps 0,1,2,... are assigned with interval 1; columns are named
    "m0", "m1", ... in file order.
    """
    table = Table(values_path, header=False)
    if not table.width:
        raise ParseError(f"{values_path}: empty file")
    width = table.width
    values = _finite(table, table.matrix(), 1)
    label_table = Table(labels_path, header=False)
    labels = _binary(label_table, label_table.columns((int,))[0])
    if len(labels) != len(values):
        raise RowCountMismatch(
            f"{len(values)} value rows but {len(labels)} labels"
        )
    ts = np.arange(len(values), dtype=np.int64)
    frame = MetricFrame(
        timestamps=ts,
        values=values,
        names=tuple(f"m{i}" for i in range(width)),
        interval=1,
    )
    return frame, LabelSeries(timestamps=ts, labels=labels)


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the synthetic monitoring-data generator.

    ``magnitude`` is the injected mean shift in units of ``noise_std``.
    Anomaly windows are spread evenly: window w covers ``window_len`` rows
    centered inside the w-th of ``n_windows`` equal periods. When ``edges``
    is given the random DAG is replaced by exactly those edges; when
    ``root_causes`` is given it overrides the random source-node choice.
    """

    n_metrics: int
    n_samples: int
    edge_prob: float = 0.3
    n_windows: int = 0
    window_len: int = 0
    magnitude: float = 6.0
    noise_std: float = 1.0
    n_root_causes: int = 1
    interval: int = 1
    edges: Optional[tuple[tuple[str, str], ...]] = None
    root_causes: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        where = "data.generate."
        check_fields(self, where=lambda name: where + name)
        for name, ok, rule in (
            ("n_metrics", self.n_metrics >= 1, ">= 1"),
            ("n_samples", self.n_samples >= 1, ">= 1"),
            ("interval", self.interval >= 1, ">= 1"),
            ("edge_prob", 0.0 <= self.edge_prob <= 1.0, "in [0, 1]"),
            ("magnitude", np.isfinite(self.magnitude), "finite"),
            ("noise_std", 0 < self.noise_std < np.inf, "finite and > 0"),
            ("n_windows", self.n_windows >= 0, ">= 0"),
            ("window_len", self.window_len >= 0, ">= 0"),
        ):
            if not ok:
                raise InvalidConfig(f"{where}{name} must be {rule}, got {getattr(self, name)!r}")
        if self.n_windows > 0:
            if self.window_len < 1:
                raise InvalidConfig(f"{where}window_len must be >= 1 when windows are requested")
            if self.n_samples // self.n_windows < self.window_len:
                raise InvalidConfig(
                    f"{where}n_samples: {self.n_samples} samples cannot hold "
                    f"{self.n_windows} windows of length {self.window_len}"
                )
            if self.n_root_causes < 1 and not self.root_causes:
                raise InvalidConfig(f"{where}n_root_causes: windows requested but no root causes")
        names = _metric_names(self.n_metrics)
        for name in ("edges", "root_causes"):
            if not isinstance(getattr(self, name), (list, tuple, type(None))):
                raise InvalidConfig(f"{where}{name} must be a list, got {getattr(self, name)!r}")
        for edge in self.edges or ():
            if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
                raise InvalidConfig(f"{where}edges: each edge must be a [parent, child] pair, got {edge!r}")
            a, b = edge
            if a not in names or b not in names:
                raise InvalidConfig(f"{where}edges: edge ({a}, {b}) references unknown metric")
            if names.index(a) >= names.index(b):
                raise InvalidConfig(
                    f"{where}edges: edge ({a}, {b}) violates index order; list edges parent-first"
                )
        unknown = [r for r in self.root_causes or () if r not in names]
        if unknown:
            raise InvalidConfig(f"{where}root_causes: unknown root-cause metrics: {unknown}")


def _metric_names(n: int) -> tuple[str, ...]:
    return tuple(f"m{i}" for i in range(n))


def _resolve_edges(config: GenConfig, names: Sequence[str], rng: np.random.Generator):
    """Index pairs (i, j) with i -> j; topological order is index order."""
    if config.edges is not None:
        return sorted({(names.index(a), names.index(b)) for a, b in config.edges})
    n = len(names)
    draws = rng.random((n, n))
    return [(i, j) for i in range(n) for j in range(i + 1, n) if draws[i, j] < config.edge_prob]


def _window_rows(config: GenConfig) -> list[tuple[int, int]]:
    """Inclusive [start, end] row ranges of each anomaly window."""
    if config.n_windows == 0:
        return []
    period = config.n_samples // config.n_windows
    offset = (period - config.window_len) // 2
    return [
        (w * period + offset, w * period + offset + config.window_len - 1)
        for w in range(config.n_windows)
    ]


def generate(config: GenConfig, seed: int) -> tuple[MetricFrame, LabelSeries, GroundTruth]:
    """Sample the SEM, inject faults, and return data with ground truth.

    Each metric is a weighted sum of its DAG parents plus Gaussian noise;
    weights are uniform on +-[0.5, 1.5]. During each anomaly window a shift
    of ``magnitude * noise_std`` is added to every root-cause metric's noise
    term and propagates downstream. Root causes default to a random sample
    of the DAG's source nodes, mirroring faults injected from outside the
    modeled system. Deterministic in (config, seed).
    """
    rng = np.random.default_rng(seed)
    names = _metric_names(config.n_metrics)
    pairs = _resolve_edges(config, names, rng)
    weights = {}
    for i, j in pairs:
        w = rng.uniform(0.5, 1.5)
        if rng.random() < 0.5:
            w = -w
        weights[(i, j)] = w

    parents: list[list[int]] = [[] for _ in range(config.n_metrics)]
    for i, j in pairs:
        parents[j].append(i)
    sources = [j for j in range(config.n_metrics) if not parents[j]]

    if config.root_causes is not None:
        rc_idx = sorted(names.index(r) for r in config.root_causes)
    elif config.n_windows > 0:
        n_rc = min(config.n_root_causes, len(sources))
        rc_idx = sorted(rng.choice(sources, size=n_rc, replace=False).tolist())
    else:
        rc_idx = []

    windows = _window_rows(config)
    d = config.n_samples
    noise = rng.normal(0.0, config.noise_std, size=(d, config.n_metrics))
    shift = config.magnitude * config.noise_std
    for start, end in windows:
        for i in rc_idx:
            noise[start : end + 1, i] += shift

    values = np.empty((d, config.n_metrics), dtype=np.float64)
    for j in range(config.n_metrics):
        col = noise[:, j].copy()
        for i in parents[j]:
            col += weights[(i, j)] * values[:, i]
        values[:, j] = col
    if not np.isfinite(values).all():
        raise InvalidConfig(
            f"data.generate: magnitude {config.magnitude!r} and noise_std "
            f"{config.noise_std!r} drive the sampled series past the float range"
        )

    timestamps = np.arange(d, dtype=np.int64) * config.interval
    labels = np.zeros(d, dtype=np.int64)
    for start, end in windows:
        labels[start : end + 1] = 1

    frame = MetricFrame(timestamps=timestamps, values=values, names=names, interval=config.interval)
    series = LabelSeries(timestamps=timestamps, labels=labels)
    truth = GroundTruth(
        edges=tuple((names[i], names[j]) for i, j in pairs),
        root_causes=tuple(names[i] for i in rc_idx),
        windows=tuple(
            (int(timestamps[s]), int(timestamps[e])) for s, e in windows
        ),
    )
    return frame, series, truth
