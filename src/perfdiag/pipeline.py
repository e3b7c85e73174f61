"""End-to-end pipeline: ingest, select, detect, ensemble, predict, rca, eval.

Artifacts land in the configured output directory with fixed names, each
through `_Run.write`. `run_pipeline` runs every stage in memory;
`run_stage` replays one stage from the artifacts of the stages before it,
by calling the same stage functions, so a step-by-step run writes the same
files. Each CSV artifact's layout is defined once below, for its writer and
its replay reader. The report JSON is fully deterministic for a given
(config, seed); wall-clock timings and artifact checksums go to a separate
manifest file instead.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    DiagnosisReport,
    EvaluationBlock,
    LabelSeries,
    MetricFrame,
    ScoreMatrix,
    SelectedFrame,
    align,
    dumps_json,
)
from .detectors import KINDS, DetectorSpec, ScoreVector, fit_score, threshold
from .ensemble import (
    assemble,
    ensemble_avg,
    ensemble_max,
    ensemble_weighted,
    mi_weights,
    split,
)
from .errors import InvalidConfig, ParseError, PipelineStageError
from .evaluation import prf1
from .ingest import LABELS, TIMESTAMP, GenConfig, GroundTruth, generate, load_csv, load_smd
from .mlp import MlpModel, NormStats, TrainConfig, predict_deep, train_deep
from .preprocess import correlate_select, pca_fit, pca_transform, zscore
from .rca import INDICATOR, RootCauseRanking, ac_at_k, avg_at_k, localize, pc_build
from .seeding import derive_seed
from .tables import Table, format_table

SELECT_METHODS = ("correlation", "pca", "none")
ENSEMBLES = ("max", "avg", "weighted", "deep")
DETECTOR_SETTINGS = {"n_trees", "subsample", "knn_k", "lof_k", "nu", "gamma"}
REPORT_SCHEMA_VERSION = 1

SCORES = (TIMESTAMP, ("score", float))
VERDICTS = (TIMESTAMP, ("probability", float), ("verdict", int))
SELECTION = (("metric", str), ("r", float), ("t", float), ("p", float), ("retained", int))
RANKING = (("rank", int), ("node", str), ("count", int))


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for one pipeline run."""

    data: dict
    out: str = "out"
    seed: int = 0
    select_method: str = "correlation"
    r_min: float = 0.5
    p_max: float = 0.05
    pca_variance: float = 0.95
    pca_components: Optional[int] = None
    anomaly_fraction: float = 0.1
    detector_overrides: dict = field(default_factory=dict)
    ensemble: str = "deep"
    train_fraction: float = 0.5
    shift: int = 0
    epochs: int = 100
    batch: int = 20
    lr: float = 1e-3
    alpha: float = 0.05
    walks: int = 500
    walk_length: Optional[int] = None

    def __post_init__(self):
        if self.select_method not in SELECT_METHODS:
            raise InvalidConfig(f"select must be one of {SELECT_METHODS}")
        if self.ensemble not in ENSEMBLES:
            raise InvalidConfig(f"ensemble must be one of {ENSEMBLES}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig("train_fraction must lie in (0, 1)")
        if not 0.0 < self.anomaly_fraction < 1.0:
            raise InvalidConfig("anomaly_fraction must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig("alpha must lie in (0, 1)")
        if self.shift < 0:
            raise InvalidConfig("shift must be >= 0")
        if self.walks < 1:
            raise InvalidConfig("walks must be >= 1")
        _check_keys(self.detector_overrides, "detect", DETECTOR_SETTINGS)
        # the checks a direct train_deep call makes, at config load
        TrainConfig(epochs=self.epochs, batch=self.batch, lr=self.lr)
        if not -(2**63) <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in 64 bits")
        if not isinstance(self.data, dict) or not (
            "csv" in self.data or "smd_values" in self.data or "generate" in self.data
        ):
            raise InvalidConfig(
                "data must give one of: csv, smd_values, generate"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        _check_keys(doc, "config", {
            "data", "out", "seed", "select", "detect", "ensemble",
            "train_fraction", "shift", "rca", "train",
        })
        sel = doc.get("select", {})
        det = doc.get("detect", {})
        rca = doc.get("rca", {})
        train = doc.get("train", {})
        _check_keys(sel, "select", {"method", "r_min", "p_max", "variance", "n_fixed"})
        _check_keys(det, "detect", DETECTOR_SETTINGS | {"anomaly_fraction"})
        _check_keys(rca, "rca", {"alpha", "walks", "length"})
        _check_keys(train, "train", {"epochs", "batch", "lr"})
        return cls(
            data=doc.get("data", {}),
            out=doc.get("out", "out"),
            seed=int(doc.get("seed", 0)),
            select_method=sel.get("method", "correlation"),
            r_min=float(sel.get("r_min", 0.5)),
            p_max=float(sel.get("p_max", 0.05)),
            pca_variance=float(sel.get("variance", 0.95)),
            pca_components=sel.get("n_fixed"),
            anomaly_fraction=float(det.get("anomaly_fraction", 0.1)),
            detector_overrides={
                k: v for k, v in det.items() if k != "anomaly_fraction"
            },
            ensemble=doc.get("ensemble", "deep"),
            train_fraction=float(doc.get("train_fraction", 0.5)),
            shift=int(doc.get("shift", 0)),
            epochs=int(train.get("epochs", 100)),
            batch=int(train.get("batch", 20)),
            lr=float(train.get("lr", 1e-3)),
            alpha=float(rca.get("alpha", 0.05)),
            walks=int(rca.get("walks", 500)),
            walk_length=rca.get("length"),
        )

    def to_dict(self) -> dict:
        return {
            "data": self.data,
            "out": self.out,
            "seed": self.seed,
            "select": {
                "method": self.select_method,
                "r_min": self.r_min,
                "p_max": self.p_max,
                "variance": self.pca_variance,
                "n_fixed": self.pca_components,
            },
            "detect": {"anomaly_fraction": self.anomaly_fraction, **self.detector_overrides},
            "ensemble": self.ensemble,
            "train_fraction": self.train_fraction,
            "shift": self.shift,
            "train": {"epochs": self.epochs, "batch": self.batch, "lr": self.lr},
            "rca": {"alpha": self.alpha, "walks": self.walks, "length": self.walk_length},
        }

    def config_hash(self) -> str:
        # the output directory is not part of the experiment identity
        doc = {k: v for k, v in self.to_dict().items() if k != "out"}
        return hashlib.sha256(dumps_json(doc).encode()).hexdigest()


def _check_keys(section, where: str, known: set) -> None:
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be a JSON object")
    unknown = set(section) - known
    if unknown:
        raise InvalidConfig(f"unknown {where} keys: {sorted(unknown)}")


def load_config(path, overrides: Optional[dict] = None) -> PipelineConfig:
    doc = json.loads(Path(path).read_text()) if path else {}
    doc = _apply_overrides(doc, overrides or {})
    return PipelineConfig.from_dict(doc)


def _apply_overrides(doc: dict, ov: dict) -> dict:
    doc = copy.deepcopy(doc)
    if ov.get("seed") is not None:
        doc["seed"] = ov["seed"]
    if ov.get("out") is not None:
        doc["out"] = ov["out"]
    if ov.get("select") is not None:
        doc.setdefault("select", {})["method"] = ov["select"]
    if ov.get("ensemble") is not None:
        doc["ensemble"] = ov["ensemble"]
    if ov.get("train_fraction") is not None:
        doc["train_fraction"] = ov["train_fraction"]
    if ov.get("shift") is not None:
        doc["shift"] = ov["shift"]
    if ov.get("alpha") is not None:
        doc.setdefault("rca", {})["alpha"] = ov["alpha"]
    if ov.get("walks") is not None:
        doc.setdefault("rca", {})["walks"] = ov["walks"]
    if ov.get("labels") is not None:
        doc.setdefault("data", {})["labels"] = ov["labels"]
    return doc


class _Run:
    """Mutable state shared by the stages of one pipeline run."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.out)
        self.timings: dict[str, float] = {}
        self.artifacts: dict[str, str] = {}  # file name -> sha256 of its bytes
        self.frame: Optional[MetricFrame] = None
        self.labels: Optional[LabelSeries] = None
        self.truth: Optional[GroundTruth] = None
        self.normalized: Optional[MetricFrame] = None
        self.selected: Optional[SelectedFrame] = None
        self.selection_info: dict = {}
        self.matrix: Optional[ScoreMatrix] = None
        self.model: Optional[MlpModel] = None
        self.report: Optional[DiagnosisReport] = None
        self.eval_span_labels: Optional[np.ndarray] = None
        self.verdict_timeline: Optional[np.ndarray] = None
        self.rca_info: Optional[dict] = None

    def stage(self, name: str, fn):
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc
        self.timings[name] = time.perf_counter() - start

    def write(self, relpath: str, content) -> None:
        """Write one artifact: a dict as canonical JSON, text as it is."""
        text = dumps_json(content) + "\n" if isinstance(content, dict) else content
        data = text.encode()
        (self.out / relpath).write_bytes(data)
        self.artifacts[relpath] = hashlib.sha256(data).hexdigest()


def run_pipeline(config: PipelineConfig) -> DiagnosisReport:
    """Execute all stages, write artifacts, and return the diagnosis."""
    run = _Run(config)
    run.out.mkdir(parents=True, exist_ok=True)
    run.stage("ingest", lambda: _ingest(run))
    run.stage("select", lambda: _select(run))
    run.stage("detect", lambda: _detect(run))
    run.stage("ensemble", lambda: _ensemble(run))
    run.stage("rca", lambda: _rca(run))
    run.stage("report", lambda: _report(run))
    _write_manifest(run)
    return run.report


def run_stage(config: PipelineConfig, name: str) -> _Run:
    """Replay one stage of `run_pipeline` from the artifacts in the out dir.

    Every stage re-runs ingest from the config. ``gen`` then writes the
    generated series and labels as ``data.csv`` and ``labels.csv``; every
    other stage re-runs select, and ``select`` stops there. ``detect``
    scores the selected data and, for a linear ensemble, also writes the
    verdicts. ``train`` reads the scores back and writes the model;
    ``predict`` reads the scores and the model back and writes the
    verdicts. ``rca`` takes its anomaly windows from the labels, or reads
    ``verdicts.csv`` back when there are none. Returns the run state.
    """
    if name == "gen" and "generate" not in config.data:
        raise InvalidConfig("gen requires a data.generate section in the config")
    run = _Run(config)
    run.out.mkdir(parents=True, exist_ok=True)
    _ingest(run)
    if name == "gen":
        frame, labels = run.frame, run.labels
        layout = (TIMESTAMP, *((n, float) for n in frame.names))
        run.write("data.csv", format_table(layout, [frame.timestamps, *frame.values.T]))
        run.write("labels.csv", format_table(LABELS, [labels.timestamps, labels.labels]))
        return run
    _select(run)
    if name == "detect":
        _detect(run)
        if config.ensemble != "deep":
            _ensemble(run)
    elif name in ("train", "predict"):
        run.matrix = _read_scores(run)
        halves = _split(run)
        if name == "train":
            _train(run, halves)
        else:
            run.model = MlpModel.load(_artifact(run, "model.json", "train"))
            _predict(run, halves)
    elif name == "rca":
        if run.labels is None:
            run.verdict_timeline = _read_verdicts(run)
        _rca(run)
    elif name != "select":
        raise InvalidConfig(f"unknown stage {name!r}")
    return run


def _artifact(run: _Run, name: str, stage: str) -> Path:
    path = run.out / name
    if not path.exists():
        raise ParseError(f"{path} not found; run the {stage} stage first")
    return path


def _read_scores(run: _Run) -> ScoreMatrix:
    """The detect stage's scores, assembled as `_detect` assembles them."""
    vectors = []
    for kind in KINDS:
        path = _artifact(run, f"scores_{kind}.csv", "detect")
        ts, values = Table(path).read(SCORES)
        if not np.array_equal(ts, run.selected.timestamps):
            raise ParseError(
                f"{path}: timestamps differ from the selected data; run the detect stage again"
            )
        vectors.append(ScoreVector(values=values, learner=kind))
    return assemble(vectors)


def _read_verdicts(run: _Run) -> np.ndarray:
    """Verdict timeline over the selected rows; rows without a verdict are 0."""
    stage = "predict" if run.config.ensemble == "deep" else "detect"
    path = _artifact(run, "verdicts.csv", stage)
    ts, _, verdicts = Table(path).read(VERDICTS)
    known = np.isin(ts, run.selected.timestamps)
    if not known.all():
        raise ParseError(f"{path}: timestamp {ts[~known][0]} is not in the selected data")
    if not np.isin(verdicts, (0, 1)).all():
        raise ParseError(f"{path}: verdicts must be 0 or 1")
    timeline = np.zeros(run.selected.n_samples, dtype=np.int64)
    timeline[np.searchsorted(run.selected.timestamps, ts)] = verdicts
    return timeline


def _ingest(run: _Run) -> None:
    data = run.config.data
    if "generate" in data:
        gen = GenConfig(**data["generate"])
        frame, labels, truth = generate(gen, derive_seed(run.config.seed, "gen"))
        run.frame, run.labels, run.truth = frame, labels, truth
        run.write("ground_truth.json", truth.to_dict())
    elif "smd_values" in data:
        run.frame, run.labels = load_smd(data["smd_values"], data["smd_labels"])
    else:
        run.frame, run.labels = load_csv(data["csv"], data.get("labels"))
    if run.labels is not None:
        run.frame, run.labels = align(run.frame, run.labels)


def _select(run: _Run) -> None:
    cfg = run.config
    normalized, stats = zscore(run.frame)
    run.normalized = normalized
    info: dict = {
        "method": cfg.select_method,
        "n_before": run.frame.n_metrics,
        "dropped_constant": list(stats.dropped),
    }
    if cfg.select_method == "correlation":
        if run.labels is None:
            raise InvalidConfig("correlation selection requires labels")
        selected, table = correlate_select(
            normalized, run.labels, r_min=cfg.r_min, p_max=cfg.p_max
        )
        run.write("selection.csv", format_table(
            SELECTION, [table.names, table.r, table.t, table.p, table.retained]
        ))
        info["table_path"] = "selection.csv"
        info["retained"] = list(selected.columns)
    elif cfg.select_method == "pca":
        model = pca_fit(normalized, variance=cfg.pca_variance, n_fixed=cfg.pca_components)
        selected = pca_transform(model, normalized)
        info["retained_variance"] = model.retained_variance
    else:
        selected = SelectedFrame(
            timestamps=normalized.timestamps,
            values=normalized.values,
            columns=normalized.names,
            method="none",
            source_indices=tuple(range(normalized.n_metrics)),
        )
    info["n_after"] = selected.values.shape[1]
    run.selected = selected
    run.selection_info = info
    run.write("selected.json", selected.to_dict())


def _detector_spec(run: _Run, kind: str) -> DetectorSpec:
    cfg = run.config
    return DetectorSpec(
        kind=kind,
        anomaly_fraction=cfg.anomaly_fraction,
        seed=derive_seed(cfg.seed, "detectors"),
        **cfg.detector_overrides,
    )


def _detect(run: _Run) -> None:
    vectors = []
    for kind in KINDS:
        vec = fit_score(_detector_spec(run, kind), run.selected)
        # unnamed, the text is freed before the next learner runs; kept alive,
        # it pins the heap top and the learner's freed blocks stay resident
        run.write(
            f"scores_{kind}.csv", format_table(SCORES, [run.selected.timestamps, vec.values])
        )
        vectors.append(vec)
    run.matrix = assemble(vectors)


def _ensemble(run: _Run) -> None:
    cfg = run.config
    if cfg.ensemble == "deep":
        halves = _split(run)
        _train(run, halves)
        _predict(run, halves)
        return
    if cfg.ensemble == "max":
        combined = ensemble_max(run.matrix)
    elif cfg.ensemble == "avg":
        combined = ensemble_avg(run.matrix)
    else:
        combined = ensemble_weighted(run.matrix, mi_weights(run.matrix))
    run.report = _report_from_scores(combined, cfg.anomaly_fraction)
    run.eval_span_labels = None if run.labels is None else run.labels.labels
    run.verdict_timeline = run.report.verdicts.copy()
    run.write("verdicts.csv", format_table(
        VERDICTS, [run.selected.timestamps, run.report.probabilities, run.report.verdicts]
    ))


def _report_from_scores(combined: ScoreVector, fraction: float) -> DiagnosisReport:
    """Min-max scores to probabilities; cutoff at the m-th highest score."""
    s = combined.values
    lo, hi = float(s.min()), float(s.max())
    probs = np.full(s.shape, 0.5) if hi == lo else (s - lo) / (hi - lo)
    verdicts = threshold(combined, fraction)
    flagged = probs[verdicts == 1]
    cut = float(flagged.min()) if flagged.size else float("inf")
    return DiagnosisReport(probabilities=probs, threshold=cut)


def _split(run: _Run):
    if run.labels is None:
        raise InvalidConfig("deep ensemble requires labels for the training split")
    return split(run.matrix, run.labels, train_fraction=run.config.train_fraction)


def _train(run: _Run, halves) -> None:
    """Train half of the deep ensemble: fit the MLP on the train side."""
    cfg = run.config
    (train_X, train_y), _ = halves
    tc = TrainConfig(
        epochs=cfg.epochs,
        batch=cfg.batch,
        lr=cfg.lr,
        seed=derive_seed(cfg.seed, "mlp"),
    )
    run.model = train_deep(
        train_X, train_y, tc, shift=cfg.shift, norm=NormStats.from_matrix(run.matrix)
    )
    run.write("model.json", run.model.to_dict())


def _predict(run: _Run, halves) -> None:
    """Predict half of the deep ensemble: verdicts on the test side."""
    (train_X, _), (test_X, test_y) = halves
    cut = train_X.shape[0]
    s = run.model.shift
    # verdict for input row t targets time t+s; evaluate where the target exists
    usable = test_X.shape[0] - s
    if usable <= 0:
        raise InvalidConfig(f"shift {s} leaves no evaluable test rows")
    fragment = predict_deep(run.model, test_X)
    probs = fragment.probabilities[:usable]
    run.report = DiagnosisReport(probabilities=probs, threshold=run.model.threshold)
    run.eval_span_labels = test_y[s:]
    timeline = np.zeros(run.matrix.n_samples, dtype=np.int64)
    timeline[cut + s : cut + s + usable] = run.report.verdicts
    run.verdict_timeline = timeline
    timestamps = run.selected.timestamps[cut + s : cut + s + usable]
    run.write("verdicts.csv", format_table(
        VERDICTS, [timestamps, run.report.probabilities, run.report.verdicts]
    ))


def ranking_table(ranking: RootCauseRanking) -> str:
    """ranking.csv: rank, node and walk count of each root-cause candidate."""
    names = ranking.names()
    counts = [count for _, count in ranking.entries]
    return format_table(RANKING, [range(1, len(names) + 1), names, counts])


def _detected_windows(timeline: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive [start, end] row spans of consecutive 1-verdicts."""
    windows = []
    start = None
    for i, v in enumerate(timeline):
        if v and start is None:
            start = i
        elif not v and start is not None:
            windows.append((start, i - 1))
            start = None
    if start is not None:
        windows.append((start, len(timeline) - 1))
    return windows


def _rca_span(timeline: np.ndarray) -> np.ndarray:
    """Window rows plus an equal-length preceding stretch, per detection."""
    rows: set[int] = set()
    for start, end in _detected_windows(timeline):
        length = end - start + 1
        rows.update(range(max(0, start - length), end + 1))
    return np.array(sorted(rows), dtype=np.int64)


def _rca(run: _Run) -> None:
    cfg = run.config
    # known labels define the anomaly windows when available; otherwise the
    # detector verdicts stand in
    timeline = (
        run.labels.labels.astype(np.int64)
        if run.labels is not None
        else run.verdict_timeline
    )
    windows = _detected_windows(timeline)
    if not windows:
        run.rca_info = None
        return
    rows = _rca_span(timeline)
    # causal nodes must be real metrics: reuse the correlation selection if
    # present, otherwise all normalized metrics
    if run.selected.method == "correlation":
        metric_values = run.selected.values
        metric_names = run.selected.columns
    else:
        metric_values = run.normalized.values
        metric_names = run.normalized.names
    span = np.column_stack([metric_values[rows], timeline[rows].astype(np.float64)])
    names = tuple(metric_names) + (INDICATOR,)
    graph = pc_build(span, names, alpha=cfg.alpha)
    run.write("graph.txt", graph.edge_list_text())
    run.write("graph.json", graph.to_dict())
    ranking = localize(
        graph,
        total_walks=cfg.walks,
        length=cfg.walk_length,
        seed=derive_seed(cfg.seed, "rca"),
    )
    run.write("ranking.csv", ranking_table(ranking))
    info: dict = {
        "graph_path": "graph.json",
        "ranking": [[n, c] for n, c in ranking.entries],
        "ac_at_k": None,
        "avg": None,
    }
    if run.truth is not None and run.truth.root_causes:
        ks = range(1, 6)
        info["ac_at_k"] = {
            str(k): ac_at_k(ranking, run.truth.root_causes, k) for k in ks
        }
        info["avg"] = avg_at_k(ranking, run.truth.root_causes, 5)
    run.rca_info = info


def _report(run: _Run) -> None:
    cfg = run.config
    ev = None
    if run.eval_span_labels is not None:
        p, r, f1 = prf1(run.report.verdicts, run.eval_span_labels)
        ev = EvaluationBlock(precision=p, recall=r, f1=f1)
    run.report = DiagnosisReport(
        probabilities=run.report.probabilities,
        threshold=run.report.threshold,
        evaluation=ev,
    )
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "manifest": {
            "config_sha256": cfg.config_hash(),
            "seed": cfg.seed,
            "stages": ["ingest", "select", "detect", "ensemble", "rca", "report"],
        },
        "selection": run.selection_info,
        "detection": {
            "method": cfg.ensemble,
            "verdicts_path": "verdicts.csv",
            "precision": None if ev is None else ev.precision,
            "recall": None if ev is None else ev.recall,
            "f1": None if ev is None else ev.f1,
            "seconds": None,  # wall-clock lives in manifest.json
        },
        "rca": run.rca_info,
    }
    run.write("report.json", doc)


def _write_manifest(run: _Run) -> None:
    run.write("manifest.json", {
        "config_sha256": run.config.config_hash(),
        "seed": run.config.seed,
        "timings_seconds": {k: round(v, 6) for k, v in run.timings.items()},
        "artifact_sha256": run.artifacts,
    })
