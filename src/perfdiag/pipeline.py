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

import hashlib
import json
import time
from dataclasses import MISSING, dataclass, field, fields, replace
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
    check_fields,
    dumps_json,
)
from .detectors import KINDS, DetectorSpec, ScoreVector, fit_score, neighbor_pass, threshold
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
from .mlp import MlpModel, TrainConfig, predict_deep, train_deep
from .preprocess import correlate_select, pca_fit, pca_transform, zscore
from .rca import INDICATOR, CausalGraph, RootCauseRanking, ac_at_k, avg_at_k, localize, pc_build
from .seeding import derive_seed
from .tables import Table, format_table

SELECT_METHODS = ("correlation", "pca", "none")
ENSEMBLES = ("max", "avg", "weighted", "deep")
# the detect keys beside anomaly_fraction: the learner settings of DetectorSpec
DETECTOR_SETTINGS = {f.name for f in fields(DetectorSpec)} - {"kind", "anomaly_fraction", "seed"}
# each data source and the other data keys it takes; SMD data must give its labels
DATA_SOURCES = {"csv": {"labels"}, "smd_values": {"smd_labels"}, "generate": set()}
REPORT_SCHEMA_VERSION = 1

SCORES = (TIMESTAMP, ("score", float))
VERDICTS = (TIMESTAMP, ("probability", float), ("verdict", int))
SELECTION = (("metric", str), ("r", float), ("t", float), ("p", float), ("retained", int))
RANKING = (("rank", int), ("node", str), ("count", int))

# Where each scalar PipelineConfig field sits in the JSON config: (section,
# key), with section None for the top level. The dataclass defaults are the
# only defaults. "data" is kept as given, and so are the "detect" keys other
# than anomaly_fraction (detector_overrides) that differ from their default.
SETTINGS = {
    "out": (None, "out"),
    "seed": (None, "seed"),
    "select_method": ("select", "method"),
    "r_min": ("select", "r_min"),
    "p_max": ("select", "p_max"),
    "pca_variance": ("select", "variance"),
    "pca_components": ("select", "n_fixed"),
    "anomaly_fraction": ("detect", "anomaly_fraction"),
    "ensemble": (None, "ensemble"),
    "train_fraction": (None, "train_fraction"),
    "shift": (None, "shift"),
    "epochs": ("train", "epochs"),
    "batch": ("train", "batch"),
    "lr": ("train", "lr"),
    "alpha": ("rca", "alpha"),
    "walks": ("rca", "walks"),
    "walk_length": ("rca", "length"),
}
# load_config's override names, as the CLI flags give them: a setting's JSON
# key, "select" for select.method and "labels" for data.labels
OVERRIDES = {key: (section, key) for section, key in SETTINGS.values()}
OVERRIDES.update(select=SETTINGS["select_method"], labels=("data", "labels"))


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
        check_fields(self, where=lambda name: ".".join(filter(None, SETTINGS[name])))
        for ok, rule in (
            (self.select_method in SELECT_METHODS, f"select.method must be one of {SELECT_METHODS}"),
            (self.ensemble in ENSEMBLES, f"ensemble must be one of {ENSEMBLES}"),
            (0.0 < self.train_fraction < 1.0, "train_fraction must lie in (0, 1)"),
            (0.0 < self.pca_variance <= 1.0, "select.variance must lie in (0, 1]"),
            (0.0 < self.alpha < 1.0, "rca.alpha must lie in (0, 1)"),
            (self.shift >= 0, "shift must be >= 0"),
            (self.walks >= 1, "rca.walks must be >= 1"),
            (self.walk_length is None or self.walk_length >= 1, "rca.length must be >= 1"),
            (self.pca_components is None or self.pca_components >= 1, "select.n_fixed must be >= 1"),
            (-(2**63) <= self.seed < 2**64, "seed must fit in 64 bits"),
        ):
            if not ok:
                raise InvalidConfig(rule)
        _check_keys(self.detector_overrides, "detect", DETECTOR_SETTINGS)
        # the checks the detect and train stages make, at config load
        self.detector_spec(KINDS[0])
        self.train_config()
        _check_data(self.data)
        # a detect key at its DetectorSpec default is no override: same equality and hash
        object.__setattr__(self, "detector_overrides", {
            k: v for k, v in self.detector_overrides.items() if v != getattr(DetectorSpec, k)})

    def detector_spec(self, kind: str) -> DetectorSpec:
        seed = derive_seed(self.seed, "detectors")
        return DetectorSpec(kind, self.anomaly_fraction, seed, **self.detector_overrides)

    def train_config(self) -> TrainConfig:
        seed = derive_seed(self.seed, "mlp")
        return TrainConfig(epochs=self.epochs, batch=self.batch, lr=self.lr, seed=seed)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        keys = {None: {"data"}, "detect": set(DETECTOR_SETTINGS)}
        for section, key in SETTINGS.values():
            keys.setdefault(section, set()).add(key)
        _check_keys(doc, "config", keys[None] | set(keys) - {None})
        parts = {section: doc.get(section, {}) for section in keys if section}
        for section, part in parts.items():
            _check_keys(part, section, keys[section])
        parts[None] = doc
        return cls(
            data=doc.get("data"),
            detector_overrides={k: v for k, v in parts["detect"].items() if k in DETECTOR_SETTINGS},
            **{name: parts[s][k] for name, (s, k) in SETTINGS.items() if k in parts[s]},
        )

    def to_dict(self) -> dict:
        doc = {"data": self.data, "detect": dict(self.detector_overrides)}
        for name, (section, key) in SETTINGS.items():
            (doc.setdefault(section, {}) if section else doc)[key] = getattr(self, name)
        return doc

    def config_hash(self) -> str:
        # the output directory is not part of the experiment identity
        doc = {k: v for k, v in self.to_dict().items() if k != "out"}
        return hashlib.sha256(dumps_json(doc).encode()).hexdigest()


def _check_object(section, where: str) -> None:
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be a JSON object")


def _check_keys(section, where: str, known: set) -> None:
    _check_object(section, where)
    unknown = set(section) - known
    if unknown:
        raise InvalidConfig(f"unknown {where} keys: {sorted(unknown)}")


def _check_data(data) -> None:
    """One data source, only the keys it takes, and every path a string."""
    sources = [s for s in DATA_SOURCES if s in data] if isinstance(data, dict) else []
    if len(sources) != 1:
        raise InvalidConfig(f"data must be a JSON object with exactly one of {list(DATA_SOURCES)}")
    extra = sorted(set(data) - {sources[0]} - DATA_SOURCES[sources[0]])
    if extra:
        raise InvalidConfig(f"data.{sources[0]} does not take data.{extra[0]}")
    if "smd_values" in data and "smd_labels" not in data:
        raise InvalidConfig("data.smd_values requires data.smd_labels")
    for key, path in data.items():
        if key != "generate" and not isinstance(path, str):
            raise InvalidConfig(f"data.{key} must be a path string, got {path!r}")
    if "generate" in data:
        gen = data["generate"]
        _check_keys(gen, "data.generate", {f.name for f in fields(GenConfig)})
        for f in fields(GenConfig):
            if f.default is MISSING and f.name not in gen:
                raise InvalidConfig(f"data.generate.{f.name} is required")
        GenConfig(**gen)


def load_config(path, overrides: Optional[dict] = None) -> PipelineConfig:
    """The JSON config at ``path`` (or none) with ``overrides`` named as in `OVERRIDES`."""
    try:
        doc = json.loads(Path(path).read_text()) if path else {}
    except OSError as exc:
        raise InvalidConfig(f"{path}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidConfig(f"{path}: not valid JSON: {exc}") from exc
    _check_object(doc, "config")
    for name, value in (overrides or {}).items():
        if value is not None:
            section, key = OVERRIDES[name]
            part = doc.setdefault(section, {}) if section else doc
            _check_object(part, section)
            part[key] = value
    return PipelineConfig.from_dict(doc)


class _Run:
    """Mutable state shared by the stages of one pipeline run."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.timings: dict[str, float] = {}
        self.artifacts: dict[str, str] = {}  # file name -> sha256 of its bytes
        self.frame: Optional[MetricFrame] = None  # the ingested data, dropped by select
        self.labels: Optional[LabelSeries] = None
        self.truth: Optional[GroundTruth] = None
        self.normalized: Optional[MetricFrame] = None  # z-scores, kept where RCA reads them
        self.selected: Optional[SelectedFrame] = None
        self.selection_info: dict = {}
        self.matrix: Optional[ScoreMatrix] = None
        self.model: Optional[MlpModel] = None
        self.report: Optional[DiagnosisReport] = None
        self.verdict_rows: Optional[slice] = None  # the selected rows of report
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
        run.frame, run.labels, run.truth = generate(gen, derive_seed(run.config.seed, "gen"))
        run.write("ground_truth.json", run.truth.to_dict())
    elif "smd_values" in data:
        run.frame, run.labels = load_smd(data["smd_values"], data["smd_labels"])
    else:
        run.frame, run.labels = load_csv(data["csv"], data.get("labels"))
    if run.labels is not None:
        run.frame, run.labels = align(run.frame, run.labels)


def _select(run: _Run) -> None:
    cfg = run.config
    normalized, dropped = zscore(run.frame)
    info: dict = {
        "method": cfg.select_method,
        "n_before": run.frame.n_metrics,
        "dropped_constant": list(dropped),
    }
    # no later stage reads the raw frame; RCA reads the z-scored metrics
    # unless the selection keeps metric columns of its own (see `_rca`)
    run.frame = None
    run.normalized = None if cfg.select_method == "correlation" else normalized
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


def _detect(run: _Run) -> None:
    X = run.selected.values
    vectors, lists = [], None
    for spec in (run.config.detector_spec(kind) for kind in KINDS):
        if spec.kind == "knn":
            # knn and lof read one neighbour pass, made after iforest and
            # dropped before ocsvm. A k without room fails in its learner:
            # knn's before the pass is made, lof's after knn has scored
            ks = (spec.knn_k, spec.lof_k)
            lists = neighbor_pass(X, ks) if spec.knn_k < X.shape[0] else None
        elif spec.kind == "ocsvm":
            lists = None
        vec = fit_score(spec, run.selected, lists)
        run.write(
            f"scores_{spec.kind}.csv", format_table(SCORES, [run.selected.timestamps, vec.values])
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
    _verdicts(run, _report_from_scores(combined, cfg.anomaly_fraction), 0)


def _verdicts(run: _Run, report: DiagnosisReport, first: int) -> None:
    """Keep ``report`` as the verdicts on the selected rows from ``first``
    on, and write them to verdicts.csv."""
    run.report = report
    run.verdict_rows = slice(first, first + len(report.verdicts))
    timestamps = run.selected.timestamps[run.verdict_rows]
    run.write("verdicts.csv", format_table(
        VERDICTS, [timestamps, report.probabilities, report.verdicts]
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
    run.model = train_deep(train_X, train_y, cfg.train_config(), shift=cfg.shift)
    run.write("model.json", run.model.to_dict())


def _predict(run: _Run, halves) -> None:
    """Predict half of the deep ensemble: verdicts on the test side."""
    (train_X, _), (test_X, _) = halves
    cut = train_X.shape[0]
    s = run.model.shift
    # verdict for input row t targets time t+s; evaluate where the target exists
    usable = test_X.shape[0] - s
    if usable <= 0:
        raise InvalidConfig(f"shift {s} leaves no evaluable test rows")
    fragment = predict_deep(run.model, test_X)
    _verdicts(run, DiagnosisReport(fragment.probabilities[:usable], fragment.threshold), cut + s)


def ranking_table(ranking: RootCauseRanking) -> str:
    """ranking.csv: rank, node and walk count of each root-cause candidate."""
    names = ranking.names()
    counts = [count for _, count in ranking.entries]
    return format_table(RANKING, [range(1, len(names) + 1), names, counts])


def _rank(run: _Run, graph: CausalGraph) -> RootCauseRanking:
    """Rank root causes by the config's random walks on ``graph``; write ranking.csv."""
    cfg = run.config
    ranking = localize(graph, total_walks=cfg.walks, length=cfg.walk_length,
                       seed=derive_seed(cfg.seed, "rca"))
    run.write("ranking.csv", ranking_table(ranking))
    return ranking


def rank_graph(config: PipelineConfig, path) -> RootCauseRanking:
    """`perfdiag rca --graph`: rank the graph JSON at ``path`` as `_rca` ranks its own."""
    graph = CausalGraph.load(path)
    if INDICATOR not in graph.nodes:
        raise ParseError(f"{path}: graph has no {INDICATOR!r} node")
    return _rank(_Run(config), graph)


def _rca_span(timeline: np.ndarray) -> np.ndarray:
    """Window rows plus an equal-length preceding stretch, per detection."""
    # a window starts where a 0 turns to 1 and stops (exclusive) where it turns back
    flags = np.concatenate(([False], timeline != 0, [False]))
    starts, stops = np.flatnonzero(np.diff(flags)).reshape(-1, 2).T
    span = np.zeros(len(timeline), dtype=bool)
    for start, stop in zip(starts.tolist(), stops.tolist()):
        span[max(0, 2 * start - stop) : stop] = True
    return np.flatnonzero(span)


def _rca(run: _Run) -> None:
    cfg = run.config
    # known labels define the anomaly windows when available; otherwise the
    # verdicts written to verdicts.csv stand in
    timeline = run.labels.labels.astype(np.int64) if run.labels is not None else _read_verdicts(run)
    if not timeline.any():
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
    ranking = _rank(run, graph)
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
    if run.labels is not None:
        ev = EvaluationBlock(*prf1(run.report.verdicts, run.labels.labels[run.verdict_rows]))
        run.report = replace(run.report, evaluation=ev)
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
