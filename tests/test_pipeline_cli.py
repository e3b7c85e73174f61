"""Pipeline orchestration and the command-line interface."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import perfdiag
from perfdiag import pipeline
from perfdiag.cli import _config_from_args, build_parser, main
from perfdiag.detectors import DetectorSpec, ScoreVector
from perfdiag.errors import (
    ConstantColumnWarning,
    InvalidConfig,
    PerfDiagError,
    PipelineStageError,
    TooFewSamples,
)
from perfdiag.evaluation import prf1
from perfdiag.ingest import GenConfig
from perfdiag.pipeline import (
    DETECTOR_SETTINGS,
    SETTINGS,
    PipelineConfig,
    _rca_span,
    _report_from_scores,
    load_config,
    run_pipeline,
)

GEN = {
    "n_metrics": 6,
    "n_samples": 400,
    "n_windows": 2,
    "window_len": 30,
    "magnitude": 6.0,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# --- config handling ------------------------------------------------------

def test_config_dict_round_trip():
    cfg = PipelineConfig(data={"generate": GEN}, seed=5, ensemble="max")
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(InvalidConfig):
        PipelineConfig.from_dict({"data": {"generate": GEN}, "detectors": {}})


@pytest.mark.parametrize(
    "section, key",
    [("train", "hiden"), ("select", "rmin"), ("rca", "walk"), ("detect", "knn_kk")],
)
def test_config_rejects_unknown_section_keys(section, key):
    with pytest.raises(InvalidConfig, match=key):
        PipelineConfig.from_dict({"data": {"generate": GEN}, section: {key: 5}})


@pytest.mark.parametrize(
    "train",
    [{"batch": 0}, {"batch": -5}, {"epochs": 0},
     {"lr": 0.0}, {"lr": -1e-3}, {"lr": float("nan")}, {"lr": float("inf")}],
)
def test_config_rejects_bad_train_values(tmp_path, train):
    path = write_config(tmp_path, {"data": {"generate": GEN}, "train": train})
    with pytest.raises(InvalidConfig, match="train"):
        load_config(path)


@pytest.mark.parametrize(
    "section, values, where",
    [("rca", {"length": 0}, "rca.length"),
     ("rca", {"length": "2"}, "rca.length"),
     ("select", {"n_fixed": 0}, "select.n_fixed"),
     ("select", {"n_fixed": "2"}, "select.n_fixed"),
     ("detect", {"knn_k": 0}, "detect.knn_k must be >= 1"),
     ("detect", {"knn_k": "5"}, "detect.knn_k"),
     ("detect", {"n_trees": 2.5}, "detect.n_trees"),
     ("detect", {"subsample": 1}, "detect.subsample must be >= 2"),
     # an int setting takes an int, not a float or a bool; a float setting
     # takes a number, not a string; a str setting takes a string
     ("train", {"epochs": 2.5}, "train.epochs"),
     ("train", {"epochs": True}, "train.epochs"),
     (None, {"shift": 2.7}, "shift"),
     (None, {"seed": 1.9}, "seed"),
     ("rca", {"walks": "5"}, "rca.walks"),
     ("select", {"r_min": "0.5"}, "select.r_min"),
     (None, {"out": 5}, "out"),
     ("detect", {"nu": "0.1"}, "detect.nu"),
     ("detect", {"gamma": "x"}, "detect.gamma"),
     # checked whichever the select method, not only when PCA runs
     ("select", {"method": "pca", "variance": 1.5}, "select.variance must lie in"),
     ("select", {"method": "pca", "variance": 0}, "select.variance must lie in"),
     ("select", {"method": "pca", "variance": -1}, "select.variance must lie in"),
     ("select", {"variance": float("nan")}, "select.variance must lie in"),
     ("select", {"method": "correlation", "variance": 2.0}, "select.variance must lie in")],
)
def test_config_rejects_bad_values_at_load(tmp_path, section, values, where):
    # checked before any stage runs, so nothing is written to the out dir
    out = tmp_path / "out"
    doc = {"data": {"generate": GEN}, "out": str(out)}
    doc.update({section: values} if section else values)
    path = write_config(tmp_path, doc)
    with pytest.raises(InvalidConfig, match=where):
        load_config(path)
    assert not out.exists()


@pytest.mark.parametrize(
    "gen, stage",
    [({"magnitude": math.nan}, "load"), ({"noise_std": math.inf}, "load"),
     # finite scales whose shift, 1e308 noise standard deviations, overflows
     ({"magnitude": 1e308, "noise_std": 10}, "ingest")],
)
def test_a_generator_past_the_float_range_fails_typed(tmp_path, gen, stage):
    path = write_config(tmp_path, {"data": {"generate": {**GEN, **gen}}, "out": str(tmp_path)})
    with pytest.raises(PerfDiagError, match="data.generate") as err:
        run_pipeline(load_config(path))
    if stage == "load":
        assert type(err.value) is InvalidConfig
    else:
        assert err.value.stage == stage and isinstance(err.value.cause, PerfDiagError)


# values of the wrong type for each kind of scalar; a bool is never a number
WRONG = {"int": ["x", 2.5, True], "float": ["x", True], "str": [5, True]}


def wrong_types():
    """(JSON path, message prefix, value) for every scalar config key and wrong value."""
    settings = {f.name: f.type for f in fields(PipelineConfig)}
    learner = {f.name: f.type for f in fields(DetectorSpec)}
    keys = [(tuple(filter(None, loc)), ".".join(filter(None, loc)), settings[name])
            for name, loc in SETTINGS.items()]
    keys += [(("detect", k), f"detect.{k}", learner[k]) for k in sorted(DETECTOR_SETTINGS)]
    keys += [(("data", "generate", f.name), f"data.generate.{f.name}", f.type)
             for f in fields(GenConfig)]
    for path, where, annotation in keys:
        kind = annotation.removeprefix("Optional[").removesuffix("]")
        # null is wrong only where the setting cannot be unset
        for value in WRONG.get(kind, []) + ([None] if kind == annotation else []):
            yield pytest.param(path, where, value, id=f"{'.'.join(path)}={value!r}")


@pytest.mark.parametrize("path, where, value", wrong_types())
def test_every_scalar_key_rejects_a_wrong_type_at_load(tmp_path, path, where, value):
    out = tmp_path / "out"
    doc = {"data": {"generate": dict(GEN)}, "out": str(out)}
    *sections, key = path
    part = doc
    for section in sections:
        part = part.setdefault(section, {})
    part[key] = value
    with pytest.raises(InvalidConfig, match=f"^{re.escape(where)} must be "):
        load_config(write_config(tmp_path, doc))
    assert not out.exists()


@pytest.mark.parametrize(
    "data, where",
    [({}, "exactly one of"),
     ({"csv": "a.csv", "smd_values": "v.txt", "smd_labels": "l.txt"}, "exactly one of"),
     # a labels file goes with CSV data only
     ({"generate": GEN, "labels": "l.csv"}, "data.labels"),
     ({"smd_values": "v.txt", "smd_labels": "l.txt", "labels": "l.csv"}, "data.labels"),
     ({"csv": "a.csv", "smd_labels": "l.txt"}, "data.smd_labels"),
     ({"smd_values": "v.txt"}, "data.smd_labels"),
     # a number is not a path: 0 would have read the CSV from stdin
     ({"csv": 0}, "data.csv"),
     ({"csv": "a.csv", "labels": 3}, "data.labels"),
     ({"generate": {**GEN, "n_metric": 6}}, "n_metric"),
     ({"generate": {"n_samples": 400}}, "data.generate.n_metrics is required"),
     ({"generate": {**GEN, "n_metrics": 0}}, "metric"),
     # a generator count is an int, not a float or a bool
     ({"generate": {**GEN, "n_metrics": 2.5}}, "data.generate.n_metrics must be an integer"),
     ({"generate": {**GEN, "n_metrics": True}}, "data.generate.n_metrics must be an integer"),
     # the generator's edge and root-cause checks run at load too
     ({"generate": {**GEN, "edges": [["m1", "m0"]]}}, r"data.generate.edges: edge \(m1, m0\) violates"),
     ({"generate": {**GEN, "edges": [["m0", "m9"]]}}, r"data.generate.edges: edge \(m0, m9\) references"),
     ({"generate": {**GEN, "root_causes": ["m9"]}}, "data.generate.root_causes: unknown root-cause"),
     ({"generate": {**GEN, "edges": [["m0"]]}}, "data.generate.edges: each edge must be"),
     ({"generate": {**GEN, "interval": 0}}, "data.generate.interval must be"),
     ({"generate": {**GEN, "root_causes": "m1"}}, "data.generate.root_causes must be")],
)
def test_config_checks_the_data_section_at_load(data, where):
    with pytest.raises(InvalidConfig, match=where):
        PipelineConfig.from_dict({"data": data})


def test_config_rejects_unknown_detector_setting():
    with pytest.raises(InvalidConfig, match="knn_kk"):
        PipelineConfig(data={"generate": GEN}, detector_overrides={"knn_kk": 5})


def test_config_requires_a_data_source():
    with pytest.raises(InvalidConfig):
        PipelineConfig(data={})
    with pytest.raises(InvalidConfig):
        PipelineConfig.from_dict({"seed": 1})


def test_config_value_validation():
    with pytest.raises(InvalidConfig):
        PipelineConfig(data={"generate": GEN}, ensemble="stacking")
    with pytest.raises(InvalidConfig):
        PipelineConfig(data={"generate": GEN}, select_method="lasso")
    with pytest.raises(InvalidConfig):
        PipelineConfig(data={"generate": GEN}, train_fraction=1.0)
    with pytest.raises(InvalidConfig):
        PipelineConfig(data={"generate": GEN}, shift=-1)


def test_config_hash_ignores_output_directory():
    a = PipelineConfig(data={"generate": GEN}, out="first")
    b = PipelineConfig(data={"generate": GEN}, out="second")
    c = PipelineConfig(data={"generate": GEN}, out="first", seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_detect_settings_at_their_defaults_are_no_override():
    bare = PipelineConfig.from_dict({"data": {"generate": GEN}})
    spelled = PipelineConfig.from_dict({"data": {"generate": GEN}, "detect": {
        "knn_k": 5, "lof_k": 20, "n_trees": 100, "subsample": 256, "nu": None, "gamma": None}})
    assert spelled == bare
    assert spelled.config_hash() == bare.config_hash()
    # a value off its default still counts
    assert PipelineConfig.from_dict({"data": {"generate": GEN}, "detect": {
        "knn_k": 5, "lof_k": 21}}).detector_overrides == {"lof_k": 21}


def test_load_config_applies_flag_overrides(tmp_path):
    path = write_config(tmp_path, {"data": {"generate": GEN}, "seed": 1})
    cfg = load_config(path, {"seed": 7, "ensemble": "max", "select": "pca", "walks": 42})
    assert cfg.seed == 7
    assert cfg.ensemble == "max"
    assert cfg.select_method == "pca"
    assert cfg.walks == 42


@pytest.mark.parametrize(
    "doc, overrides, where",
    [([{"data": {"generate": GEN}}], {"out": "o"}, "config"),
     ({"data": {"generate": GEN}, "rca": 5}, {"alpha": 0.1}, "rca")],
)
def test_load_config_checks_shape_before_overrides(tmp_path, doc, overrides, where):
    path = write_config(tmp_path, doc)
    with pytest.raises(InvalidConfig, match=f"{where} must be a JSON object"):
        load_config(path, overrides)


def test_cli_names_a_config_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"data": ')
    err = stage_error(["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert err["type"] == "InvalidConfig"
    assert err["message"].startswith(f"{path}: not valid JSON")


@pytest.mark.parametrize("case", ["no config", "config is a directory", "no graph", "no data"])
def test_cli_names_a_path_that_cannot_be_read(tmp_path, capsys, case):
    missing = tmp_path / "nope.json"
    data = {"csv": str(missing)} if case == "no data" else {"generate": GEN}
    cfg = write_config(tmp_path, {"data": data})
    out = ["--out", str(tmp_path / "o")]
    argv, path, stage, kind = {
        "no config": (["run", "--config", str(missing)], missing, "run", "InvalidConfig"),
        "config is a directory": (["run", "--config", str(tmp_path)], tmp_path, "run",
                                  "InvalidConfig"),
        "no graph": (["rca", "--config", str(cfg), "--graph", str(missing)], missing, "rca",
                     "ParseError"),
        "no data": (["run", "--config", str(cfg)], missing, "ingest", "ParseError"),
    }[case]
    err = stage_error([*argv, *out], capsys)
    assert (err["stage"], err["type"]) == (stage, kind)
    assert err["message"].startswith(f"{path}: cannot read: ")


def test_config_hash_is_stable():
    # digests recorded before the config table replaced the hand-written
    # from_dict/to_dict pair: the benchmark workloads' settings, and a config
    # whose integer-valued floats hash as floats (r_min 1 as 1.0)
    smd = {"smd_values": "values.txt", "smd_labels": "labels.txt"}
    csv_data = {"csv": "metrics.csv", "labels": "labels.csv"}
    cases = [
        ({"data": smd, "seed": 7, "select": {"method": "none"}, "ensemble": "max",
          "detect": {"anomaly_fraction": 0.1}, "rca": {"alpha": 0.001}},
         "c0ea5d9df9c5d14fd7ca1bd6f2e12f8fec14f98bb4590284681b318c0ee0e9d3"),
        ({"data": csv_data, "seed": 7, "select": {"method": "none"}, "ensemble": "avg",
          "detect": {"anomaly_fraction": 0.4}, "rca": {"alpha": 0.01}},
         "38235bd79edd105250be86c3688f78de7dffc13e1e7ef5c8702d96f0cabe82ac"),
        ({"data": csv_data, "seed": 7,
          "select": {"method": "correlation", "r_min": 0.5, "p_max": 0.05},
          "detect": {"anomaly_fraction": 0.1}, "ensemble": "deep",
          "train_fraction": 0.8, "shift": 4, "rca": {"length": 2}},
         "62eff46c24f3f11018427972cc5bdd6ccfae343a55f37a4c4235ce6751abd873"),
        ({"data": {"generate": {"n_metrics": 6, "n_samples": 400}}, "seed": 3,
          "select": {"r_min": 1}, "train": {"lr": 1, "epochs": 5},
          "detect": {"anomaly_fraction": 0.2, "knn_k": 7, "n_trees": 50, "nu": 0.1, "gamma": 1}},
         "02df89608771ee7c38791a181c614d9cbff36e0c8db0b340d0285e58f3639045"),
    ]
    for doc, digest in cases:
        assert PipelineConfig.from_dict(doc).config_hash() == digest


def test_every_common_flag_lands_in_the_config(tmp_path):
    path = write_config(tmp_path, {"data": {"csv": "a.csv"}})
    args = build_parser().parse_args([
        "run", "--config", str(path), "--seed", "9", "--out", "o", "--select", "pca",
        "--ensemble", "avg", "--train-fraction", "0.7", "--shift", "2", "--alpha", "0.2",
        "--walks", "40", "--labels", "l.csv",
    ])
    doc = _config_from_args(args).to_dict()
    assert doc["data"] == {"csv": "a.csv", "labels": "l.csv"}
    assert (doc["seed"], doc["out"], doc["ensemble"]) == (9, "o", "avg")
    assert (doc["train_fraction"], doc["shift"]) == (0.7, 2)
    assert doc["select"]["method"] == "pca"
    assert (doc["rca"]["alpha"], doc["rca"]["walks"]) == (0.2, 40)


# --- window helpers -------------------------------------------------------

def test_rca_span_includes_preceding_stretch():
    # windows [1, 2] and [5, 5]; the first one's stretch is cut at row 0
    timeline = np.array([0, 1, 1, 0, 0, 1])
    np.testing.assert_array_equal(_rca_span(timeline), [0, 1, 2, 4, 5])
    # overlapping stretches merge, and a window may end the timeline
    np.testing.assert_array_equal(_rca_span(np.array([0, 0, 0, 1, 0, 1, 1])), [2, 3, 4, 5, 6])
    assert _rca_span(np.zeros(4, dtype=np.int64)).size == 0


# --- run_pipeline ---------------------------------------------------------

def test_pipeline_deterministic_across_output_dirs(tmp_path):
    def run(out):
        cfg = PipelineConfig(
            data={"generate": GEN}, out=str(out), seed=3, ensemble="avg"
        )
        run_pipeline(cfg)
        return out

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "verdicts.csv").read_bytes() == (b / "verdicts.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config_sha256"] == mb["config_sha256"]
    assert ma["artifact_sha256"] == mb["artifact_sha256"]


def test_pipeline_wraps_stage_failures(tmp_path):
    cfg = PipelineConfig(data={"csv": str(tmp_path / "missing.csv")}, out=str(tmp_path / "o"))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest"
    assert err.value.cause is not None


@pytest.fixture
def pass_ks(monkeypatch):
    """The largest k of each neighbour pass the pipeline makes, in order."""
    calls = []
    pass_once = pipeline.neighbor_pass

    def counted(X, ks):
        calls.append(max(ks))
        return pass_once(X, ks)

    monkeypatch.setattr(pipeline, "neighbor_pass", counted)
    return calls


@pytest.mark.parametrize(
    "setting, written",
    [("lof_k", ["scores_iforest.csv", "scores_knn.csv"]), ("knn_k", ["scores_iforest.csv"])],
)
def test_a_distance_learner_without_room_for_its_k_fails_the_detect_stage(
    tmp_path, pass_ks, setting, written
):
    # the shared neighbour pass serves the other learner; the one whose k is
    # at least the row count still raises its own TooFewSamples. Without room
    # for knn, its first reader, the pass is never made
    out = tmp_path / "o"
    cfg = PipelineConfig(
        data={"generate": GEN}, out=str(out), ensemble="max", select_method="none",
        detector_overrides={setting: 400},
    )
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    learner = setting[:-2]
    assert err.value.stage == "detect"
    assert type(err.value.cause) is TooFewSamples
    assert str(err.value.cause) == f"{learner} with k=400 needs at least 401 points, got 400"
    assert sorted(p.name for p in out.glob("scores_*.csv")) == written
    assert len(pass_ks) == (0 if setting == "knn_k" else 1)


@pytest.mark.parametrize(
    "detect, k",
    [({}, 20), ({"knn_k": 7, "lof_k": 7}, 7), ({"knn_k": 20, "lof_k": 5}, 20)],
)
def test_a_run_makes_one_neighbour_pass(tmp_path, pass_ks, detect, k):
    cfg = PipelineConfig(
        data={"generate": GEN}, out=str(tmp_path / "o"), ensemble="max",
        detector_overrides=detect,
    )
    run_pipeline(cfg)
    assert pass_ks == [k]


def smd_wide_inputs(tmp_path, n=10_000, m=38):
    """SMD files in the benchmark's smd-wide recipe: values on a 0.25 grid,
    a 5-row stall every 97 rows, a constant last metric, and six windows
    that shift m0 up and m1 down. Returns the data section and the matrix."""
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 1.0, size=(n, m)) + rng.uniform(-3.0, 3.0, size=m)
    for s in range(97, n, 97):
        values[s:s + 5] = values[s - 1]
    values[:, m - 1] = 1.0
    labels = np.zeros(n, dtype=np.int64)
    length, seg = n // 60, n // 6
    for s in range(length, n, seg):
        values[s:s + length, 0] += 12.0 + 20.0 * np.abs(rng.standard_normal(length))
        values[s:s + length, 1] -= 12.0 + 20.0 * np.abs(rng.standard_normal(length))
        labels[s:s + length] = 1
    values = np.round(values * 4.0) / 4.0
    np.savetxt(tmp_path / "values.txt", values, fmt="%.2f", delimiter=",")
    np.savetxt(tmp_path / "labels.txt", labels, fmt="%d")
    data = {"smd_values": str(tmp_path / "values.txt"), "smd_labels": str(tmp_path / "labels.txt")}
    return data, values


@pytest.mark.filterwarnings("ignore::perfdiag.errors.ConstantColumnWarning")
def test_a_run_holds_each_data_matrix_once(tmp_path):
    # at SMD width, a run's traced peak stays within 5 input matrices: the
    # raw frame is dropped once z-scored, zscore copies the kept columns
    # once, and the neighbour ids are int32
    data, values = smd_wide_inputs(tmp_path)
    cfg = PipelineConfig(
        data=data, out=str(tmp_path / "o"), select_method="none", ensemble="max", alpha=0.001,
    )
    run_pipeline(cfg)  # warm-up: module-level caches are not the run's
    tracemalloc.start()
    try:
        run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * values.nbytes, f"peak {peak / 2**20:.2f} MiB"


# pure-noise data can leave the indicator without graph neighbors
@pytest.mark.filterwarnings("ignore::perfdiag.errors.NoPredecessorsWarning")
def test_unlabeled_run_skips_evaluation(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((200, 5))
    dpath = tmp_path / "plain.csv"
    with open(dpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "m0", "m1", "m2", "m3", "m4"])
        for i in range(200):
            w.writerow([i * 15, *[repr(float(x)) for x in vals[i]]])
    cfg = PipelineConfig(
        data={"csv": str(dpath)}, out=str(tmp_path / "out"),
        select_method="none", ensemble="avg",
    )
    report = run_pipeline(cfg)
    assert report.evaluation is None
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["detection"]["f1"] is None
    # verdict windows still feed the causal stage
    assert doc["rca"] is not None
    assert isinstance(doc["rca"]["ranking"], list)


def test_deep_run_writes_model_and_test_side_verdicts(tmp_path):
    out = tmp_path / "out"
    cfg = PipelineConfig(
        data={"generate": GEN}, out=str(out), seed=11, ensemble="deep",
        anomaly_fraction=0.15,
    )
    report = run_pipeline(cfg)
    assert report.evaluation is not None
    assert (out / "model.json").exists()
    with open(out / "verdicts.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # deep verdicts cover only the chronological test half; generated
    # timestamps run at interval 1 so row index equals timestamp
    cut = math.ceil(0.5 * GEN["n_samples"] - 1e-9)
    assert len(rows) == GEN["n_samples"] - cut
    assert int(rows[0]["timestamp"]) == cut


@pytest.mark.parametrize("ensemble, shift", [("weighted", 0), ("deep", 2)])
def test_report_scores_the_rows_written_to_verdicts(tmp_path, ensemble, shift):
    doc = {"data": {"generate": GEN}, "seed": 11, "ensemble": ensemble, "shift": shift,
           "detect": {"anomaly_fraction": 0.15}}
    cfg = write_config(tmp_path, doc)
    out, gen = tmp_path / "out", tmp_path / "gen"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["gen", "--config", str(cfg), "--out", str(gen)]) == 0
    with open(gen / "labels.csv", newline="") as fh:
        label_at = {int(r["timestamp"]): int(r["label"]) for r in csv.DictReader(fh)}
    with open(out / "verdicts.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    verdicts = [int(r["verdict"]) for r in rows]
    truth = [label_at[int(r["timestamp"])] for r in rows]
    assert 0 < sum(truth) < len(truth)
    detection = json.loads((out / "report.json").read_text())["detection"]
    assert prf1(verdicts, truth) == (
        detection["precision"], detection["recall"], detection["f1"]
    )


@pytest.mark.parametrize("ensemble", ["max", "deep"])
def test_manifest_lists_exactly_what_was_written(tmp_path, ensemble):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(
        data={"generate": GEN}, out=str(out), seed=11, ensemble=ensemble,
        anomaly_fraction=0.15,
    ))
    digests = json.loads((out / "manifest.json").read_text())["artifact_sha256"]
    assert set(digests) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_linear_verdicts_flag_every_row_tied_at_the_cut():
    # threshold() picks ceil(0.5 * 4) = 2 rows, but the report flags every
    # row whose probability reaches the lowest picked one, so the tie adds one
    report = _report_from_scores(ScoreVector(np.array([3.0, 2.0, 2.0, 1.0]), "max"), 0.5)
    np.testing.assert_array_equal(report.verdicts, [1, 1, 1, 0])


@pytest.mark.filterwarnings("ignore::perfdiag.errors.NoPredecessorsWarning")
def test_metric_constant_at_a_tenth_is_dropped(tmp_path):
    # the column mean of 400 copies of 0.1 is not exactly 0.1, so the
    # metric's std is about 1e-15 instead of 0; its range is exactly 0
    vals = np.random.default_rng(0).standard_normal((400, 4))
    vals[:, 2] = 0.1
    dpath = tmp_path / "plain.csv"
    dpath.write_text("timestamp,m0,m1,m2,m3\n" + "".join(
        f"{i},{','.join(repr(x) for x in row)}\n" for i, row in enumerate(vals.tolist())
    ))
    out = tmp_path / "out"
    cfg = PipelineConfig(
        data={"csv": str(dpath)}, out=str(out), select_method="none", ensemble="max",
    )
    with pytest.warns(ConstantColumnWarning, match="m2"):
        run_pipeline(cfg)
    selection = json.loads((out / "report.json").read_text())["selection"]
    assert selection["dropped_constant"] == ["m2"]
    assert selection["n_after"] == 3
    graph = json.loads((out / "graph.json").read_text())
    assert "m2" not in graph["nodes"]


# --- cli subcommands ------------------------------------------------------

def test_cli_stage_artifacts(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"data": {"generate": GEN}, "seed": 4, "ensemble": "avg"}
    )
    out = tmp_path / "stages"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("data.csv", "labels.csv", "ground_truth.json"):
        assert (out / name).exists()
    assert main(["select", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "selected.json").exists()
    assert (out / "selection.csv").exists()
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 0
    for kind in ("iforest", "knn", "lof", "ocsvm"):
        assert (out / f"scores_{kind}.csv").exists()
    assert (out / "verdicts.csv").exists()
    assert "selected" in capsys.readouterr().out


def csv_inputs(tmp_path, labels):
    """Generated data as CSV; labels "none", "zero" or "long" (40 extra rows)."""
    src = tmp_path / "src"
    cfg = write_config(tmp_path, {"data": {"generate": GEN}, "seed": 11}, "gen.json")
    assert main(["gen", "--config", str(cfg), "--out", str(src)]) == 0
    data = {"csv": str(src / "data.csv")}
    if labels == "none":
        return data
    lines = (src / "labels.csv").read_text().splitlines()
    if labels == "zero":
        lines[1:] = [line.split(",")[0] + ",0" for line in lines[1:]]
    else:  # generated timestamps step by 1
        last = int(lines[-1].split(",")[0])
        lines += [f"{last + k},0" for k in range(1, 41)]
    (src / "labels.csv").write_text("\n".join(lines) + "\n")
    data["labels"] = str(src / "labels.csv")
    return data


STAGE_CASES = {
    "avg": ({"ensemble": "avg"}, None),
    "weighted": ({"ensemble": "weighted"}, None),
    "deep": ({"ensemble": "deep", "detect": {"anomaly_fraction": 0.15}}, None),
    # at seed 11 the indicator of the unlabeled case has no graph neighbour
    "unlabeled-avg": ({"ensemble": "avg", "select": {"method": "none"}, "seed": 1}, "none"),
    "long-labels-deep": ({"ensemble": "deep"}, "long"),
}


@pytest.mark.parametrize("case", list(STAGE_CASES))
def test_cli_stages_match_full_run(tmp_path, case, capsys):
    settings, labels = STAGE_CASES[case]
    data = {"generate": GEN} if labels is None else csv_inputs(tmp_path, labels)
    cfg = write_config(tmp_path, {"data": data, "seed": 11, **settings})
    full = tmp_path / "full"
    assert main(["run", "--config", str(cfg), "--out", str(full)]) == 0
    stages = tmp_path / "stages"
    commands = ["select", "detect", "rca"]
    if labels is None:
        commands.insert(0, "gen")
    if settings["ensemble"] == "deep":
        commands[-1:-1] = ["train", "predict"]
    for cmd in commands:
        assert main([cmd, "--config", str(cfg), "--out", str(stages)]) == 0, cmd
    names = ["verdicts.csv", "graph.json", "graph.txt", "ranking.csv", "selected.json"]
    if settings["ensemble"] == "deep":
        names.append("model.json")
    for name in names:
        assert (full / name).read_bytes() == (stages / name).read_bytes(), name
    assert len((full / "ranking.csv").read_text().splitlines()) > 1
    capsys.readouterr()


def stage_error(argv, capsys):
    assert main(argv) == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_cli_predict_before_train_names_the_missing_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"generate": GEN}, "ensemble": "deep"})
    out = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(["select", *out]) == 0
    err = stage_error(["predict", *out], capsys)
    assert err["type"] == "ParseError"
    assert "scores_iforest.csv" in err["message"] and "detect" in err["message"]
    assert main(["detect", *out]) == 0
    err = stage_error(["predict", *out], capsys)
    assert err["stage"] == "predict" and err["type"] == "ParseError"
    assert "model.json" in err["message"] and "train stage first" in err["message"]


def test_cli_rejects_scores_from_other_data(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"generate": GEN}, "ensemble": "deep"})
    out = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(["detect", *out]) == 0
    path = tmp_path / "o" / "scores_knn.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-5]))
    err = stage_error(["train", *out], capsys)
    assert err["type"] == "ParseError"
    assert "scores_knn.csv" in err["message"] and "timestamps differ" in err["message"]


def test_cli_rca_rejects_foreign_verdict_timestamp(tmp_path, capsys):
    data = csv_inputs(tmp_path, "none")
    cfg = write_config(
        tmp_path, {"data": data, "ensemble": "avg", "select": {"method": "none"}}
    )
    out = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(["detect", *out]) == 0
    with open(tmp_path / "o" / "verdicts.csv", "a") as fh:
        fh.write("999999,0.5,1\n")
    err = stage_error(["rca", *out], capsys)
    assert err["type"] == "ParseError"
    assert "999999" in err["message"] and "verdicts.csv" in err["message"]


def test_cli_rca_without_anomaly_window_matches_run(tmp_path, capsys):
    data = csv_inputs(tmp_path, "zero")
    cfg = write_config(
        tmp_path, {"data": data, "ensemble": "avg", "select": {"method": "none"}}
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    assert json.loads((tmp_path / "full" / "report.json").read_text())["rca"] is None
    capsys.readouterr()
    assert main(["rca", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "no anomaly window" in capsys.readouterr().out
    assert not (tmp_path / "o" / "ranking.csv").exists()


def test_cli_rca_on_explicit_graph(tmp_path, capsys):
    # causes feeding the indicator through chains: walks must surface the
    # chain heads, not the intermediate hops
    doc = {
        "nodes": ["indicator", "n5", "n6", "n14", "n15", "n16", "n17", "n18"],
        "directed": [
            ["n6", "n5"], ["n5", "indicator"],
            ["n17", "indicator"], ["n18", "indicator"],
            ["n14", "n16"], ["n16", "n15"], ["n15", "indicator"],
        ],
        "undirected": [],
    }
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"data": {"generate": GEN}})
    out = tmp_path / "rca"
    rc = main([
        "rca", "--config", str(cfg), "--graph", str(gpath),
        "--out", str(out), "--seed", "0",
    ])
    assert rc == 0
    with open(out / "ranking.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["node"] for r in rows[:4]} == {"n6", "n14", "n17", "n18"}
    assert sum(int(r["count"]) for r in rows) == 500
    capsys.readouterr()


def test_cli_rca_on_a_runs_graph_writes_the_runs_ranking(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"generate": GEN}, "seed": 11, "ensemble": "avg"})
    full, again = tmp_path / "full", tmp_path / "again"
    assert main(["run", "--config", str(cfg), "--out", str(full)]) == 0
    graph = str(full / "graph.json")
    assert main(["rca", "--config", str(cfg), "--graph", graph, "--out", str(again)]) == 0
    assert len((full / "ranking.csv").read_text().splitlines()) > 1
    assert (again / "ranking.csv").read_bytes() == (full / "ranking.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ('{"nodes": ["indicator", "a"], "directed": [["a", "indicator"]]}',
     "missing key 'undirected'"),
    ('{"nodes": ["a", "b"], "directed": [["a", "b"]], "undirected": []}',
     "graph has no 'indicator' node"),
], ids=["missing key", "no indicator"])
def test_cli_rca_rejects_a_malformed_graph(tmp_path, capsys, text, message):
    gpath = tmp_path / "graph.json"
    gpath.write_text(text)
    cfg = write_config(tmp_path, {"data": {"generate": GEN}})
    argv = ["rca", "--config", str(cfg), "--graph", str(gpath), "--out", str(tmp_path / "o")]
    err = stage_error(argv, capsys)
    assert err["stage"] == "rca" and err["type"] == "ParseError"
    assert err["message"] == f"{gpath}: {message}"


@pytest.mark.parametrize("name, message", [
    # "indicator" is the anomaly indicator's node in the causal graph
    ("indicator", "metric name 'indicator' is reserved for the anomaly indicator node"),
    ("m1", "duplicate metric name 'm1'"),
], ids=["indicator", "duplicate"])
def test_cli_rejects_a_bad_metric_name(tmp_path, capsys, name, message):
    data = csv_inputs(tmp_path, "none")
    path = Path(data["csv"])
    header, rows = path.read_text().split("\n", 1)
    path.write_text(header.replace("m2", name) + "\n" + rows)
    cfg = write_config(tmp_path, {"data": data, "ensemble": "avg", "select": {"method": "none"}})
    err = stage_error(["run", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert err["stage"] == "ingest" and err["type"] == "ParseError"
    assert err["message"] == f"{path}:1 col 4: {message}"


@pytest.mark.parametrize("fmt", ["csv", "smd"])
@pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
def test_cli_rejects_a_non_finite_cell(tmp_path, capsys, fmt, cell):
    if fmt == "csv":
        data = csv_inputs(tmp_path, "none")
        path, col = Path(data["csv"]), 3  # the timestamp is column 1
        lines = path.read_text().splitlines()
    else:
        path, col = tmp_path / "values.txt", 2
        lines = [f"{k},{k % 7}.5,1.25" for k in range(200)]
        (tmp_path / "labels.txt").write_text("0\n" * 200)
        data = {"smd_values": str(path), "smd_labels": str(tmp_path / "labels.txt")}
    fields = lines[5].split(",")
    fields[col - 1] = cell
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, {"data": data, "ensemble": "avg", "select": {"method": "none"}})
    err = stage_error(["run", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert err["stage"] == "ingest" and err["type"] == "ParseError"
    got = str(float(cell))
    assert err["message"] == f"{path}:6 col {col}: expected a finite number, got {got}"


def test_cli_eval_robustness(tmp_path, capsys):
    ds1 = tmp_path / "ds1.csv"
    ds1.write_text("method,f1\na,0.9\nb,0.5\nc,0.7\n")
    ds2 = tmp_path / "ds2.csv"
    ds2.write_text("method,f1\na,0.8\nb,0.6\nc,0.7\n")
    out = tmp_path / "evalout"
    assert main(["eval", str(ds1), str(ds2), "--out", str(out)]) == 0
    with open(out / "robustness.csv", newline="") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    assert float(rows["a"]["robustness"]) == pytest.approx(1.0)
    assert float(rows["c"]["robustness"]) == pytest.approx(0.5)
    assert float(rows["b"]["robustness"]) == pytest.approx(0.0)
    assert float(rows["a"]["avg_rank"]) == pytest.approx(1.0)
    capsys.readouterr()


def test_cli_failure_emits_json_error_record(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"csv": str(tmp_path / "nope.csv")}})
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"]["stage"] == "ingest"
    assert record["error"]["type"]
    assert record["error"]["message"]


def test_cli_rejects_a_mistyped_setting(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"generate": GEN}, "train": {"epochs": "abc"}})
    err = stage_error(["run", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert err["type"] == "InvalidConfig" and "train.epochs" in err["message"]


def test_cli_rejects_labels_on_generated_data(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"generate": GEN}})
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--labels", "l.csv"]
    err = stage_error(argv, capsys)
    assert err["type"] == "InvalidConfig" and "data.labels" in err["message"]
    assert not (tmp_path / "o").exists()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": {"generate": GEN}, "oops": 1})
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "InvalidConfig"


# --- start-up -------------------------------------------------------------

def test_import_loads_no_scipy():
    # perfdiag depends on numpy alone; importing scipy.stats would add about a
    # second to the start of every command
    code = (
        "import sys, perfdiag.pipeline, perfdiag.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(perfdiag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"


def test_benchmark_tracer_finds_and_restores_every_traced_name(tmp_path):
    # perfbench/tracing.py wraps pipeline functions by module attribute name;
    # install() fails on a name that is gone, and its hooks read the results
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while being defined
    sys.modules[spec.name] = tracing
    try:
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        names = [(module, attr) for module, attr, _ in tracing._targets(tracer)]
        originals = [getattr(module, attr) for module, attr in names]
        uninstall = tracing.install(tracer)
        try:
            cfg = PipelineConfig(
                data={"generate": GEN}, out=str(tmp_path / "out"), seed=11,
                ensemble="deep", epochs=2, anomaly_fraction=0.15,
            )
            tracing.traced_call(tracer, "pipeline", run_pipeline, cfg)
        finally:
            uninstall()
    finally:
        del sys.modules[spec.name]
    assert all(getattr(m, a) is fn for (m, a), fn in zip(names, originals))
    metrics = tracing.layer_metrics(tracer)
    for name in ("detectors.ocsvm.smo_iters", "detectors.ocsvm.support_vectors", "mlp.steps"):
        assert metrics[name][0] > 0, name
