"""Pipeline orchestration and the command-line interface."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perfdiag
from perfdiag.cli import main
from perfdiag.errors import ConstantColumnWarning, InvalidConfig, PipelineStageError
from perfdiag.pipeline import (
    PipelineConfig,
    _detected_windows,
    _rca_span,
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


def test_load_config_applies_flag_overrides(tmp_path):
    path = write_config(tmp_path, {"data": {"generate": GEN}, "seed": 1})
    cfg = load_config(path, {"seed": 7, "ensemble": "max", "select": "pca", "walks": 42})
    assert cfg.seed == 7
    assert cfg.ensemble == "max"
    assert cfg.select_method == "pca"
    assert cfg.walks == 42


# --- window helpers -------------------------------------------------------

def test_detected_windows():
    timeline = np.array([0, 1, 1, 0, 0, 1])
    assert _detected_windows(timeline) == [(1, 2), (5, 5)]
    assert _detected_windows(np.zeros(4, dtype=np.int64)) == []


def test_rca_span_includes_preceding_stretch():
    timeline = np.array([0, 1, 1, 0, 0, 1])
    np.testing.assert_array_equal(_rca_span(timeline), [0, 1, 2, 4, 5])


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
