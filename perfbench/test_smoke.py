"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench

Runs every workload at a tiny shape, untraced and traced, and checks that
each metric named in BENCHMARK.json appears with its unit, that every run
passes its output checks, and that no span's self time is negative.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import pytest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "smd-wide": {"rows": 300, "metrics": 8},
    "pc-dense": {"rows": 200, "metrics": 10},
    "deep-forecast": {"rows": 600, "metrics": 6},
}
SEED = 3


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, shape in TINY.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **shape)
        )
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _run(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name):
    result = _run(name, 0)
    _check_result(result, BENCH["end_to_end"])
    assert result["metrics"]["run_s"]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_metrics_and_spans(name):
    result = _run(name, 1)
    _check_result(result, BENCH["per_layer"])
    trace = json.loads((run.OUT / f"trace-{name}-{SEED}.json").read_text())
    assert trace["spans"] and all(s["self_ns"] >= 0 for s in trace["spans"])
    roots = [s for s in trace["spans"] if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["pipeline.run"]
    assert trace["top_layer"] in trace["layer_self_s"]
