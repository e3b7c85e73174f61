"""perfdiag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It generates the workload's
input files from ``--seed`` (see ``workloads.py``), then calls
``perfdiag.pipeline.run_pipeline`` on them in this process, over and over
for ``--seconds`` seconds, and checks every run's outputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``run_s`` (median wall time of one pipeline run),
``peak_rss_mb`` (peak RSS of this process), ``setup_s`` (median time for a
fresh interpreter to import ``perfdiag.pipeline``), ``f1`` and ``rca_avg5``.
With ``--trace 1`` traced and untraced runs alternate; the last line holds
the per-layer metrics of the traced runs (medians) and ``trace_overhead``
(median traced over median untraced run time). The spans and counters of
the last traced run, and the median self time of each layer, are written to
``.perfbench/trace-<workload>-<seed>.json``.

Each run generates INPUTS_PER_RUN inputs from the seed and cycles through
them; ``f1`` and ``rca_avg5`` are their means.

The BLAS thread count is left at the library default and recorded.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
# f1 and rca_avg5 are deterministic per input but vary from input to input;
# averaging them over several inputs keeps them steady from seed to seed
INPUTS_PER_RUN = 5
# every input runs at least once and the first one twice, so that report.json
# identity is always checked
MIN_RUNS = INPUTS_PER_RUN + 1
REPORT_KEYS = {
    "schema_version": None,
    "manifest": {"config_sha256", "seed", "stages"},
    "selection": None,
    "detection": {"method", "verdicts_path", "precision", "recall", "f1", "seconds"},
    "rca": {"graph_path", "ranking", "ac_at_k", "avg"},
}


def measure_setup(samples: int) -> float:
    """Median wall time of a fresh interpreter importing perfdiag.pipeline."""
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import perfdiag.pipeline",
           str(SRC)]
    subprocess.run(cmd, check=True)  # warm the bytecode and file caches
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f'{blas.get("name")} {blas.get("version")}',
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_outputs(out: Path, test_rows: int) -> list[str]:
    """Problems with one run's artifacts; empty when they are all sound."""
    problems = []
    report = json.loads((out / "report.json").read_text())
    for key, fields in REPORT_KEYS.items():
        if key not in report:
            problems.append(f"report.json lacks {key}")
        elif fields and not (isinstance(report[key], dict) and fields <= report[key].keys()):
            problems.append(f"report.json {key} lacks {sorted(fields - set(report[key] or {}))}")
    f1 = (report.get("detection") or {}).get("f1")
    if not isinstance(f1, float) or not 0.0 <= f1 <= 1.0:
        problems.append(f"detection.f1 is {f1!r}")
    with open(out / "verdicts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["timestamp", "probability", "verdict"]] or len(rows) - 1 != test_rows:
        problems.append(f"verdicts.csv has {len(rows) - 1} rows, expected {test_rows}")
    manifest = json.loads((out / "manifest.json").read_text())
    for rel in ("report.json", "verdicts.csv", "ranking.csv"):
        if rel not in manifest["artifact_sha256"]:
            problems.append(f"manifest.json does not list {rel}")
    for rel, digest in manifest["artifact_sha256"].items():
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != digest:
            problems.append(f"checksum mismatch for {rel}")
    return problems


def avg_at_5(out: Path, root_causes) -> float:
    """Avg@5 of ranking.csv: mean over k = 1..5 of hits in the top k / min(k, |truth|)."""
    with open(out / "ranking.csv", newline="") as fh:
        names = [row[1] for row in list(csv.reader(fh))[1:]]
    truth = set(root_causes)
    return sum(
        sum(n in truth for n in names[:k]) / min(k, len(truth)) for k in range(1, 6)
    ) / 5


@dataclass
class Case:
    """One generated input and what its runs produced."""

    config: dict
    root_causes: tuple[str, ...]
    report: bytes | None = None
    f1: float = 0.0
    rca_avg5: float = 0.0
    artifact_bytes: int = 0


class Runner:
    """Pipeline runs over the run's inputs in turn, with output checks."""

    def __init__(self, workload, cases: list[Case], workdir: Path):
        self.workload = workload
        self.cases = cases
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def run(self, call) -> float:
        """One pipeline run through ``call(run_pipeline, config)``; returns its wall time."""
        from perfdiag.pipeline import PipelineConfig, run_pipeline

        case = self.cases[self.attempted % len(self.cases)]
        self.attempted += 1
        out = self.workdir / f"out-{self.attempted}"
        config = PipelineConfig.from_dict({**case.config, "out": str(out)})
        start = time.perf_counter()
        try:
            call(run_pipeline, config)
        except Exception as exc:  # a failed run is counted, never raised past the benchmark
            elapsed = time.perf_counter() - start
            self._fail(f"run {self.attempted} raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            self._check(case, out)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def _check(self, case: Case, out: Path) -> None:
        try:
            problems = check_outputs(out, self.workload.test_rows())
            report = (out / "report.json").read_bytes()
            if case.report is None:
                case.report = report
                case.f1 = json.loads(report)["detection"]["f1"]
                case.rca_avg5 = avg_at_5(out, case.root_causes)
                case.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
            elif report != case.report:
                problems.append("report.json differs from the first run on this input")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(f"run {self.attempted}: " + "; ".join(problems))

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(message, file=sys.stderr)

    def correct(self) -> bool:
        return self.failed == 0 and all(c.report is not None for c in self.cases)

    def mean(self, field: str) -> float:
        return statistics.fmean(getattr(c, field) for c in self.cases)


def plain(run_pipeline, config):
    return run_pipeline(config)


def untraced_metrics(runner: Runner, seconds: float, setup_s: float) -> dict:
    times = []
    start = time.perf_counter()
    while runner.attempted < MIN_RUNS or time.perf_counter() - start < seconds:
        times.append(runner.run(plain))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"runs {len(times)}: run_s " + " ".join(f"{t:.3f}" for t in times))
    return {
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "f1": (runner.mean("f1"), "1"),
        "rca_avg5": (runner.mean("rca_avg5"), "1"),
    }


def traced_metrics(runner: Runner, seconds: float, trace_path: Path, env: dict) -> dict:
    import tracing

    plain_times, traced_times, samples, layer_samples = [], [], [], []
    start = time.perf_counter()
    while runner.attempted < MIN_RUNS or time.perf_counter() - start < seconds:
        plain_times.append(runner.run(plain))
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced_times.append(
                runner.run(lambda fn, cfg: tracing.traced_call(tracer, "pipeline.run", fn, cfg))
            )
        finally:
            uninstall()
        samples.append(tracing.layer_metrics(tracer))
        layer_samples.append(tracer.layer_self_seconds())
    metrics = {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[-1].items()
    }
    metrics["pipeline.artifact_bytes"] = (runner.mean("artifact_bytes"), "bytes")
    metrics["trace_overhead"] = (
        statistics.median(traced_times) / statistics.median(plain_times), "ratio"
    )
    layers = {
        layer: statistics.median(sample.get(layer, 0.0) for sample in layer_samples)
        for layer in layer_samples[-1]
    }
    print("median layer self seconds: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda e: -e[1])))
    trace_path.write_text(json.dumps({
        "environment": env,
        "spans": [
            {"name": s.name, "layer": s.layer, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent, "self_ns": s.self_ns}
            for s in tracer.spans
        ],
        "counters": dict(tracer.counters),
        "layer_self_s": layers,
        "top_layer": max(layers, key=layers.get),
    }, indent=1) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "perfdiag" / "pipeline.py").is_file():
        print(f"no perfdiag source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_s = measure_setup(SETUP_SAMPLES) if not args.trace else None
    sys.path.insert(0, str(SRC))
    import perfdiag

    if Path(perfdiag.__file__).resolve().parent != (SRC / "perfdiag").resolve():
        print(f"perfdiag imported from {perfdiag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # the program's warnings (constant columns, singular submatrices) are expected
    # on these inputs; printing them every run would only add noise
    warnings.simplefilter("ignore")

    env = environment(args.seed)
    print(json.dumps({"environment": env, "workload": workload.name, "why": workload.why}))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        cases = []
        for k in range(INPUTS_PER_RUN):
            directory = workdir / f"input-{k}"
            directory.mkdir()
            config, inputs = write_inputs(workload, args.seed, k, directory)
            cases.append(Case(config, inputs.root_causes))
        runner = Runner(workload, cases, workdir)
        if args.trace:
            metrics = traced_metrics(
                runner, args.seconds, OUT / f"trace-{workload.name}-{args.seed}.json", env)
        else:
            metrics = untraced_metrics(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
