"""Command-line entry point.

`run` executes the whole pipeline. `select`, `detect`, `train`, `predict`
and `rca` replay one stage of it through `pipeline.run_stage`, reading the
earlier stages' artifacts from the output directory, so an experiment can
be reproduced step by step. Failures exit nonzero with a one-line JSON
error record on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .errors import InvalidConfig, ParseError, PipelineStageError
from .evaluation import ranks_from_f1, robustness
from .ingest import GenConfig, generate
from .pipeline import PipelineConfig, load_config, run_pipeline, run_stage
from .rca import CausalGraph, localize
from .seeding import derive_seed


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--select", choices=("correlation", "pca", "none"))
    p.add_argument("--ensemble", choices=("max", "avg", "weighted", "deep"))
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--shift", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--walks", type=int)
    p.add_argument("--labels", help="labels CSV path override")


def _config_from_args(args) -> PipelineConfig:
    overrides = {
        k: getattr(args, k, None)
        for k in (
            "seed", "out", "select", "ensemble", "train_fraction",
            "shift", "alpha", "walks", "labels",
        )
    }
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfdiag",
        description="Performance diagnosis: metric selection, ensemble anomaly "
        "detection, and causal root-cause localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "full pipeline: ingest, select, detect, ensemble, rca, report"),
        ("gen", "generate synthetic data into the output directory"),
        ("select", "normalize and select metrics from the configured data"),
        ("detect", "score selected data with the four base learners"),
        ("train", "train the deep ensemble on the detect stage's scores"),
        ("predict", "apply the trained model to the detect stage's scores"),
        ("rca", "build the causal graph and rank root causes"),
        ("eval", "robustness table from per-dataset result CSVs"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "eval":
            p.add_argument("results", nargs="+", help="result CSVs, one per dataset")
            p.add_argument("--out", help="output directory")
        else:
            _add_common(p)
        if name == "rca":
            p.add_argument("--graph", help="localize on an existing graph JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:
        stage = exc.stage if isinstance(exc, PipelineStageError) else args.command
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        record = {
            "error": {
                "stage": stage,
                "type": type(cause).__name__,
                "message": str(cause),
            }
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "eval":
        return _cmd_eval(args)
    config = _config_from_args(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "run":
        return _cmd_run(config, out)
    if args.command == "gen":
        return _cmd_gen(config, out)
    if args.command == "rca" and args.graph:
        return _cmd_rca_graph(args, config, out)
    return _cmd_stage(args.command, config, out)


def _cmd_run(config: PipelineConfig, out: Path) -> int:
    report = run_pipeline(config)
    ev = report.evaluation
    if ev is not None:
        print(f"f1={ev.f1:.4f} precision={ev.precision:.4f} recall={ev.recall:.4f}")
    print(f"report written to {out / 'report.json'}")
    return 0


def _cmd_gen(config: PipelineConfig, out: Path) -> int:
    if "generate" not in config.data:
        raise InvalidConfig("gen requires a data.generate section in the config")
    gen = GenConfig(**config.data["generate"])
    frame, labels, truth = generate(gen, derive_seed(config.seed, "gen"))
    with open(out / "data.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", *frame.names])
        for t, row in zip(frame.timestamps, frame.values):
            w.writerow([int(t), *[repr(float(x)) for x in row]])
    with open(out / "labels.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "label"])
        for t, y in zip(labels.timestamps, labels.labels):
            w.writerow([int(t), int(y)])
    truth.save(out / "ground_truth.json")
    print(f"wrote data.csv, labels.csv, ground_truth.json to {out}")
    return 0


def _cmd_stage(name: str, config: PipelineConfig, out: Path) -> int:
    run = run_stage(config, name)
    print(f"wrote {', '.join(run.artifacts)} to {out}")
    if name == "rca":
        if run.rca_info is None:
            print("no anomaly window; nothing to localize")
        else:
            _print_ranking(run.rca_info["ranking"])
    return 0


def _cmd_rca_graph(args, config: PipelineConfig, out: Path) -> int:
    ranking = localize(
        CausalGraph.load(args.graph),
        total_walks=config.walks,
        length=config.walk_length,
        seed=derive_seed(config.seed, "rca"),
    )
    ranking.to_csv(out / "ranking.csv")
    _print_ranking(ranking.entries)
    return 0


def _print_ranking(entries) -> None:
    for rank, (node, count) in enumerate(entries, start=1):
        print(f"{rank}. {node} ({count} walks)")
    if not entries:
        print("no root-cause candidates (indicator isolated?)")


def _cmd_eval(args) -> int:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    ranks_per_method: dict[str, list[float]] = {}
    for path in args.results:
        f1s = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "method" not in reader.fieldnames \
                    or "f1" not in reader.fieldnames:
                raise ParseError(f"{path}: expected columns 'method' and 'f1'")
            for row in reader:
                f1s[row["method"]] = float(row["f1"])
        ranks = ranks_from_f1(f1s)
        for method, rank in ranks.items():
            ranks_per_method.setdefault(method, []).append(rank)
    scores = robustness(ranks_per_method)
    with open(out / "robustness.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "avg_rank", "robustness"])
        for method in sorted(scores, key=lambda m: (-scores[m], m)):
            avg_rank = sum(ranks_per_method[method]) / len(ranks_per_method[method])
            w.writerow([method, repr(avg_rank), repr(scores[method])])
            print(f"{method}: avg rank {avg_rank:.2f}, robustness {scores[method]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
