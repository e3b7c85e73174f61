"""The CSV codec: exact round trips, and one diagnostic for every bad table."""

import json
import shutil

import numpy as np
import pytest

from perfdiag.cli import main
from perfdiag.errors import ParseError
from perfdiag.ingest import load_csv, load_smd
from perfdiag.pipeline import PipelineConfig, run_stage
from perfdiag.tables import Table, format_table

GEN = {"n_metrics": 4, "n_samples": 200, "n_windows": 2, "window_len": 20, "magnitude": 6.0}


def test_format_table_round_trips_exactly(tmp_path):
    layout = (("name", str), ("n", int), ("x", float))
    xs = np.array([0.1, 1.0 / 3.0, -2.5e-300, np.inf])
    text = format_table(layout, [("a", "b,c", "d", "e"), np.arange(4), xs])
    assert text.startswith("name,n,x\r\na,0,0.1\r\n")
    assert '"b,c"' in text
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    names, ns, back = Table(path).read(layout)
    assert names == ("a", "b,c", "d", "e")
    assert ns.dtype == np.int64 and ns.tolist() == [0, 1, 2, 3]
    assert back.tobytes() == xs.tobytes()


def test_blank_lines_are_skipped_and_lines_still_counted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp,a\n\n0,1.0\n\n1,x\n")
    with pytest.raises(ParseError, match=r"t\.csv:5 col 2: expected number, got 'x'"):
        Table(path).read((("timestamp", int), ("a", float)))


def replay_config(directory):
    return PipelineConfig(
        data={"csv": str(directory / "data.csv")}, out=str(directory),
        select_method="none", ensemble="avg",
    )


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Generated data as CSV, SMD files, and the detect stage's artifacts."""
    base = tmp_path_factory.mktemp("tables")
    run_stage(PipelineConfig(data={"generate": GEN}, out=str(base)), "gen")
    run_stage(replay_config(base), "detect")
    values = np.random.default_rng(0).standard_normal((GEN["n_samples"], 3))
    np.savetxt(base / "values.txt", values, fmt="%.2f", delimiter=",")
    np.savetxt(base / "smd_labels.txt", np.zeros(GEN["n_samples"]), fmt="%d")
    return base


READERS = {
    "data.csv": lambda d: load_csv(d / "data.csv"),
    "labels.csv": lambda d: load_csv(d / "data.csv", d / "labels.csv"),
    "values.txt": lambda d: load_smd(d / "values.txt", d / "smd_labels.txt"),
    "smd_labels.txt": lambda d: load_smd(d / "values.txt", d / "smd_labels.txt"),
    "scores_knn.csv": lambda d: run_stage(replay_config(d), "train"),
    "verdicts.csv": lambda d: run_stage(replay_config(d), "rca"),
}


# each fault rewrites one line and returns it with what the message names
# after "path:line"
def bad_cell(line):
    fields = line.split(",")
    fields[-1] = "oops"
    return ",".join(fields), f" col {len(fields)}: expected"


def wrong_width(line):
    fields = line.split(",")
    return ",".join(fields[:-1] if len(fields) > 1 else fields * 2), ": expected"


def wrong_header(line):
    return "time,value", ": expected"


CASES = [
    (name, fault)
    for name in READERS
    for fault in (bad_cell, wrong_width, wrong_header)
    if not (fault is wrong_header and name.endswith(".txt"))  # SMD has no header
]


@pytest.mark.parametrize(
    "name,fault", CASES, ids=[f"{n}-{f.__name__}" for n, f in CASES]
)
def test_malformed_table_names_file_and_line(tables, tmp_path, name, fault):
    directory = tmp_path / "d"
    shutil.copytree(tables, directory)
    path = directory / name
    lines = path.read_text().splitlines()
    number = 1 if fault is wrong_header else 3
    lines[number - 1], names = fault(lines[number - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        READERS[name](directory)
    assert f"{path}:{number}{names}" in str(err.value)


def test_eval_bad_f1_cell_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "ds.csv"
    path.write_text("method,f1\na,0.9\nb,oops\n")
    assert main(["eval", str(path), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ParseError"
    assert f"{path}:3 col 2: expected number" in err["message"]
