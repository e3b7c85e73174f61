"""The CSV codec: exact round trips, and one diagnostic for every bad table."""

import ast
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import perfdiag
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


def test_int_beyond_int64_names_its_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp,a\n0,1.0\n\n99999999999999999999,2.0\n")
    with pytest.raises(ParseError) as err:
        Table(path).read((("timestamp", int), ("a", float)))
    assert str(err.value) == f"{path}:4 col 1: expected integer, got '99999999999999999999'"


# float64 values at the edges of the format, then random bit patterns
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
           1.7976931348623157e308, -1e308, np.inf, -np.inf, 0.1, 1.0 / 3.0]
FLOAT_FORMATS = {"repr": repr, "%.17g": lambda x: "%.17g" % x, "%.2f": lambda x: "%.2f" % x}
INT_CELLS = ["0", "-0", "+7", "9223372036854775807", "-9223372036854775808"]


def edge_floats(seed):
    bits = np.random.default_rng(seed).integers(0, 2**64, size=400, dtype=np.uint64)
    drawn = bits.view(np.float64)
    return SPECIAL + drawn[np.isfinite(drawn)].tolist()


def write_rows(path, rows, newline, blanks, header=None):
    """The rows as CSV text, with a blank line before every blanks-th row."""
    lines = ["", ""] + ([header] if header else [])
    for i, row in enumerate(rows):
        if i % blanks == 0:
            lines.append("")
        lines.append(",".join(row))
    path.write_text(newline.join(lines) + newline, newline="")


@pytest.mark.parametrize("fmt", sorted(FLOAT_FORMATS))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_c_reader_parses_floats_bit_identical_to_float(tmp_path, monkeypatch, fmt, newline):
    xs = [FLOAT_FORMATS[fmt](x) for x in edge_floats(7)]
    rows = [(INT_CELLS[i % len(INT_CELLS)], xs[i], xs[-1 - i]) for i in range(len(xs))]
    # the C reader must take these tables whole: the scan is not called
    monkeypatch.setattr(Table, "_scan", lambda *_: pytest.fail("the scan was called"))
    path = tmp_path / "t.csv"
    write_rows(path, rows, newline, 7, header="n,a,b")
    ns, a, b = Table(path).read((("n", int), ("a", float), ("b", float)))
    assert ns.tobytes() == np.array([int(r[0]) for r in rows], dtype=np.int64).tobytes()
    for got, cells in ((a, [r[1] for r in rows]), (b, [r[2] for r in rows])):
        assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()
    write_rows(path, [r[1:] for r in rows], newline, 5)
    matrix = Table(path, header=False).matrix()
    want = np.array([[float(c) for c in r[1:]] for r in rows])
    assert matrix.flags.c_contiguous and matrix.tobytes() == want.tobytes()


def test_cells_only_int_and_float_accept_keep_todays_values(tmp_path):
    # the C reader refuses each of these lines; the scan reads the values
    path = tmp_path / "t.csv"
    path.write_text('n,x\n"3","2.5"\n1_5,1_5\n 4 , 0.25 \n\u0661\u0662,\u0663.5\n')
    ns, xs = Table(path).read((("n", int), ("x", float)))
    assert ns.tolist() == [3, 15, 4, 12] and xs.tolist() == [2.5, 15.0, 0.25, 3.5]
    path.write_text('"1.5",2\n\n1_0,\u0664\n')
    assert Table(path, header=False).matrix().tolist() == [[1.5, 2.0], [10.0, 4.0]]


# cells that int() or float() treat differently from numpy's C reader, or
# from each other; "\x1c" is stripped by numpy but rejected by float()
CELLS = ["0", "5", "-1", "+2", "1.5", "1e3", " 7 ", "1_5", '"3"', "\u0661", "\x1c4",
         "4\x1f", "", "x", "nan", "-inf", "\t8", "\xa09", "0x1", "1.0", "99999999999999999999"]


def outcome(read):
    try:
        return [col.dtype.str + col.tobytes().hex() for col in read()]
    except ParseError as err:
        return f"{type(err).__name__}: {err}"


def test_c_reader_and_scan_agree_on_hostile_cells(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "t.csv"
    for _ in range(400):
        types = [(int, float)[k] for k in rng.integers(0, 2, size=rng.integers(1, 4))]
        rows = [[CELLS[c] for c in rng.integers(0, len(CELLS), size=len(types))]
                for _ in range(3)]
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        table = Table(path, header=False)
        assert outcome(lambda: table.columns(types)) == outcome(lambda: table._scan(types)), rows


def test_header_only_table_gives_empty_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\nn,x\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ns, xs = Table(path).read((("n", int), ("x", float)))
    assert ns.dtype == np.int64 and xs.dtype == np.float64
    assert ns.shape == xs.shape == (0,)


def test_only_the_codec_reads_or_writes_csv():
    codec_only = {"loadtxt", "genfromtxt", "savetxt"}
    package = Path(perfdiag.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "tables.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = set()
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names} & {"csv"}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module} & {"csv"} or {a.name for a in node.names} & codec_only
            elif isinstance(node, ast.Attribute) and node.attr in codec_only:
                names = {node.attr}
            offenders += [f"{path.relative_to(package)}:{node.lineno} {n}" for n in names]
    assert not offenders, offenders


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
