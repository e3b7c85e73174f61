"""The one CSV codec: every table perfdiag reads or writes goes through here.

A layout is a tuple of (name, type) columns, each type one of int, float
and str. ``format_table`` writes floats with ``repr``, so a table read back
gives the same float bits, and ends rows in CRLF, as ``csv.writer`` does.

``Table`` reads a file's first nonblank row when it opens it, and its data
rows when asked for columns, skipping blank lines either way. A layout of
int and float columns is parsed by numpy's C reader straight into int64 and
float64 arrays, with no Python object per cell. That reader and ``float``
both end in CPython's string-to-double conversion, so they give the same
bits. The C reader refuses quoted cells, rows of the wrong width and int
cells such as ``1.0``, and ``_plain`` makes it refuse the separators
U+001C-U+001F, which it would strip from a cell and ``float`` would not. So
it accepts no table that ``int`` and ``float`` reject. It does refuse a few
cells that they accept (``1_5``, non-ASCII digits), and it cannot say which
file line a cell is on. So whenever it refuses a table, and for every
layout with a str column, a ``csv`` scan reads the rows again. The scan
either returns the same columns or names the file line of the bad row or
cell in a ParseError.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from typing import Sequence

import numpy as np

from .errors import ParseError

Layout = tuple[tuple[str, type], ...]

_FORMAT = {int: int, float: lambda x: repr(float(x)), str: str}
_DTYPE = {int: np.int64, float: np.float64}
_KIND = {int: "integer", float: "number"}
# int() and float() strip ASCII whitespace and the Unicode spaces above
# U+007F; numpy's C reader also strips these four ASCII separators
_SEPARATORS = re.compile("[\x1c-\x1f]")


def format_table(layout: Layout, columns: Sequence) -> str:
    """CSV text of the layout's header and one row per entry of the columns."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([name for name, _ in layout])
    cells = [
        map(_FORMAT[kind], col.tolist() if isinstance(col, np.ndarray) else col)
        for (_, kind), col in zip(layout, columns)
    ]
    writer.writerows(zip(*cells))
    return buf.getvalue()


class Table:
    """A CSV file, its first nonblank row read on opening.

    With ``header`` that row is the header, ``header_line`` its file line,
    and the data rows follow it; without, every nonblank row is data.
    ``width`` is the first row's field count, 0 when the file has no
    nonblank row.
    """

    def __init__(self, path, header: bool = True):
        self.path = path
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                first = next(filter(None, reader), [])
                line = reader.line_num
        except OSError as exc:
            raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
        self.width = len(first)
        # the file lines before the data rows, blank lines among them
        self.header_line, self.header, self._skip = 1, (), 0
        if header and first:
            self.header_line, self.header, self._skip = line, tuple(first), line

    def error(self, line: int, message: str, col: int = 0) -> ParseError:
        """A ParseError naming ``path:line``, and ``col c`` if a column is given."""
        return ParseError(f"{self.path}:{line}{f' col {col}' if col else ''}: {message}")

    def read(self, layout: Layout) -> list:
        """Check the header against ``layout``, then parse its columns."""
        names = tuple(name for name, _ in layout)
        if self.header != names:
            raise self.error(self.header_line, f"expected header '{','.join(names)}'")
        return self.columns([kind for _, kind in layout])

    def columns(self, types: Sequence[type]) -> list:
        """One column per type: int64 or float64 arrays, or tuples of str."""
        data = None if str in types else self._parse(types)
        if data is None:
            return self._scan(types)
        return [data[name].copy() for name in data.dtype.names]

    def matrix(self) -> np.ndarray:
        """Every data row as one row of a float64 matrix ``width`` columns wide."""
        data = self._parse((float,) * self.width)
        if data is None:
            return np.column_stack(self._scan((float,) * self.width))
        # a record of float64 fields is laid out as a row of float64
        return data.view(np.float64).reshape(len(data), self.width)

    def _parse(self, types: Sequence[type]):
        """The data rows as a record array by numpy's C reader, or None if it refuses them."""
        dtype = np.dtype([(f"c{c}", _DTYPE[kind]) for c, kind in enumerate(types)])
        try:
            with warnings.catch_warnings(), open(self.path, newline="") as fh:
                # a table with no data rows goes to the scan, which returns
                # its empty columns without this warning
                warnings.filterwarnings("error", "loadtxt: input contained no data")
                return np.loadtxt(_plain(fh), dtype=dtype, delimiter=",", comments=None,
                                  skiprows=self._skip, ndmin=1)
        except (ValueError, UserWarning):
            return None

    def line(self, index: int) -> int:
        """The file line of data row ``index``, found by a fresh scan."""
        return self._rows()[0][index]

    def _rows(self) -> tuple[list, list]:
        """The file line and the cells of every nonblank data row."""
        lines, rows = [], []
        with open(self.path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    lines.append(reader.line_num)
                    rows.append(row)
        if self.header:
            del lines[0], rows[0]
        return lines, rows

    def _scan(self, types: Sequence[type]) -> list:
        lines, rows = self._rows()
        for line, row in zip(lines, rows):
            if len(row) != len(types):
                raise self.error(line, f"expected {len(types)} fields, got {len(row)}")
        cells = list(zip(*rows)) or [()] * len(types)
        try:
            return [
                col if kind is str
                else np.fromiter(map(kind, col), dtype=_DTYPE[kind], count=len(col))
                for kind, col in zip(types, cells)
            ]
        except (ValueError, OverflowError):
            # the first bad cell in file order, whichever column failed first;
            # an int beyond int64 parses but overflows in the conversion
            for line, row in zip(lines, rows):
                for c, (kind, cell) in enumerate(zip(types, row), start=1):
                    try:
                        if kind is not str:
                            _DTYPE[kind](kind(cell))
                    except (ValueError, OverflowError):
                        raise self.error(line, f"expected {_KIND[kind]}, got {cell!r}", c) from None
            raise


def _plain(lines):
    """The lines, refusing with ValueError any with a separator numpy strips."""
    for line in lines:
        if _SEPARATORS.search(line):
            raise ValueError(f"separator character in {line!r}")
        yield line
