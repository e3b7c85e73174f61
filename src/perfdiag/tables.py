"""The one CSV codec: every table perfdiag reads or writes goes through here.

A layout is a tuple of (name, type) columns, each type one of int, float
and str. ``format_table`` writes floats with ``repr``, so a table read back
gives the same float bits, and ends rows in CRLF, as ``csv.writer`` does.
``Table`` reads a file, skipping blank lines, and names the file line of
every bad header, row or cell in a ParseError.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .errors import ParseError

Layout = tuple[tuple[str, type], ...]

_FORMAT = {int: int, float: lambda x: repr(float(x)), str: str}
_DTYPE = {int: np.int64, float: np.float64}
_KIND = {int: "integer", float: "number"}


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
    """The nonblank rows of a CSV file, with the file line of each.

    With ``header`` the first row is the header, and ``header_line`` its line.
    """

    def __init__(self, path, header: bool = True):
        self.path = path
        # two lists, not a (line, row) pair per row: freed pairs stay on the
        # interpreter's tuple free list and keep the rows' memory mapped
        self.lines, self.rows = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    self.lines.append(reader.line_num)
                    self.rows.append(row)
        self.header_line, self.header = 1, ()
        if header and self.rows:
            self.header_line, self.header = self.lines.pop(0), tuple(self.rows.pop(0))

    def error(self, line: int, message: str) -> ParseError:
        return ParseError(f"{self.path}:{line}: {message}")

    def read(self, layout: Layout) -> list:
        """Check the header against ``layout``, then parse its columns."""
        names = tuple(name for name, _ in layout)
        if self.header != names:
            raise self.error(self.header_line, f"expected header '{','.join(names)}'")
        return self.columns([kind for _, kind in layout])

    def columns(self, types: Sequence[type]) -> list:
        """One column per type: int64 or float64 arrays, or tuples of str."""
        for line, row in zip(self.lines, self.rows):
            if len(row) != len(types):
                raise self.error(line, f"expected {len(types)} fields, got {len(row)}")
        cells = list(zip(*self.rows)) or [()] * len(types)
        try:
            return [
                col if kind is str
                else np.fromiter(map(kind, col), dtype=_DTYPE[kind], count=len(col))
                for kind, col in zip(types, cells)
            ]
        except ValueError:
            # the first bad cell in file order, whichever column failed first
            for line, row in zip(self.lines, self.rows):
                for c, (kind, cell) in enumerate(zip(types, row), start=1):
                    try:
                        kind(cell)
                    except ValueError:
                        raise ParseError(
                            f"{self.path}:{line} col {c}: expected {_KIND[kind]}, got {cell!r}"
                        ) from None
            raise
