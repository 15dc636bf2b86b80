"""Columnar sweep results and the CSV dialect used by every command.

CSV dialect: comma separator, '.' decimal point, '#'-prefixed comment
lines before the header row. Floats are written with repr(), Python's
shortest round-trip representation (up to 17 significant digits), so
identical inputs produce byte-identical files; text cells are written
as they are.

A SweepTable stores each column as a 1-D float64 array, or as a str
array for a column of strings, and writes its rows in blocks of about
_BLOCK_CELLS cells, each printed by floatfmt.repr_rows, text and all,
so the file is streamed without a Python call per float cell and
without holding the whole text in memory; a text cell's UTF-8 bytes,
less any NUL, replace a stand-in number. That kernel certifies a cell's
digits by long-double arithmetic and leaves to repr only the cells it
cannot certify: zero, NaN, inf, powers of two, magnitudes outside
[1e-10, 1e16) and decisions within rounding of a tie or interval edge,
about 0.3-2% of a smooth sweep; where long double has fewer than 64
significand bits, repr prints every cell. The bytes are the same as
formatting every float cell with repr and joining the rows one by one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .floatfmt import repr_rows

__all__ = ["SweepTable", "write_csv"]

# Cells per block: repr_rows peaks at about 120 bytes a cell, 0.7 MiB here,
# in a third fewer calls, each with ~150 us of fixed cost, than 4,096 cells.
_BLOCK_CELLS = 6144


def write_csv(path, table: SweepTable, comments: Sequence[str] = ()) -> None:
    """Write table under its header line, after # comments, a block of rows at a time."""
    header = "".join(f"# {c}\n" for c in comments) + ",".join(table.names) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.writelines(table._csv_blocks())  # each block freed before the next is printed


def _as_column(values) -> np.ndarray:
    """values as a new 1-D array: str for strings, which are text cells,
    and otherwise float64, refusing what float(v) refuses."""
    try:
        col = np.asarray(values)
    except ValueError:  # ragged nesting
        col = None
    if col is not None and col.dtype.kind == "U" and col.ndim == 1:
        return col.copy()
    if col is None or col.dtype.kind in "Oc":
        # None, nested sequences and complex numbers: float() raises (or, for
        # numpy complex, warns and drops the imaginary part) as it always did
        return np.array([float(v) for v in values], dtype=float)
    if col.ndim != 1:
        raise TypeError(f"a column must be a flat sequence of numbers, got shape {col.shape}")
    return np.array(col, dtype=float)


class SweepTable:
    """Ordered, named, equal-length columns of numbers or of text.

    The first column is the sweep axis: strictly increasing if numeric.
    """

    def __init__(self, columns: Sequence[tuple[str, Sequence]]):
        if not columns:
            raise ValueError("SweepTable needs at least one column")
        self._names = [name for name, _ in columns]
        if len(set(self._names)) != len(self._names):
            raise ValueError("duplicate column names")
        self._data = [_as_column(values) for _, values in columns]
        length = len(self._data[0])
        if any(len(col) != length for col in self._data):
            raise ValueError("all columns must have equal length")
        axis = self._data[0]
        # NaN compares False both ways, so a NaN on the axis is not a violation
        if axis.dtype.kind == "f" and np.any(axis[1:] <= axis[:-1]):
            raise ValueError(f"sweep axis {self._names[0]!r} must be strictly increasing")

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def column(self, name: str) -> list:
        return self._data[self._names.index(name)].tolist()

    def array(self, name: str) -> np.ndarray:
        """The column itself, not a copy: float64, or str for text."""
        return self._data[self._names.index(name)]

    def __len__(self) -> int:
        return len(self._data[0])

    def rows(self):
        return zip(*(col.tolist() for col in self._data))

    def _csv_blocks(self):
        """The CSV body as bytes, a block of newline-terminated rows at a time."""
        step = max(1, _BLOCK_CELLS // len(self._data))
        for s in range(0, len(self), step):
            block = [col[s:s + step] for col in self._data]
            text = {j: [v.encode() for v in col.tolist()]
                    for j, col in enumerate(block) if col.dtype.kind == "U"}
            block = [np.full(len(col), 1.5) if j in text else col for j, col in enumerate(block)]
            yield repr_rows(np.stack(block, axis=1), text)  # 1.5: a stand-in under text

    def write_csv(self, path, comments: Sequence[str] = ()) -> None:
        write_csv(path, self, comments)
