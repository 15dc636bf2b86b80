"""Columnar sweep results and the CSV dialect used by every command.

CSV dialect: comma separator, '.' decimal point, '#'-prefixed comment
lines before the header row. Floats are written with repr(), Python's
shortest round-trip representation (up to 17 significant digits), so
identical inputs produce byte-identical files.

A SweepTable stores each column as a 1-D float64 array and writes its
rows in blocks of about _BLOCK_CELLS cells, each printed by
floatfmt.repr_rows, so the file is streamed without a Python call per
cell and without holding the whole text in memory. That kernel
certifies a cell's digits by long-double arithmetic and leaves to repr
only the cells it cannot certify: zero, NaN, inf, powers of two,
magnitudes outside [1e-10, 1e16) and decisions within rounding of a
tie or interval edge, about 1-2% of a smooth sweep; where long double
has fewer than 64 significand bits, repr prints every cell. The bytes
are the same as formatting every cell with format_value and joining
the rows one by one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .floatfmt import repr_rows

# Cells printed per block. Small enough that a block's transient arrays,
# about 200 bytes a cell, stay near 1 MB.
_BLOCK_CELLS = 4096


def format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, bool)):
        return str(int(v))
    return repr(float(v))


def _header(names: Sequence[str], comments: Sequence[str]) -> str:
    return "".join(f"# {c}\n" for c in comments) + ",".join(names) + "\n"


def write_csv(path, names: Sequence[str], rows, comments: Sequence[str] = ()) -> None:
    """Write rows under a header line, with # comments.

    rows is an iterable of sequences whose cells format_value formats,
    one row at a time, or a SweepTable, written a block of rows at a time.
    """
    with open(path, "wb") as fh:
        fh.write(_header(names, comments).encode("utf-8"))
        if isinstance(rows, SweepTable):
            for block in rows._csv_blocks():
                fh.write(block)
        else:
            for row in rows:
                fh.write((",".join(map(format_value, row)) + "\n").encode("utf-8"))


def _as_column(values) -> np.ndarray:
    """values as a new 1-D float64 array, refusing what float(v) refuses."""
    try:
        col = np.asarray(values)
    except ValueError:  # ragged nesting
        col = None
    if col is None or col.dtype.kind in "Oc":
        # None, nested sequences and complex numbers: float() raises (or, for
        # numpy complex, warns and drops the imaginary part) as it always did
        return np.array([float(v) for v in values], dtype=float)
    if col.ndim != 1:
        raise TypeError(f"a column must be a flat sequence of numbers, got shape {col.shape}")
    return np.array(col, dtype=float)


class SweepTable:
    """Ordered, named, equal-length numeric columns.

    The first column is the sweep axis and must be strictly increasing.
    """

    def __init__(self, columns: Sequence[tuple[str, Sequence[float]]]):
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
        if np.any(axis[1:] <= axis[:-1]):
            raise ValueError(f"sweep axis {self._names[0]!r} must be strictly increasing")

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def column(self, name: str) -> list[float]:
        return self._data[self._names.index(name)].tolist()

    def __len__(self) -> int:
        return len(self._data[0])

    def rows(self):
        return zip(*(col.tolist() for col in self._data))

    def _csv_blocks(self):
        """The CSV body as bytes, a block of newline-terminated rows at a time."""
        step = max(1, _BLOCK_CELLS // len(self._data))
        for s in range(0, len(self), step):
            yield repr_rows(np.stack([col[s:s + step] for col in self._data], axis=1))

    def write_csv(self, path, comments: Sequence[str] = ()) -> None:
        write_csv(path, self._names, self, comments)
