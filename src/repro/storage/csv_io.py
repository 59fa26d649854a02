"""CSV import/export for tables.

Minimal but correct: quoting via the standard :mod:`csv` module, and
types that round-trip.  ``write_csv`` writes each header cell as
``name:<type>`` (``int64``, ``float64`` or ``string``) and ``read_csv``
parses that column under that type.  A plain header cell keeps per-column
inference (int -> float -> string), for the dataset files the examples
ship; an integer column with a cell outside int64 raises rather than
turning lossy.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.common.errors import StorageError
from repro.storage.column import Column
from repro.storage.dictionary import StringDictionary
from repro.storage.table import Table
from repro.storage.types import DataType

_TYPES = {dtype.value: dtype for dtype in DataType}
_INT64 = np.iinfo(np.int64)


def _parse_column(path: Path, name: str, raw: list[str]):
    """Try int, then float, else keep strings.  An integer cell outside
    int64 raises, naming its row and column."""
    try:
        values = [int(v) for v in raw]
    except ValueError:
        pass
    else:
        if values and (min(values) < _INT64.min or max(values) > _INT64.max):
            row = next(i for i, v in enumerate(values)
                       if not _INT64.min <= v <= _INT64.max)
            raise StorageError(
                f"{path}: row {row + 2}, column {name!r}: "
                f"{raw[row]!r} is outside int64")
        return values
    try:
        return [float(v) for v in raw]
    except ValueError:
        return raw


def _typed_column(path: Path, name: str, dtype: DataType,
                  raw: list[str]) -> Column:
    """``raw`` parsed under ``dtype``; a cell that does not parse raises."""
    if dtype == DataType.STRING:
        dictionary = StringDictionary()
        return Column(dictionary.encode(raw), dtype, dictionary)
    parse = int if dtype == DataType.INT64 else float
    data = np.empty(len(raw), dtype=dtype.numpy_dtype)
    for row, cell in enumerate(raw):
        try:
            data[row] = parse(cell)
        except (ValueError, OverflowError):
            raise StorageError(
                f"{path}: row {row + 2}, column {name!r}: "
                f"{cell!r} is not {dtype.value}") from None
    return Column(data, dtype)


def read_csv(path: str | Path, table_name: str | None = None) -> Table:
    """Load a CSV with a header row into a typed table."""
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError(f"{path}: empty CSV") from None
        rows = list(reader)
    if not header:
        raise StorageError(f"{path}: missing header row")
    bad = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if bad:
        raise StorageError(f"{path}: row {bad[0] + 2} has wrong arity")
    columns = {}
    for i, cell in enumerate(header):
        raw = [row[i] for row in rows]
        name, _, type_name = cell.rpartition(":")
        dtype = _TYPES.get(type_name) if name else None
        if dtype is None:
            columns[cell] = Column.from_values(_parse_column(path, cell, raw))
        else:
            columns[name] = _typed_column(path, name, dtype, raw)
    name = table_name if table_name is not None else path.stem
    return Table(name, columns)


def write_csv(table: Table, path: str | Path) -> None:
    """Write a table (decoded values) as CSV, typed header cells first."""
    path = Path(path)
    decoded = table.to_dict()
    names = table.column_names
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(f"{n}:{table.dtype(n).value}" for n in names)
        for row in zip(*(decoded[n] for n in names)):
            writer.writerow(row)
