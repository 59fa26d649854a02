"""In-memory columnar tables.

A :class:`Table` is an ordered mapping of column names to
:class:`~repro.storage.column.Column` objects of equal length, with lazily
computed per-column statistics.  All relational operations return new
tables; columns are shared where possible (copy-on-write semantics come
free from column immutability).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

import numpy as np

from repro.common.errors import SchemaError, UnknownColumnError
from repro.storage.column import Column
from repro.storage.statistics import ColumnStats, compute_stats
from repro.storage.types import DataType


class Table:
    """A named collection of equal-length columns."""

    #: Process-wide monotonic identity counter.  ``uid`` identifies a
    #: *table version*: re-registering a table with new contents means a
    #: new Table object and thus a new uid, which is what makes
    #: ``Catalog.fingerprint`` (and the program cache keyed on it)
    #: observe data changes.  A plain ``id()`` would not work — CPython
    #: recycles addresses, so a dropped table could alias a new one.
    _uid_counter = itertools.count(1)

    def __init__(self, name: str, columns: Mapping[str, Column]):
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {name!r} has ragged columns: lengths {sorted(lengths)}"
            )
        self.name = name
        self.uid = next(Table._uid_counter)
        self._columns: dict[str, Column] = dict(columns)
        self._stats: dict[str, ColumnStats] = {}
        self._chunked: dict[int, object] = {}  # chunk_rows -> ChunkedTable
        #: Column this table is physically sorted by (``cluster_by``), or
        #: None: pruning on a clustered column skips disjoint chunk ranges.
        self.sort_key: str | None = None

    # -- constructors ------------------------------------------------------ #

    @staticmethod
    def from_dict(name: str, data: Mapping[str, Iterable]) -> "Table":
        """Build a table from {column name: values}, inferring types."""
        return Table(
            name, {col: Column.from_values(vals) for col, vals in data.items()}
        )

    # -- schema -------------------------------------------------------------- #

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def nbytes(self) -> int:
        return sum(col.nbytes for col in self._columns.values())

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> Column:
        column = self._columns.get(name)
        if column is None:
            raise UnknownColumnError(name, f"table {self.name!r}")
        return column

    def dtype(self, name: str) -> DataType:
        return self.column(name).dtype

    def stats(self, name: str) -> ColumnStats:
        """Statistics triple for a column (computed once, cached)."""
        if name not in self._stats:
            self._stats[name] = compute_stats(self.column(name))
        return self._stats[name]

    def chunked(self, chunk_rows: int | None = None):
        """This table partitioned into fixed-size row chunks.

        Chunks are zero-copy views, so the partitioning is cached per
        chunk size (tables are immutable); per-chunk statistics build
        lazily inside the returned
        :class:`~repro.storage.chunk.ChunkedTable`.
        """
        from repro.storage.chunk import ChunkedTable, chunk_rows_policy

        rows = chunk_rows_policy(chunk_rows)
        if rows not in self._chunked:
            self._chunked[rows] = ChunkedTable(self, rows)
        return self._chunked[rows]

    # -- relational operations ------------------------------------------------ #

    def project(self, names: list[str]) -> "Table":
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise UnknownColumnError(missing[0], f"table {self.name!r}")
        return Table(self.name, {n: self._columns[n] for n in names})

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        columns = {
            mapping.get(name, name): column
            for name, column in self._columns.items()
        }
        if len(columns) != len(self._columns):
            raise SchemaError("rename would collapse columns")
        return Table(self.name, columns)

    def filter(self, mask: np.ndarray) -> "Table":
        return Table(
            self.name,
            {n: col.filter(mask) for n, col in self._columns.items()},
        )

    def take(self, indices: np.ndarray) -> "Table":
        return Table(
            self.name,
            {n: col.take(indices) for n, col in self._columns.items()},
        )

    def head(self, n: int = 10) -> "Table":
        return self.take(np.arange(min(n, self.num_rows)))

    def with_column(self, name: str, column: Column) -> "Table":
        if len(column) != self.num_rows:
            raise SchemaError(
                f"column {name!r} length {len(column)} != {self.num_rows} rows"
            )
        columns = dict(self._columns)
        columns[name] = column
        return Table(self.name, columns)

    def sort_by(self, name: str, descending: bool = False) -> "Table":
        order = np.argsort(self.column(name).data, kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    def cluster_by(self, name: str) -> "Table":
        """This table physically sorted by ``name``, marked clustered.

        The returned table carries ``sort_key = name``: min/max pruning
        on the clustered column skips whole chunks because chunk value
        ranges are disjoint.
        """
        clustered = self.sort_by(name)
        clustered.sort_key = name
        return clustered

    # -- interop ---------------------------------------------------------------- #

    def to_dict(self) -> dict[str, np.ndarray]:
        """Logical values per column (strings decoded)."""
        return {n: col.values() for n, col in self._columns.items()}

    def rows(self) -> list[tuple]:
        """Materialize rows as tuples (small tables / tests only)."""
        decoded = [col.values() for col in self._columns.values()]
        return list(zip(*decoded)) if self.num_rows else []

    def pretty(self, limit: int = 10) -> str:
        """Readable fixed-width rendering of the first ``limit`` rows."""
        names = self.column_names
        shown = self.head(limit).rows()
        widths = [
            max(len(str(name)), *(len(str(r[i])) for r in shown)) if shown
            else len(str(name))
            for i, name in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
            for row in shown
        ]
        footer = [] if self.num_rows <= limit else [f"... ({self.num_rows} rows)"]
        return "\n".join([header, rule, *body, *footer])

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names})"
        )
