"""Fixed-size row chunks: the engine's native unit of storage.

TQP ("Query Processing on Tensor Computation Runtimes") maps relational
operators onto partitioned tensor kernels, and the TCU computational
model (Chowdhury et al.) analyzes matmul in terms of bounded-size tiles
streamed through the unit — both argue the engine should process
*chunks*, not whole tables.  A :class:`ChunkedTable` partitions a
:class:`~repro.storage.table.Table` into fixed-size row chunks of
zero-copy column slices, each carrying its own lazily computed
min/max/n_distinct statistics.  Scans prune chunks a predicate provably
cannot match from the table-wide per-column arrays of chunk min / max /
row count (:meth:`ChunkedTable.column_stats`), one array pass per
conjunct (see :func:`repro.storage.statistics.predicate_can_match`).

The partitioning is purely a view: concatenating every chunk reproduces
the table row for row (chunking never reorders).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from repro.common.settings import positive_int, resolve_setting
from repro.storage.column import Column
from repro.storage.statistics import ChunkStats, ColumnStats, compute_stats
from repro.storage.table import Table

#: Default rows per chunk.  4096 keeps a chunk's operand slice inside a
#: few hundred 16x16 TCU tiles while amortizing per-chunk dispatch; it is
#: deliberately much smaller than device memory so stat pruning has
#: granularity to work with.
DEFAULT_CHUNK_ROWS = 4096


def chunk_rows_policy(override: int | None = None) -> int:
    """The effective chunk size: an explicit override, the
    ``REPRO_CHUNK_ROWS`` environment knob, or the default."""
    return resolve_setting(override, "REPRO_CHUNK_ROWS", DEFAULT_CHUNK_ROWS,
                           positive_int)


class Chunk:
    """One fixed-size row range of a table: zero-copy column slices plus
    per-chunk statistics."""

    def __init__(self, table: Table, index: int, start: int, stop: int):
        self.table_name = table.name
        self.index = index
        self.start = start
        self.stop = stop
        self._columns: dict[str, Column] = {
            name: table.column(name).slice(start, stop)
            for name in table.column_names
        }
        self._stats: dict[str, ColumnStats] = {}
        self._stats_lock = threading.Lock()

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> Column:
        return self._columns[name]

    def stats(self, name: str) -> ColumnStats:
        """min/max/n_distinct of one column *within this chunk*.

        Computed lazily and memoized under a lock: worker-pool scans hit
        the same chunk from several threads, and an unsynchronized dict
        write can tear or double-compute.
        """
        cached = self._stats.get(name)
        if cached is not None:
            return cached
        with self._stats_lock:
            cached = self._stats.get(name)
            if cached is None:
                cached = compute_stats(self._columns[name])
                self._stats[name] = cached
            return cached

    def arrays(self) -> dict[str, "object"]:
        """Physical arrays per column (codes for strings)."""
        return {name: col.data for name, col in self._columns.items()}

    def __repr__(self) -> str:
        return (f"Chunk({self.table_name!r}#{self.index}, "
                f"rows=[{self.start}:{self.stop}])")


class ChunkedTable:
    """A table partitioned into fixed-size row chunks.

    Chunks are zero-copy views in row order; statistics are computed per
    chunk on first use, and per column over all chunks at once
    (:meth:`column_stats`).
    """

    def __init__(self, table: Table, chunk_rows: int | None = None):
        self._table = table
        self.chunk_rows = chunk_rows_policy(chunk_rows)
        n = table.num_rows
        # An empty table has *zero* chunks: a fabricated zero-row chunk
        # would carry made-up min=max=0.0 statistics and still be
        # scanned, filtered and charged by every consumer.
        bounds = list(range(0, n, self.chunk_rows))
        self.chunks: list[Chunk] = [
            Chunk(table, i, start, min(start + self.chunk_rows, n))
            for i, start in enumerate(bounds)
        ]
        self._starts = np.array(bounds, dtype=np.intp)
        self._column_stats: dict[str, ChunkStats] = {}
        self._stats_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self._table.name

    @property
    def num_rows(self) -> int:
        return self._table.num_rows

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def column_names(self) -> list[str]:
        return self._table.column_names

    def column_stats(self, name: str) -> ChunkStats:
        """Every chunk's min / max / row count of one column, as arrays
        indexed like :attr:`chunks`: one ``reduceat`` per bound, built on
        first use and memoized under a lock (pool scans race here)."""
        cached = self._column_stats.get(name)
        if cached is not None:
            return cached
        with self._stats_lock:
            cached = self._column_stats.get(name)
            if cached is None:
                data = self._table.column(name).data
                cached = ChunkStats(
                    min_value=np.minimum.reduceat(data, self._starts)
                    .astype(np.float64, copy=False),
                    max_value=np.maximum.reduceat(data, self._starts)
                    .astype(np.float64, copy=False),
                    n_rows=np.diff(self._starts, append=data.size),
                )
                self._column_stats[name] = cached
            return cached

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)

    def __repr__(self) -> str:
        return (f"ChunkedTable({self.name!r}, rows={self.num_rows}, "
                f"chunks={self.num_chunks} x {self.chunk_rows})")


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "Chunk",
    "ChunkedTable",
    "chunk_rows_policy",
]
