"""Fixed-size row chunks: the engine's native unit of storage.

TQP ("Query Processing on Tensor Computation Runtimes") maps relational
operators onto partitioned tensor kernels, and the TCU computational
model (Chowdhury et al.) analyzes matmul in terms of bounded-size tiles
streamed through the unit — both argue the engine should process
*chunks*, not whole tables.  A :class:`ChunkedTable` partitions a
:class:`~repro.storage.table.Table` into fixed-size row chunks of
zero-copy column slices, each carrying its own lazily computed
min/max/n_distinct statistics so scans can prune chunks a predicate
provably cannot match (see
:func:`repro.storage.statistics.predicate_can_match`).

The partitioning is purely a view: ``to_contiguous()`` hands legacy
callers the original table, and concatenating every chunk reproduces it
row for row (chunking never reorders).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator

import numpy as np

from repro.common.errors import StorageError
from repro.storage.column import Column
from repro.storage.statistics import ColumnStats, compute_stats
from repro.storage.table import Table

#: Default rows per chunk.  4096 keeps a chunk's operand slice inside a
#: few hundred 16x16 TCU tiles while amortizing per-chunk dispatch; it is
#: deliberately much smaller than device memory so stat pruning has
#: granularity to work with.
DEFAULT_CHUNK_ROWS = 4096


def chunk_rows_policy(override: int | None = None) -> int:
    """The effective chunk size: an explicit override, the
    ``REPRO_CHUNK_ROWS`` environment knob, or the default."""
    if override is not None:
        if override <= 0:
            raise StorageError(f"chunk size must be positive, got {override}")
        return int(override)
    env = os.environ.get("REPRO_CHUNK_ROWS")
    if env:
        try:
            return chunk_rows_policy(int(env))
        except ValueError:
            raise StorageError(
                f"REPRO_CHUNK_ROWS must be a positive integer, got {env!r}"
            ) from None
    return DEFAULT_CHUNK_ROWS


class Chunk:
    """One fixed-size row range of a table: zero-copy column slices plus
    per-chunk statistics."""

    def __init__(self, table: Table, index: int, start: int, stop: int):
        self.table_name = table.name
        self.index = index
        self.start = start
        self.stop = stop
        #: Column this chunk is sorted by (inherited from
        #: ``Table.cluster_by``), or None.
        self.sort_key = table.sort_key
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
                cached = self._compute_stats(name)
                self._stats[name] = cached
            return cached

    def _compute_stats(self, name: str) -> ColumnStats:
        if name == self.sort_key and self.num_rows:
            # Clustered fast path: the chunk is sorted on this column,
            # so min/max are the endpoints and distinct values are value
            # boundaries — no sort, no hash.
            data = self._columns[name].data
            return ColumnStats(
                min_value=data[0].item(),
                max_value=data[-1].item(),
                n_distinct=1 + int(np.count_nonzero(data[1:] != data[:-1])),
                n_rows=data.size,
            )
        return compute_stats(self._columns[name])

    def arrays(self) -> dict[str, "object"]:
        """Physical arrays per column (codes for strings)."""
        return {name: col.data for name, col in self._columns.items()}

    def __repr__(self) -> str:
        return (f"Chunk({self.table_name!r}#{self.index}, "
                f"rows=[{self.start}:{self.stop}])")


class ChunkedTable:
    """A table partitioned into fixed-size row chunks.

    Chunks are zero-copy views in row order; statistics are computed per
    chunk on first use.  ``to_contiguous()`` returns the backing table
    for legacy callers that need one contiguous array per column.
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

    def to_contiguous(self) -> Table:
        """The backing contiguous table (chunking is a pure view)."""
        return self._table

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
