"""Columnar storage: typed columns, tables, statistics, catalog, CSV."""

from repro.storage.catalog import Catalog
from repro.storage.chunk import (
    DEFAULT_CHUNK_ROWS,
    Chunk,
    ChunkedTable,
    chunk_rows_policy,
)
from repro.storage.column import Column
from repro.storage.csv_io import read_csv, write_csv
from repro.storage.dictionary import StringDictionary
from repro.storage.statistics import (
    ColumnStats,
    compute_stats,
    conjunction_can_match,
    join_output_estimate,
    predicate_can_match,
)
from repro.storage.table import Table
from repro.storage.types import DataType, infer_type

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "Catalog",
    "Chunk",
    "ChunkedTable",
    "Column",
    "ColumnStats",
    "DataType",
    "StringDictionary",
    "Table",
    "chunk_rows_policy",
    "compute_stats",
    "conjunction_can_match",
    "infer_type",
    "join_output_estimate",
    "predicate_can_match",
    "read_csv",
    "write_csv",
]
