"""Shared helpers for the differential / fuzz suites.

The canonical fp-tolerant row-multiset comparison lives in
:mod:`repro.bench.verify` (the benchmark subsystem replays every
benchmarked query through the same logic); this module wraps it with
pytest-friendly assertions.

Results are compared as *sorted row multisets*: rows are sorted by their
exact cells (strings, ints) first and rounded float cells last, so that
fp16-tolerant aggregate cells cannot destabilize the pairing, then each
paired row is compared cell-by-cell within a relative tolerance.
"""

from __future__ import annotations

from repro.bench.verify import (  # noqa: F401  (re-exported for suites)
    canonical_sorted,
    result_rows,
    rows_match,
)
from repro.engine.cache import ProgramCache
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table


def assert_rows_match(
    got_rows: list[tuple],
    expected_rows: list[tuple],
    rel: float = 1e-9,
    abs_tol: float = 1e-6,
    context: str = "",
):
    """Both row multisets are identical within fp tolerance."""
    error = rows_match(got_rows, expected_rows, rel=rel, abs_tol=abs_tol)
    suffix = f"\n  query: {context}" if context else ""
    assert error is None, f"{error}{suffix}"


def assert_results_match(got, expected, rel: float = 1e-9, context: str = ""):
    """Two QueryResults hold the same sorted row multiset."""
    assert_rows_match(
        result_rows(got), result_rows(expected), rel=rel, context=context
    )


def column_dtypes(result) -> list:
    """The result table's column types, in output order."""
    table = result.require_table()
    return [table.column(name).dtype for name in table.column_names]


def scaled_key_catalog(catalog, key_columns: dict[str, set[str]],
                       factor: int = 10**9):
    """The catalog's tables with every named integer key column scaled by
    ``factor``: equal rows and equal operator sizes, but key spans no
    address table can cover."""
    scaled = Catalog()
    for name in key_columns:
        table = catalog.get(name)
        columns = {}
        for column_name in table.column_names:
            column = table.column(column_name)
            if column_name in key_columns[name]:
                column = Column(column.data * factor, column.dtype,
                                column.dictionary)
            columns[column_name] = column
        scaled.register(Table(name, columns))
    return scaled


def engine_variants(catalog, cached=False):
    """``(name, engine)`` along the axes the cost model is blind to:
    backend and chunk size.
    ``cached`` attaches a fresh :class:`ProgramCache` to each engine, so
    raw SQL takes the auto-parameterized, memoized path."""
    def cache():
        return ProgramCache() if cached else None

    def engine(**options):
        return TCUDBEngine(catalog, options=TCUDBOptions(**options),
                           program_cache=cache())

    yield "sim", engine(backend="sim")
    yield "fast", engine(backend="fast")
    yield "chunk_rows=16", engine(chunk_rows=16)
