"""Stat pruning against the row-level predicate, on random inputs.

Random tables — integers reaching past +-2**53, floats with NaN and
infinities, dictionary strings, empty and one-row tables — and random
conjunct trees over them (comparisons either way round, BETWEEN, IN,
NOT, AND, OR, string and +-2**53 literals), at chunk sizes 1, 7 and
4096.  Three properties:

* every chunk holding a row ``conjunction_mask`` accepts is kept;
* the table-wide per-column chunk arrays equal each chunk's own
  ``Chunk.stats`` min / max / row count;
* the Reference oracle and TCUDB at that chunk size return exactly the
  rows the mask accepts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ReferenceEngine
from repro.engine.physical import pruned_scan_chunks
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.sql.binder import bind
from repro.sql.eval import Environment, conjunction_mask
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.dictionary import StringDictionary
from repro.storage.table import Table
from repro.storage.types import DataType

pytestmark = pytest.mark.engine_matrix

B = 2 ** 53
STRINGS = ["ash", "elm", "fir", "oak", "yew"]
CHUNK_ROWS = [1, 7, 4096]
OPS = ["=", "<>", "<", "<=", ">", ">="]


def random_table(rng) -> Table:
    n = int(rng.choice([0, 1, int(rng.integers(2, 60))]))
    ints = rng.integers(-20, 20, n)
    if rng.random() < 0.3:  # a few values at the float-exactness edge
        edge = np.array([B - 1, B, B + 1, -B, -B - 1], dtype=np.int64)
        ints = np.where(rng.random(n) < 0.3, rng.choice(edge, n), ints)
    floats = np.round(rng.uniform(-20, 20, n), 2)
    floats[rng.random(n) < 0.15] = np.nan
    floats[rng.random(n) < 0.05] = np.inf
    strings = StringDictionary()
    # Columns built by type: from_dict would type an empty table FLOAT64.
    return Table("t", {
        "k": Column(np.arange(n, dtype=np.int64), DataType.INT64),
        "i": Column(ints.astype(np.int64), DataType.INT64),
        "f": Column(floats, DataType.FLOAT64),
        "s": Column(strings.encode([STRINGS[j]
                                    for j in rng.integers(0, 4, n)]),
                    DataType.STRING, strings),
    })


def literal(rng, column: str, signed: bool = True) -> str:
    """A literal for ``column``; IN lists take unsigned ones only."""
    if column == "s":
        # "yew" is in the dictionary only by chance, "zzz" never.
        return f"'{rng.choice(STRINGS + ['zzz'])}'"
    if column == "i" and rng.random() < 0.25:
        value = int(rng.choice([B - 1, B, B + 1, -B, -B - 1]))
        return str(value if signed else abs(value))
    value = rng.uniform(-25 if signed else 0, 25)
    return str(int(value)) if column == "i" else f"{value:.2f}"


def predicate(rng, depth: int = 0) -> str:
    kind = rng.choice(["cmp", "cmp", "between", "in", "not", "and", "or"]
                      if depth < 3 else ["cmp", "between", "in"])
    column = str(rng.choice(["i", "f", "s"]))
    if kind == "cmp":
        op = str(rng.choice(OPS))
        if rng.random() < 0.1 and column != "s":
            return f"i {op} f"  # column vs column: prunes nothing
        if rng.random() < 0.3:
            return f"{literal(rng, column)} {op} {column}"
        return f"{column} {op} {literal(rng, column)}"
    if kind == "between":
        column = str(rng.choice(["i", "f"]))
        return (f"{column} BETWEEN {literal(rng, column)} "
                f"AND {literal(rng, column)}")
    if kind == "in":
        values = [literal(rng, column, signed=False)
                  for _ in range(int(rng.integers(1, 4)))]
        return f"{column} IN ({', '.join(values)})"
    if kind == "not":
        return f"NOT ({predicate(rng, depth + 1)})"
    joiner = " AND " if kind == "and" else " OR "
    return "(" + joiner.join(predicate(rng, depth + 1)
                             for _ in range(2)) + ")"


@pytest.mark.parametrize("seed", range(200))
def test_pruning_keeps_every_chunk_with_a_qualifying_row(seed):
    rng = np.random.default_rng(seed)
    table = random_table(rng)
    catalog = Catalog()
    catalog.register(table)
    where = " AND ".join(predicate(rng)
                         for _ in range(int(rng.integers(1, 4))))
    sql = f"SELECT k FROM t WHERE {where}"
    bound = bind(parse(sql), catalog)
    filters = bound.filters["t"]
    rows = np.flatnonzero(conjunction_mask(
        filters, Environment.from_table(bound, "t"), bound))
    for chunk_rows in CHUNK_ROWS:
        context = f"seed={seed} chunk_rows={chunk_rows}: {sql}"
        kept, chunked, _ = pruned_scan_chunks(bound, "t", filters,
                                              chunk_rows)
        kept_index = {chunk.index for chunk in kept}
        needed = set((rows // chunk_rows).tolist())
        assert needed <= kept_index, context
        for name in table.column_names:
            arrays = chunked.column_stats(name)
            assert arrays.n_rows.tolist() == [c.num_rows for c in chunked]
            for chunk in chunked:
                stats = chunk.stats(name)
                for got, want in ((arrays.min_value[chunk.index],
                                   stats.min_value),
                                  (arrays.max_value[chunk.index],
                                   stats.max_value)):
                    assert got == float(want) or (
                        np.isnan(got) and np.isnan(want)), (name, context)
        expected = set(rows.tolist())
        for engine in (ReferenceEngine(catalog, chunk_rows=chunk_rows),
                       TCUDBEngine(catalog, options=TCUDBOptions(
                           chunk_rows=chunk_rows))):
            got = {int(k) for (k,) in engine.execute(sql).require_table()
                   .rows()}
            assert got == expected, f"{engine.name} {context}"
