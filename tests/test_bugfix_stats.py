"""Regression tests for the stats/pruning bugs the parallel work exposed.

Four bugs, one suite:

1. **Negative literals defeat pruning** — the parser encodes ``-5`` as
   ``(0 - 5)``; neither the binder nor the chunk-pruning statistics used
   to const-evaluate that ``BinaryOp``, so ``lo_quantity < -5`` scanned
   every chunk of an all-positive column.  Fixed by constant folding in
   the binder plus const-evaluation inside the statistics helpers.
2. **Empty columns fabricate statistics** — a zero-row column reported
   ``min=max=0.0``, and an empty table materialized one scannable
   zero-row chunk; predicates like ``a = 0`` then *kept* provably empty
   chunks and selectivity estimates trusted fake bounds.  Fixed:
   ``n_rows == 0`` stats prune unconditionally and never feed
   selectivity; empty tables have zero chunks.
3. **Ungrouped aggregates over zero rows dropped the result row** —
   SQL returns one row (COUNT = 0; the NULL-free storage model renders
   SUM/AVG/MIN/MAX as 0.0).  Fixed across the batch executor, the
   streaming aggregator, the relational estimator and the TCU grid
   harvest.
4. **Integers above 2**53 round through ``float``** — the parser built
   every number with ``float()``, so ``v = 9007199254740993`` matched
   the rows holding ...992 in *every* engine (shared parser) while the
   same value as a ``?`` parameter matched the right ones; and chunk
   pruning compared float statistics with ``float(literal)``, so
   ``v < 2**53 + 1`` dropped a chunk whose minimum is 2**53.  Fixed:
   digit-only tokens parse with ``int()``; pruning declines when a
   bound or literal is at or beyond +-2**53.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.engine.tcudb.optimizer import Strategy
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Between,
    Comparison,
    InList,
    Literal,
    fold_constants,
)
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.chunk import ChunkedTable
from repro.storage.column import Column
from repro.storage.statistics import (
    DEFAULT_SELECTIVITY,
    compute_stats,
    predicate_can_match,
    predicate_selectivity,
)
from repro.storage.table import Table
from repro.storage.types import DataType


def _catalog_with(name: str, data: dict) -> Catalog:
    catalog = Catalog()
    catalog.register(Table.from_dict(name, data))
    return catalog


# --------------------------------------------------------------------------- #
# Bug 1: negative literals vs constant folding and pruning
# --------------------------------------------------------------------------- #


class TestNegativeLiteralFolding:
    def test_parser_unary_minus_folds_in_binder(self):
        statement = parse("SELECT a FROM t WHERE a < -5;")
        catalog = _catalog_with("t", {"a": np.arange(1, 100)})
        bound = bind(statement, catalog)
        (predicate,) = bound.filters["t"]
        assert isinstance(predicate, Comparison)
        assert isinstance(predicate.right, Literal)
        assert float(predicate.right.value) == -5.0

    def test_fold_constants_arithmetic(self):
        # (0 - 5) -> -5.0; folding mirrors runtime float64 arithmetic.
        expr = BinaryOp("-", Literal(0), Literal(5))
        folded = fold_constants(expr)
        assert isinstance(folded, Literal) and folded.value == -5.0
        nested = BinaryOp("*", BinaryOp("+", Literal(2), Literal(3)),
                          Literal(4))
        assert fold_constants(nested).value == 20.0
        # Zero divisors never fold: the runtime has special-case
        # semantics (nan / identity) that a folded constant would lose.
        div = BinaryOp("/", Literal(1), Literal(0))
        assert isinstance(fold_constants(div), BinaryOp)
        mod = BinaryOp("%", Literal(1), Literal(0))
        assert isinstance(fold_constants(mod), BinaryOp)
        # Non-constant subtrees pass through untouched.
        ref = ColumnRef(None, "a")
        mixed = BinaryOp("+", ref, Literal(1))
        assert fold_constants(mixed) is mixed

    def test_negative_literal_prunes_every_chunk(self):
        """The headline regression: `lo_quantity < -5` over an
        all-positive column must prune all chunks, scanning none."""
        catalog = _catalog_with("t", {"a": np.arange(1, 4097)})
        num_chunks = ChunkedTable(catalog.get("t"), 256).num_chunks
        assert num_chunks == 16
        engine = ReferenceEngine(catalog, streaming=True, chunk_rows=256)
        result = engine.execute("SELECT COUNT(*) AS c FROM t WHERE a < -5")
        assert result.extra["chunks_pruned"] == num_chunks
        assert result.extra["chunks_scanned"] == 0
        assert int(result.table.column("c").data[0]) == 0

    def test_statistics_const_evaluate_binary_ops(self):
        """Belt and braces: predicates built without the binder's folding
        pass (direct AST construction) still prune and price."""
        stats = compute_stats(Column(np.arange(1, 100), DataType.INT64))
        ref = ColumnRef(None, "a")
        minus_five = BinaryOp("-", Literal(0), Literal(5))
        predicate = Comparison("<", ref, minus_five)
        stats_of = (
            lambda expr: stats if isinstance(expr, ColumnRef) else None
        )
        assert not predicate_can_match(predicate, stats_of)
        assert predicate_selectivity(predicate, stats_of) == 0.0


# --------------------------------------------------------------------------- #
# Bug 2: empty columns / empty tables
# --------------------------------------------------------------------------- #


class TestEmptyTableStats:
    def test_empty_column_stats_are_inert(self):
        stats = compute_stats(
            Column(np.array([], dtype=np.int64), DataType.INT64)
        )
        assert stats.n_rows == 0
        ref = ColumnRef(None, "a")
        stats_of = (
            lambda expr: stats if isinstance(expr, ColumnRef) else None
        )
        # The fabricated min=max=0.0 bounds must never *keep* a chunk:
        # a zero-row chunk satisfies no predicate.
        assert not predicate_can_match(Comparison("=", ref, Literal(0)),
                                       stats_of)
        assert not predicate_can_match(Comparison("<", ref, Literal(10)),
                                       stats_of)
        # ... and must never drive a selectivity estimate.
        sel = predicate_selectivity(Comparison("=", ref, Literal(0)),
                                    stats_of)
        assert sel == DEFAULT_SELECTIVITY

    def test_empty_table_has_no_chunks(self):
        table = Table.from_dict("t", {"a": np.array([], dtype=np.int64)})
        assert ChunkedTable(table, 64).num_chunks == 0

    @pytest.mark.parametrize("engine_name",
                             ["reference", "ydb", "monetdb", "tcudb"])
    def test_empty_table_end_to_end(self, engine_name):
        catalog = _catalog_with("t", {"a": np.array([], dtype=np.int64),
                                      "b": np.array([], dtype=np.float64)})
        engine = create_engine(engine_name, catalog)
        projected = engine.execute("SELECT a FROM t WHERE a = 0")
        assert projected.n_rows == 0
        grouped = engine.execute(
            "SELECT a, COUNT(*) AS c FROM t GROUP BY a"
        )
        assert grouped.n_rows == 0
        ungrouped = engine.execute(
            "SELECT COUNT(*) AS c, SUM(b) AS s FROM t"
        )
        assert ungrouped.n_rows == 1, engine_name
        assert int(ungrouped.table.column("c").data[0]) == 0
        assert float(ungrouped.table.column("s").data[0]) == 0.0


# --------------------------------------------------------------------------- #
# Bug 3: ungrouped aggregates over zero qualifying rows
# --------------------------------------------------------------------------- #


class TestZeroRowUngroupedAggregates:
    SQL = ("SELECT COUNT(*) AS c, SUM(a) AS s, AVG(a) AS v, "
           "MIN(a) AS mn, MAX(a) AS mx FROM t WHERE a > 1000")

    def _catalog(self):
        return _catalog_with("t", {"a": np.arange(1, 200)})

    @pytest.mark.parametrize("engine_name",
                             ["reference", "ydb", "monetdb", "tcudb"])
    def test_one_row_count_zero(self, engine_name):
        engine = create_engine(engine_name, self._catalog())
        result = engine.execute(self.SQL)
        assert result.n_rows == 1, engine_name
        table = result.require_table()
        assert int(table.column("c").data[0]) == 0
        for name in ("s", "v", "mn", "mx"):
            assert float(table.column(name).data[0]) == 0.0, (engine_name,
                                                              name)

    def test_streaming_executor(self):
        engine = ReferenceEngine(self._catalog(), streaming=True,
                                 chunk_rows=32)
        result = engine.execute(self.SQL)
        assert result.n_rows == 1
        assert int(result.table.column("c").data[0]) == 0

    def test_tcu_native_path_synthesizes_the_row(self):
        """A join+aggregate that matches zero pairs must return the row
        from the TCU grid harvest itself (not only via fallback)."""
        ssb = ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=7)
        engine = create_engine("tcudb", ssb)
        result = engine.execute(
            "SELECT SUM(lo_extendedprice * lo_discount) AS revenue "
            "FROM lineorder, ddate "
            "WHERE lo_orderdate = d_datekey AND d_year = 1888"
        )
        assert result.extra.get("executed_by") == "TCU"
        assert result.n_rows == 1
        assert float(result.table.column("revenue").data[0]) == 0.0

    def test_grouped_zero_rows_still_empty(self):
        for engine_name in ("reference", "ydb", "tcudb"):
            engine = create_engine(engine_name, self._catalog())
            result = engine.execute(
                "SELECT a, COUNT(*) AS c FROM t WHERE a > 1000 GROUP BY a"
            )
            assert result.n_rows == 0, engine_name


# --------------------------------------------------------------------------- #
# Bug 4: integers above 2**53
# --------------------------------------------------------------------------- #

B = 2 ** 53


class TestIntegersAbove2To53:
    #: ``k`` of the rows each predicate keeps, computed by hand over
    #: v = [B-1, B | B+1, B+2 | B+1, B]  (``|``: chunk_rows=2 boundaries).
    #: The third chunk's minimum is B, its rows straddle B+1.
    CASES = [
        ("f.v = ?", [B + 1], {3, 5}),
        ("f.v = ?", [B - 1], {1}),
        ("f.v < ?", [B + 1], {1, 2, 6}),
        ("f.v <= ?", [B - 1], {1}),
        ("f.v > ?", [B], {3, 4, 5}),
        ("f.v > ?", [B - 1], {2, 3, 4, 5, 6}),
        ("f.v >= ?", [B + 1], {3, 4, 5}),
        ("? < f.v", [B + 1], {4}),
        ("f.v BETWEEN ? AND ?", [B + 1, B + 2], {3, 4, 5}),
        ("f.v BETWEEN ? AND ?", [B - 1, B], {1, 2, 6}),
        ("f.v <> ?", [B + 1], {1, 2, 4, 6}),
    ]
    TEMPLATE = ("SELECT f.k, SUM(d.w) AS n FROM f, d "
                "WHERE f.k = d.k AND {} GROUP BY f.k")

    @staticmethod
    def _engines():
        def catalog():
            catalog = Catalog()
            catalog.register(Table.from_dict("f", {
                "k": [1, 2, 3, 4, 5, 6],
                "v": np.array([B - 1, B, B + 1, B + 2, B + 1, B]),
            }))
            catalog.register(Table.from_dict("d", {
                "k": [1, 2, 3, 4, 5, 6], "w": [1, 1, 1, 1, 1, 1]}))
            return catalog

        yield "reference", ReferenceEngine(catalog())
        yield "reference/streaming", ReferenceEngine(
            catalog(), streaming=True, chunk_rows=2)
        yield "ydb", create_engine("ydb", catalog())
        # By cost the six-row join would fall back; force the TCU plan.
        yield "tcudb", TCUDBEngine(catalog(), options=TCUDBOptions(
            chunk_rows=2, force_strategy=Strategy.DENSE))

    @staticmethod
    def _kept(result) -> set[int]:
        return {int(k) for k, _ in result.require_table().rows()}

    @pytest.mark.parametrize("condition, params, expected", CASES)
    def test_inlined_equals_prepared_equals_by_hand(self, condition, params,
                                                    expected):
        template = self.TEMPLATE.format(condition)
        inlined = template
        for value in params:
            inlined = inlined.replace("?", str(value), 1)
        for name, engine in self._engines():
            got = engine.execute(inlined)
            assert self._kept(got) == expected, (name, inlined)
            prepared = engine.execute_prepared(engine.prepare(template),
                                               params)
            assert self._kept(prepared) == expected, (name, template)
            if name == "tcudb":
                assert got.extra["executed_by"] == "TCU"
                assert prepared.extra["executed_by"] == "TCU"

    @pytest.mark.parametrize("values, expected", [
        ((B + 1, B - 1), {1, 3, 5}), ((B + 2, 7), {4}), ((B + 3,), set()),
    ])
    def test_in_list(self, values, expected):
        # IN takes literals only: there is no ``?`` form to compare with.
        sql = self.TEMPLATE.format(
            f"f.v IN ({', '.join(map(str, values))})")
        for name, engine in self._engines():
            assert self._kept(engine.execute(sql)) == expected, (name, sql)

    def test_number_tokens(self):
        def literal(text):
            (predicate,) = parse(f"SELECT a FROM t WHERE a = {text}").where
            return predicate.right.value

        for text, value in (("9007199254740993", B + 1),
                            ("18446744073709551617", 2 ** 64 + 1),
                            ("7", 7), ("1e3", 1000), ("2.0", 2), ("2.5", 2.5),
                            ("0.5e1", 5)):
            assert literal(text) == value
            assert type(literal(text)) is type(value), text
        # Past float's range the token stays the ``inf`` it always was.
        assert literal("9" * 400) == float("inf")
        assert parse(f"SELECT a FROM t LIMIT {B + 1}").limit == B + 1
        assert parse("SELECT a FROM t LIMIT 1e2").limit == 100

    def test_pruning_declines_at_2_to_53_and_only_there(self):
        ref = ColumnRef(None, "a")

        def can_match(predicate, lo, hi):
            stats = compute_stats(Column(np.array([lo, hi]), DataType.INT64))
            return predicate_can_match(
                predicate,
                lambda expr: stats if isinstance(expr, ColumnRef) else None)

        def above(value):
            return Comparison(">", ref, Literal(value))

        # Provably empty, and exactly representable: pruned as before.
        assert not can_match(above(B - 1), 0, B - 1)
        assert not can_match(above(B - 1), -(B - 1), 5)
        assert not can_match(Between(ref, Literal(10), Literal(B - 1)), 0, 9)
        assert not can_match(InList(ref, (Literal(B - 1),)), 0, 9)
        # A literal or a chunk bound at the edge: float(B + 1) == B, so
        # the same proofs can no longer be trusted and the chunk is kept.
        assert can_match(above(B), 0, B - 1)
        assert can_match(above(B - 1), 0, B)
        assert can_match(above(7), -B, 5)
        assert can_match(Comparison("<", ref, Literal(-B)), 0, 9)
        assert can_match(Between(ref, Literal(10), Literal(B)), 0, 9)
        assert can_match(Between(ref, Literal(10), Literal(20)), B, B + 2)
        assert can_match(InList(ref, (Literal(3), Literal(B + 1))), 10, 20)
