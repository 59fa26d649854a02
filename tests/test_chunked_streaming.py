"""Chunked columnar storage + streaming execution contracts.

Chunks are the unit of execution and must be *invisible* to answers:
the oracle, YDB and MonetDB at tiny chunks equal themselves at
whole-table chunks (rows and simulated seconds), TCUDB at tiny and
whole-table chunks equals the oracle over the fuzz corpus, chunk pruning
never drops qualifying rows, the streaming hybrid pre-stage runs
ANALYTIC queries as ``TCU-hybrid`` executions with exact row counts,
unmaterialized chain steps price from exact per-step cardinalities, and
the bench verifier's sampled streaming replay verifies paper-scale
catalogs it previously skipped.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match
from repro.bench.harness import SeriesPoint
from repro.bench.verify import TCU_REL, OracleVerifier, result_rows, sampled_catalog
from repro.common.errors import BindError, ConfigError, PlanError
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.monetdb import MonetDBEngine
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.engine.tcudb.ops import FallbackRequired, PhysicalStage
from repro.engine.ydb import YDBEngine
from repro.sql.ast_nodes import Between, ColumnRef, Comparison, InList, Literal
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.sql.planner import plan_relation
from repro.storage import (
    Catalog,
    ChunkedTable,
    ColumnStats,
    Table,
    chunk_rows_policy,
    predicate_can_match,
)
from test_fuzz_queries import FUZZ_SEED, QueryGenerator


@pytest.fixture(scope="module")
def fuzz_catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


def fuzz_queries(n: int) -> list[str]:
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    return [generator.generate() for _ in range(n)]


# --------------------------------------------------------------------------- #
# Chunked storage
# --------------------------------------------------------------------------- #


class TestChunkedTable:
    def test_partitioning_and_views(self):
        table = Table.from_dict("t", {"a": np.arange(100)})
        chunked = table.chunked(16)
        assert chunked.num_chunks == 7
        assert [c.num_rows for c in chunked] == [16] * 6 + [4]
        # Chunks are zero-copy views over the contiguous columns.
        assert np.shares_memory(chunked.chunks[0].column("a").data,
                                table.column("a").data)

    def test_concatenated_chunks_reproduce_the_table(self):
        rng = np.random.default_rng(5)
        table = Table.from_dict("t", {
            "a": rng.integers(0, 50, 333),
            "s": [f"v{i % 9}" for i in range(333)],
        })
        chunked = table.chunked(64)
        rebuilt = np.concatenate([c.column("a").data for c in chunked])
        np.testing.assert_array_equal(rebuilt, table.column("a").data)

    def test_per_chunk_stats(self):
        table = Table.from_dict("t", {"a": np.arange(100)})
        stats = table.chunked(25).chunks[2].stats("a")
        assert (stats.min_value, stats.max_value) == (50.0, 74.0)
        assert stats.n_distinct == 25 and stats.n_rows == 25

    def test_chunk_cache_and_policy(self, monkeypatch):
        table = Table.from_dict("t", {"a": np.arange(10)})
        assert table.chunked(4) is table.chunked(4)
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "3")
        assert chunk_rows_policy() == 3
        assert chunk_rows_policy(7) == 7  # explicit override wins
        with pytest.raises(ConfigError):
            chunk_rows_policy(0)

    @pytest.mark.parametrize("env", ["abc", "0"])
    def test_bad_env_policy_is_a_config_error(self, monkeypatch, env):
        # As REPRO_BACKEND: a bad knob is a
        # configuration error, not a storage failure.
        monkeypatch.setenv("REPRO_CHUNK_ROWS", env)
        with pytest.raises(ConfigError):
            chunk_rows_policy()

    def test_empty_table_has_zero_chunks(self):
        # A zero-row table contributes no chunks at all: nothing to scan,
        # nothing for stats to fabricate bounds over (the old single
        # empty chunk reported min=max=0.0 and defeated pruning).
        table = Table.from_dict("t", {"a": np.array([], dtype=np.int64)})
        chunked = ChunkedTable(table, 8)
        assert chunked.num_chunks == 0
        assert chunked.chunks == []


class TestChunkPruning:
    STATS = ColumnStats(10.0, 20.0, 5, 16)

    def _stats_of(self, expr):
        return self.STATS if isinstance(expr, ColumnRef) else None

    def can(self, predicate) -> bool:
        return predicate_can_match(predicate, self._stats_of)

    def test_comparisons(self):
        ref = ColumnRef(None, "a")
        assert not self.can(Comparison("=", ref, Literal(25)))
        assert self.can(Comparison("=", ref, Literal(15)))
        assert not self.can(Comparison("<", ref, Literal(10)))
        assert self.can(Comparison("<=", ref, Literal(10)))
        assert not self.can(Comparison(">", ref, Literal(20)))
        assert self.can(Comparison(">=", ref, Literal(20)))
        # Mirrored literal-op-column comparisons prune symmetrically:
        # "25 < a" is empty when max(a) == 20, "15 < a" is satisfiable.
        assert not self.can(Comparison("<", Literal(25), ref))
        assert self.can(Comparison("<", Literal(15), ref))

    def test_between_and_in(self):
        ref = ColumnRef(None, "a")
        assert not self.can(Between(ref, Literal(30), Literal(40)))
        assert self.can(Between(ref, Literal(18), Literal(40)))
        assert not self.can(
            InList(ref, (Literal(1), Literal(2), Literal(30)))
        )
        assert self.can(InList(ref, (Literal(1), Literal(12))))

    def test_negation_is_conservative(self):
        from repro.sql.ast_nodes import Negation

        ref = ColumnRef(None, "a")
        inner = Comparison("=", ref, Literal(15))
        assert self.can(Negation(inner))

    def test_conjunction_disjunction(self):
        from repro.sql.ast_nodes import Conjunction, Disjunction

        ref = ColumnRef(None, "a")
        empty = Comparison("=", ref, Literal(25))
        full = Comparison("=", ref, Literal(15))
        assert not self.can(Conjunction((full, empty)))
        assert self.can(Conjunction((full, full)))
        assert self.can(Disjunction((empty, full)))
        assert not self.can(Disjunction((empty, empty)))

    def test_pruning_never_drops_rows(self):
        """A selective scan over a clustered column prunes chunks but
        returns exactly the whole-table answer."""
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {
            "k": np.arange(5000),
            "v": np.arange(5000) % 11,
        }))
        sql = ("SELECT SUM(t.v) AS s, COUNT(*) AS c FROM t "
               "WHERE t.k BETWEEN 900 AND 1100")
        whole = ReferenceEngine(catalog, chunk_rows=1 << 30).execute(sql)
        chunked = ReferenceEngine(catalog, chunk_rows=128).execute(sql)
        assert chunked.extra["chunks_pruned"] > 0
        assert whole.extra["chunks_pruned"] == 0
        assert result_rows(chunked) == result_rows(whole)


# --------------------------------------------------------------------------- #
# The plan walk at 97-row chunks == at whole tables; TCUDB at any chunk
# size == oracle
# --------------------------------------------------------------------------- #


def test_walk_is_chunk_size_invariant(fuzz_catalog, monkeypatch):
    """Reference, YDB and MonetDB walk the plan at 97-row chunks and at
    whole-table chunks: rows match, and every count a cost model charges
    is chunk-invariant, so the baselines' seconds are byte-equal."""
    queries = fuzz_queries(60)
    runs = {}
    for chunk_rows in (97, 1 << 30):
        # The baselines take the chunk-size policy, like the oracle.
        monkeypatch.setenv("REPRO_CHUNK_ROWS", str(chunk_rows))
        runs[chunk_rows] = [
            [cls(fuzz_catalog).execute(sql)
             for cls in (ReferenceEngine, YDBEngine, MonetDBEngine)]
            for sql in queries
        ]
    for index, sql in enumerate(queries):
        for chunked, whole in zip(runs[97][index], runs[1 << 30][index]):
            context = f"{whole.engine} fuzz #{index}: {sql}"
            assert_results_match(chunked, whole, rel=1e-9, context=context)
            assert repr(chunked.seconds) == repr(whole.seconds), context


@pytest.mark.parametrize("chunk_rows", [64, 1 << 30])
def test_tcudb_at_any_chunk_size_equals_oracle(fuzz_catalog, chunk_rows):
    """TCUDB with tiny chunks (scans, folds, grid accumulation and the
    streaming pre-stage all actually chunk) and with one chunk per table
    (every operand whole) equals the oracle over the fuzz corpus."""
    engine = TCUDBEngine(fuzz_catalog,
                         options=TCUDBOptions(chunk_rows=chunk_rows))
    oracle = ReferenceEngine(fuzz_catalog)
    for index, sql in enumerate(fuzz_queries(50)):
        assert_results_match(
            engine.execute(sql), oracle.execute(sql), rel=TCU_REL,
            context=f"chunk_rows={chunk_rows} fuzz #{index}: {sql}",
        )


def test_settings_resolve_once_per_engine(fuzz_catalog, monkeypatch):
    """Scans chunk with the size the driver resolved at construction,
    even when the environment changes before the run."""
    import repro.engine.tcudb.ops as ops_module

    monkeypatch.delenv("REPRO_CHUNK_ROWS", raising=False)
    engine = TCUDBEngine(fuzz_catalog)
    monkeypatch.setenv("REPRO_CHUNK_ROWS", "64")
    seen = []
    real = ops_module.pruned_scan_chunks

    def spy(bound, binding, filters, chunk_rows=None):
        seen.append(chunk_rows)
        return real(bound, binding, filters, chunk_rows)

    monkeypatch.setattr(ops_module, "pruned_scan_chunks", spy)
    result = engine.execute(
        "SELECT SUM(lo_revenue) AS r, d_year FROM lineorder, ddate "
        "WHERE lo_orderdate = d_datekey AND lo_discount < 4 "
        "GROUP BY d_year")
    assert result.extra["executed_by"] == "TCU"
    assert seen and set(seen) == {engine.driver.chunk_rows}
    assert engine.driver.chunk_rows != 64


# --------------------------------------------------------------------------- #
# Streaming hybrid pre-stage: ANALYTIC mode
# --------------------------------------------------------------------------- #


@pytest.fixture
def chain_catalog():
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.register(Table.from_dict("t1", {
        "k1": rng.integers(0, 6, 40),
        "v": rng.integers(0, 20, 40).astype(float),
    }))
    catalog.register(Table.from_dict("t2", {
        "k1": rng.integers(0, 6, 30),
        "k2": rng.integers(0, 5, 30),
    }))
    catalog.register(Table.from_dict("t3", {
        "k2": rng.integers(0, 5, 25),
        "g": rng.integers(0, 3, 25),
    }))
    return catalog


CHAIN_AGG_SQL = (
    "SELECT SUM(t1.v) AS s, t3.g FROM t1, t2, t3 "
    "WHERE t1.k1 = t2.k1 AND t2.k2 = t3.k2 GROUP BY t3.g"
)


class TestStreamingPrestage:
    def test_analytic_hybrid_executes_streamed(self, chain_catalog):
        streamed = TCUDBEngine(
            chain_catalog, mode=ExecutionMode.ANALYTIC
        ).execute(CHAIN_AGG_SQL)
        assert streamed.extra["executed_by"] == "TCU-hybrid"
        assert not streamed.extra.get("fallback_reason")
        real = TCUDBEngine(chain_catalog).execute(CHAIN_AGG_SQL)
        assert streamed.n_rows == real.n_rows

    def test_budget_overrun_falls_back_by_cost(self, chain_catalog):
        engine = TCUDBEngine(chain_catalog, mode=ExecutionMode.ANALYTIC)
        bound = bind(parse(CHAIN_AGG_SQL), chain_catalog)
        stage = PhysicalStage(id="prestage", tree=plan_relation(bound),
                              budget_rows=1)
        ctx = engine._context(bound)
        with pytest.raises(FallbackRequired) as info:
            stage.execute(ctx)
        assert info.value.kind == "cost"


# --------------------------------------------------------------------------- #
# Exact chain cardinalities in ANALYTIC mode
# --------------------------------------------------------------------------- #


def test_analytic_chain_counts_are_exact():
    """Multi-way chain steps past the first used to estimate from
    unfiltered key counts; the multiplicity-threaded chain now reports
    the exact intermediate cardinality in ANALYTIC mode."""
    rng = np.random.default_rng(11)
    catalog = Catalog()
    # A filtered first table makes the unfiltered estimate wrong.
    catalog.register(Table.from_dict("a", {
        "k": rng.integers(0, 8, 120),
        "f": rng.integers(0, 10, 120),
    }))
    catalog.register(Table.from_dict("b", {
        "k": rng.integers(0, 8, 90),
        "j": rng.integers(0, 6, 90),
    }))
    catalog.register(Table.from_dict("c", {
        "j": rng.integers(0, 6, 70),
        "w": rng.integers(0, 5, 70),
    }))
    sql = ("SELECT a.k, c.w FROM a, b, c "
           "WHERE a.k = b.k AND b.j = c.j AND a.f < 3")
    real = TCUDBEngine(catalog).execute(sql)
    analytic = TCUDBEngine(catalog, mode=ExecutionMode.ANALYTIC).execute(sql)
    if analytic.extra.get("fallback_reason") or real.extra.get(
        "fallback_reason"
    ):
        pytest.skip("chain did not stay on the TCU path on this catalog")
    assert analytic.n_rows == real.n_rows


# --------------------------------------------------------------------------- #
# Sampled / streaming oracle replay (bench verifier)
# --------------------------------------------------------------------------- #


class TestSampledVerification:
    def test_sampled_catalog_is_deterministic_and_bounded(self):
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=20_000, seed=9)
        first, notes1 = sampled_catalog(catalog, 2048)
        second, notes2 = sampled_catalog(catalog, 2048)
        assert notes1 == notes2
        assert first.get("lineorder").num_rows < catalog.get(
            "lineorder"
        ).num_rows
        np.testing.assert_array_equal(
            first.get("lineorder").column("lo_revenue").data,
            second.get("lineorder").column("lo_revenue").data,
        )

    def test_stream_policy_verifies_paper_scale_points(self):
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=20_000, seed=9)
        verifier = OracleVerifier(policy="stream", sample_rows=2048)
        sql = ("SELECT SUM(lo_revenue) AS r, d_year FROM lineorder, ddate "
               "WHERE lo_orderdate = d_datekey GROUP BY d_year")
        point = SeriesPoint(config="sf1", engine="TCUDB", seconds=1.0)
        verifier.verify_query(point, "TCUDB", catalog, sql)
        assert point.verified is True
        assert point.verify_kind == "oracle"
        assert "sampled chunks" in point.verify_note

    def test_strata_are_disjoint_and_cover_more_chunks(self):
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=20_000, seed=9)
        phase0, _ = sampled_catalog(catalog, 2048, phase=0)
        phase1, _ = sampled_catalog(catalog, 2048, phase=1)
        keys0 = set(phase0.get("lineorder").column("lo_orderkey").data)
        keys1 = set(phase1.get("lineorder").column("lo_orderkey").data)
        # Different phases sample different chunk strides of the fact
        # table; the strata must not be the same sample.
        assert keys0 != keys1

    def test_stratified_replay_reports_disagreement_bound(self):
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=20_000, seed=9)
        verifier = OracleVerifier(policy="stream", sample_rows=2048,
                                  strata=3)
        sql = ("SELECT SUM(lo_revenue) AS r, d_year FROM lineorder, ddate "
               "WHERE lo_orderdate = d_datekey GROUP BY d_year")
        point = SeriesPoint(config="sf1", engine="TCUDB", seconds=1.0)
        verifier.verify_query(point, "TCUDB", catalog, sql)
        assert point.verified is True
        assert "3 strata" in point.verify_note
        assert "disagreement<=" in point.verify_note

    def test_full_policy_unchanged(self, fuzz_catalog):
        verifier = OracleVerifier()
        sql = ("SELECT COUNT(*) AS c FROM lineorder, ddate "
               "WHERE lo_orderdate = d_datekey")
        point = SeriesPoint(config="x", engine="YDB", seconds=1.0)
        verifier.verify_query(point, "YDB", fuzz_catalog, sql)
        assert point.verified is True and point.verify_note == ""

    def test_disabled_still_skips(self, fuzz_catalog):
        verifier = OracleVerifier(enabled=False, policy="stream")
        point = SeriesPoint(config="x", engine="YDB", seconds=1.0)
        verifier.verify_query(point, "YDB", fuzz_catalog, "SELECT 1 FROM x")
        assert point.verified is None
        assert point.verify_note == "unverified (profile)"


# --------------------------------------------------------------------------- #
# Expression GROUP BY (satellite)
# --------------------------------------------------------------------------- #


class TestExpressionGroupBy:
    SQL = (
        "SELECT d_year % 10 AS decade, SUM(lo_revenue) AS r, COUNT(*) AS c "
        "FROM lineorder, ddate WHERE lo_orderdate = d_datekey "
        "GROUP BY d_year % 10 ORDER BY decade"
    )

    def test_all_engines_agree(self, fuzz_catalog):
        oracle = ReferenceEngine(fuzz_catalog).execute(self.SQL)
        assert oracle.n_rows > 1
        tcu = TCUDBEngine(fuzz_catalog).execute(self.SQL)
        ydb = YDBEngine(fuzz_catalog).execute(self.SQL)
        assert tcu.extra["executed_by"] == "TCU-hybrid"
        assert_results_match(tcu, oracle, rel=TCU_REL)
        assert_results_match(ydb, oracle)

    def test_streaming_oracle_handles_group_exprs(self, fuzz_catalog):
        whole = ReferenceEngine(fuzz_catalog, chunk_rows=1 << 30)
        chunked = ReferenceEngine(fuzz_catalog, chunk_rows=97)
        assert_results_match(chunked.execute(self.SQL),
                             whole.execute(self.SQL))

    def test_having_on_group_expression(self, fuzz_catalog):
        sql = (
            "SELECT d_year % 10 AS decade, COUNT(*) AS c "
            "FROM lineorder, ddate WHERE lo_orderdate = d_datekey "
            "GROUP BY d_year % 10 HAVING d_year % 10 > 4 ORDER BY decade"
        )
        oracle = ReferenceEngine(fuzz_catalog).execute(sql)
        tcu = TCUDBEngine(fuzz_catalog).execute(sql)
        assert_results_match(tcu, oracle, rel=TCU_REL)
        decades = [row[0] for row in oracle.require_table().rows()]
        assert decades and all(d > 4 for d in decades)

    def test_single_table_group_expression(self, fuzz_catalog):
        sql = ("SELECT d_year % 3 AS m, COUNT(*) AS c FROM ddate "
               "GROUP BY d_year % 3 ORDER BY m")
        oracle = ReferenceEngine(fuzz_catalog).execute(sql)
        tcu = TCUDBEngine(fuzz_catalog).execute(sql)
        assert_results_match(tcu, oracle, rel=TCU_REL)

    def test_aggregate_in_group_by_rejected(self, fuzz_catalog):
        with pytest.raises(BindError):
            ReferenceEngine(fuzz_catalog).execute(
                "SELECT COUNT(*) AS c FROM ddate GROUP BY SUM(d_year)"
            )

    def test_non_grouped_column_still_rejected(self, fuzz_catalog):
        with pytest.raises(PlanError):
            ReferenceEngine(fuzz_catalog).execute(
                "SELECT d_year AS y, COUNT(*) AS c FROM ddate "
                "GROUP BY d_year % 10"
            )


# --------------------------------------------------------------------------- #
# Residual-fact epilogue in the operand fill
# --------------------------------------------------------------------------- #


class TestResidualFillFusion:
    SQL = (
        "SELECT SUM(lo_revenue) AS s, c_region FROM lineorder, ddate, "
        "customer WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey "
        "AND (lo_discount > 5 OR d_year = 1995) GROUP BY c_region"
    )

    def test_mask_folds_into_value_fill(self, fuzz_catalog):
        fused = TCUDBEngine(fuzz_catalog).execute(self.SQL)
        oracle = ReferenceEngine(fuzz_catalog).execute(self.SQL)
        assert fused.extra["executed_by"] == "TCU"
        (fill_line,) = [line for line in
                        fused.extra["program_listing"].splitlines()
                        if "ValueFill[star]" in line]
        assert "epilogue(" in fill_line
        assert_results_match(fused, oracle, rel=TCU_REL)
        # The masked fill charges one riding pass, on the fill itself.
        masks = [cost.op_id for cost in fused.extra["operator_costs"]
                 if cost.stage == "tcu_mask_apply"]
        assert masks == ["value_fill"]
