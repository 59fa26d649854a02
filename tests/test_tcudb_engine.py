"""TCUDB end-to-end: result equivalence with YDB, plan selection, fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import UnsupportedQueryError
from repro.datasets.microbench import (
    QUERY_Q1,
    QUERY_Q3,
    QUERY_Q4,
    QUERY_Q5,
    microbench_catalog,
)
from repro.engine.base import ExecutionMode
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions
from repro.engine.ydb import YDBEngine
from repro.storage import Catalog, Table


def sorted_rows(result):
    return sorted(map(tuple, result.require_table().rows()))


def assert_results_match(tcu_result, ydb_result, rel=1e-3):
    """Row multisets match, numeric cells within fp16 tolerance."""
    got = sorted_rows(tcu_result)
    expected = sorted_rows(ydb_result)
    assert len(got) == len(expected)
    for g_row, e_row in zip(got, expected):
        assert len(g_row) == len(e_row)
        for g, e in zip(g_row, e_row):
            if isinstance(g, str) or isinstance(e, str):
                assert g == e
            else:
                assert g == pytest.approx(e, rel=rel, abs=1e-6)


class TestMicrobenchQueries:
    @pytest.fixture
    def catalog(self):
        return microbench_catalog(700, 24, seed=3)

    def test_q1_exact_match(self, catalog):
        tcu = TCUDBEngine(catalog).execute(QUERY_Q1)
        ydb = YDBEngine(catalog).execute(QUERY_Q1)
        assert sorted_rows(tcu) == sorted_rows(ydb)
        assert not tcu.extra.get("fallback_reason")

    def test_q3_groups_match(self, catalog):
        tcu = TCUDBEngine(catalog).execute(QUERY_Q3)
        ydb = YDBEngine(catalog).execute(QUERY_Q3)
        assert_results_match(tcu, ydb)

    def test_q4_scalar_within_fp16_error(self, catalog):
        tcu = TCUDBEngine(catalog).execute(QUERY_Q4)
        ydb = YDBEngine(catalog).execute(QUERY_Q4)
        assert_results_match(tcu, ydb, rel=1e-3)

    def test_q5_nonequi_exact(self, catalog):
        tcu = TCUDBEngine(catalog).execute(QUERY_Q5)
        ydb = YDBEngine(catalog).execute(QUERY_Q5)
        assert sorted_rows(tcu) == sorted_rows(ydb)

    def test_tcudb_faster_than_ydb(self, catalog):
        for sql in (QUERY_Q1, QUERY_Q3, QUERY_Q4):
            tcu = TCUDBEngine(catalog).execute(sql)
            ydb = YDBEngine(catalog).execute(sql)
            assert tcu.seconds < ydb.seconds, sql

    def test_generated_code_attached(self, catalog):
        run = TCUDBEngine(catalog).execute(QUERY_Q1)
        program = run.extra["generated_code"]
        assert "wmma" in program.source or "tcu_spmm" in program.source

    def test_breakdown_stages(self, catalog):
        run = TCUDBEngine(catalog).execute(QUERY_Q3)
        stages = run.breakdown.stages
        assert any(s.startswith("tcu_join") for s in stages)
        assert "fill_matrices" in stages


class TestFallback:
    def test_min_max_falls_back_to_ydb(self, small_catalog):
        run = TCUDBEngine(small_catalog).execute(
            "SELECT MAX(a.val) FROM a, b WHERE a.id = b.id"
        )
        assert run.extra["executed_by"] == "YDB-fallback"
        assert run.require_table().rows() == [(20.0,)]

    def test_disable_fallback_raises(self, small_catalog):
        options = TCUDBOptions(disable_fallback=True)
        engine = TCUDBEngine(small_catalog, options=options)
        with pytest.raises(UnsupportedQueryError):
            engine.execute("SELECT MIN(a.val) FROM a, b WHERE a.id = b.id")

    def test_fallback_result_correct(self, small_catalog):
        sql = ("SELECT SUM(a.val + 1), b.val FROM a, b WHERE a.id = b.id "
               "GROUP BY b.val")
        tcu = TCUDBEngine(small_catalog).execute(sql)
        ydb = YDBEngine(small_catalog).execute(sql)
        # Additive non-product argument -> beyond TCU patterns -> fallback.
        assert tcu.extra.get("fallback_reason")
        assert sorted_rows(tcu) == sorted_rows(ydb)


class TestMultiwayJoins:
    @pytest.fixture
    def chain_catalog(self, rng):
        catalog = Catalog()
        catalog.register(Table.from_dict("a", {
            "id1": rng.integers(0, 8, 60),
            "val": rng.integers(0, 9, 60).astype(float),
        }))
        catalog.register(Table.from_dict("b", {
            "id1": rng.integers(0, 8, 50),
            "id2": rng.integers(0, 6, 50),
            "val": rng.integers(0, 9, 50).astype(float),
        }))
        catalog.register(Table.from_dict("c", {
            "id2": rng.integers(0, 6, 40),
            "val": rng.integers(0, 9, 40).astype(float),
        }))
        return catalog

    def test_q2_three_way_join(self, chain_catalog):
        sql = ("SELECT A.Val, B.Val, C.Val FROM A, B, C "
               "WHERE A.ID1 = B.ID1 AND B.ID2 = C.ID2")
        tcu = TCUDBEngine(chain_catalog).execute(sql)
        ydb = YDBEngine(chain_catalog).execute(sql)
        assert sorted_rows(tcu) == sorted_rows(ydb)

    def test_three_way_with_aggregation(self, chain_catalog):
        sql = ("SELECT SUM(A.Val * C.Val), B.Val FROM A, B, C "
               "WHERE B.ID1 = A.ID1 AND B.ID2 = C.ID2 GROUP BY B.Val")
        tcu = TCUDBEngine(chain_catalog).execute(sql)
        ydb = YDBEngine(chain_catalog).execute(sql)
        assert_results_match(tcu, ydb)


class TestPlanSelection:
    def test_dense_for_small_domains(self):
        catalog = microbench_catalog(2048, 16, seed=1)
        run = TCUDBEngine(catalog).execute(QUERY_Q1)
        assert run.extra["strategy"] == "dense"

    def test_sparse_for_large_domains(self):
        catalog = microbench_catalog(2048, 60_000, seed=1)
        run = TCUDBEngine(catalog, mode=ExecutionMode.ANALYTIC).execute(
            QUERY_Q1
        )
        assert run.extra.get("strategy") == "sparse" or (
            run.extra.get("fallback_reason") is not None
        )

    def test_indicator_joins_use_int4(self):
        catalog = microbench_catalog(2048, 16, seed=1)
        run = TCUDBEngine(catalog).execute(QUERY_Q1)
        assert run.extra["precision"] == "int4"

    def test_forced_sparse_executes_correctly(self):
        """A forced SPARSE plan is priced as TCU-SpMM and multiplied by
        the backend's one product."""
        catalog = microbench_catalog(500, 12, seed=2)
        options = TCUDBOptions(force_strategy=Strategy.SPARSE)
        tcu = TCUDBEngine(catalog, options=options).execute(QUERY_Q1)
        ydb = YDBEngine(catalog).execute(QUERY_Q1)
        assert sorted_rows(tcu) == sorted_rows(ydb)
        assert tcu.extra["strategy"] == "sparse"

    def test_forced_blocked_executes_correctly(self):
        """A forced BLOCKED plan is priced as MSplitGEMM and multiplied
        by the backend's one product."""
        catalog = microbench_catalog(500, 12, seed=2)
        options = TCUDBOptions(force_strategy=Strategy.BLOCKED)
        tcu = TCUDBEngine(catalog, options=options).execute(QUERY_Q3)
        ydb = YDBEngine(catalog).execute(QUERY_Q3)
        assert_results_match(tcu, ydb)

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("sql", [
        "SELECT a.val AS v FROM a, b WHERE a.id <= b.id AND b.val = 'q'",
        "SELECT a.val AS v FROM a, b WHERE a.id = b.id AND a.val > 100",
    ], ids=["non-equi", "equi"])
    def test_forced_plan_over_an_empty_side(self, small_catalog, sql,
                                            strategy):
        """A filter that leaves one join side empty makes a 0-row
        operand; every forced plan multiplies it and returns no rows."""
        options = TCUDBOptions(force_strategy=strategy)
        tcu = TCUDBEngine(small_catalog, options=options).execute(sql)
        assert tcu.extra["executed_by"] == "TCU"
        assert tcu.extra["strategy"] == strategy.value
        assert tcu.require_table().num_rows == 0

    def test_require_exact_rejects_wide_values(self, rng):
        catalog = Catalog()
        catalog.register(Table.from_dict("a", {
            "id": rng.integers(0, 8, 64),
            "val": rng.integers(0, 2**30, 64).astype(float),
        }))
        catalog.register(Table.from_dict("b", {
            "id": rng.integers(0, 8, 64),
            "val": rng.integers(0, 2**30, 64).astype(float),
        }))
        options = TCUDBOptions(require_exact=True)
        run = TCUDBEngine(catalog, options=options).execute(QUERY_Q4)
        assert run.extra.get("fallback_reason")


class TestOrderAndLimit:
    def test_order_by_on_join(self):
        catalog = microbench_catalog(300, 8, seed=4)
        sql = "SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID ORDER BY A.Val DESC LIMIT 5"
        tcu = TCUDBEngine(catalog).execute(sql)
        table = tcu.require_table()
        values = [r[0] for r in table.rows()]
        assert values == sorted(values, reverse=True)
        assert table.num_rows == 5

    def test_group_results_naturally_sorted(self):
        catalog = microbench_catalog(300, 8, seed=4)
        run = TCUDBEngine(catalog).execute(QUERY_Q3)
        if not run.extra.get("fallback_reason"):
            groups = [r[1] for r in run.require_table().rows()]
            assert groups == sorted(groups)


class TestAnalyticMode:
    def test_counts_match_real(self):
        catalog = microbench_catalog(4096, 32, seed=5)
        real = TCUDBEngine(catalog, mode=ExecutionMode.REAL).execute(QUERY_Q1)
        analytic = TCUDBEngine(
            catalog, mode=ExecutionMode.ANALYTIC
        ).execute(QUERY_Q1)
        assert analytic.n_rows == real.n_rows
        assert analytic.seconds == pytest.approx(real.seconds, rel=1e-6)


EMPTY_INPUT_QUERIES = {
    "grouped": "SELECT label, SUM(v) AS s, MIN(neg) AS m, COUNT(*) AS n "
               "FROM facts, dim WHERE facts.k = dim.k "
               "GROUP BY label ORDER BY label;",
    # Ungrouped: an empty input still yields one identity row.
    "ungrouped": "SELECT SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, "
                 "MAX(neg) AS hi, COUNT(*) AS n FROM facts;",
    "count-max": "SELECT label, COUNT(v) AS c, MAX(v) AS hi "
                 "FROM facts, dim WHERE facts.k = dim.k "
                 "GROUP BY label ORDER BY label;",
    # HAVING reads an aggregate the select list does not.
    "having": "SELECT label, SUM(v) AS s FROM facts, dim "
              "WHERE facts.k = dim.k GROUP BY label "
              "HAVING MIN(neg) < -8 ORDER BY label;",
}


class TestEmptyInputs:
    """Aggregates over zero-row inputs carry identity values: no
    fabricated groups, and no zero corrupting a MIN over positive or a
    MAX over negative values.  TCUDB must agree with the Reference
    oracle on every backend."""

    @staticmethod
    def tiny(facts: str) -> Catalog:
        table = Table.from_dict("facts", {
            "k": [1, 2, 3],
            "v": [10.0, 20.0, 30.0],
            "neg": [-5.0, -7.0, -9.0],
        })
        if facts == "no-rows":
            table = table.filter(np.zeros(table.num_rows, dtype=bool))
        elif facts == "no-matches":
            table = Table.from_dict("facts", {
                "k": [7, 8, 9],
                "v": [10.0, 20.0, 30.0],
                "neg": [-5.0, -7.0, -9.0],
            })
        catalog = Catalog()
        catalog.register(table)
        catalog.register(Table.from_dict("dim", {
            "k": [1, 2, 3, 4],
            "label": ["a", "b", "a", "b"],
        }))
        return catalog

    @pytest.mark.parametrize("backend", ["sim", "fast"])
    @pytest.mark.parametrize("facts", ["full", "no-rows", "no-matches"])
    @pytest.mark.parametrize("query", sorted(EMPTY_INPUT_QUERIES))
    def test_identity_over_empty_inputs(self, query, facts, backend):
        catalog = self.tiny(facts)
        sql = EMPTY_INPUT_QUERIES[query]
        expected = ReferenceEngine(catalog).execute(sql)
        got = TCUDBEngine(
            catalog, options=TCUDBOptions(backend=backend)).execute(sql)
        assert got.require_table().column_names == \
            expected.require_table().column_names
        assert_results_match(got, expected)

    def test_grouped_aggregate_over_empty_filter(self):
        catalog = self.tiny("full")
        sql = ("SELECT label, SUM(v) AS s FROM facts, dim "
               "WHERE facts.k = dim.k AND v > 1000 GROUP BY label;")
        got = TCUDBEngine(catalog).execute(sql)
        assert got.require_table().num_rows == 0
        assert_results_match(got, ReferenceEngine(catalog).execute(sql))

    def test_global_count_over_empty_selection(self):
        catalog = self.tiny("full")
        sql = "SELECT COUNT(*) AS n FROM facts WHERE v > 1000;"
        got = TCUDBEngine(catalog).execute(sql)
        assert got.require_table().rows() == [(0,)]
        assert_results_match(got, ReferenceEngine(catalog).execute(sql))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 120),
    k=st.integers(1, 16),
    seed=st.integers(0, 99999),
)
def test_property_tcudb_join_equals_ydb(n, k, seed):
    """The TCU indicator-matmul join equals the hash join, always."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {
        "id": rng.integers(0, k, n),
        "val": rng.integers(0, 100, n).astype(float),
    }))
    catalog.register(Table.from_dict("b", {
        "id": rng.integers(0, k, max(n // 2, 1)),
        "val": rng.integers(0, 100, max(n // 2, 1)).astype(float),
    }))
    sql = "SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID"
    tcu = TCUDBEngine(catalog).execute(sql)
    ydb = YDBEngine(catalog).execute(sql)
    assert sorted_rows(tcu) == sorted_rows(ydb)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(4, 100),
    k=st.integers(1, 10),
    g=st.integers(1, 6),
    seed=st.integers(0, 99999),
)
def test_property_tcudb_groupby_agg_equals_ydb(n, k, g, seed):
    """Lemma 3.1: the fused matmul group-by SUM equals the classic plan."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {
        "id": rng.integers(0, k, n),
        "val": rng.integers(0, 30, n).astype(float),
    }))
    catalog.register(Table.from_dict("b", {
        "id": rng.integers(0, k, n),
        "val": rng.integers(0, g, n),
    }))
    sql = ("SELECT SUM(A.Val) s, B.Val FROM A, B WHERE A.ID = B.ID "
           "GROUP BY B.Val")
    tcu = TCUDBEngine(catalog).execute(sql)
    ydb = YDBEngine(catalog).execute(sql)
    got = {int(r[1]): r[0] for r in tcu.require_table().rows()}
    expected = {int(r[1]): r[0] for r in ydb.require_table().rows()}
    assert got.keys() == expected.keys()
    for group, total in expected.items():
        assert got[group] == pytest.approx(total, rel=1e-3)
