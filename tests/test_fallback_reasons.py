"""Fallback and native-coverage contracts of the TensorProgram pipeline.

Constructs truly beyond matmul expressiveness (MIN/MAX, single-table
projections) must (a) populate ``result.extra["fallback_reason"]`` with
``fallback_kind == "pattern"`` and (b) still return the oracle's answer
through the YDB fallback path.  Constructs the operator pipeline now
covers natively — HAVING masks, cross-table residual ORs, non-star join
graphs and duplicate-key dimensions via hybrid execution — must *not*
report a pattern rejection; on tiny catalogs the optimizer may still
decline by cost (``fallback_kind == "cost"``), which is a pricing
decision, not an expressiveness gap.  Also holds the regression test
for the `_order_index` bug: ORDER BY keys that name an aliased
aggregate output by expression used to be silently skipped, reordering
LIMIT results.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match, result_rows
from repro.common.errors import ExecutionError, UnsupportedQueryError
from repro.datasets.microbench import microbench_catalog
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb.engine import TCUDBEngine
from repro.storage import Catalog, Table


def run_both(catalog, sql):
    tcu = TCUDBEngine(catalog).execute(sql)
    oracle = ReferenceEngine(catalog).execute(sql)
    return tcu, oracle


@pytest.fixture
def chain4_catalog(rng):
    """Four tables joined in a chain — no star center exists."""
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
        "k3": rng.integers(0, 4, 25),
    }))
    catalog.register(Table.from_dict("t4", {
        "k3": rng.integers(0, 4, 20),
        "g": rng.integers(0, 3, 20),
    }))
    return catalog


@pytest.fixture
def dup_dim_catalog(rng):
    """A star whose second dimension has duplicate join keys *and*
    contributes a group column."""
    catalog = Catalog()
    catalog.register(Table.from_dict("f", {
        "kb": rng.integers(0, 8, 60),
        "kd": rng.integers(0, 5, 60),
        "v": rng.integers(0, 30, 60).astype(float),
    }))
    catalog.register(Table.from_dict("b", {
        "kb": np.arange(8),
        "gb": rng.integers(0, 3, 8),
    }))
    catalog.register(Table.from_dict("d", {
        "kd": rng.integers(0, 5, 12),  # duplicates
        "gd": rng.integers(0, 2, 12),
    }))
    return catalog


class TestFallbackReasons:
    def test_min_max(self, small_catalog):
        tcu, oracle = run_both(
            small_catalog,
            "SELECT MIN(a.val) AS m, MAX(a.val) AS x "
            "FROM a, b WHERE a.id = b.id",
        )
        assert "beyond TCU expressiveness" in tcu.extra["fallback_reason"]
        assert tcu.extra["executed_by"] == "YDB-fallback"
        assert tcu.extra["fallback_kind"] == "pattern"
        assert_results_match(tcu, oracle)

    def test_cross_table_or_runs_natively(self):
        """Residual ORs lower into the pair extraction — native TCU
        execution, not a whole-query fallback."""
        catalog = microbench_catalog(700, 24, seed=3)
        tcu, oracle = run_both(
            catalog,
            "SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID "
            "AND (A.Val > 15 OR B.Val < 5)",
        )
        assert not tcu.extra.get("fallback_reason")
        assert tcu.extra["executed_by"] == "TCU"
        assert_results_match(tcu, oracle, rel=1e-3)

    def test_cross_table_or_tiny_catalog_is_cost_not_pattern(
        self, small_catalog
    ):
        """On a 5-row catalog the optimizer may decline by cost — but the
        rejection must be priced, never a pattern gap."""
        tcu, oracle = run_both(
            small_catalog,
            "SELECT a.val, b.val FROM a, b WHERE a.id = b.id "
            "AND (a.val > 15 OR b.val = 'x')",
        )
        if tcu.extra.get("fallback_reason"):
            assert tcu.extra["fallback_kind"] == "cost"
        assert_results_match(tcu, oracle)

    def test_single_table_or_still_matches(self, small_catalog):
        """Same-table ORs are plain filter masks — no fallback required,
        but the answer must match either way."""
        tcu, oracle = run_both(
            small_catalog,
            "SELECT a.val, b.val FROM a, b WHERE a.id = b.id "
            "AND (a.val < 8 OR a.val > 25)",
        )
        assert_results_match(tcu, oracle)

    def test_non_star_join_graph_runs_hybrid(self, chain4_catalog):
        """Chain joins feeding an aggregate are beyond the star pattern
        but run hybrid: PhysicalExecutor pre-stage + TCU grouped reduce."""
        tcu, oracle = run_both(
            chain4_catalog,
            "SELECT SUM(t1.v) AS s, t4.g FROM t1, t2, t3, t4 "
            "WHERE t1.k1 = t2.k1 AND t2.k2 = t3.k2 AND t3.k3 = t4.k3 "
            "GROUP BY t4.g ORDER BY t4.g",
        )
        assert not tcu.extra.get("fallback_reason")
        assert tcu.extra["executed_by"] == "TCU-hybrid"
        assert_results_match(tcu, oracle, rel=1e-3)

    def test_duplicate_key_dim_with_group_column_runs_hybrid(
        self, dup_dim_catalog
    ):
        """The pattern program rejects duplicate-key dimensions at run
        time; the engine retries through the hybrid pipeline."""
        tcu, oracle = run_both(
            dup_dim_catalog,
            "SELECT SUM(f.v) AS s, b.gb, d.gd FROM f, b, d "
            "WHERE f.kb = b.kb AND f.kd = d.kd "
            "GROUP BY b.gb, d.gd ORDER BY b.gb, d.gd",
        )
        assert not tcu.extra.get("fallback_reason")
        assert tcu.extra["executed_by"] == "TCU-hybrid"
        assert_results_match(tcu, oracle, rel=1e-3)

    def test_having_runs_natively(self):
        """HAVING lowers into the aggregate grid's harvest."""
        catalog = microbench_catalog(700, 24, seed=3)
        tcu, oracle = run_both(
            catalog,
            "SELECT SUM(A.Val) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
            "GROUP BY B.Val HAVING SUM(A.Val) > 500",
        )
        assert not tcu.extra.get("fallback_reason")
        assert tcu.extra["executed_by"] == "TCU"
        assert_results_match(tcu, oracle, rel=1e-3)

    def test_having_aggregate_not_in_select(self):
        """HAVING over an aggregate absent from the select list appends
        an extra AggregateSpec (extra grid) instead of falling back."""
        catalog = microbench_catalog(700, 24, seed=3)
        tcu, oracle = run_both(
            catalog,
            "SELECT SUM(A.Val) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
            "GROUP BY B.Val HAVING COUNT(*) > 25",
        )
        assert not tcu.extra.get("fallback_reason")
        assert_results_match(tcu, oracle, rel=1e-3)

    def test_single_table(self, small_catalog):
        tcu, oracle = run_both(
            small_catalog, "SELECT a.val FROM a WHERE a.val > 6"
        )
        assert "single-table" in tcu.extra["fallback_reason"]
        assert tcu.extra["fallback_kind"] == "pattern"
        assert_results_match(tcu, oracle)

    def test_group_by_without_aggregates_runs_hybrid(self):
        catalog = microbench_catalog(700, 24, seed=3)
        tcu, oracle = run_both(
            catalog,
            "SELECT B.Val FROM A, B WHERE A.ID = B.ID GROUP BY B.Val "
            "ORDER BY B.Val",
        )
        assert not tcu.extra.get("fallback_reason")
        assert tcu.extra["executed_by"] == "TCU-hybrid"
        assert_results_match(tcu, oracle)

    def test_disable_fallback_raises_for_every_reason(self, small_catalog):
        from repro.engine.tcudb import TCUDBOptions

        engine = TCUDBEngine(
            small_catalog, options=TCUDBOptions(disable_fallback=True)
        )
        for sql in (
            "SELECT MIN(a.val) AS m FROM a, b WHERE a.id = b.id",
            "SELECT a.val FROM a",
            "SELECT SUM(a.val) AS s, b.val FROM a, b WHERE a.id = b.id "
            "GROUP BY b.val HAVING COUNT(*) > 1",
        ):
            with pytest.raises(UnsupportedQueryError):
                engine.execute(sql)


class TestOrderByAliasedAggregate:
    """Regression for TCUDBEngine._order_index (silently skipped keys)."""

    @pytest.fixture
    def catalog(self):
        return microbench_catalog(700, 24, seed=3)

    def test_order_by_aggregate_expression_with_limit(self, catalog):
        # ORDER BY names the aggregate *expression* while the select list
        # aliases it: the old resolution returned None and silently kept
        # the unsorted group order, so LIMIT returned the wrong groups.
        sql = (
            "SELECT SUM(A.Val) AS s, B.Val AS g FROM A, B "
            "WHERE A.ID = B.ID GROUP BY B.Val "
            "ORDER BY SUM(A.Val) DESC LIMIT 2"
        )
        tcu = TCUDBEngine(catalog).execute(sql)
        oracle = ReferenceEngine(catalog).execute(sql)
        got = tcu.require_table().rows()
        expected = oracle.require_table().rows()
        assert len(got) == len(expected) == 2
        sums = [row[0] for row in got]
        assert sums == sorted(sums, reverse=True)
        for g_row, e_row in zip(got, expected):
            assert g_row[0] == pytest.approx(e_row[0], rel=1e-3)
            assert g_row[1] == e_row[1]

    def test_order_by_alias_on_tcu_path(self, catalog):
        sql = (
            "SELECT SUM(A.Val) AS s, B.Val AS g FROM A, B "
            "WHERE A.ID = B.ID GROUP BY B.Val ORDER BY s DESC LIMIT 3"
        )
        tcu = TCUDBEngine(catalog).execute(sql)
        oracle = ReferenceEngine(catalog).execute(sql)
        got = [row[1] for row in tcu.require_table().rows()]
        expected = [row[1] for row in oracle.require_table().rows()]
        assert got == expected

    def test_unresolvable_order_key_raises(self, catalog):
        # The old except-everything clause swallowed resolution failures
        # and silently skipped the key; it must now raise on every path.
        with pytest.raises(ExecutionError):
            TCUDBEngine(catalog).execute(
                "SELECT A.Val AS v FROM A, B WHERE A.ID = B.ID "
                "ORDER BY B.Val"
            )

    def test_oracle_rejects_unknown_order_key(self, catalog):
        with pytest.raises(ExecutionError):
            ReferenceEngine(catalog).execute(
                "SELECT A.Val AS v FROM A, B WHERE A.ID = B.ID "
                "ORDER BY B.Val"
            )


class TestFallbackCoverageMatrix:
    """One sweep asserting rejection kind + oracle match for the catalog
    of fallback classes the compiler can produce."""

    def test_pattern_rejections_name_the_construct(self, small_catalog):
        cases = {
            "SELECT a.val FROM a": "single-table",
            "SELECT MIN(a.val) AS m FROM a, b WHERE a.id = b.id":
                "beyond TCU expressiveness",
        }
        oracle_engine = ReferenceEngine(small_catalog)
        tcu_engine = TCUDBEngine(small_catalog)
        seen = set()
        for sql, fragment in cases.items():
            tcu = tcu_engine.execute(sql)
            reason = tcu.extra.get("fallback_reason", "")
            assert fragment in reason, (sql, reason)
            assert tcu.extra["fallback_kind"] == "pattern", (sql, reason)
            seen.add(reason)
            assert result_rows(tcu) == result_rows(oracle_engine.execute(sql))
        assert len(seen) == len(cases)

    def test_priced_rejections_are_cost_kind(self, small_catalog):
        """Shapes the pipeline expresses (HAVING masks, non-product
        arguments via hybrid) only fall back by pricing on this 5-row
        catalog — and still match the oracle."""
        cases = [
            "SELECT SUM(a.val % 3) AS s, b.val FROM a, b "
            "WHERE a.id = b.id GROUP BY b.val",
            "SELECT SUM(a.val) AS s, b.val FROM a, b WHERE a.id = b.id "
            "GROUP BY b.val HAVING COUNT(*) > 1",
        ]
        oracle_engine = ReferenceEngine(small_catalog)
        tcu_engine = TCUDBEngine(small_catalog)
        for sql in cases:
            tcu = tcu_engine.execute(sql)
            if tcu.extra.get("fallback_reason"):
                assert tcu.extra["fallback_kind"] == "cost", sql
            assert result_rows(tcu) == result_rows(oracle_engine.execute(sql))
