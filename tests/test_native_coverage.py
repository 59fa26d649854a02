"""Regression guard: HAVING and same-schema residual ORs stay native.

The TensorProgram refactor made two query classes first-class TCU
citizens instead of whole-query fallbacks:

* **HAVING-only** queries — star joins whose only "exotic" construct is
  a HAVING clause, lowered into the harvest of the aggregate output
  grid;
* **same-schema residual-OR** queries — cross-table OR conjuncts over
  tables already joined by the query, lowered into the operand fill
  over the folded fact side (aggregates) or the pair extraction
  (joins).

This suite is the CI tier-1 gate for that property: across a
differential corpus of both classes, **zero queries may report a
``pattern``-kind fallback** (a cost-based decline would be a pricing
bug at these catalog sizes and fails too), every query must carry an
inspectable generated program, and every result must equal the
ReferenceEngine oracle.
"""

from __future__ import annotations

import pytest

from differential_utils import assert_results_match
from repro.bench.verify import TCU_REL
from repro.datasets.microbench import microbench_catalog
from repro.datasets.ssb import ssb_catalog
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine

HAVING_ONLY = [
    # Star joins whose only obstacle is the HAVING clause.
    "SELECT SUM(A.Val) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
    "GROUP BY B.Val HAVING SUM(A.Val) > 500",
    "SELECT SUM(A.Val) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
    "GROUP BY B.Val HAVING COUNT(*) > 25",
    "SELECT COUNT(*) AS n, B.Val FROM A, B WHERE A.ID = B.ID "
    "GROUP BY B.Val HAVING AVG(A.Val) > 40 ORDER BY n DESC",
    "SELECT SUM(A.Val * 2) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
    "GROUP BY B.Val HAVING SUM(A.Val) > 200 AND COUNT(*) > 10",
]

SSB_HAVING_ONLY = [
    "SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder, ddate "
    "WHERE lo_orderdate = d_datekey GROUP BY d_year "
    "HAVING SUM(lo_revenue) > 1000000 ORDER BY d_year",
    "SELECT c_region, COUNT(*) AS n FROM lineorder, customer "
    "WHERE lo_custkey = c_custkey GROUP BY c_region "
    "HAVING COUNT(*) > 100 ORDER BY c_region",
    "SELECT d_year, c_region, SUM(lo_revenue) AS rev "
    "FROM lineorder, ddate, customer "
    "WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey "
    "GROUP BY d_year, c_region HAVING SUM(lo_revenue) > 500000 "
    "ORDER BY d_year, c_region",
]

RESIDUAL_OR = [
    # Cross-table ORs over tables the query already joins.
    "SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID "
    "AND (A.Val > 15 OR B.Val < 5)",
    "SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID "
    "AND (A.Val < 10 OR B.Val > 20) ORDER BY A.Val DESC LIMIT 10",
]

SSB_RESIDUAL_OR = [
    "SELECT c_region, SUM(lo_revenue) AS rev "
    "FROM lineorder, customer, ddate "
    "WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey "
    "AND (lo_quantity < 10 OR d_year > 1995) "
    "GROUP BY c_region ORDER BY c_region",
    "SELECT d_year, SUM(lo_extendedprice) AS v "
    "FROM lineorder, ddate, supplier "
    "WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey "
    "AND (lo_discount > 5 OR s_region = 'ASIA') "
    "GROUP BY d_year ORDER BY d_year",
]


@pytest.fixture(scope="module")
def micro_engines():
    catalog = microbench_catalog(700, 24, seed=3)
    return TCUDBEngine(catalog), ReferenceEngine(catalog)


@pytest.fixture(scope="module")
def ssb_engines():
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)
    return TCUDBEngine(catalog), ReferenceEngine(catalog)


def _assert_native(tcu_engine, oracle_engine, sql):
    run = tcu_engine.execute(sql)
    reason = run.extra.get("fallback_reason")
    kind = run.extra.get("fallback_kind")
    assert kind != "pattern", (
        f"pattern-rejection fallback for a native-class query: "
        f"{reason!r}\n  query: {sql}"
    )
    assert not reason, (
        f"native-class query left the TCU path ({kind}: {reason!r})\n"
        f"  query: {sql}"
    )
    # Every TCU-executed query carries an inspectable generated program.
    assert run.extra.get("generated_code") is not None, sql
    assert run.extra.get("program_listing"), sql
    assert_results_match(run, oracle_engine.execute(sql), rel=TCU_REL,
                         context=sql)


@pytest.mark.parametrize("sql", HAVING_ONLY)
def test_having_only_micro(micro_engines, sql):
    _assert_native(*micro_engines, sql)


@pytest.mark.parametrize("sql", SSB_HAVING_ONLY)
def test_having_only_ssb(ssb_engines, sql):
    _assert_native(*ssb_engines, sql)


@pytest.mark.parametrize("sql", RESIDUAL_OR)
def test_residual_or_micro(micro_engines, sql):
    _assert_native(*micro_engines, sql)


@pytest.mark.parametrize("sql", SSB_RESIDUAL_OR)
def test_residual_or_ssb(ssb_engines, sql):
    _assert_native(*ssb_engines, sql)


def test_native_classes_report_zero_pattern_fallbacks(
    micro_engines, ssb_engines
):
    """The aggregate count the CI step gates on: 0 pattern rejections
    across the full corpus of both classes."""
    pattern_rejections = []
    for engines, corpus in (
        (micro_engines, HAVING_ONLY + RESIDUAL_OR),
        (ssb_engines, SSB_HAVING_ONLY + SSB_RESIDUAL_OR),
    ):
        tcu_engine, _ = engines
        for sql in corpus:
            run = tcu_engine.execute(sql)
            if run.extra.get("fallback_kind") == "pattern":
                pattern_rejections.append(
                    (sql, run.extra.get("fallback_reason"))
                )
    assert pattern_rejections == []
