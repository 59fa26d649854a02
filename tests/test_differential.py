"""Differential suite: TCUDB and YDB against the Reference oracle.

A shared corpus of 50+ SQL queries — the 13 SSB flights, SSB variants
(MIN/MAX, AVG, HAVING, OR, single-table, arithmetic projections) and the
paper's Q1/Q3/Q4/Q5 micro patterns — executes through ReferenceEngine,
YDBEngine and TCUDBEngine; every engine must return the same sorted row
multiset within fp tolerance (TCUDB may take its fp16 path, hence the
looser relative tolerance there).
"""

from __future__ import annotations

import pytest

from differential_utils import assert_results_match, column_dtypes
from repro.bench.verify import TCU_REL
from repro.datasets.microbench import (
    QUERY_Q1,
    QUERY_Q3,
    QUERY_Q4,
    QUERY_Q5,
    microbench_catalog,
)
from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.workloads.ssb_queries import SSB_QUERIES

# TCUDB's adaptive-precision path may pick fp16 (TCU_REL); everything
# else is fp64.
EXACT_REL = 1e-9


# --------------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------------- #

SSB_VARIANTS: dict[str, str] = {
    # -- single-table shapes ------------------------------------------- #
    "single_projection": """
        SELECT lo_quantity, lo_discount FROM lineorder
        WHERE lo_quantity < 5;
    """,
    "single_expression": """
        SELECT lo_extendedprice * lo_discount AS spread FROM lineorder
        WHERE lo_discount BETWEEN 4 AND 6
        ORDER BY spread DESC LIMIT 20;
    """,
    "single_global_agg": """
        SELECT SUM(lo_revenue) AS r, COUNT(*) AS c, AVG(lo_quantity) AS q
        FROM lineorder;
    """,
    "single_min_max": """
        SELECT MIN(lo_supplycost) AS lo, MAX(lo_supplycost) AS hi
        FROM lineorder;
    """,
    "single_group_count": """
        SELECT d_year, COUNT(*) AS days FROM ddate
        GROUP BY d_year ORDER BY d_year;
    """,
    "single_group_min_max": """
        SELECT d_year, MIN(d_datekey) AS first_key, MAX(d_datekey) AS last_key
        FROM ddate GROUP BY d_year ORDER BY d_year;
    """,
    "single_having": """
        SELECT c_region, COUNT(*) AS n FROM customer
        GROUP BY c_region HAVING COUNT(*) > 20 ORDER BY n DESC, c_region;
    """,
    "single_group_avg": """
        SELECT p_mfgr, AVG(p_partkey) AS avg_key FROM part
        GROUP BY p_mfgr ORDER BY p_mfgr;
    """,
    "single_or_strings": """
        SELECT s_region FROM supplier
        WHERE s_region = 'ASIA' OR s_region = 'EUROPE';
    """,
    "single_or_numeric": """
        SELECT lo_orderkey FROM lineorder
        WHERE lo_quantity < 3 OR lo_quantity > 48
        ORDER BY lo_orderkey LIMIT 50;
    """,
    "single_profit": """
        SELECT SUM(lo_revenue - lo_supplycost) AS profit FROM lineorder
        WHERE lo_discount > 8;
    """,
    "single_group_strings": """
        SELECT d_yearmonth, COUNT(*) AS n FROM ddate
        WHERE d_year = 1994 GROUP BY d_yearmonth ORDER BY d_yearmonth;
    """,
    "single_having_two_keys": """
        SELECT c_nation, c_city, COUNT(*) AS n FROM customer
        GROUP BY c_nation, c_city HAVING COUNT(*) >= 2
        ORDER BY c_nation, c_city LIMIT 25;
    """,
    "single_group_no_agg": """
        SELECT lo_quantity FROM lineorder
        GROUP BY lo_quantity ORDER BY lo_quantity;
    """,
    # -- join variants -------------------------------------------------- #
    "join_min_max": """
        SELECT MIN(lo_extendedprice) AS m, MAX(lo_extendedprice) AS x
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1993;
    """,
    "join_avg": """
        SELECT AVG(lo_extendedprice * lo_discount) AS r
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1994
          AND lo_discount BETWEEN 1 AND 3;
    """,
    "join_having_sum": """
        SELECT SUM(lo_revenue) AS revenue, d_year
        FROM lineorder, ddate WHERE lo_orderdate = d_datekey
        GROUP BY d_year HAVING SUM(lo_revenue) > 0 ORDER BY d_year;
    """,
    "join_having_count": """
        SELECT d_year, COUNT(*) AS n
        FROM lineorder, ddate WHERE lo_orderdate = d_datekey
        GROUP BY d_year HAVING COUNT(*) > 100 ORDER BY n DESC, d_year;
    """,
    "join_cross_table_or": """
        SELECT lo_revenue, d_year FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey
          AND (d_year = 1995 OR lo_quantity < 2)
        ORDER BY lo_revenue DESC, d_year LIMIT 30;
    """,
    "join_local_or": """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1993
          AND (lo_discount < 2 OR lo_discount > 9);
    """,
    "join_projection_limit": """
        SELECT lo_orderkey, d_month FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199406
        ORDER BY lo_orderkey LIMIT 40;
    """,
    "nonequi_projection": """
        SELECT s_suppkey, c_custkey FROM supplier, customer
        WHERE s_suppkey < c_custkey AND c_custkey < 5;
    """,
    "nonequi_agg_fallback": """
        SELECT COUNT(*) AS pairs FROM supplier, customer
        WHERE s_suppkey < c_custkey AND c_custkey < 50;
    """,
    "chain_projection": """
        SELECT c_nation, s_nation FROM customer, lineorder, supplier
        WHERE c_custkey = lo_custkey AND lo_suppkey = s_suppkey
          AND c_region = 'EUROPE' AND s_region = 'ASIA'
        ORDER BY c_nation, s_nation LIMIT 50;
    """,
    "star_expression": """
        SELECT d_year, SUM(lo_extendedprice * lo_discount) AS rev
        FROM lineorder, ddate, supplier
        WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey
          AND s_region = 'AMERICA'
        GROUP BY d_year ORDER BY d_year;
    """,
    "sum_with_constant": """
        SELECT SUM(lo_revenue * 2) AS dbl FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1996;
    """,
    "sum_with_division": """
        SELECT SUM(lo_revenue / 100) AS hund FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 10;
    """,
    "output_arithmetic": """
        SELECT SUM(lo_revenue) - SUM(lo_supplycost) AS margin, d_year
        FROM lineorder, ddate WHERE lo_orderdate = d_datekey
        GROUP BY d_year ORDER BY d_year;
    """,
    "order_by_agg_expr": """
        SELECT SUM(lo_revenue) AS revenue, d_year
        FROM lineorder, ddate WHERE lo_orderdate = d_datekey
        GROUP BY d_year ORDER BY SUM(lo_revenue) DESC, d_year LIMIT 3;
    """,
    "in_lists_numeric": """
        SELECT COUNT(*) AS c FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year IN (1992, 1997)
          AND lo_quantity IN (1, 2, 3);
    """,
    "join_group_min_max": """
        SELECT d_year, MIN(lo_revenue) AS mn, MAX(lo_revenue) AS mx
        FROM lineorder, ddate WHERE lo_orderdate = d_datekey
        GROUP BY d_year ORDER BY d_year;
    """,
    "join_having_avg": """
        SELECT s_nation, AVG(lo_quantity) AS q
        FROM lineorder, supplier WHERE lo_suppkey = s_suppkey
        GROUP BY s_nation HAVING AVG(lo_quantity) > 20 ORDER BY s_nation;
    """,
    "q3_variant_years": """
        SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_region = 'AMERICA' AND s_region = 'ASIA'
          AND d_year BETWEEN 1995 AND 1996
        GROUP BY c_nation, s_nation, d_year
        ORDER BY d_year ASC, revenue DESC;
    """,
    "q4_variant_single_mfgr": """
        SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
          AND c_region = 'ASIA' AND s_region = 'ASIA'
          AND p_mfgr = 'MFGR#3'
        GROUP BY d_year, c_nation ORDER BY d_year, c_nation;
    """,
    "agg_limit": """
        SELECT COUNT(*) AS c FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey LIMIT 1;
    """,
    "q1_having_on_global": """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1993
          AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25
        HAVING COUNT(*) > 0;
    """,
    # -- zero-row / constant-folding shapes (dialect: ungrouped agg over
    #    zero rows returns one COUNT=0 row; grouped returns zero rows) -- #
    "empty_global_agg": """
        SELECT SUM(lo_revenue) AS s, COUNT(*) AS c, AVG(lo_quantity) AS q,
               MIN(lo_discount) AS mn, MAX(lo_discount) AS mx
        FROM lineorder WHERE lo_quantity > 999;
    """,
    "empty_join_global_agg": """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1888;
    """,
    "empty_grouped_agg": """
        SELECT d_year, SUM(lo_revenue) AS r FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND lo_quantity > 999
        GROUP BY d_year ORDER BY d_year;
    """,
    "negative_literal_filter": """
        SELECT COUNT(*) AS c FROM lineorder WHERE lo_quantity < -5;
    """,
    "negative_literal_range": """
        SELECT SUM(lo_revenue) AS s FROM lineorder
        WHERE lo_discount > -1 AND lo_quantity BETWEEN -10 AND 20;
    """,
}

MICRO_QUERIES: dict[str, str] = {
    "micro_q1": QUERY_Q1,
    "micro_q3": QUERY_Q3,
    "micro_q4": QUERY_Q4,
    "micro_q5": QUERY_Q5,
    "micro_q3_having": (
        "SELECT SUM(A.Val) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
        "GROUP BY B.Val HAVING SUM(A.Val) > 100 ORDER BY s DESC;"
    ),
    "micro_q5_agg": (
        "SELECT COUNT(*) AS pairs, MAX(A.Val) AS hi FROM A, B "
        "WHERE A.ID < B.ID;"
    ),
    "micro_single": (
        "SELECT A.ID, SUM(A.Val) AS s FROM A GROUP BY A.ID "
        "HAVING COUNT(*) >= 1 ORDER BY A.ID;"
    ),
}

CORPUS = (
    [("ssb", name, sql) for name, sql in sorted(SSB_QUERIES.items())]
    + [("ssb", name, sql) for name, sql in SSB_VARIANTS.items()]
    + [("micro", name, sql) for name, sql in MICRO_QUERIES.items()]
)


# Outputs typed by the oracle's rules, beyond the corpus the baseline
# charges pin (test_engines_baseline): a literal select item of an
# aggregate query is an INT64 column, not a float cast.
TYPED_OUTPUTS = [
    ("ssb", "literal_select_item",
     "SELECT d_year, 7 AS k, SUM(lo_revenue) AS rev FROM lineorder, ddate "
     "WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year;"),
]


def test_corpus_size():
    """The checklist demands a corpus of at least 50 queries."""
    assert len(CORPUS) >= 50


# --------------------------------------------------------------------------- #
# Engines (built once per module: TCUDB calibration is not free)
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def catalogs():
    return {
        "ssb": ssb_catalog(scale_factor=1, rows_per_sf=3000, seed=11),
        "micro": microbench_catalog(600, 24, seed=3),
    }


@pytest.fixture(scope="module")
def engines(catalogs):
    return {
        schema: {
            name: create_engine(name, catalog)
            for name in ("reference", "ydb", "tcudb")
        }
        for schema, catalog in catalogs.items()
    }


@pytest.mark.parametrize(
    "schema,name,sql", CORPUS + TYPED_OUTPUTS,
    ids=[f"{s}:{n}" for s, n, _ in CORPUS + TYPED_OUTPUTS],
)
def test_engines_match_oracle(engines, schema, name, sql):
    oracle = engines[schema]["reference"].execute(sql)
    ydb = engines[schema]["ydb"].execute(sql)
    tcu = engines[schema]["tcudb"].execute(sql)
    assert_results_match(ydb, oracle, rel=EXACT_REL, context=f"{name} (YDB)")
    assert_results_match(tcu, oracle, rel=TCU_REL, context=f"{name} (TCUDB)")
    expected = column_dtypes(oracle)
    assert column_dtypes(ydb) == expected, f"{name} (YDB)"
    assert column_dtypes(tcu) == expected, f"{name} (TCUDB)"


def test_corpus_exercises_both_tcu_paths(engines):
    """The corpus must cover native TCU execution *and* the fallback."""
    native, fallback = 0, 0
    for schema, _, sql in CORPUS:
        result = engines[schema]["tcudb"].execute(sql)
        if result.extra.get("fallback_reason"):
            fallback += 1
        else:
            native += 1
    assert native >= 10, f"only {native} corpus queries ran natively on TCU"
    assert fallback >= 10, f"only {fallback} corpus queries fell back"


def test_empty_global_aggregate_dialect(engines):
    """Dialect contract (docs/testing.md): a global aggregate over an
    empty input yields the standard single row — COUNT = 0, and (the
    storage layer being NULL-free) SUM/AVG/MIN/MAX = 0.0 where SQL
    would return NULL — and every engine agrees."""
    sql = ("SELECT SUM(lo_revenue) AS s, COUNT(*) AS c FROM lineorder "
           "WHERE lo_quantity > 999")
    for name in ("reference", "ydb", "tcudb"):
        result = engines["ssb"][name].execute(sql)
        assert result.n_rows == 1, name
        assert float(result.table.column("s").data[0]) == 0.0, name
        assert int(result.table.column("c").data[0]) == 0, name


def test_oracle_is_deterministic(engines):
    """Two oracle runs of the same query return identical rows."""
    sql = SSB_QUERIES["Q3.1"]
    first = engines["ssb"]["reference"].execute(sql)
    second = engines["ssb"]["reference"].execute(sql)
    assert_results_match(first, second, rel=0.0, context="oracle determinism")
