"""The 13 Star Schema Benchmark queries (4 flights).

Written in the engine's dialect: comma joins, conjunctive WHERE, IN-lists
in place of OR disjunctions.  TCUDB supports all 13 (Section 5.3); the
baseline engines execute them through the relational plan.
"""

from __future__ import annotations

SSB_QUERIES: dict[str, str] = {
    # -- Flight 1: revenue gained from discount/quantity windows -------- #
    "Q1.1": """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey
          AND d_year = 1993
          AND lo_discount BETWEEN 1 AND 3
          AND lo_quantity < 25;
    """,
    "Q1.2": """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey
          AND d_yearmonthnum = 199401
          AND lo_discount BETWEEN 4 AND 6
          AND lo_quantity BETWEEN 26 AND 35;
    """,
    "Q1.3": """
        SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey
          AND d_weeknuminyear = 6
          AND d_year = 1994
          AND lo_discount BETWEEN 5 AND 7
          AND lo_quantity BETWEEN 26 AND 35;
    """,
    # -- Flight 2: revenue by brand over years -------------------------- #
    "Q2.1": """
        SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey
          AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey
          AND p_category = 'MFGR#12'
          AND s_region = 'AMERICA'
        GROUP BY d_year, p_brand1
        ORDER BY d_year, p_brand1;
    """,
    "Q2.2": """
        SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey
          AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey
          AND p_brand1 IN ('MFGR#2221', 'MFGR#2222', 'MFGR#2223',
                           'MFGR#2224', 'MFGR#2225', 'MFGR#2226',
                           'MFGR#2227', 'MFGR#2228')
          AND s_region = 'ASIA'
        GROUP BY d_year, p_brand1
        ORDER BY d_year, p_brand1;
    """,
    "Q2.3": """
        SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey
          AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey
          AND p_brand1 = 'MFGR#2239'
          AND s_region = 'EUROPE'
        GROUP BY d_year, p_brand1
        ORDER BY d_year, p_brand1;
    """,
    # -- Flight 3: revenue by customer/supplier geography ---------------- #
    "Q3.1": """
        SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_region = 'ASIA'
          AND s_region = 'ASIA'
          AND d_year BETWEEN 1992 AND 1997
        GROUP BY c_nation, s_nation, d_year
        ORDER BY d_year ASC, revenue DESC;
    """,
    "Q3.2": """
        SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_nation = 'AMERICA_N3'
          AND s_nation = 'AMERICA_N3'
          AND d_year BETWEEN 1992 AND 1997
        GROUP BY c_city, s_city, d_year
        ORDER BY d_year ASC, revenue DESC;
    """,
    "Q3.3": """
        SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND s_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND d_year BETWEEN 1992 AND 1997
        GROUP BY c_city, s_city, d_year
        ORDER BY d_year ASC, revenue DESC;
    """,
    "Q3.4": """
        SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND s_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND d_yearmonth = 'Dec1997'
        GROUP BY c_city, s_city, d_year
        ORDER BY d_year ASC, revenue DESC;
    """,
    # -- Flight 4: profit drill-down -------------------------------------- #
    "Q4.1": """
        SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey
          AND lo_orderdate = d_datekey
          AND c_region = 'AMERICA'
          AND s_region = 'AMERICA'
          AND p_mfgr IN ('MFGR#1', 'MFGR#2')
        GROUP BY d_year, c_nation
        ORDER BY d_year, c_nation;
    """,
    "Q4.2": """
        SELECT d_year, s_nation, p_category,
               SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey
          AND lo_orderdate = d_datekey
          AND c_region = 'AMERICA'
          AND s_region = 'AMERICA'
          AND d_year IN (1997, 1998)
          AND p_mfgr IN ('MFGR#1', 'MFGR#2')
        GROUP BY d_year, s_nation, p_category
        ORDER BY d_year, s_nation, p_category;
    """,
    "Q4.3": """
        SELECT d_year, s_city, p_brand1,
               SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey
          AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey
          AND lo_orderdate = d_datekey
          AND s_nation = 'AMERICA_N3'
          AND d_year IN (1997, 1998)
          AND p_category = 'MFGR#14'
        GROUP BY d_year, s_city, p_brand1
        ORDER BY d_year, s_city, p_brand1;
    """,
}

FLIGHT_REPRESENTATIVES = ("Q1.1", "Q2.1", "Q3.1", "Q4.1")
