"""Workload drivers: SSB, PageRank, entity matching, matmul query."""

from repro.workloads.em_blocking import (
    BEER_ATTRIBUTES,
    ITUNES_ATTRIBUTES,
    beer_blocking_query,
    blocking_query,
    itunes_blocking_query,
)
from repro.workloads.matmul_query import (
    mape,
    reference_matrix_product,
    result_as_matrix,
    run_matmul_query,
)
from repro.workloads.pagerank import (
    DEFAULT_ALPHA,
    PR_Q1,
    PR_Q2,
    PR_Q3,
    PR_Q3_PER_NODE,
    reference_pagerank,
    sql_pagerank,
)
from repro.workloads.ssb_queries import FLIGHT_REPRESENTATIVES, SSB_QUERIES

__all__ = [
    "BEER_ATTRIBUTES",
    "DEFAULT_ALPHA",
    "FLIGHT_REPRESENTATIVES",
    "ITUNES_ATTRIBUTES",
    "PR_Q1",
    "PR_Q2",
    "PR_Q3",
    "PR_Q3_PER_NODE",
    "SSB_QUERIES",
    "beer_blocking_query",
    "blocking_query",
    "itunes_blocking_query",
    "mape",
    "reference_matrix_product",
    "reference_pagerank",
    "result_as_matrix",
    "run_matmul_query",
    "sql_pagerank",
]
