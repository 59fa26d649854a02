"""Figure 8(a-c): Q1/Q3/Q4 vs number of distinct join values (n=4096)."""

import pytest

from repro.bench import run_fig8
from repro.datasets.microbench import QUERY_Q3, microbench_catalog
from repro.engine.base import ExecutionMode
from repro.engine.ydb import YDBEngine


@pytest.mark.parametrize("query", ["q1", "q3", "q4"])
def test_fig8_series(print_series, benchmark, bench_profile, verifier, query):
    result = run_fig8(query, profile=bench_profile, verifier=verifier)
    print_series(result)
    if query == "q1":
        if bench_profile.name == "paper":
            # The dense TCU join's matrices grow with the key domain; by
            # k=4096 it sits at/near the YDB crossover (paper Section 5.2).
            low = result.find("4096,32", "TCUDB").normalized
            high = result.find("4096,4096", "TCUDB").normalized
            assert high > 3 * low
        else:
            # The cost still rises monotonically with the key domain.
            configs = result.configs()
            assert (result.find(configs[-1], "TCUDB").normalized
                    > result.find(configs[0], "TCUDB").normalized)
    else:
        # Q3/Q4 use the compact grouped construction, so TCUDB stays
        # ahead of YDB across the whole sweep (docs/benchmarking.md §
        # Known divergences: the paper's tuple-rows series).
        for config in result.configs():
            assert (result.find(config, "TCUDB").normalized
                    < result.find(config, "YDB").normalized)
    catalog = microbench_catalog(4096, 1024, seed=8)
    engine = YDBEngine(catalog, mode=ExecutionMode.ANALYTIC)
    benchmark(lambda: engine.execute(QUERY_Q3))
