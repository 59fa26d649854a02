"""Chaos serving: injected fault rate vs resilience
(docs/operations.md § Chaos testing)."""

from repro.bench import run_chaos
from repro.bench.exp_chaos import JOIN_AGG_SQL
from repro.common.faults import FaultPlan, FaultRule, SITE_CACHE_GET, inject
from repro.datasets.ssb import ssb_catalog
from repro.serve import QueryServer


def test_chaos_resilience(print_series, benchmark, bench_profile, verifier):
    result = run_chaos(profile=bench_profile, verifier=verifier)
    print_series(result)
    # The acceptance bar: every injected fault class is recoverable, so
    # success rate AND oracle-exact availability hold 1.0 at every swept
    # fault rate under the default retry budget.
    for rate in bench_profile.chaos_fault_rates:
        config = f"fault_rate={rate}"
        assert result.find(config, "success-rate").seconds == 1.0
        assert result.find(config, "availability").seconds == 1.0
    # Every recovery converged: the server ledger records no failed query.
    ledger = [n for n in result.notes if "recovery ledger" in n]
    assert ledger, "experiment must report the server recovery ledger"
    assert "failed=0" in ledger[0]

    catalog = ssb_catalog(scale_factor=1,
                          rows_per_sf=bench_profile.chaos_rows, seed=47)
    server = QueryServer(catalog, engine="tcudb", max_concurrent=2)
    try:
        session = server.session()
        session.execute(JOIN_AGG_SQL)  # warm the program cache
        plan = FaultPlan(
            [FaultRule(site=SITE_CACHE_GET, kind="poison", every=3)],
            seed=1306,
        )
        with inject(plan):
            benchmark(lambda: session.execute(JOIN_AGG_SQL))
    finally:
        server.close()
