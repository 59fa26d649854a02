"""Chaos experiment: injected fault rates vs serving resilience.

Sweeps a deterministic :class:`~repro.common.faults.FaultPlan` over the
fault-tolerant serving stack — poisoned cache entries, transient
errors and unavailable backends, each at a per-site probability
derived from the swept rate — and records, per rate:

* **success-rate** — fraction of submitted queries that returned a
  result at the default retry budget (the acceptance bar is 1.0: every
  injected fault class is recoverable, so retries + the degradation
  ladder must always converge);
* **availability** — fraction whose *rows* equal the Reference oracle's
  (a degraded answer must still be exact, not approximate).

The fault plan is seeded, so a failing rate reproduces exactly, and
neither column depends on the machine.  Each rate's p99 host latency is
recorded in a note only: host time is ``perfbench/``'s to measure.
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentResult
from repro.bench.scale import ScaleProfile
from repro.bench.verify import OracleVerifier, result_rows, rows_match
from repro.bench.verify import TCU_REL
from repro.common.faults import (
    SITE_CACHE_GET,
    SITE_SESSION_RUN,
    FaultPlan,
    FaultRule,
    inject,
)
from repro.datasets.ssb import ssb_catalog
from repro.engine.reference import ReferenceEngine
from repro.serve.server import QueryServer

#: Chaos plan seed (pinned so bench failures replay exactly).
CHAOS_SEED = 1306

# One join+aggregate (a GEMM grid) and one filter+aggregate (chunk
# pruning in play).
JOIN_AGG_SQL = """
    SELECT d_year, SUM(lo_revenue) AS rev, COUNT(*) AS orders
    FROM lineorder, ddate
    WHERE lo_orderdate = d_datekey
    GROUP BY d_year;"""
SCAN_AGG_SQL = """
    SELECT SUM(lo_extendedprice * lo_discount) AS revenue
    FROM lineorder
    WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25;"""


def _plan_for(rate: float, index: int) -> FaultPlan:
    """The deterministic fault mix for one swept rate: poisoned cache
    hits at the full rate, transient query errors at half, backend
    unavailability at a quarter — all recoverable."""
    return FaultPlan([
        FaultRule(site=SITE_CACHE_GET, kind="poison", p=rate),
        FaultRule(site=SITE_SESSION_RUN, kind="transient", p=rate / 2),
        FaultRule(site=SITE_SESSION_RUN, kind="unavailable", p=rate / 4),
    ], seed=CHAOS_SEED + index)


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    index = min(max(int(-(-0.99 * len(ordered) // 1)) - 1, 0),
                len(ordered) - 1)
    return ordered[index]


def run_chaos(
    rows: int | None = None, seed: int = 47, *,
    profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """Fault-rate sweep: success rate and oracle-exact availability."""
    if rows is None:
        rows = profile.chaos_rows if profile else 12_000
    rates = list(profile.chaos_fault_rates if profile else (0.0, 0.1, 0.3))
    queries = profile.chaos_queries if profile else 6
    reps = profile.chaos_reps if profile else 2
    result = ExperimentResult(
        "chaos_resilience",
        "Injected fault rate vs serving resilience: success rate and "
        "oracle-exact availability must hold 1.0",
        unit="ratio",
    )
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=rows, seed=seed)
    oracle = ReferenceEngine(catalog)
    workload = [JOIN_AGG_SQL, SCAN_AGG_SQL] * queries
    expected = {sql: result_rows(oracle.execute(sql)) for sql in set(workload)}

    server = QueryServer(catalog, engine="tcudb", max_concurrent=2)
    try:
        session = server.session()
        with inject(None):  # warm the program cache fault-free
            for sql in set(workload):
                session.execute(sql)

        for index, rate in enumerate(rates):
            plan = _plan_for(rate, index)
            latencies, succeeded, correct = [], 0, 0
            with inject(plan):
                for sql in workload:
                    best = None
                    run = None
                    for _ in range(reps):
                        started = time.perf_counter()
                        try:
                            run = session.execute(sql)
                        except Exception:
                            run = None
                            continue
                        elapsed = time.perf_counter() - started
                        best = elapsed if best is None else min(best, elapsed)
                    if run is None or best is None:
                        continue
                    succeeded += 1
                    latencies.append(best)
                    if rows_match(result_rows(run), expected[sql],
                                  rel=TCU_REL) is None:
                        correct += 1
            total = len(workload)
            success_rate = succeeded / total
            availability = correct / total
            p99 = _p99(latencies) if latencies else float("inf")

            config = f"fault_rate={rate}"
            p_success = result.add(config, "success-rate", success_rate)
            p_avail = result.add(config, "availability", availability)
            if verifier is not None:
                verifier.verify_check(
                    p_success, success_rate == 1.0, "oracle",
                    f"{succeeded}/{total} queries returned at the "
                    f"default retry budget",
                )
                verifier.verify_check(
                    p_avail, availability == 1.0, "oracle",
                    f"{correct}/{total} answers row-identical to the "
                    f"Reference oracle (degraded answers stay exact)",
                )
            result.notes.append(
                f"fault_rate={rate}: injected "
                + ", ".join(
                    f"{r['site']}:{r['kind']} x{r['fires']}"
                    for r in plan.stats()["rules"]
                )
                + f"; host p99 {p99 * 1e3:.2f} ms"
            )
        stats = server.resilience_stats()["queries"]
        result.notes.append(
            f"server recovery ledger: retried={stats['retried']}, "
            f"degraded={stats['degraded']}, failed={stats['failed']}; "
            f"breaker={server.breaker.snapshot()['state']}"
        )
    finally:
        server.close()
    result.notes.append(
        f"rows_per_sf={rows}, "
        f"queries_per_rate={len(workload)}, repeats={reps}, "
        f"plan_seed={CHAOS_SEED}; host p99 is over each query's best of "
        f"{reps} runs on the same warmed server"
    )
    return result
