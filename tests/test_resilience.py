"""Fault-tolerant serving: injection, retry/failover, degradation.

The load-bearing test is the chaos differential fuzz sweep: the seeded
SSB query generator (shared with ``test_fuzz_queries``) emits 50+
queries, each executed on a distributed engine (2 and 4 shards) under
an injected fault plan — transient shard errors plus corrupted grid
partials — and every answer must be row-identical to the fault-free
run and the Reference oracle.  Unit classes pin the individual
contracts: fault-plan parsing/determinism, retry backoff, the
circuit-breaker state machine, program cache poisoning, graceful degradation to single-node and to the
reference fallback, server close/cancel semantics, load shedding, and
the error taxonomy (no raw non-ReproError ever escapes the server).
"""

from __future__ import annotations

import threading
import time

import pytest

from differential_utils import assert_results_match
from test_count_slot import MATMUL_SQL, assert_is_product, matmul_product
from test_fuzz_queries import FUZZ_SEED, QueryGenerator
from test_serve import BlockingEngine
from repro.common.errors import (
    AdmissionError,
    BackendUnavailable,
    ConfigError,
    CorruptPartialError,
    ExecutionError,
    InternalError,
    PoisonedTemplateError,
    QueryCancelled,
    ReproError,
    ResilienceExhausted,
    ServerClosed,
    TransientShardError,
)
from repro.common.faults import (
    DEFAULT_FAULT_SEED,
    SITE_CACHE_GET,
    SITE_GRID_ACCUMULATE,
    SITE_SESSION_RUN,
    SITE_SHARD_EXECUTE,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_fault_plan,
    corrupt_array,
    fault_point,
    inject,
    parse_fault_plan,
    set_fault_plan,
    suppress,
)
from repro.common.rng import make_rng
from repro.datasets.matmul import matmul_catalog
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.cache import ProgramCache
from repro.engine.parallel import (
    RetryPolicy,
    CancellationToken,
    call_with_retries,
    is_retryable,
)
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import DistributedEngine, TCUDBEngine, TCUDBOptions
from repro.serve import CircuitBreaker, QueryBudget, QueryServer, Session

TCU_REL = 2e-3
N_FUZZ_QUERIES = 50

FACT_KW = {"fact": "lineorder", "partition_key": "lo_orderkey"}

AGG_SQL = ("SELECT SUM(lo_revenue) AS r, d_year FROM lineorder, ddate "
           "WHERE lo_orderdate = d_datekey GROUP BY d_year")
MIN_SQL = ("SELECT MIN(lo_revenue) AS r, d_year FROM lineorder, ddate "
           "WHERE lo_orderdate = d_datekey GROUP BY d_year")


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


@pytest.fixture(scope="module")
def oracle(catalog):
    return ReferenceEngine(catalog)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends without an installed fault plan."""
    clear_fault_plan()
    yield
    clear_fault_plan()


def dist_engine(catalog, shards, **kwargs):
    return DistributedEngine(catalog, shards=shards,
                             mode=ExecutionMode.REAL, **FACT_KW, **kwargs)


# --------------------------------------------------------------------- #
# Fault-plan units
# --------------------------------------------------------------------- #

class TestFaultPlan:
    def test_parse_seed_and_knobs(self):
        plan = parse_fault_plan(
            "seed=7; shard.execute:transient:every=3;"
            "session.run:unavailable:p=0.5,max=2"
        )
        assert plan.seed == 7
        every, proba = plan.rules
        assert (every.site, every.kind, every.every) == (
            SITE_SHARD_EXECUTE, "transient", 3)
        assert (proba.p, proba.max_fires) == (0.5, 2)

    @pytest.mark.parametrize("spec", [
        "shard.execute",                       # no kind
        "nowhere:transient",                   # unknown site
        "shard.execute:explode",               # unknown kind
        "shard.execute:transient:p=2.0",       # probability out of range
        "shard.execute:transient:every=0",     # bad period
        "shard.execute:transient:bogus=1",     # unknown knob
        "shard.execute:transient:every=x",     # non-numeric value
        "shard.execute:slow",                  # removed kind
        "shard.execute:transient:delay=0.1",   # removed knob
        "seed=abc",                            # bad seed
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_fault_plan(spec)

    def test_every_rule_never_fires_twice_in_a_row(self):
        rule = FaultRule(site=SITE_SHARD_EXECUTE, kind="transient", every=3)
        plan = FaultPlan([rule])
        fired = [bool(plan.fired_rules(SITE_SHARD_EXECUTE))
                 for _ in range(12)]
        assert fired == [False, False, True] * 4
        assert not any(a and b for a, b in zip(fired, fired[1:]))

    def test_n_and_max_fires(self):
        plan = FaultPlan([FaultRule(site=SITE_CACHE_GET, kind="poison",
                                    n=2)])
        fired = [bool(plan.fired_rules(SITE_CACHE_GET)) for _ in range(4)]
        assert fired == [True, True, False, False]
        capped = FaultPlan([FaultRule(site=SITE_CACHE_GET, kind="poison",
                                      max_fires=1)])
        fired = [bool(capped.fired_rules(SITE_CACHE_GET)) for _ in range(3)]
        assert fired == [True, False, False]

    def test_probability_rules_are_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan([FaultRule(site=SITE_SHARD_EXECUTE,
                                        kind="transient", p=0.5)],
                             seed=seed)
            return [bool(plan.fired_rules(SITE_SHARD_EXECUTE))
                    for _ in range(64)]

        assert pattern(11) == pattern(11)
        assert pattern(11) != pattern(12)
        assert any(pattern(11)) and not all(pattern(11))

    def test_reset_restores_the_exact_sequence(self):
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EXECUTE,
                                    kind="transient", p=0.4)], seed=3)
        first = [bool(plan.fired_rules(SITE_SHARD_EXECUTE))
                 for _ in range(32)]
        plan.reset()
        again = [bool(plan.fired_rules(SITE_SHARD_EXECUTE))
                 for _ in range(32)]
        assert first == again

    def test_fault_point_raises_typed_errors(self):
        plan = FaultPlan([
            FaultRule(site=SITE_SHARD_EXECUTE, kind="transient", n=1),
            FaultRule(site=SITE_SESSION_RUN, kind="unavailable", n=1),
            FaultRule(site=SITE_CACHE_GET, kind="poison", n=1),
        ])
        with inject(plan):
            with pytest.raises(TransientShardError) as info:
                fault_point(SITE_SHARD_EXECUTE, shard=3)
            assert info.value.retryable and "shard 3" in str(info.value)
            with pytest.raises(BackendUnavailable):
                fault_point(SITE_SESSION_RUN)
            with pytest.raises(PoisonedTemplateError):
                fault_point(SITE_CACHE_GET)
            fault_point(SITE_GRID_ACCUMULATE)  # no rule -> no-op
        with pytest.raises(ConfigError):
            fault_point("not.a.site")

    def test_corrupt_array_perturbs_a_copy(self):
        import numpy as np

        plan = FaultPlan([FaultRule(site=SITE_GRID_ACCUMULATE,
                                    kind="corrupt", n=1)])
        honest = np.ones((2, 2))
        with inject(plan):
            shipped = corrupt_array(SITE_GRID_ACCUMULATE, honest)
            assert shipped[0, 0] != honest[0, 0]  # perturbed copy
            assert honest[0, 0] == 1.0            # original untouched
            second = corrupt_array(SITE_GRID_ACCUMULATE, honest)
            assert second is honest               # n=1 exhausted

    def test_suppress_is_thread_local(self):
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EXECUTE,
                                    kind="transient")])
        sibling_faulted = threading.Event()

        def sibling():
            try:
                fault_point(SITE_SHARD_EXECUTE)
            except TransientShardError:
                sibling_faulted.set()

        with inject(plan):
            with suppress():
                fault_point(SITE_SHARD_EXECUTE)  # suppressed here...
                worker = threading.Thread(target=sibling)
                worker.start()
                worker.join()
            assert sibling_faulted.is_set()      # ...but not over there

    def test_env_plan_applies_and_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=5;shard.execute:transient:every=2")
        plan = active_plan()
        assert plan is not None and plan.seed == 5
        assert active_plan() is plan  # cached shared instance
        with inject(None):            # explicit None disables env plan
            assert active_plan() is None
        override = FaultPlan([])
        set_fault_plan(override)
        assert active_plan() is override
        clear_fault_plan()
        assert active_plan() is plan

    def test_stats_ledger(self):
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EXECUTE,
                                    kind="transient", every=2)])
        for _ in range(4):
            plan.fired_rules(SITE_SHARD_EXECUTE)
        stats = plan.stats()
        assert stats["seed"] == DEFAULT_FAULT_SEED
        assert stats["rules"] == [{"site": SITE_SHARD_EXECUTE,
                                   "kind": "transient",
                                   "calls": 4, "fires": 2}]


# --------------------------------------------------------------------- #
# Retry primitives
# --------------------------------------------------------------------- #

class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy()
        delays = [policy.backoff_for(attempt, key=7)
                  for attempt in range(1, 6)]
        assert delays == [policy.backoff_for(a, key=7)
                          for a in range(1, 6)]
        cap = policy.max_backoff_s * (1.0 + policy.jitter)
        assert all(0.0 < d <= cap for d in delays)
        # Jitter decorrelates shards: same attempt, different key.
        assert policy.backoff_for(1, key=1) != policy.backoff_for(1, key=2)

    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientShardError("flap")
            return "ok"

        log: list[dict] = []
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.0)
        assert call_with_retries(flaky, policy, attempts_log=log) == "ok"
        assert calls["n"] == 3
        assert [entry["error"] for entry in log] == [
            "TransientShardError", "TransientShardError"]

    def test_exhaustion_and_non_retryable(self):
        policy = RetryPolicy(max_attempts=2, base_backoff_s=0.0)
        with pytest.raises(TransientShardError):
            call_with_retries(
                lambda: (_ for _ in ()).throw(TransientShardError("x")),
                policy)
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise ExecutionError("not retryable")

        with pytest.raises(ExecutionError):
            call_with_retries(fatal, policy)
        assert calls["n"] == 1  # no second attempt

    def test_is_retryable_taxonomy(self):
        assert is_retryable(TransientShardError("x"))
        assert is_retryable(BackendUnavailable("x"))
        assert is_retryable(CorruptPartialError("x"))
        assert not is_retryable(ExecutionError("x"))
        assert not is_retryable(QueryCancelled("x"))
        assert not is_retryable(ValueError("x"))


# --------------------------------------------------------------------- #
# Circuit breaker state machine
# --------------------------------------------------------------------- #

class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_via_half_open(self):
        breaker = CircuitBreaker("tcudb", threshold=2, cooldown_s=0.05)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.snapshot()["state"] == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.snapshot()["state"] == CircuitBreaker.OPEN
        assert not breaker.allow()  # cooling down
        time.sleep(0.06)
        assert breaker.allow()      # the half-open probe
        assert breaker.snapshot()["state"] == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # exactly one probe in flight
        breaker.record_success()
        assert breaker.snapshot()["state"] == CircuitBreaker.CLOSED
        assert breaker.snapshot()["opens"] == 1

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("tcudb", threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()    # probe fails
        assert breaker.snapshot()["state"] == CircuitBreaker.OPEN
        assert breaker.snapshot()["opens"] == 2

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("tcudb", threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.snapshot()["state"] == CircuitBreaker.CLOSED

    def test_threshold_validated(self):
        with pytest.raises(ExecutionError):
            CircuitBreaker("tcudb", threshold=0)


# --------------------------------------------------------------------- #
# Program-cache poisoning
# --------------------------------------------------------------------- #

class TestCachePoison:
    def test_poisoned_hit_is_evicted_and_recompiled(self, catalog, oracle):
        engine = TCUDBEngine(catalog, mode=ExecutionMode.REAL,
                             program_cache=ProgramCache())
        baseline = engine.execute(AGG_SQL)  # populate the cache
        plan = FaultPlan([FaultRule(site=SITE_CACHE_GET, kind="poison",
                                    n=1)])
        with inject(plan):
            healed = engine.execute(AGG_SQL)
        assert_results_match(healed, baseline, rel=TCU_REL)
        assert_results_match(healed, oracle.execute(AGG_SQL), rel=TCU_REL)
        stats = engine.program_cache.stats()
        assert stats["poisoned"] == 1

    def test_poison_counts_in_stats_even_for_misses(self, catalog):
        engine = TCUDBEngine(catalog, mode=ExecutionMode.REAL,
                             program_cache=ProgramCache())
        assert engine.program_cache.poison("nonexistent-key") is False
        assert engine.program_cache.stats()["poisoned"] == 1


# --------------------------------------------------------------------- #
# Distributed recovery: the chaos differential fuzz sweep
# --------------------------------------------------------------------- #

class TestShardRecovery:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_chaos_fuzz_matches_fault_free_and_oracle(self, catalog,
                                                      oracle, shards):
        generator = QueryGenerator(make_rng(FUZZ_SEED))
        queries = [generator.generate() for _ in range(N_FUZZ_QUERIES)]
        faulty = dist_engine(catalog, shards)
        clean = dist_engine(catalog, shards)
        plan = FaultPlan([
            FaultRule(site=SITE_SHARD_EXECUTE, kind="transient", p=0.3),
            FaultRule(site=SITE_GRID_ACCUMULATE, kind="corrupt", p=0.15),
        ], seed=FUZZ_SEED)
        for index, sql in enumerate(queries):
            expected = clean.execute(sql)
            with inject(plan):
                got = faulty.execute(sql)
            context = f"[chaos shards={shards} query {index}] {sql}"
            assert_results_match(got, expected, rel=TCU_REL,
                                 context=context)
            assert_results_match(got, oracle.execute(sql), rel=TCU_REL,
                                 context=context)
        stats = plan.stats()
        fires = {r["site"]: r["fires"] for r in stats["rules"]}
        assert fires[SITE_SHARD_EXECUTE] > 0, \
            "the sweep must actually have injected shard faults"

    def test_retries_recorded_in_resilience_extra(self, catalog):
        engine = dist_engine(catalog, 2)
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EXECUTE,
                                    kind="transient", n=1)])
        with inject(plan):
            result = engine.execute(AGG_SQL)
        resilience = result.extra["resilience"]
        assert resilience["route"] in ("grid-allreduce", "partial-rows")
        assert resilience["attempts"] >= 2
        [(shard, log)] = list(resilience["retries"].items())
        assert log[0]["error"] == "TransientShardError"
        assert resilience["retry_policy"]["max_attempts"] >= 2

    def test_corrupt_partial_detected_and_reexecuted(self, catalog,
                                                     oracle):
        engine = dist_engine(catalog, 2)
        plan = FaultPlan([FaultRule(site=SITE_GRID_ACCUMULATE,
                                    kind="corrupt", n=1)])
        with inject(plan):
            result = engine.execute(AGG_SQL)
        assert_results_match(result, oracle.execute(AGG_SQL), rel=TCU_REL)
        resilience = result.extra.get("resilience")
        if resilience is not None and resilience.get("retries"):
            errors = [entry["error"]
                      for log in resilience["retries"].values()
                      for entry in log]
            assert "CorruptPartialError" in errors

    def test_corrupt_sum_only_partial_is_reexecuted(self, monkeypatch):
        """Figure 5 multiplies no COUNT grid, and its SUM grid still
        passes the corruption point and its checksum before shipping."""
        dim = 24
        catalog = matmul_catalog(dim, seed=11)
        monkeypatch.setenv("REPRO_SHARDS", "2")
        engine = DistributedEngine(catalog, fact="a",
                                   partition_policy="round_robin",
                                   mode=ExecutionMode.REAL)
        plan = FaultPlan([FaultRule(site=SITE_GRID_ACCUMULATE,
                                    kind="corrupt", n=1)])
        with inject(plan):
            result = engine.execute(MATMUL_SQL)
        resilience = result.extra["resilience"]
        assert resilience["route"] == "grid-allreduce"
        errors = [entry["error"] for log in resilience["retries"].values()
                  for entry in log]
        assert errors == ["CorruptPartialError"]
        assert_is_product(result, matmul_product(catalog, dim))

    def test_per_shard_recovery_after_retry_exhaustion(self, catalog,
                                                       oracle):
        engine = dist_engine(
            catalog, 2,
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0))
        # n=2 out-fires the 2-attempt budget on the first shard call, so
        # the suppressed per-shard recovery rung must kick in.
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EXECUTE,
                                    kind="transient", n=2)])
        with inject(plan):
            result = engine.execute(AGG_SQL)
        assert_results_match(result, oracle.execute(AGG_SQL), rel=TCU_REL)
        recovered = result.extra["resilience"]["recovered"]
        assert recovered and recovered[0]["error"] == "TransientShardError"

    def test_whole_query_degrades_to_single_node(self, catalog, oracle,
                                                 monkeypatch):
        engine = dist_engine(catalog, 2)

        def always_down(self, bound):
            raise BackendUnavailable("fan-out path is down")

        monkeypatch.setattr(DistributedEngine, "_execute_aggregate",
                            always_down)
        result = engine.execute(AGG_SQL)
        assert_results_match(result, oracle.execute(AGG_SQL), rel=TCU_REL)
        resilience = result.extra["resilience"]
        assert resilience["route"] == "single-node"
        assert resilience["degraded_from"] == "aggregate"
        assert "BackendUnavailable" in resilience["cause"]

    @pytest.mark.parametrize("sql, route", [
        (AGG_SQL, "grid-allreduce"),
        (MIN_SQL, "partial-rows"),
    ])
    def test_degradation_keeps_an_armed_token_live(self, catalog, oracle,
                                                   sql, route):
        # A token armed the way QueryServer arms one.  Shard 1 fails on
        # every call with a real (non-injected) error, so neither retry
        # nor the suppressed per-shard rung rescues it; the whole query
        # must re-run single-node under the same, still live, token.
        engine = dist_engine(catalog, 2)
        with inject(None):
            assert engine.execute(sql).extra["distributed"]["route"] == route
        shard_bound = engine._shard_bound

        def broken_shard(bound, index):
            if index == 1:
                raise BackendUnavailable("shard 1 is down")
            return shard_bound(bound, index)

        engine._shard_bound = broken_shard
        token = engine.cancel_token = CancellationToken()
        result = engine.execute(sql)
        assert result.extra["distributed"]["route"] == "single-node"
        assert result.extra["resilience"]["degraded_from"] == "aggregate"
        assert_results_match(result, oracle.execute(sql), rel=TCU_REL)
        assert not token.cancelled

    def test_resilience_exhausted_when_nothing_works(self, catalog,
                                                     monkeypatch):
        engine = dist_engine(catalog, 2)

        def always_down(self, bound):
            raise BackendUnavailable("fan-out path is down")

        monkeypatch.setattr(DistributedEngine, "_execute_aggregate",
                            always_down)
        monkeypatch.setattr(
            DistributedEngine, "_single_node",
            lambda self, bound, reason: (_ for _ in ()).throw(
                ExecutionError("single-node is down too")))
        with pytest.raises(ResilienceExhausted) as info:
            engine.execute(AGG_SQL)
        assert info.value.degraded

    def test_fault_free_queries_carry_no_resilience_extra(self, catalog):
        engine = dist_engine(catalog, 2)
        with inject(None):  # even under an ambient REPRO_FAULTS plan
            result = engine.execute(AGG_SQL)
        assert "resilience" not in result.extra


# --------------------------------------------------------------------- #
# Server hardening
# --------------------------------------------------------------------- #

class FlakyEngine:
    """Test double: fails the first *n* executions, then delegates."""

    def __init__(self, delegate, failures, error=TransientShardError):
        self.delegate = delegate
        self.remaining = failures
        self.error = error
        self.cancel_token = None

    def execute(self, sql, params=None):
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error("injected primary failure")
        return self.delegate.execute(sql, params=params)


class TestServerResilience:
    def test_retry_budget_recovers_transients(self, catalog, monkeypatch):
        flaky = FlakyEngine(ReferenceEngine(catalog), failures=2)
        with QueryServer(catalog, engine="reference") as server:
            monkeypatch.setattr(Session, "_engine", lambda self: flaky)
            session = server.session()
            result = session.execute(
                AGG_SQL, budget=QueryBudget(max_retries=2), timeout=60)
            assert result.n_rows > 0
            resilience = result.extra["resilience"]
            assert resilience["route"] == "primary"
            assert len(resilience["retries"]) == 2
            assert server.stats["retried"] == 1
            assert server.stats["completed"] == 1

    def test_exhausted_budget_falls_back_to_reference(self, catalog,
                                                      oracle,
                                                      monkeypatch):
        flaky = FlakyEngine(ReferenceEngine(catalog), failures=100)
        with QueryServer(catalog, engine="reference") as server:
            monkeypatch.setattr(Session, "_engine", lambda self: flaky)
            session = server.session()
            result = session.execute(
                AGG_SQL, budget=QueryBudget(max_retries=1), timeout=60)
            assert_results_match(result, oracle.execute(AGG_SQL),
                                 rel=TCU_REL)
            resilience = result.extra["resilience"]
            assert resilience["route"] == "reference-fallback"
            assert "TransientShardError" in resilience["cause"]
            assert server.stats["degraded"] == 1

    def test_injected_session_faults_are_absorbed(self, catalog):
        plan = FaultPlan([FaultRule(site=SITE_SESSION_RUN,
                                    kind="unavailable", every=2)])
        with QueryServer(catalog, engine="reference") as server:
            session = server.session()
            with inject(plan):
                for _ in range(4):
                    result = session.execute(AGG_SQL, timeout=60)
                    assert result.n_rows > 0
            assert server.stats["failed"] == 0
        assert plan.stats()["rules"][0]["fires"] > 0

    def test_no_raw_error_escapes_the_server(self, catalog, monkeypatch):
        class Broken:
            cancel_token = None

            def execute(self, sql, params=None):
                raise ValueError("engine bug")

        with QueryServer(catalog, engine="reference") as server:
            monkeypatch.setattr(Session, "_engine", lambda self: Broken())
            monkeypatch.setattr(
                Session, "_fallback_engine",
                lambda self: (_ for _ in ()).throw(
                    RuntimeError("fallback bug")))
            session = server.session()
            with pytest.raises(ReproError) as info:
                session.execute("SELECT d_year FROM ddate", timeout=60)
            assert isinstance(info.value, InternalError)
            # The cause chain keeps the raw bug (here: the fallback's),
            # but what *escapes* is always a typed library error.
            assert isinstance(info.value.__cause__,
                              (ValueError, RuntimeError))
            assert server.stats["internal_errors"] >= 1

    def test_breaker_opens_then_serves_via_fallback(self, catalog,
                                                    monkeypatch):
        flaky = FlakyEngine(ReferenceEngine(catalog), failures=100)
        server = QueryServer(catalog, engine="reference",
                             breaker_threshold=1, breaker_cooldown_s=60.0)
        monkeypatch.setattr(Session, "_engine", lambda self: flaky)
        try:
            session = server.session()
            first = session.execute(AGG_SQL,
                                    budget=QueryBudget(max_retries=0),
                                    timeout=60)
            assert first.extra["resilience"]["route"] == \
                "reference-fallback"
            assert server.breaker.snapshot()["state"] == \
                CircuitBreaker.OPEN
            assert server.health()["status"] == "degraded"
            # While open, the primary is not even attempted.
            before = flaky.remaining
            second = session.execute(AGG_SQL, timeout=60)
            assert flaky.remaining == before
            resilience = second.extra["resilience"]
            assert resilience["cause"] == "circuit breaker open"
            assert resilience["route"] == "reference-fallback"
        finally:
            server.close()

    def test_breaker_closes_after_successful_probe(self, catalog,
                                                   monkeypatch):
        flaky = FlakyEngine(ReferenceEngine(catalog), failures=1)
        server = QueryServer(catalog, engine="reference",
                             breaker_threshold=1,
                             breaker_cooldown_s=0.05)
        monkeypatch.setattr(Session, "_engine", lambda self: flaky)
        try:
            session = server.session()
            session.execute(AGG_SQL, budget=QueryBudget(max_retries=0),
                            timeout=60)
            assert server.breaker.snapshot()["state"] == \
                CircuitBreaker.OPEN
            time.sleep(0.06)
            probe = session.execute(AGG_SQL, timeout=60)
            # A clean primary run carries no resilience extra at all.
            assert "resilience" not in probe.extra
            assert server.breaker.snapshot()["state"] == \
                CircuitBreaker.CLOSED
            assert server.health()["status"] == "ok"
        finally:
            server.close()

    def test_close_resolves_queued_tickets(self, catalog, monkeypatch):
        engine = BlockingEngine()
        server = QueryServer(catalog, engine="reference",
                             max_concurrent=1, max_queued=2)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        session = server.session()
        running = session.submit("SELECT 1")
        assert engine.started.wait(5)
        queued = session.submit("SELECT 2")
        # Unblock the running query shortly after close() starts so the
        # worker join can finish; the queue is drained under the lock
        # before that, so the queued ticket is already resolved.
        threading.Timer(0.1, engine.release.set).start()
        server.close()
        with pytest.raises(QueryCancelled, match="closed") as info:
            queued.result(timeout=10)
        assert isinstance(info.value, ServerClosed)
        assert server.stats["cancelled"] >= 1
        running.result(timeout=10)  # the in-flight query still completed

    def test_admission_timeout_sheds_load(self, catalog, monkeypatch):
        engine = BlockingEngine()
        server = QueryServer(catalog, engine="reference",
                             max_concurrent=1, max_queued=1,
                             admission_timeout_s=0.05)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        try:
            session = server.session()
            running = session.submit("SELECT 1")
            assert engine.started.wait(5)
            queued = session.submit("SELECT 2")
            with pytest.raises(AdmissionError, match="shed"):
                session.submit("SELECT 3")
            assert server.stats["shed"] == 1
            engine.release.set()
            running.result(timeout=10)
            queued.result(timeout=10)
        finally:
            engine.release.set()
            server.close()

    def test_health_and_resilience_stats_surfaces(self, catalog):
        with QueryServer(catalog, engine="reference") as server, \
                inject(None):  # even under an ambient REPRO_FAULTS plan
            health = server.health()
            assert health["status"] == "ok"
            assert health["breaker"]["state"] == CircuitBreaker.CLOSED
            session = server.session()
            session.execute("SELECT d_year FROM ddate", timeout=60)
            stats = server.resilience_stats()
            assert stats["queries"]["completed"] == 1
            assert stats["retry_policy"]["max_retries_default"] >= 0
            assert stats["fault_plan"] is None
            plan = FaultPlan([FaultRule(site=SITE_SESSION_RUN,
                                        kind="unavailable", every=3)])
            with inject(plan):
                assert server.resilience_stats()["fault_plan"]["seed"] \
                    == DEFAULT_FAULT_SEED
        assert server.health()["status"] == "closed"

    def test_served_chaos_matches_oracle(self, catalog, oracle):
        """End-to-end: sharded serving under a mixed fault plan still
        returns oracle-exact rows for every query."""
        plan = FaultPlan([
            FaultRule(site=SITE_SHARD_EXECUTE, kind="transient",
                      every=3),
            FaultRule(site=SITE_SESSION_RUN, kind="unavailable",
                      every=5),
        ], seed=FUZZ_SEED)
        with QueryServer(catalog, engine="tcudb", shards=2,
                         max_concurrent=2,
                         engine_kwargs=dict(FACT_KW)) as server:
            session = server.session()
            with inject(plan):
                for _ in range(6):
                    result = session.execute(AGG_SQL, timeout=120)
                    assert_results_match(result, oracle.execute(AGG_SQL),
                                         rel=TCU_REL)
            assert server.stats["failed"] == 0
