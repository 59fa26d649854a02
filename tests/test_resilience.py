"""Fault-tolerant serving: injection, retry, degradation.

The load-bearing test is the chaos differential fuzz sweep: seeded SSB
queries (the generator shared with ``test_fuzz_queries``) are served by
a TCUDB ``QueryServer`` under each fault kind alone and under the plan
``bench/exp_chaos.py`` sweeps, and every answer must equal the
fault-free run and the Reference oracle.  Unit classes pin the
individual contracts: fault-plan parsing and determinism, back-to-back
retries within the per-query budget, the circuit-breaker state
machine, program cache poisoning, graceful degradation to the
reference fallback, server close/cancel semantics, load shedding, and
the error taxonomy (no raw non-ReproError ever escapes the server).
"""

from __future__ import annotations

import threading
import time

import pytest

from differential_utils import assert_results_match
from test_fuzz_queries import FUZZ_SEED, QueryGenerator
from test_serve import BlockingEngine
from repro.bench.exp_chaos import _plan_for as chaos_sweep_plan
from repro.bench.verify import TCU_REL
from repro.common.errors import (
    AdmissionError,
    BackendUnavailable,
    ConfigError,
    ExecutionError,
    InternalError,
    PoisonedTemplateError,
    QueryCancelled,
    ReproError,
    ServerClosed,
    TransientError,
)
from repro.common.faults import (
    DEFAULT_FAULT_SEED,
    SITE_CACHE_GET,
    SITE_SESSION_RUN,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_point,
    inject,
    parse_fault_plan,
    suppress,
)
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.cache import ProgramCache
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine
from repro.serve import CircuitBreaker, QueryBudget, QueryServer, Session

AGG_SQL = ("SELECT SUM(lo_revenue) AS r, d_year FROM lineorder, ddate "
           "WHERE lo_orderdate = d_datekey GROUP BY d_year")


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


@pytest.fixture(scope="module")
def oracle(catalog):
    return ReferenceEngine(catalog)


# --------------------------------------------------------------------- #
# Fault-plan units
# --------------------------------------------------------------------- #

class TestFaultPlan:
    def test_parse_seed_and_knobs(self):
        plan = parse_fault_plan(
            "seed=7; session.run:transient:every=3;"
            "session.run:unavailable:p=0.5,n=2"
        )
        assert plan.seed == 7
        every, proba = plan.rules
        assert (every.site, every.kind, every.every) == (
            SITE_SESSION_RUN, "transient", 3)
        assert (proba.kind, proba.p, proba.n) == ("unavailable", 0.5, 2)

    @pytest.mark.parametrize("spec", [
        "session.run",                         # no kind
        "nowhere:transient",                   # unknown site
        "session.run:explode",                 # unknown kind
        "session.run:transient:p=2.0",         # probability out of range
        "session.run:transient:every=0",       # bad period
        "session.run:transient:bogus=1",       # unknown knob
        "session.run:transient:every=x",       # non-numeric value
        "session.run:slow",                    # removed kind
        "session.run:transient:delay=0.1",     # removed knob
        "session.run:transient:max=2",         # removed knob
        "seed=abc",                            # bad seed
        "shard.execute:transient",             # removed site
        "grid.accumulate:corrupt",             # removed site and kind
        "session.run:corrupt",                 # removed kind
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_fault_plan(spec)

    def test_every_rule_never_fires_twice_in_a_row(self):
        rule = FaultRule(site=SITE_SESSION_RUN, kind="transient", every=3)
        plan = FaultPlan([rule])
        fired = [bool(plan.fired_rules(SITE_SESSION_RUN))
                 for _ in range(12)]
        assert fired == [False, False, True] * 4
        assert not any(a and b for a, b in zip(fired, fired[1:]))

    def test_n_fires_on_the_first_n_calls(self):
        plan = FaultPlan([FaultRule(site=SITE_CACHE_GET, kind="poison",
                                    n=2)])
        fired = [bool(plan.fired_rules(SITE_CACHE_GET)) for _ in range(4)]
        assert fired == [True, True, False, False]

    def test_probability_rules_are_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan([FaultRule(site=SITE_SESSION_RUN,
                                        kind="transient", p=0.5)],
                             seed=seed)
            return [bool(plan.fired_rules(SITE_SESSION_RUN))
                    for _ in range(64)]

        assert pattern(11) == pattern(11)
        assert pattern(11) != pattern(12)
        assert any(pattern(11)) and not all(pattern(11))

    def test_fault_point_raises_typed_errors(self):
        plan = FaultPlan([
            FaultRule(site=SITE_SESSION_RUN, kind="transient", n=1),
            FaultRule(site=SITE_SESSION_RUN, kind="unavailable", every=2),
            FaultRule(site=SITE_CACHE_GET, kind="poison", n=1),
        ])
        with inject(plan):
            with pytest.raises(TransientError) as info:
                fault_point(SITE_SESSION_RUN)
            assert info.value.retryable
            with pytest.raises(BackendUnavailable):
                fault_point(SITE_SESSION_RUN)
            with pytest.raises(PoisonedTemplateError):
                fault_point(SITE_CACHE_GET)
            fault_point(SITE_CACHE_GET)  # no rule fires -> no-op
        with pytest.raises(ConfigError):
            fault_point("not.a.site")

    def test_suppress_is_thread_local(self):
        plan = FaultPlan([FaultRule(site=SITE_SESSION_RUN,
                                    kind="transient")])
        sibling_faulted = threading.Event()

        def sibling():
            try:
                fault_point(SITE_SESSION_RUN)
            except TransientError:
                sibling_faulted.set()

        with inject(plan):
            with suppress():
                fault_point(SITE_SESSION_RUN)  # suppressed here...
                worker = threading.Thread(target=sibling)
                worker.start()
                worker.join()
            assert sibling_faulted.is_set()      # ...but not over there

    def test_env_plan_applies_and_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=5;session.run:transient:every=2")
        plan = active_plan()
        assert plan is not None and plan.seed == 5
        assert active_plan() is plan  # cached shared instance
        with inject(None):            # explicit None disables env plan
            assert active_plan() is None
        override = FaultPlan([])
        with inject(override):        # an installed plan wins...
            assert active_plan() is override
            with inject():            # ...unless it defers to the env
                assert active_plan() is plan
            assert active_plan() is override
        assert active_plan() is plan

    def test_stats_ledger(self):
        plan = FaultPlan([FaultRule(site=SITE_SESSION_RUN,
                                    kind="transient", every=2)])
        for _ in range(4):
            plan.fired_rules(SITE_SESSION_RUN)
        stats = plan.stats()
        assert stats["seed"] == DEFAULT_FAULT_SEED
        assert stats["rules"] == [{"site": SITE_SESSION_RUN,
                                   "kind": "transient",
                                   "calls": 4, "fires": 2}]


# --------------------------------------------------------------------- #
# The retry taxonomy
# --------------------------------------------------------------------- #

def test_retryable_flags():
    # The server re-runs exactly the errors whose class sets the flag.
    assert TransientError("x").retryable
    assert BackendUnavailable("x").retryable
    assert PoisonedTemplateError("x").retryable
    assert not ExecutionError("x").retryable
    assert not QueryCancelled("x").retryable
    assert not ServerClosed("x").retryable
    # A raw exception reaches the retry loop wrapped as InternalError.
    assert not InternalError("x").retryable


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
# Served recovery: the chaos differential fuzz sweep
# --------------------------------------------------------------------- #

N_FUZZ_QUERIES = 30

SINGLE_KIND_PLANS = {
    "poison": FaultRule(site=SITE_CACHE_GET, kind="poison", p=0.3),
    "transient": FaultRule(site=SITE_SESSION_RUN, kind="transient", p=0.3),
    "unavailable": FaultRule(site=SITE_SESSION_RUN, kind="unavailable",
                             p=0.15),
}


@pytest.fixture(scope="module")
def fuzz_answers(catalog, oracle):
    """``(sql, fault-free TCUDB result, oracle result)`` per query."""
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    clean = TCUDBEngine(catalog, mode=ExecutionMode.REAL)
    answers = []
    with inject(None):
        for _ in range(N_FUZZ_QUERIES):
            sql = generator.generate()
            answers.append((sql, clean.execute(sql), oracle.execute(sql)))
    return answers


def serve_fuzz(catalog, fuzz_answers, plan: FaultPlan) -> QueryServer:
    """Serve every fuzz query twice under *plan* (the repeat hits the
    program cache); each answer must equal the fault-free run and the
    oracle.  Returns the closed server."""
    with QueryServer(catalog, engine="tcudb", max_concurrent=1) as server:
        session = server.session()
        for index, (sql, expected, exact) in enumerate(fuzz_answers):
            for repeat in range(2):
                with inject(plan):
                    got = session.execute(sql, timeout=120)
                context = f"[chaos query {index} run {repeat}] {sql}"
                assert_results_match(got, expected, rel=TCU_REL,
                                     context=context)
                assert_results_match(got, exact, rel=TCU_REL,
                                     context=context)
        assert server.stats["failed"] == 0
    return server


class TestServedRecovery:
    @pytest.mark.parametrize("kind", sorted(SINGLE_KIND_PLANS))
    def test_chaos_fuzz_matches_fault_free_and_oracle(self, catalog,
                                                      fuzz_answers, kind):
        plan = FaultPlan([SINGLE_KIND_PLANS[kind]], seed=FUZZ_SEED)
        serve_fuzz(catalog, fuzz_answers, plan)
        assert plan.stats()["rules"][0]["fires"] > 0, \
            "the sweep must actually have injected faults"

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
    def test_chaos_sweep_plan_keeps_every_answer(self, catalog,
                                                 fuzz_answers, rate):
        # The plan bench/exp_chaos.py sweeps: every point reads 1.0.
        plan = chaos_sweep_plan(rate, 0)
        server = serve_fuzz(catalog, fuzz_answers, plan)
        fires = sum(rule["fires"] for rule in plan.stats()["rules"])
        assert (fires > 0) == (rate > 0)
        assert server.stats["completed"] == 2 * N_FUZZ_QUERIES

    def test_retries_recorded_in_resilience_extra(self, catalog, oracle,
                                                  monkeypatch):
        # Only injected faults are retryable, so retries run back-to-back.
        def no_sleep(seconds):
            raise AssertionError(f"retry slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        plan = parse_fault_plan("session.run:transient:n=2")
        with QueryServer(catalog, engine="tcudb") as server:
            with inject(plan):
                result = server.session().execute(AGG_SQL, timeout=60)
            assert server.stats["retried"] == 1
        assert_results_match(result, oracle.execute(AGG_SQL), rel=TCU_REL)
        resilience = result.extra["resilience"]
        assert resilience["route"] == "primary"
        assert resilience["retries"] == [{"error": "TransientError"}] * 2

    def test_poisoned_served_hit_recompiles(self, catalog, oracle):
        plan = FaultPlan([FaultRule(site=SITE_CACHE_GET, kind="poison",
                                    n=1)])
        with QueryServer(catalog, engine="tcudb") as server:
            session = server.session()
            with inject(None):
                session.execute(AGG_SQL, timeout=60)  # populate the cache
            with inject(plan):
                healed = session.execute(AGG_SQL, timeout=60)
            assert server.cache_stats()["poisoned"] == 1
        assert_results_match(healed, oracle.execute(AGG_SQL), rel=TCU_REL)
        # A poisoned hit recompiles on the primary path: no retry, no
        # degradation.
        assert "resilience" not in healed.extra

    @pytest.mark.parametrize("error", [
        BackendUnavailable, TransientError, RuntimeError,
    ])
    def test_degradation_keeps_the_token_live(self, catalog, oracle,
                                              monkeypatch, error):
        # The primary fails on every call, so the server must answer
        # from the reference fallback under the same, still live, token.
        def down(self, sql, params=None):
            raise error("primary path is down")

        monkeypatch.setattr(TCUDBEngine, "execute", down)
        with QueryServer(catalog, engine="tcudb") as server:
            with inject(None):
                ticket = server.session().submit(AGG_SQL)
                result = ticket.result(timeout=60)
            assert server.stats["degraded"] == 1
        assert not ticket.token.cancelled
        assert_results_match(result, oracle.execute(AGG_SQL), rel=TCU_REL)
        resilience = result.extra["resilience"]
        assert resilience["route"] == "reference-fallback"
        assert resilience["degraded_from"] == "tcudb"

    def test_fault_free_queries_carry_no_resilience_extra(self, catalog):
        with QueryServer(catalog, engine="tcudb") as server:
            with inject(None):  # even under an ambient REPRO_FAULTS plan
                result = server.session().execute(AGG_SQL, timeout=60)
        assert "resilience" not in result.extra


# --------------------------------------------------------------------- #
# Server hardening
# --------------------------------------------------------------------- #

class FlakyEngine:
    """Test double: fails the first *n* executions, then delegates."""

    def __init__(self, delegate, failures, error=TransientError):
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

    def test_non_retryable_error_is_not_retried(self, catalog,
                                                monkeypatch):
        flaky = FlakyEngine(ReferenceEngine(catalog), failures=1,
                            error=ExecutionError)
        with QueryServer(catalog, engine="reference") as server, \
                inject(None):  # even under an ambient REPRO_FAULTS plan
            monkeypatch.setattr(Session, "_engine", lambda self: flaky)
            with pytest.raises(ExecutionError, match="injected primary"):
                server.session().execute(AGG_SQL, timeout=60)
            assert flaky.remaining == 0
            assert server.stats["retried"] == 0
            assert server.stats["degraded"] == 0
            # The query failed, not the engine path: the breaker holds.
            assert server.breaker.snapshot()["consecutive_failures"] == 0

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
            assert "TransientError" in resilience["cause"]
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
            assert set(stats) == {"queries", "breaker", "fault_plan"}
            assert stats["queries"]["completed"] == 1
            assert stats["fault_plan"] is None
            plan = FaultPlan([FaultRule(site=SITE_SESSION_RUN,
                                        kind="unavailable", every=3)])
            with inject(plan):
                assert server.resilience_stats()["fault_plan"]["seed"] \
                    == DEFAULT_FAULT_SEED
        assert server.health()["status"] == "closed"

    def test_served_chaos_matches_oracle(self, catalog, oracle):
        """End-to-end: TCUDB serving under a mixed fault plan still
        returns oracle-exact rows for every query."""
        plan = FaultPlan([
            FaultRule(site=SITE_CACHE_GET, kind="poison", every=3),
            FaultRule(site=SITE_SESSION_RUN, kind="unavailable",
                      every=5),
        ])
        with QueryServer(catalog, engine="tcudb",
                         max_concurrent=2) as server:
            session = server.session()
            with inject(plan):
                for _ in range(6):
                    result = session.execute(AGG_SQL, timeout=120)
                    assert_results_match(result, oracle.execute(AGG_SQL),
                                         rel=TCU_REL)
            assert server.stats["failed"] == 0
