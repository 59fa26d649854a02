"""Program cache: LRU/invalidation unit behavior, engine integration,
the prepared+cached vs one-shot differential over the fuzz corpus, and
concurrent sessions sharing one cache through the QueryServer.

Tier-1: runs in the default suite and in the REPRO_WORKERS=2 CI leg.
"""

import threading

import pytest

from differential_utils import assert_results_match
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.engine.cache import ProgramCache
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.serve import QueryServer
from test_fuzz_queries import QueryGenerator

TCU_REL = 2e-3

JOIN_AGG_SQL = (
    "select d.d_year, sum(lo.lo_revenue) from lineorder as lo, ddate as d "
    "where lo.lo_orderdate = d.d_datekey group by d.d_year order by d.d_year"
)


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


class TestProgramCacheUnit:
    def test_miss_then_hit(self):
        cache = ProgramCache(capacity=4)
        assert cache.get("k", "fp") is None
        cache.put("k", "fp", "value")
        assert cache.get("k", "fp") == "value"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ProgramCache(capacity=2)
        cache.put("a", "fp", 1)
        cache.put("b", "fp", 2)
        assert cache.get("a", "fp") == 1  # refresh: "b" is now LRU
        cache.put("c", "fp", 3)  # evicts "b"
        assert cache.get("b", "fp") is None
        assert cache.get("a", "fp") == 1
        assert cache.get("c", "fp") == 3
        assert cache.stats()["evictions"] == 1

    def test_fingerprint_mismatch_invalidates(self):
        cache = ProgramCache()
        cache.put("k", "fp1", "stale")
        assert cache.get("k", "fp2") is None
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 0
        # A fresh put under the new fingerprint works normally.
        cache.put("k", "fp2", "fresh")
        assert cache.get("k", "fp2") == "fresh"

    def test_capacity_validation_and_clear(self):
        with pytest.raises(ValueError):
            ProgramCache(capacity=0)
        cache = ProgramCache(capacity=2)
        cache.put("a", "fp", 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestCatalogFingerprint:
    def test_register_replace_changes_fingerprint(self):
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=200, seed=7)
        before = catalog.fingerprint()
        assert before == catalog.fingerprint()  # stable while untouched
        catalog.register(catalog.get("ddate"), replace=True)
        # Same Table object: same uid, same fingerprint.
        assert catalog.fingerprint() == before
        rebuilt = ssb_catalog(scale_factor=1, rows_per_sf=200, seed=7)
        catalog.register(rebuilt.get("ddate"), replace=True)
        assert catalog.fingerprint() != before


class TestEngineIntegration:
    def test_repeated_one_shot_hits_cache(self, catalog):
        cache = ProgramCache()
        engine = TCUDBEngine(catalog, program_cache=cache)
        first = engine.execute(JOIN_AGG_SQL)
        second = engine.execute(JOIN_AGG_SQL)
        assert cache.stats()["hits"] == 1
        assert_results_match(second, first, rel=0,
                             context="cached repeat of one-shot SQL")

    def test_cache_replay_survives_catalog_replace(self, catalog):
        # A replaced table changes the fingerprint: the cached program
        # is invalidated, recompiled against the new catalog, and the
        # result reflects the new data.
        small = ssb_catalog(scale_factor=1, rows_per_sf=300, seed=5)
        cache = ProgramCache()
        engine = TCUDBEngine(small, program_cache=cache)
        engine.execute(JOIN_AGG_SQL)
        bigger = ssb_catalog(scale_factor=1, rows_per_sf=600, seed=5)
        small.register(bigger.get("lineorder"), replace=True)
        engine.execute(JOIN_AGG_SQL)
        stats = cache.stats()
        assert stats["invalidations"] == 1
        expected = create_engine("reference", small).execute(JOIN_AGG_SQL)
        got = engine.execute(JOIN_AGG_SQL)
        assert_results_match(got, expected, rel=TCU_REL,
                             context="post-invalidation recompile")

    def test_incompatible_options_do_not_share_programs(self, catalog):
        cache = ProgramCache()
        fused = TCUDBEngine(catalog, program_cache=cache)
        unfused = TCUDBEngine(catalog, program_cache=cache,
                              options=TCUDBOptions(fusion=False))
        fused.execute(JOIN_AGG_SQL)
        unfused.execute(JOIN_AGG_SQL)
        # Different compile options -> different keys -> two entries.
        assert cache.stats()["entries"] == 2
        assert cache.stats()["hits"] == 0

    def test_cached_failures_skip_rematching(self, catalog):
        # Single-table scans are not TCU-lowerable; the MatchFailure is
        # cached so the repeat falls back without re-matching (a second
        # lookup counts as a hit).
        cache = ProgramCache()
        engine = TCUDBEngine(catalog, program_cache=cache)
        sql = "select d.d_year from ddate as d order by d.d_year limit 3"
        first = engine.execute(sql)
        assert first.extra["executed_by"] == "YDB-fallback"
        second = engine.execute(sql)
        assert second.extra["executed_by"] == "YDB-fallback"
        assert cache.stats()["hits"] == 1


class TestFuzzDifferential:
    def test_prepared_cached_matches_one_shot_corpus(self, catalog):
        """Zero-divergence gate: for a fuzz corpus, prepared+cached
        execution and auto-parameterized one-shot execution are both
        row-identical to the uncached one-shot engine."""
        rng = make_rng(9120622)
        generator = QueryGenerator(rng)
        cache, lifted_cache = ProgramCache(), ProgramCache()
        cached = TCUDBEngine(catalog, program_cache=cache)
        lifted = TCUDBEngine(catalog, program_cache=lifted_cache)
        uncached = TCUDBEngine(catalog)
        failures = []
        queries = [generator.generate() for _ in range(60)]
        for index, sql in enumerate(queries):
            expected = uncached.execute(sql)
            prepared = cached.prepare(sql)
            for repeat in range(2):  # second run replays from cache
                for arm, got in (
                    ("prepared", cached.execute_prepared(prepared)),
                    ("auto-parameterized", lifted.execute(sql)),
                ):
                    assert got.extra["statement"] == arm
                    assert repr(got.seconds) == repr(expected.seconds), sql
                    try:
                        assert_results_match(
                            got, expected, rel=0,
                            context=f"fuzz #{index} {arm} {repeat}: {sql}",
                        )
                    except AssertionError as error:
                        failures.append(str(error))
        assert not failures, "\n".join(failures[:5])
        stats = cache.stats()
        assert stats["hits"] >= len(queries)  # every replay hit
        assert stats["entries"] > 0
        stats = lifted_cache.stats()
        assert stats["hits"] >= len(queries)
        assert stats["statement_hits"] >= len(queries)
        # Statements that differ only in lifted literals share a shape.
        assert stats["entries"] <= stats["statement_misses"] <= len(queries)


class TestConcurrentSessions:
    def test_sessions_share_cache_safely(self, catalog):
        """N sessions execute the same prepared statement concurrently
        through the server: all results identical, one compilation."""
        with QueryServer(catalog, max_concurrent=4, workers=1) as server:
            sessions = [server.session() for _ in range(4)]
            prepared = sessions[0].prepare(
                "select d.d_year, sum(lo.lo_revenue) "
                "from lineorder as lo, ddate as d "
                "where lo.lo_orderdate = d.d_datekey and d.d_year >= ? "
                "group by d.d_year order by d.d_year"
            )
            results, errors = {}, []
            barrier = threading.Barrier(len(sessions))

            def run(session, year):
                try:
                    barrier.wait(timeout=10)
                    for _ in range(3):
                        results.setdefault(session.session_id, []).append(
                            session.execute(prepared, params=[year],
                                            timeout=60)
                        )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(session, 1994))
                for session in sessions
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            baseline = None
            for session in sessions:
                for result in results[session.session_id]:
                    if baseline is None:
                        baseline = result
                    else:
                        assert_results_match(
                            result, baseline, rel=0,
                            context="concurrent cached sessions",
                        )
            stats = server.cache_stats()
            # 4 sessions x 3 runs = 12 lookups on one entry: exactly one
            # compilation, every other lookup a hit.
            assert stats["entries"] == 1
            assert stats["misses"] == 1
            assert stats["hits"] == 11
