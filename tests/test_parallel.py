"""Parallel morsel execution: determinism, cancellation, thread safety.

The contract under test (docs/architecture.md, § parallel morsels):
fanning independent chunks across N workers and merging partials in
submission order produces output **bit-identical** to the sequential
executor — same rows, same float accumulation order — for every N and
every chunk size.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from differential_utils import assert_results_match
from repro.common.errors import ConfigError, ExecutionError, QueryCancelled
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine.parallel import (
    MAX_WORKERS,
    CancellationToken,
    parallel_map,
    workers_policy,
)
from repro.engine.physical import PhysicalExecutor
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.engine.ydb import YDBEngine
from repro.sql.binder import bind
from repro.sql.logical import Join, Scan
from repro.sql.parser import parse
from repro.sql.planner import plan
from repro.storage.table import Table
from repro.workloads import SSB_QUERIES
from test_fuzz_queries import FUZZ_SEED, QueryGenerator


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=4000, seed=23)


def rows_of(result):
    return sorted(map(tuple, result.require_table().rows()))


# --------------------------------------------------------------------------- #
# The pool primitives
# --------------------------------------------------------------------------- #


class TestWorkersPolicy:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_policy() == 1

    def test_override_and_env(self, monkeypatch):
        assert workers_policy(4) == 4
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert workers_policy() == 3
        assert workers_policy(2) == 2  # explicit override wins
        assert workers_policy(10_000) == MAX_WORKERS

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ConfigError):
            workers_policy(0)
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        with pytest.raises(ConfigError):
            workers_policy()


class TestParallelMap:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_submission_order_preserved(self, workers):
        items = list(range(97))
        out = list(parallel_map(lambda i: i * i, items, workers))
        assert out == [i * i for i in items]

    def test_worker_exception_propagates(self):
        def boom(i):
            if i == 5:
                raise ValueError("chunk 5 failed")
            return i

        with pytest.raises(ValueError, match="chunk 5"):
            list(parallel_map(boom, range(20), 4))

    def test_cancellation_stops_the_stream(self):
        token = CancellationToken()
        seen = []

        def work(i):
            seen.append(i)
            if i == 3:
                token.cancel("test cancel")
            return i

        with pytest.raises(QueryCancelled):
            list(parallel_map(work, range(10_000), 2, token=token))
        assert len(seen) < 10_000

    def test_deadline_token_self_fires(self):
        token = CancellationToken(deadline_s=0.0)
        with pytest.raises(QueryCancelled, match="time budget"):
            token.raise_if_cancelled()
        assert token.cancelled


# --------------------------------------------------------------------------- #
# Equivalence: parallel output is bit-identical to sequential
# --------------------------------------------------------------------------- #


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("chunk_rows", [256, 1024])
    def test_reference_streaming_fuzz(self, catalog, workers, chunk_rows):
        generator = QueryGenerator(make_rng(FUZZ_SEED))
        sequential = ReferenceEngine(catalog, chunk_rows=chunk_rows)
        parallel = ReferenceEngine(catalog, chunk_rows=chunk_rows,
                                   workers=workers)
        divergences = []
        for _ in range(25):
            sql = generator.generate()
            a = rows_of(sequential.execute(sql))
            b = rows_of(parallel.execute(sql))
            if a != b:  # bit-identical, not approximately equal
                divergences.append(sql)
        assert not divergences, divergences

    @pytest.mark.parametrize("workers", [2, 4])
    def test_tcudb_ssb_flights(self, catalog, workers):
        sequential = TCUDBEngine(catalog,
                                 options=TCUDBOptions(chunk_rows=512))
        parallel = TCUDBEngine(
            catalog,
            options=TCUDBOptions(chunk_rows=512, workers=workers),
        )
        for query_id, sql in sorted(SSB_QUERIES.items()):
            a = sequential.execute(sql)
            b = parallel.execute(sql)
            assert rows_of(a) == rows_of(b), query_id
            # Parallelism must not change routing decisions, nor the
            # simulated seconds (the ledger models the device, not the
            # host's worker pool).
            assert (a.extra.get("executed_by")
                    == b.extra.get("executed_by")), query_id
            assert repr(a.seconds) == repr(b.seconds), query_id

    def test_pruning_counters_deterministic(self, catalog):
        sql = ("SELECT SUM(lo_revenue) AS r FROM lineorder "
               "WHERE lo_quantity < 10")
        sequential = ReferenceEngine(catalog, chunk_rows=256)
        parallel = ReferenceEngine(catalog, chunk_rows=256, workers=4)
        a = sequential.execute(sql)
        b = parallel.execute(sql)
        assert a.extra["chunks_pruned"] == b.extra["chunks_pruned"]
        assert a.extra["chunks_scanned"] == b.extra["chunks_scanned"]

    def test_observer_counts_survive_racing_chunks(self, catalog,
                                                   monkeypatch):
        """YDB's cost observer sums the row counts of chunk tasks racing
        on the pool: with more workers than cores and a short switch
        interval, a lost update would change the charged seconds."""
        import sys

        sql = ("SELECT SUM(lo_revenue) AS r, d_year FROM lineorder, ddate "
               "WHERE lo_orderdate = d_datekey AND lo_quantity < 30 "
               "GROUP BY d_year")
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "16")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        expected = repr(YDBEngine(catalog).execute(sql).seconds)
        monkeypatch.setenv("REPRO_WORKERS", "32")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert repr(YDBEngine(catalog).execute(sql).seconds) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_limit_is_cumulative(self, catalog, workers):
        """One join's pair budget spans all of its probe chunks, at every
        worker count: a limit one below the join's total fails, the
        total itself returns the whole-table oracle's rows."""
        generator = QueryGenerator(make_rng(FUZZ_SEED))
        while True:
            sql = generator.generate()
            bound = bind(parse(sql), catalog)
            joins = [n for n in plan(bound).walk() if isinstance(n, Join)]
            if (len(joins) == 1 and isinstance(joins[0].left, Scan)
                    and joins[0].left.binding == "lineorder"):
                break
        total = PhysicalExecutor(bound).materialize(joins[0]).n_rows
        assert total > 0

        def streamed(pair_limit):
            return ReferenceEngine(catalog, chunk_rows=256,
                                   workers=workers, pair_limit=pair_limit)

        with pytest.raises(ExecutionError, match="would materialize"):
            streamed(total - 1).execute(sql)
        whole = ReferenceEngine(catalog, chunk_rows=1 << 30)
        assert_results_match(streamed(total).execute(sql), whole.execute(sql),
                             context=sql)


# --------------------------------------------------------------------------- #
# Cancellation mid-stream
# --------------------------------------------------------------------------- #


class TestCancellation:
    def test_cancel_mid_stream(self, catalog):
        token = CancellationToken()
        engine = ReferenceEngine(catalog, chunk_rows=64, cancel_token=token)
        cancelled_after = {"chunks": 0}

        original = ReferenceEngine.execute_bound

        # Cancel from a second thread shortly after execution starts.
        def cancel_soon():
            token.cancel("client disconnect")

        timer = threading.Timer(0.01, cancel_soon)
        timer.start()
        try:
            with pytest.raises(QueryCancelled, match="client disconnect"):
                while True:  # keep issuing until the token fires
                    engine.execute(SSB_QUERIES["Q3.1"])
                    cancelled_after["chunks"] += 1
        finally:
            timer.cancel()
        assert original is ReferenceEngine.execute_bound  # no monkeypatching

    def test_deadline_cancels_streaming_query(self, catalog):
        token = CancellationToken(deadline_s=0.0)
        engine = ReferenceEngine(catalog, chunk_rows=64,
                                 cancel_token=token, workers=2)
        with pytest.raises(QueryCancelled, match="time budget"):
            engine.execute(SSB_QUERIES["Q2.1"])


# --------------------------------------------------------------------------- #
# Chunk.stats thread safety
# --------------------------------------------------------------------------- #


class TestChunkStatsRace:
    def test_concurrent_stats_computation(self):
        """Hammer one chunk's lazy stats from many threads: every thread
        must observe the same (correct) object, never a torn compute."""
        rng = np.random.default_rng(99)
        table = Table.from_dict("t", {"a": rng.integers(0, 1000, 8192)})
        for _ in range(20):  # fresh chunk each round to re-race the cache
            chunk = table.chunked(8192).chunks[0]
            table._chunked = {}  # drop memoized partitioning
            results = [None] * 8
            barrier = threading.Barrier(8)

            def compute(slot, chunk=chunk, results=results, barrier=barrier):
                barrier.wait()
                results[slot] = chunk.stats("a")

            threads = [threading.Thread(target=compute, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r is results[0] for r in results)
            expected = table.column("a").data
            assert results[0].min_value == float(expected.min())
            assert results[0].max_value == float(expected.max())
            assert results[0].n_rows == expected.size
