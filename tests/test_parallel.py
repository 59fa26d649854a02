"""Chunk-loop execution: cancellation, pair budgets, determinism and
thread safety.

The chunk loops run in order on the executing thread.  Under test: the
cancel token is polled once per chunk task, and a query cancelled at
any poll leaves its engine able to answer the next one; one join's pair
budget spans all of its probe chunks; repeated runs are bit-identical;
and what concurrent server sessions share — the lazy chunk statistics
and the fast backend's scratch buffers — stays correct under a race.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from differential_utils import assert_results_match
from repro.bench.verify import TCU_REL
from repro.common.errors import ExecutionError, QueryCancelled
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine.cancel import CancellationToken
from repro.engine.physical import PhysicalExecutor
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.engine.ydb import YDBEngine
from repro.hardware.gpu import GPUDevice
from repro.sql.binder import bind
from repro.sql.logical import Join, Scan
from repro.sql.parser import parse
from repro.sql.planner import plan
from repro.storage.table import Table
from repro.tensor.backend import FastBackend
from repro.tensor.precision import Precision
from repro.workloads import SSB_QUERIES
from test_fuzz_queries import FUZZ_SEED, QueryGenerator


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=4000, seed=23)


# The matcher rejects MIN: the query runs on TCUDB's YDB fallback.
FALLBACK_SQL = "SELECT MIN(a.val) AS m FROM a, b WHERE a.id = b.id"


def rows_of(result):
    return sorted(map(tuple, result.require_table().rows()))


class PollCounter(CancellationToken):
    """A token that counts its polls and cancels itself at poll
    ``fire_at`` (None: never)."""

    def __init__(self, fire_at: int | None = None):
        super().__init__()
        self.polls = 0
        self.fire_at = fire_at

    def raise_if_cancelled(self) -> None:
        self.polls += 1
        if self.polls == self.fire_at:
            self.cancel("poll limit")
        super().raise_if_cancelled()


# --------------------------------------------------------------------------- #
# Determinism and the cumulative pair budget
# --------------------------------------------------------------------------- #


class TestChunkLoops:
    @pytest.mark.parametrize("sql", [
        "SELECT d_year, SUM(lo_revenue) AS rev, COUNT(*) AS n "
        "FROM lineorder, ddate WHERE lo_orderdate = d_datekey "
        "GROUP BY d_year ORDER BY d_year;",
        "SELECT d_year, MIN(lo_revenue) AS lo, MAX(lo_revenue) AS hi, "
        "AVG(lo_quantity) AS qty "
        "FROM lineorder, ddate WHERE lo_orderdate = d_datekey "
        "GROUP BY d_year ORDER BY d_year;",
    ], ids=["grid", "partials"])
    def test_tcudb_repeat_runs_bit_identical(self, catalog, sql):
        engine = TCUDBEngine(catalog, options=TCUDBOptions(chunk_rows=512))
        first = engine.execute(sql).require_table()
        second = engine.execute(sql).require_table()
        assert first.column_names == second.column_names
        for name in first.column_names:
            assert np.array_equal(first.column(name).data,
                                  second.column(name).data)
        assert_results_match(engine.execute(sql),
                             ReferenceEngine(catalog).execute(sql),
                             rel=TCU_REL, context=sql)

    def test_pruning_counters_deterministic(self, catalog):
        sql = ("SELECT SUM(lo_revenue) AS r FROM lineorder "
               "WHERE lo_quantity < 10")
        a = ReferenceEngine(catalog, chunk_rows=256).execute(sql)
        b = ReferenceEngine(catalog, chunk_rows=256).execute(sql)
        assert a.extra["chunks_pruned"] == b.extra["chunks_pruned"]
        assert a.extra["chunks_scanned"] == b.extra["chunks_scanned"]
        chunks = catalog.chunked("lineorder", 256).num_chunks
        assert a.extra["chunks_pruned"] + a.extra["chunks_scanned"] == chunks

    def test_pair_limit_is_cumulative(self, catalog):
        """One join's pair budget spans all of its probe chunks: a limit
        one below the join's total fails, the total itself returns the
        whole-table oracle's rows."""
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
                                   pair_limit=pair_limit)

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
        engine = ReferenceEngine(catalog, chunk_rows=64, cancel_token=token)
        with pytest.raises(QueryCancelled, match="time budget"):
            engine.execute(SSB_QUERIES["Q2.1"])

    def test_deadline_token_self_fires(self):
        token = CancellationToken(deadline_s=0.0)
        with pytest.raises(QueryCancelled, match="time budget"):
            token.raise_if_cancelled()
        assert token.cancelled

    def test_stream_polls_the_token_per_task(self, catalog):
        """A token cancelled inside one chunk task stops the stream before
        the next task starts."""
        token = CancellationToken()
        bound = bind(parse(SSB_QUERIES["Q1.1"]), catalog)
        executor = PhysicalExecutor(bound, cancel_token=token)
        seen = []

        def task(i):
            seen.append(i)
            if i == 3:
                token.cancel("test cancel")
            return []

        with pytest.raises(QueryCancelled, match="test cancel"):
            list(executor._stream([lambda i=i: task(i) for i in range(10)]))
        assert seen == [0, 1, 2, 3]

    @pytest.mark.parametrize("chunk_rows", [16, 64, 256, 1 << 30],
                             ids=["16", "64", "256", "whole"])
    def test_reference_polls_at_every_chunk(self, catalog, chunk_rows):
        """The reference walk polls at least once per lineorder chunk it
        streams; a token firing at the first, a middle or the last poll
        cancels, and the engine's next run returns the uncancelled
        rows."""
        sql = SSB_QUERIES["Q3.1"]  # no lineorder filter: no chunk pruned
        counter = PollCounter()
        engine = ReferenceEngine(catalog, chunk_rows=chunk_rows,
                                 cancel_token=counter)
        expected = rows_of(engine.execute(sql))
        chunks = catalog.chunked("lineorder", chunk_rows).num_chunks
        assert counter.polls > chunks
        for fire_at in sorted({1, counter.polls // 2, counter.polls}):
            engine.cancel_token = PollCounter(fire_at)
            with pytest.raises(QueryCancelled, match="poll limit"):
                engine.execute(sql)
        engine.cancel_token = None
        assert rows_of(engine.execute(sql)) == expected

    @pytest.mark.parametrize("query_id", sorted(SSB_QUERIES))
    def test_tcudb_cancels_at_every_poll(self, catalog, query_id):
        """TCUDB polls the token before each program op: a token firing
        at any of those polls cancels the query, and the engine answers
        the next run with the uncancelled rows."""
        sql = SSB_QUERIES[query_id]
        engine = TCUDBEngine(catalog, options=TCUDBOptions(chunk_rows=512))
        engine.cancel_token = counter = PollCounter()
        expected = rows_of(engine.execute(sql))
        assert counter.polls > 0
        for fire_at in range(1, counter.polls + 1):
            engine.cancel_token = PollCounter(fire_at)
            with pytest.raises(QueryCancelled, match="poll limit"):
                engine.execute(sql)
        engine.cancel_token = None
        assert rows_of(engine.execute(sql)) == expected

    def test_fallback_polls_the_token(self, small_catalog, monkeypatch):
        """A query the matcher rejects runs on the YDB fallback, whose
        walk polls TCUDB's token once per chunk: a token firing at any of
        those polls cancels, and the fallback engine is left unarmed."""
        sql = FALLBACK_SQL
        # a: 3 chunks, b: 2
        engine = TCUDBEngine(small_catalog,
                             options=TCUDBOptions(chunk_rows=2))
        fallback = engine._fallback
        inner = fallback.execute_bound
        window = []

        def bracketed(bound):
            token = engine.cancel_token
            window.append(token.polls)
            try:
                return inner(bound)
            finally:
                window.append(token.polls)

        monkeypatch.setattr(fallback, "execute_bound", bracketed)
        engine.cancel_token = PollCounter()
        expected = engine.execute(sql)
        assert expected.extra["executed_by"] == "YDB-fallback"
        start, end = window[:2]
        assert end - start >= small_catalog.chunked("a", 2).num_chunks
        assert fallback.cancel_token is None
        for fire_at in range(start + 1, end + 1):
            engine.cancel_token = PollCounter(fire_at)
            with pytest.raises(QueryCancelled, match="poll limit"):
                engine.execute(sql)
            assert fallback.cancel_token is None
        engine.cancel_token = PollCounter()
        assert rows_of(engine.execute(sql)) == rows_of(expected)

    def test_fallback_walks_at_the_engine_chunk_size(self, small_catalog,
                                                      monkeypatch):
        """``TCUDBOptions.chunk_rows`` reaches the YDB fallback, whatever
        ``REPRO_CHUNK_ROWS`` says: at two rows a chunk its walk polls
        exactly as often as a YDB engine walking two-row chunks."""

        def ydb_polls(chunk_rows):
            monkeypatch.setenv("REPRO_CHUNK_ROWS", str(chunk_rows))
            ydb = YDBEngine(small_catalog)
            ydb.cancel_token = counter = PollCounter()
            ydb.execute(FALLBACK_SQL)
            return counter.polls

        walk = ydb_polls(2)
        assert walk > ydb_polls(4096)
        engine = TCUDBEngine(small_catalog,
                             options=TCUDBOptions(chunk_rows=2))
        polls = []
        inner = engine._fallback.execute_bound

        def counted(bound):
            start = engine.cancel_token.polls
            try:
                return inner(bound)
            finally:
                polls.append(engine.cancel_token.polls - start)

        monkeypatch.setattr(engine._fallback, "execute_bound", counted)
        engine.cancel_token = PollCounter()
        assert engine.execute(FALLBACK_SQL).extra["executed_by"] == (
            "YDB-fallback")
        assert polls == [walk]


# --------------------------------------------------------------------------- #
# Thread safety of what concurrent sessions share
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


class TestScratchRace:
    def test_threads_sharing_a_fast_backend_keep_their_products(self):
        """Threads accumulating same-shaped products through one fast
        backend each reuse a scratch buffer of their own: at a 1 µs
        switch interval, every accumulated grid is still byte-equal to
        its own product."""
        backend, device = FastBackend(), GPUDevice()
        rng = np.random.default_rng(7)
        operands = [(rng.normal(size=(48, 32)).astype(np.float32),
                     rng.normal(size=(32, 48)).astype(np.float32))
                    for _ in range(8)]
        expected = [(np.zeros((48, 48)) + a @ b).tobytes()
                    for a, b in operands]
        wrong = []
        barrier = threading.Barrier(len(operands))

        def accumulate(slot):
            a, b = operands[slot]
            barrier.wait()
            for _ in range(50):
                acc = backend.matmul_into(np.zeros((48, 48)), device, a, b,
                                          Precision.FP16)
                if acc.tobytes() != expected[slot]:
                    wrong.append(slot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=accumulate, args=(slot,))
                       for slot in range(len(operands))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
