"""The concurrent query server: sessions, admission control, budgets."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.common.errors import (
    AdmissionError,
    ConfigError,
    ExecutionError,
    QueryCancelled,
    ServerClosed,
)
from repro.datasets.ssb import ssb_catalog
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import TCUDBOptions
from repro.serve import QueryBudget, QueryServer, Session, TicketState
from repro.workloads import SSB_QUERIES


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=3000, seed=29)


class BlockingEngine:
    """Test double: holds every query until ``release`` fires."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.cancel_token = None

    def execute(self, sql):
        self.started.set()
        while not self.release.wait(0.01):
            if self.cancel_token is not None:
                self.cancel_token.raise_if_cancelled()
        from repro.engine.base import QueryResult
        from repro.common.timing import TimingBreakdown

        return QueryResult(engine="blocking", n_rows=0,
                           breakdown=TimingBreakdown())


class CountingEngine(BlockingEngine):
    """Test double: a :class:`BlockingEngine` that records, per query, its
    SQL, the thread it runs on and the cancel token armed for it, and
    the most queries it ever ran at once."""

    def __init__(self, release: bool = False):
        super().__init__()
        if release:
            self.release.set()
        self.sql: list[str] = []
        self.threads: list[int] = []
        self.tokens: list = []
        self.active = self.peak = 0
        self._count = threading.Lock()

    def execute(self, sql):
        with self._count:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.sql.append(sql)
            self.threads.append(threading.get_ident())
            self.tokens.append(self.cancel_token)
        try:
            return super().execute(sql)
        finally:
            with self._count:
                self.active -= 1


def in_thread(call):
    """Start ``call`` on a new thread; returns the thread and a dict that
    receives its ``result``, or its ``error``, and its thread ``ident``."""
    outcome: dict = {}

    def run():
        outcome["ident"] = threading.get_ident()
        try:
            outcome["result"] = call()
        except Exception as error:  # handed to the test
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestSessions:
    def test_concurrent_sessions_share_catalog(self, catalog):
        with QueryServer(catalog, engine="tcudb",
                         max_concurrent=2) as server:
            oracle = ReferenceEngine(catalog)
            sessions = [server.session() for _ in range(3)]
            tickets = [
                session.submit(SSB_QUERIES[qid])
                for session, qid in zip(sessions, ["Q1.1", "Q2.1", "Q3.1"])
            ]
            for (session, qid), ticket in zip(
                zip(sessions, ["Q1.1", "Q2.1", "Q3.1"]), tickets
            ):
                result = ticket.result(timeout=120)
                assert ticket.state is TicketState.DONE
                assert result.extra["session"] == session.session_id
                expected = oracle.execute(SSB_QUERIES[qid])
                got = sorted(map(tuple, result.require_table().rows()))
                want = sorted(map(tuple, expected.require_table().rows()))
                assert len(got) == len(want)
            assert server.stats["completed"] == 3
            assert server.drain(timeout=5)

    def test_reference_engine_server(self, catalog):
        with QueryServer(catalog, engine="reference", max_concurrent=2,
                         engine_kwargs={"chunk_rows": 512}) as server:
            session = server.session()
            result = session.execute(SSB_QUERIES["Q1.2"], timeout=60)
            assert result.extra["oracle"]
            assert session._engine().chunk_rows == 512

    def test_shared_options_are_not_written(self, catalog):
        """Every session engine reads the caller's TCUDBOptions; none
        writes to it."""
        opts = TCUDBOptions(chunk_rows=512)
        before = dataclasses.asdict(opts)
        with QueryServer(catalog, engine="tcudb", max_concurrent=2,
                         engine_kwargs={"options": opts}) as server:
            sessions = [server.session() for _ in range(2)]
            for session in sessions:
                session.execute(SSB_QUERIES["Q1.1"], timeout=60)
            assert all(session._engine().options is opts
                       for session in sessions)
        assert dataclasses.asdict(opts) == before

    def test_closed_server_rejects(self, catalog):
        server = QueryServer(catalog, engine="reference")
        session = server.session()
        server.close()
        with pytest.raises(ExecutionError, match="closed"):
            session.submit("SELECT d_year FROM ddate")


def test_first_lookups_on_a_lazy_map_run_concurrently():
    """Two sessions make the first literal lookups on an all-distinct
    string column at once, both racing its lazy string -> code map."""
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=3000, seed=29)
    sql = ("SELECT p_brand1, COUNT(*) AS n, SUM(lo_quantity) AS q "
           "FROM lineorder, part WHERE lo_partkey = p_partkey "
           "AND p_name = '{}' GROUP BY p_brand1")
    names = ["Part0000007", "Part0001999"]
    barrier = threading.Barrier(len(names))
    with QueryServer(catalog, engine="tcudb", max_concurrent=2) as server:
        sessions = [server.session() for _ in names]

        def first_lookup(session, name):
            barrier.wait(timeout=30)
            return session.execute(sql.format(name), timeout=120)

        runs = [in_thread(lambda s=s, n=n: first_lookup(s, n))
                for s, n in zip(sessions, names)]
        for thread, _ in runs:
            thread.join(timeout=180)
            assert not thread.is_alive()
    oracle = ReferenceEngine(catalog)
    for (_, outcome), name in zip(runs, names):
        assert "error" not in outcome, outcome.get("error")
        got = outcome["result"].require_table().rows()
        want = oracle.execute(sql.format(name)).require_table().rows()
        assert got == want and len(got) == 1


class TestAdmissionControl:
    def test_queue_overflow_rejected(self, catalog, monkeypatch):
        engine = BlockingEngine()
        server = QueryServer(catalog, engine="reference", max_concurrent=1,
                             max_queued=1)
        monkeypatch.setattr(Session, "_engine",
                            lambda self: engine)
        try:
            session = server.session()
            running = session.submit("SELECT 1")  # occupies the one worker
            assert engine.started.wait(5)
            queued = session.submit("SELECT 2")  # fills the queue
            with pytest.raises(AdmissionError, match="admission queue full"):
                session.submit("SELECT 3")  # over capacity -> fail fast
            assert server.stats["rejected"] == 1
            engine.release.set()
            running.result(timeout=10)
            queued.result(timeout=10)
            assert server.stats["completed"] == 2
        finally:
            engine.release.set()
            server.close()

    def test_queued_query_can_be_cancelled(self, catalog, monkeypatch):
        engine = BlockingEngine()
        server = QueryServer(catalog, engine="reference", max_concurrent=1,
                             max_queued=2)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        try:
            session = server.session()
            running = session.submit("SELECT 1")
            assert engine.started.wait(5)
            queued = session.submit("SELECT 2")
            queued.cancel("abandoned")
            engine.release.set()
            running.result(timeout=10)
            with pytest.raises(QueryCancelled, match="abandoned"):
                queued.result(timeout=10)
            assert queued.state is TicketState.CANCELLED
            assert server.stats["cancelled"] == 1
        finally:
            engine.release.set()
            server.close()

    def test_running_query_cancelled_cooperatively(self, catalog,
                                                   monkeypatch):
        engine = BlockingEngine()
        server = QueryServer(catalog, engine="reference", max_concurrent=1)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        try:
            session = server.session()
            ticket = session.submit("SELECT 1")
            assert engine.started.wait(5)
            ticket.cancel("client gone")  # mid-execution
            with pytest.raises(QueryCancelled, match="client gone"):
                ticket.result(timeout=10)
        finally:
            engine.release.set()
            server.close()


class TestBudgets:
    def test_time_budget_cancels(self, catalog):
        with QueryServer(catalog, engine="reference", max_concurrent=1,
                         engine_kwargs={"chunk_rows": 64}) as server:
            session = server.session()
            with pytest.raises(QueryCancelled, match="time budget"):
                session.execute(SSB_QUERIES["Q3.1"],
                                budget=QueryBudget(max_seconds=0.0),
                                timeout=30)
            assert server.stats["cancelled"] == 1

    def test_row_budget_enforced(self, catalog):
        with QueryServer(catalog, engine="reference") as server:
            session = server.session()
            with pytest.raises(ExecutionError, match="row budget"):
                session.execute("SELECT lo_orderkey FROM lineorder",
                                budget=QueryBudget(max_rows=10), timeout=60)
            small = session.execute(
                "SELECT COUNT(*) AS c FROM lineorder",
                budget=QueryBudget(max_rows=10), timeout=60,
            )
            assert small.n_rows == 1

    @pytest.mark.parametrize("field", [
        "max_seconds", "max_rows", "max_retries",
    ])
    def test_negative_limit_is_a_config_error(self, field):
        with pytest.raises(ConfigError, match=field):
            QueryBudget(**{field: -1})
        assert getattr(QueryBudget(**{field: 0}), field) == 0

    def test_default_budget_applies(self, catalog):
        budget = QueryBudget(max_rows=1)
        with QueryServer(catalog, engine="reference",
                         default_budget=budget) as server:
            session = server.session()
            with pytest.raises(ExecutionError, match="row budget"):
                session.execute("SELECT d_datekey FROM ddate", timeout=60)


def test_result_timeout(catalog, monkeypatch):
    engine = BlockingEngine()
    server = QueryServer(catalog, engine="reference", max_concurrent=1)
    monkeypatch.setattr(Session, "_engine", lambda self: engine)
    try:
        ticket = server.session().submit("SELECT 1")
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.05)
    finally:
        engine.release.set()
        server.close()


class TestCallerRuns:
    """A synchronous ``Session.execute`` runs on the calling thread when
    the server could start it at once, and waits its turn otherwise."""

    def test_execute_runs_on_the_calling_thread(self, catalog, monkeypatch):
        engine = CountingEngine(release=True)
        server = QueryServer(catalog, engine="reference", max_concurrent=1)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        seen = []
        execute = engine.execute
        monkeypatch.setattr(engine, "execute", lambda sql: seen.append(
            server.health()) or execute(sql))
        try:
            session = server.session()
            result = session.execute("SELECT 1")
            assert engine.threads == [threading.get_ident()]
            assert result.extra["session"] == session.session_id
            assert "host_seconds" in result.extra
            assert seen[0]["running"] == 1 and seen[0]["queued"] == 0
            assert server.stats["admitted"] == server.stats["completed"] == 1
            assert server.health()["running"] == 0
            assert server.drain(timeout=1)
        finally:
            server.close()

    def test_execute_with_timeout_runs_on_the_pool(self, catalog,
                                                   monkeypatch):
        engine = CountingEngine(release=True)
        server = QueryServer(catalog, engine="reference", max_concurrent=1)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        try:
            server.session().execute("SELECT 1", timeout=10)
            assert engine.threads and (
                engine.threads[0] != threading.get_ident())
        finally:
            server.close()

    def test_execute_queues_behind_an_admitted_ticket(self, catalog,
                                                      monkeypatch):
        """FIFO: with a ticket queued ahead, a free slot does not let a
        synchronous query jump the queue."""
        engine = CountingEngine(release=True)
        gate = threading.Event()
        drain = QueryServer._drain

        def gated(server):  # the pool starts nothing before gate fires
            gate.wait()
            drain(server)

        monkeypatch.setattr(QueryServer, "_drain", gated)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        server = QueryServer(catalog, engine="reference", max_concurrent=1)
        try:
            ahead = server.session().submit("SELECT 1")
            thread, outcome = in_thread(
                lambda: server.session().execute("SELECT 2"))
            thread.join(0.2)
            assert thread.is_alive() and engine.sql == []
            assert server.health()["queued"] == 2
            gate.set()
            thread.join(10)
            ahead.result(timeout=10)
            assert engine.sql == ["SELECT 1", "SELECT 2"]
            assert "result" in outcome
            assert outcome["ident"] not in engine.threads
        finally:
            gate.set()
            server.close()

    def test_execute_waits_for_a_busy_slot(self, catalog, monkeypatch):
        engine = CountingEngine()
        server = QueryServer(catalog, engine="reference", max_concurrent=1)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        try:
            running = server.session().submit("SELECT 1")
            assert engine.started.wait(5)
            thread, outcome = in_thread(
                lambda: server.session().execute("SELECT 2"))
            thread.join(0.2)
            assert thread.is_alive() and engine.sql == ["SELECT 1"]
            assert server.health()["queued"] == 1
            engine.release.set()
            running.result(timeout=10)
            thread.join(10)
            assert "result" in outcome
            assert outcome["ident"] not in engine.threads
            assert engine.peak == 1
        finally:
            engine.release.set()
            server.close()

    def test_pool_respects_max_concurrent_during_an_inline_run(
            self, catalog, monkeypatch):
        """A ticket submitted while an inline run holds the only slot
        starts only after that run ends, although a pool thread idles."""
        engine = CountingEngine()
        server = QueryServer(catalog, engine="reference", max_concurrent=1)
        monkeypatch.setattr(Session, "_engine", lambda self: engine)
        try:
            thread, outcome = in_thread(
                lambda: server.session().execute("SELECT 1"))
            assert engine.started.wait(5)
            assert engine.threads == [outcome["ident"]]
            assert server.health()["running"] == 1
            submitted = server.session().submit("SELECT 2")
            thread.join(0.2)
            assert engine.sql == ["SELECT 1"]
            assert submitted.state is TicketState.QUEUED
            engine.release.set()
            thread.join(10)
            submitted.result(timeout=10)
            assert "result" in outcome
            assert engine.sql == ["SELECT 1", "SELECT 2"]
            assert engine.peak == 1
            assert server.stats["admitted"] == server.stats["completed"] == 2
        finally:
            engine.release.set()
            server.close()

    def test_inline_budgets(self, catalog):
        with QueryServer(catalog, engine="reference", max_concurrent=1,
                         engine_kwargs={"chunk_rows": 64}) as server:
            session = server.session()
            with pytest.raises(QueryCancelled, match="time budget"):
                session.execute(SSB_QUERIES["Q3.1"],
                                budget=QueryBudget(max_seconds=0.0))
            with pytest.raises(ExecutionError, match="row budget"):
                session.execute("SELECT lo_orderkey FROM lineorder",
                                budget=QueryBudget(max_rows=10))
            assert server.stats["cancelled"] == server.stats["failed"] == 1
            assert server.health()["running"] == 0

    def test_closed_server_raises_server_closed(self, catalog):
        server = QueryServer(catalog, engine="reference")
        session = server.session()
        server.close()
        with pytest.raises(ServerClosed):
            session.execute("SELECT d_year FROM ddate")


def test_one_sessions_queries_run_one_at_a_time(catalog, monkeypatch):
    """Two tickets of one session never overlap on two pool threads: the
    second starts once the first ends, with its own cancel token armed."""
    engine = CountingEngine()
    server = QueryServer(catalog, engine="reference", max_concurrent=2)
    monkeypatch.setattr(Session, "_engine", lambda self: engine)
    try:
        session = server.session()
        first = session.submit("SELECT 1")
        second = session.submit("SELECT 2")
        assert engine.started.wait(5)
        time.sleep(0.2)
        assert engine.sql == ["SELECT 1"]
        engine.release.set()
        first.result(timeout=10)
        second.result(timeout=10)
        assert engine.peak == 1
        assert engine.tokens == [first.token, second.token]
    finally:
        engine.release.set()
        server.close()
