"""The concurrent query server: sessions, admission control, budgets."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import AdmissionError, ExecutionError, QueryCancelled
from repro.datasets.ssb import ssb_catalog
from repro.engine.reference import ReferenceEngine
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


class TestSessions:
    def test_concurrent_sessions_share_catalog(self, catalog):
        with QueryServer(catalog, engine="tcudb", max_concurrent=2,
                         workers=2) as server:
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
                         workers=2,
                         engine_kwargs={"chunk_rows": 512}) as server:
            session = server.session()
            result = session.execute(SSB_QUERIES["Q1.2"], timeout=60)
            assert result.extra["workers"] == 2

    def test_closed_server_rejects(self, catalog):
        server = QueryServer(catalog, engine="reference")
        session = server.session()
        server.close()
        with pytest.raises(ExecutionError, match="closed"):
            session.submit("SELECT d_year FROM ddate")


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
