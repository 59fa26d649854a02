"""A concurrent query server over one shared catalog.

This module makes *many* queries safe to run at once.  A
:class:`QueryServer` owns one immutable :class:`~repro.storage.catalog.Catalog`
and a pool of executor threads; any number of :class:`Session` handles
submit SQL concurrently.  The design mirrors the classic analytic-serving
shape:

* **shared catalog, per-session engines** — table arrays are read-only
  and shared zero-copy across every session; each session lazily builds
  its own engine instance (engines carry per-query scratch state such as
  optimizer decisions and cancellation tokens, so they are never shared
  between threads);
* **admission control** — at most ``max_concurrent`` queries execute at
  once and at most ``max_queued`` wait; a submit beyond both fails fast
  with :class:`~repro.common.errors.AdmissionError` instead of queueing
  unboundedly;
* **per-query budgets** — a :class:`QueryBudget` caps host wall-clock
  seconds (enforced cooperatively through the executor's
  :class:`~repro.engine.cancel.CancellationToken`, polled at chunk/op
  boundaries) and result rows (enforced on completion);
* **cooperative cancellation** — :meth:`QueryTicket.cancel` flips the
  query's token; a streaming query stops at its next chunk boundary and
  the ticket resolves with :class:`~repro.common.errors.QueryCancelled`;
* **compile-once serving** — the server owns one shared
  :class:`~repro.engine.cache.ProgramCache`; every TCUDB session engine
  attaches to it, so a statement is lowered/fused once and every
  session afterwards reuses the program (see
  :meth:`Session.prepare` and docs/serving.md).

Thread-safety contract: ``QueryServer`` internals (queue, counters,
lifecycle flags) are guarded by one lock; ``submit``/``execute``/
``prepare``/``stats``/``cache_stats`` may be called from any thread.
A ``Session`` itself is *not* a concurrency primitive — its lazily
built engine carries per-query state (cancellation token, optimizer
decisions), so one session's queries run one at a time (a per-session
lock around each execution) while distinct sessions run concurrently.
Shared read-only structures — the catalog, cached ``TensorProgram``
templates, ``PreparedStatement`` objects — are safe to share across all
sessions; per-run state lives in each execution's private
``ProgramContext``.

Where a query runs: :meth:`Session.submit` always queues it for the
pool.  :meth:`Session.execute` without a ``timeout`` runs it on the
calling thread when the server could start it at once — nothing queued
and a slot free — and queues it otherwise; with a ``timeout`` it always
queues, so a caller that stops waiting leaves the query on the pool.
An inline run takes a slot like a pool run: ``max_concurrent`` bounds
both together.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum

from repro.common.errors import (
    AdmissionError,
    ConfigError,
    ExecutionError,
    InternalError,
    QueryCancelled,
    ReproError,
    ServerClosed,
)
from repro.common.faults import (
    SITE_SESSION_RUN,
    active_plan,
    fault_point,
    suppress,
)
from repro.engine import create_engine
from repro.engine.base import QueryResult
from repro.engine.cache import ProgramCache
from repro.engine.cancel import CancellationToken
from repro.sql.prepared import PreparedStatement
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class QueryBudget:
    """Per-query resource limits enforced by the server.

    ``max_seconds`` arms the cancellation token's deadline (host
    wall-clock; the query dies cooperatively at the first chunk/operator
    boundary past it).  ``max_rows`` bounds the *result* cardinality:
    checked when the result materializes, so an aggregate over billions
    of input rows with a three-row answer passes a small budget.
    ``max_retries`` is the server-level retry budget: how many times a
    *retryable* failure (transient error, unavailable backend) is
    re-run, at once, before the query degrades to the reference
    fallback.  A negative limit raises :class:`ConfigError`.
    """

    max_seconds: float | None = None
    max_rows: int | None = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        for name in ("max_seconds", "max_rows", "max_retries"):
            limit = getattr(self, name)
            if limit is not None and limit < 0:
                raise ConfigError(f"QueryBudget.{name} must be >= 0, "
                                  f"got {limit}")


class TicketState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class QueryTicket:
    """Handle for one submitted query: await it, or cancel it."""

    def __init__(
        self,
        sql: str | PreparedStatement,
        token: CancellationToken,
        params: dict | list | tuple | None = None,
    ):
        self.sql = sql
        self.params = params
        self.token = token
        self._done = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None
        self._state = TicketState.QUEUED
        self._lock = threading.Lock()

    # -- owner side ---------------------------------------------------- #

    @property
    def state(self) -> TicketState:
        return self._state

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Request cooperative cancellation; the query stops at its next
        chunk/operator boundary (a no-op once the ticket resolved)."""
        self.token.cancel(reason)

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the query resolves; raises what the query raised
        (:class:`QueryCancelled` for cancelled/expired queries)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query still {self._state.value} after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- server side --------------------------------------------------- #

    def _start(self) -> None:
        with self._lock:
            self._state = TicketState.RUNNING

    def _resolve(self, result: QueryResult) -> None:
        with self._lock:
            self._result = result
            self._state = TicketState.DONE
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
            self._state = (
                TicketState.CANCELLED
                if isinstance(error, QueryCancelled)
                else TicketState.FAILED
            )
        self._done.set()


class CircuitBreaker:
    """Per-engine-path circuit breaker (CLOSED -> OPEN -> HALF_OPEN).

    ``record_failure`` counts *consecutive* infrastructure failures
    (retryable errors and :class:`InternalError`; user errors and
    cancellations never trip the breaker).  After ``threshold`` of
    them the breaker opens: :meth:`allow` returns False and the server
    routes queries to the reference fallback without touching the
    broken path.  Once ``cooldown_s`` host seconds pass, the next
    ``allow`` admits exactly one half-open probe; its success closes
    the breaker, its failure re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, path: str, threshold: int = 5,
                 cooldown_s: float = 1.0):
        if threshold < 1:
            raise ExecutionError("breaker threshold must be >= 1")
        self.path = path
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._opens = 0

    def allow(self) -> bool:
        """May the primary path take this query?"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if time.monotonic() - self._opened_at < self.cooldown_s:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            # HALF_OPEN: exactly one probe in flight.
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            failed_probe = self._state == self.HALF_OPEN
            self._probing = False
            if failed_probe or self._failures >= self.threshold:
                if self._state != self.OPEN:
                    self._opens += 1
                self._state = self.OPEN
                self._opened_at = time.monotonic()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "path": self.path,
                "state": self._state,
                "consecutive_failures": self._failures,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "opens": self._opens,
            }


class QueryServer:
    """Admission-controlled concurrent execution over a shared catalog.

    ``max_concurrent`` executor threads drain a bounded FIFO of admitted
    tickets, each starting one only while fewer than ``max_concurrent``
    queries run (inline :meth:`Session.execute` runs take slots too).
    """

    def __init__(
        self,
        catalog: Catalog,
        engine: str = "tcudb",
        max_concurrent: int = 2,
        max_queued: int = 8,
        default_budget: QueryBudget | None = None,
        engine_kwargs: dict | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
        admission_timeout_s: float | None = None,
    ):
        if max_concurrent <= 0:
            raise ExecutionError("max_concurrent must be positive")
        if max_queued < 0:
            raise ExecutionError("max_queued must be >= 0")
        self.catalog = catalog
        self.engine_name = engine
        self.max_concurrent = max_concurrent
        self.max_queued = max_queued
        self.default_budget = default_budget or QueryBudget()
        self.engine_kwargs = dict(engine_kwargs or {})
        # One program cache for the whole server: lowering is memoized
        # across sessions (the cache is internally locked; cached
        # programs are stateless templates, so sharing is safe).
        self.program_cache = ProgramCache()
        self._lock = threading.Lock()
        self._queue: list[tuple[QueryTicket, Session]] = []
        self._running = 0
        self._closed = False
        self._idle = threading.Condition(self._lock)
        # Signalled when a ticket is queued or a slot frees with one
        # queued: what a pool thread waits for.
        self._ready = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        for i in range(max_concurrent):
            thread = threading.Thread(
                target=self._drain, name=f"query-server-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        # Served-query counters (under self._lock).
        self.stats = {"admitted": 0, "rejected": 0, "completed": 0,
                      "failed": 0, "cancelled": 0, "retried": 0,
                      "degraded": 0, "shed": 0, "internal_errors": 0}
        # Resilience machinery: the primary-path circuit breaker and
        # bounded admission waits.
        self.breaker = CircuitBreaker(
            path=self.engine_name, threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        self.admission_timeout_s = admission_timeout_s

    # -- session factory ------------------------------------------------ #

    def session(self) -> "Session":
        return Session(self)

    # -- admission ------------------------------------------------------ #

    def _submit(self, session: "Session", sql: str | PreparedStatement,
                budget: QueryBudget | None,
                params: dict | list | tuple | None = None,
                inline: bool = False) -> QueryTicket:
        """Admit one query and return its ticket.  ``inline``: when
        nothing is queued and a slot is free, run it on this thread
        before returning (the ticket comes back resolved); otherwise it
        queues, as every ``inline=False`` query does."""
        budget = budget or self.default_budget
        token = CancellationToken(deadline_s=budget.max_seconds)
        ticket = QueryTicket(sql, token, params=params)
        ticket._budget = budget  # type: ignore[attr-defined]
        limit = self.max_concurrent + self.max_queued
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            # FIFO: run inline only when no admitted query waits.
            inline = (inline and not self._queue
                      and self._running < self.max_concurrent)
            deadline = (time.monotonic() + self.admission_timeout_s
                        if self.admission_timeout_s is not None else None)
            while len(self._queue) + self._running >= limit:
                # Load shedding: with no admission timeout configured,
                # fail fast; with one, wait — bounded — for capacity and
                # shed the query with a typed error when it elapses,
                # never an unbounded block.
                if deadline is None:
                    self.stats["rejected"] += 1
                    backlog = len(self._queue) + self._running
                    raise AdmissionError(
                        f"admission queue full ({backlog} queries in "
                        f"flight, limit {self.max_concurrent}"
                        f"+{self.max_queued})"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stats["rejected"] += 1
                    self.stats["shed"] += 1
                    raise AdmissionError(
                        f"admission timed out after "
                        f"{self.admission_timeout_s}s (queue full); "
                        f"query shed"
                    )
                self._idle.wait(remaining)
                if self._closed:
                    raise ServerClosed("server is closed")
            self.stats["admitted"] += 1
            if inline:
                self._running += 1
            else:
                self._queue.append((ticket, session))
                self._ready.notify()
        if inline:
            self._run(ticket, session)
        return ticket

    # -- executor loop --------------------------------------------------- #

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._closed and not (
                        self._queue and self._running < self.max_concurrent):
                    self._ready.wait()
                if self._closed:  # close() resolved every queued ticket
                    return
                ticket, session = self._queue.pop(0)
                self._running += 1
            self._run(ticket, session)

    def _run(self, ticket: QueryTicket, session: "Session") -> None:
        """Execute an admitted ticket in the slot already counted for it,
        one query per session at a time, then free the slot."""
        try:
            with session._run_lock:
                self._execute(ticket, session)
        finally:
            with self._lock:
                self._running -= 1
                self._idle.notify_all()
                if self._queue:
                    self._ready.notify()

    @staticmethod
    def _as_library_error(error: Exception) -> ReproError:
        """Type every escaping failure: non-library exceptions wrap as
        :class:`InternalError` (cause chained) so no raw
        ``RuntimeError``/``ValueError`` crosses the server boundary."""
        if isinstance(error, ReproError):
            return error
        wrapped = InternalError(f"{type(error).__name__}: {error}")
        wrapped.__cause__ = error
        return wrapped

    def _run_on(self, ticket: QueryTicket, engine) -> QueryResult:
        """Run the ticket's statement on *engine* with the token armed."""
        # Engines poll the token at chunk/operator boundaries.
        engine.cancel_token = ticket.token
        try:
            if ticket.params is None:
                return engine.execute(ticket.sql)
            return engine.execute(ticket.sql, params=ticket.params)
        finally:
            engine.cancel_token = None

    def _run_primary(self, ticket: QueryTicket, session: "Session",
                     budget: QueryBudget, resilience: dict) -> QueryResult:
        """The primary engine path under the per-query retry budget: a
        retryable library error re-runs at once, up to
        ``budget.max_retries`` times, each retry logged by error class.
        The only retryable errors come from injected faults, so there
        is no backoff to wait out."""
        engine = session._engine()
        log: list[dict] = []
        try:
            while True:
                try:
                    fault_point(SITE_SESSION_RUN)
                    return self._run_on(ticket, engine)
                except ReproError as error:
                    if not error.retryable or len(log) >= budget.max_retries:
                        raise
                    log.append({"error": type(error).__name__})
                    ticket.token.raise_if_cancelled()
        finally:
            if log:
                resilience["retries"] = log
                with self._lock:
                    self.stats["retried"] += 1

    def _execute(self, ticket: QueryTicket, session: "Session") -> None:
        ticket._start()
        budget: QueryBudget = ticket._budget  # type: ignore[attr-defined]
        started = time.perf_counter()
        resilience: dict = {}
        try:
            ticket.token.raise_if_cancelled()
            result = None
            if self.breaker.allow():
                try:
                    result = self._run_primary(ticket, session, budget,
                                               resilience)
                    self.breaker.record_success()
                except QueryCancelled:
                    raise
                except Exception as error:
                    wrapped = self._as_library_error(error)
                    infrastructure = (wrapped.retryable
                                      or isinstance(wrapped, InternalError))
                    if not infrastructure:
                        raise wrapped
                    # Engine-path trouble: count it toward the breaker
                    # and fall through to the reference fallback below.
                    self.breaker.record_failure()
                    if isinstance(wrapped, InternalError):
                        with self._lock:
                            self.stats["internal_errors"] += 1
                    resilience["degraded_from"] = self.engine_name
                    resilience["cause"] = (
                        f"{type(wrapped).__name__}: {wrapped}")
            else:
                resilience["degraded_from"] = self.engine_name
                resilience["cause"] = "circuit breaker open"
            if result is None:
                # Degradation rung: the exact (if slower) reference
                # engine, with fault injection suppressed — a recovery
                # path that can itself be killed by the plan that broke
                # the primary would never converge.
                with self._lock:
                    self.stats["degraded"] += 1
                resilience["route"] = "reference-fallback"
                try:
                    with suppress():
                        result = self._run_on(
                            ticket, session._fallback_engine())
                except QueryCancelled:
                    raise
                except Exception as error:
                    raise self._as_library_error(error) from error
            if budget.max_rows is not None and result.n_rows > budget.max_rows:
                raise ExecutionError(
                    f"result exceeds row budget: {result.n_rows} rows "
                    f"(> {budget.max_rows})"
                )
            if resilience:
                resilience.setdefault("route", "primary")
                result.extra["resilience"] = resilience
            result.extra["host_seconds"] = time.perf_counter() - started
            result.extra["session"] = session.session_id
        except BaseException as error:  # resolve, never kill the worker
            if isinstance(error, Exception):
                error = self._as_library_error(error)
            with self._lock:
                key = ("cancelled" if isinstance(error, QueryCancelled)
                       else "failed")
                self.stats[key] += 1
            ticket._fail(error)
            return
        with self._lock:
            self.stats["completed"] += 1
        ticket._resolve(result)

    # -- observability --------------------------------------------------- #

    def cache_stats(self) -> dict:
        """Snapshot of the shared program cache's counters."""
        return self.program_cache.stats()

    def health(self) -> dict:
        """Liveness snapshot: ``ok`` / ``degraded`` (breaker not
        closed: primary-path queries are routed to the reference
        fallback) / ``closed``."""
        breaker = self.breaker.snapshot()
        with self._lock:
            closed = self._closed
            queued = len(self._queue)
            running = self._running
        if closed:
            status = "closed"
        elif breaker["state"] != CircuitBreaker.CLOSED:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "queued": queued,
            "running": running,
            "max_concurrent": self.max_concurrent,
            "max_queued": self.max_queued,
            "breaker": breaker,
        }

    def resilience_stats(self) -> dict:
        """Recovery counters: retries, degradations, sheds, breaker
        opens, and — when a fault plan is active — its injection
        ledger."""
        with self._lock:
            queries = dict(self.stats)
        plan = active_plan()
        return {
            "queries": queries,
            "breaker": self.breaker.snapshot(),
            "fault_plan": plan.stats() if plan is not None else None,
        }

    # -- lifecycle ------------------------------------------------------- #

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no query is queued or running."""
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._idle:
            while self._queue or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        """Stop accepting queries and shut the executor threads down.

        RUNNING queries complete; QUEUED tickets resolve immediately as
        CANCELLED with a typed :class:`ServerClosed` error — a caller
        blocked in :meth:`QueryTicket.result` is never left hanging on
        a ticket no worker will ever pick up.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            abandoned = self._queue[:]
            self._queue.clear()
            self.stats["cancelled"] += len(abandoned)
            self._idle.notify_all()  # wake admission waiters to reject
            self._ready.notify_all()  # wake every worker so it can exit
        for ticket, _session in abandoned:
            ticket._fail(ServerClosed(
                "server closed before the query started"))
        for thread in self._threads:
            thread.join(timeout=30.0)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Session:
    """One client's handle on the server.

    Sessions are cheap: they share the server's catalog and lazily build
    one private engine (first use), so per-query state — optimizer
    decisions, fallback bookkeeping, the cancellation token — never
    crosses sessions, and its queries run one at a time.  A session
    submits from its owning thread; its queries execute on the server
    pool, or on that thread for a synchronous :meth:`execute`.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, server: QueryServer):
        self.server = server
        with Session._counter_lock:
            Session._counter += 1
            self.session_id = Session._counter
        self._engine_instance = None
        self._fallback_instance = None
        self._engine_lock = threading.Lock()
        # Held for each execution: the engine's cancel token and
        # per-query state belong to one query at a time.
        self._run_lock = threading.Lock()

    def _engine(self):
        with self._engine_lock:
            if self._engine_instance is None:
                kwargs = dict(self.server.engine_kwargs)
                name = self.server.engine_name
                if name.lower() == "tcudb":
                    kwargs.setdefault("program_cache",
                                      self.server.program_cache)
                self._engine_instance = create_engine(
                    name, self.server.catalog, **kwargs
                )
                if not hasattr(self._engine_instance, "cancel_token"):
                    self._engine_instance.cancel_token = None
            return self._engine_instance

    def _fallback_engine(self):
        """The degradation target: a lazily built, session-private
        reference engine (exact row-by-row evaluator over the same
        shared catalog).  Session-private like the primary — engines
        carry a per-query cancellation token, so sharing one across
        sessions would race."""
        with self._engine_lock:
            if self._fallback_instance is None:
                self._fallback_instance = create_engine(
                    "reference", self.server.catalog
                )
            return self._fallback_instance

    def prepare(self, sql: str) -> PreparedStatement:
        """Compile a statement once for repeated execution.

        The returned template is immutable and may be executed with any
        parameter values, by this session or any other on the same
        server (its compiled program lives in the server-wide cache).
        """
        return self._engine().prepare(sql)

    def submit(self, sql: str | PreparedStatement,
               budget: QueryBudget | None = None,
               params: dict | list | tuple | None = None) -> QueryTicket:
        """Enqueue one query (SQL text or a prepared statement, with
        optional parameter values); raises AdmissionError when the
        server is saturated past its queue bound."""
        return self.server._submit(self, sql, budget, params=params)

    def execute(self, sql: str | PreparedStatement,
                budget: QueryBudget | None = None,
                timeout: float | None = None,
                params: dict | list | tuple | None = None) -> QueryResult:
        """Run one query and return its result.

        Without a ``timeout`` the query runs on this thread when the
        server could start it at once (nothing queued, a slot free) and
        waits its turn on the pool otherwise.  With one it always runs on
        the pool, and :class:`TimeoutError` leaves it running there."""
        if timeout is not None:
            return self.submit(sql, budget, params=params).result(timeout)
        return self.server._submit(self, sql, budget, params=params,
                                   inline=True).result()


__all__ = [
    "CircuitBreaker",
    "QueryBudget",
    "QueryServer",
    "QueryTicket",
    "Session",
    "TicketState",
]
