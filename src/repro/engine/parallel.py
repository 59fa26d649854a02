"""Worker pool for parallel morsel execution.

TQP ("Query Processing on Tensor Computation Runtimes") distributes a
query by running partition-local computation on every worker and merging
the partials with an allreduce-style aggregation step.  This module is
the single-host version of that shape: a thread pool fans *independent
chunks* of a morsel-driven operator across N workers and hands the
results back **in submission order**, so every merge point (streaming
aggregation partials, grid accumulation, pair concatenation) consumes
exactly the sequence the sequential executor would have produced —
parallel output stays bit-identical to sequential.

Threads (not processes) are the right pool here: the chunk kernels are
NumPy calls that release the GIL, and the chunks are zero-copy views of
shared catalog arrays that processes would have to serialize.

:func:`workers_policy` mirrors :func:`repro.storage.chunk.chunk_rows_policy`:
an explicit override wins, then the ``REPRO_WORKERS`` environment knob,
then 1 (sequential).  CI pins ``REPRO_WORKERS`` so test runs stay
deterministic in their scheduling.

Thread-safety contract: :func:`parallel_map` is a pure fan-out/fan-in —
it owns its pool for the duration of one call and requires the chunk
function to touch only its own chunk (read-only access to shared
catalog arrays is fine; that is the whole point).  It is safe to call
from multiple threads at once (each call builds its own executor),
which is exactly what concurrent server queries do.
:class:`CancellationToken` is thread-safe by construction — ``cancel``
is an idempotent flag flip any thread may perform while workers poll —
and is the only mutable object shared between a query's submitting
thread and its executor.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.common.errors import ConfigError, QueryCancelled, ReproError

#: Hard ceiling on the pool width: beyond this, per-chunk dispatch
#: overhead dominates any conceivable chunk kernel.
MAX_WORKERS = 64


def workers_policy(override: int | None = None) -> int:
    """The effective worker count: an explicit override, the
    ``REPRO_WORKERS`` environment knob, or 1 (sequential)."""
    if override is not None:
        if override <= 0:
            raise ConfigError(f"worker count must be positive, got {override}")
        return min(int(override), MAX_WORKERS)
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return workers_policy(int(env))
        except ValueError:
            raise ConfigError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            ) from None
    return 1


class CancellationToken:
    """Cooperative cancellation shared between a query and its owner.

    Operators poll :meth:`raise_if_cancelled` at chunk boundaries; the
    owner (a serving session, a timeout watchdog) flips the token with
    :meth:`cancel`.  An optional deadline (host wall-clock seconds)
    makes the token self-firing: the first poll past the deadline
    cancels.
    """

    def __init__(self, deadline_s: float | None = None):
        self._event = threading.Event()
        self._reason = "cancelled"
        self._deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )

    def cancel(self, reason: str = "cancelled") -> None:
        self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.cancel("time budget exceeded")
            return True
        return False

    @property
    def reason(self) -> str:
        return self._reason

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise QueryCancelled(f"query cancelled: {self._reason}")


def parallel_map(
    fn: Callable,
    items: Iterable,
    workers: int,
    token: CancellationToken | None = None,
) -> Iterator:
    """Apply ``fn`` to every item on a worker pool, yielding results in
    **submission order** (the merge-determinism contract).

    In-flight work is bounded to ``2 * workers`` items so a slow
    consumer never forces the whole result sequence to materialize.  A
    worker exception, a cancelled token or a consumer that closes the
    stream early cancels the items not yet started and re-raises (the
    failing item's exception on its yield).  The token is only read,
    never written: whether a failure ends the query is the caller's
    call.  ``workers <= 1`` degenerates to a plain ordered map with no
    pool.
    """
    if token is not None:
        token.raise_if_cancelled()
    if workers <= 1:
        for item in items:
            if token is not None:
                token.raise_if_cancelled()
            yield fn(item)
        return

    def call(item):
        if token is not None:
            token.raise_if_cancelled()
        return fn(item)

    window = 2 * workers
    pending: deque = deque()
    iterator = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            exhausted = False
            while True:
                while not exhausted and len(pending) < window:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append(pool.submit(call, item))
                if not pending:
                    break
                if token is not None:
                    token.raise_if_cancelled()
                yield pending.popleft().result()
        except BaseException:
            for future in pending:
                future.cancel()
            raise


# --- resilience primitives --------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: 3 means one try plus two
    retries.  Jitter is derived from ``(seed, key, attempt)`` by a
    splitmix-style hash rather than a shared RNG, so concurrent query
    retries never perturb each other's schedules and a failing run
    replays with identical sleeps.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.002
    multiplier: float = 2.0
    max_backoff_s: float = 0.050
    jitter: float = 0.25
    seed: int = 20220612

    def backoff_for(self, attempt: int, key: int = 0) -> float:
        """Sleep before retry number *attempt* (1-based) of item *key*."""
        if attempt < 1:
            return 0.0
        delay = min(self.max_backoff_s,
                    self.base_backoff_s * self.multiplier ** (attempt - 1))
        if self.jitter <= 0.0:
            return delay
        x = (self.seed * 0x9E3779B97F4A7C15 + key * 0xBF58476D1CE4E5B9
             + attempt * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
        frac = (x & 0xFFFFFF) / float(0x1000000)
        return delay * (1.0 - self.jitter + 2.0 * self.jitter * frac)


def is_retryable(error: BaseException) -> bool:
    """True for library errors flagged transient (and not cancellations)."""
    return (isinstance(error, ReproError)
            and not isinstance(error, QueryCancelled)
            and getattr(error, "retryable", False))


def call_with_retries(
    fn: Callable[[], object],
    policy: RetryPolicy,
    token: CancellationToken | None = None,
    key: int = 0,
    attempts_log: list | None = None,
):
    """Run ``fn`` under *policy*, retrying retryable library errors.

    Sleeps the backoff schedule between attempts (checking the token
    first, so a zero-second budget still cancels promptly under
    injected faults).  ``attempts_log``, when given, receives one
    ``{"error", "backoff_s"}`` record per retried failure — the
    material for ``extra["resilience"]``.  Non-retryable errors and
    exhausted budgets propagate unchanged.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except BaseException as error:
            if not is_retryable(error) or attempt >= policy.max_attempts:
                raise
            backoff = policy.backoff_for(attempt, key=key)
            if attempts_log is not None:
                attempts_log.append({
                    "error": type(error).__name__,
                    "backoff_s": round(backoff, 6),
                })
            if token is not None:
                token.raise_if_cancelled()
            if backoff > 0.0:
                time.sleep(backoff)


__all__ = [
    "MAX_WORKERS",
    "CancellationToken",
    "RetryPolicy",
    "call_with_retries",
    "is_retryable",
    "parallel_map",
    "workers_policy",
]
