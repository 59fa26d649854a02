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

:func:`workers_policy` resolves like every setting
(:func:`repro.common.settings.resolve_setting`): an explicit override
wins, then the ``REPRO_WORKERS`` environment knob, then 1 (sequential).
CI pins ``REPRO_WORKERS`` so test runs stay deterministic in their
scheduling.

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

import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor

from repro.common.errors import QueryCancelled
from repro.common.settings import positive_int, resolve_setting

#: Hard ceiling on the pool width: beyond this, per-chunk dispatch
#: overhead dominates any conceivable chunk kernel.
MAX_WORKERS = 64


def workers_policy(override: int | None = None) -> int:
    """The effective worker count: an explicit override, the
    ``REPRO_WORKERS`` environment knob, or 1 (sequential)."""
    return min(resolve_setting(override, "REPRO_WORKERS", 1, positive_int),
               MAX_WORKERS)


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


__all__ = [
    "MAX_WORKERS",
    "CancellationToken",
    "parallel_map",
    "workers_policy",
]
