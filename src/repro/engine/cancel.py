"""Cooperative query cancellation.

:class:`CancellationToken` is the one mutable object shared between a
query's submitting thread and its executor.  It is thread-safe by
construction: ``cancel`` is an idempotent flag flip any thread may
perform while the executor polls.
"""

from __future__ import annotations

import threading
import time

from repro.common.errors import QueryCancelled


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


__all__ = ["CancellationToken"]
