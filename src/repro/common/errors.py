"""Exception hierarchy for the TCUDB reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Every subtype carries the class-level flag ``retryable`` the serving
    layer keys recovery decisions on: the failure is transient
    infrastructure trouble (a backend briefly unavailable, a poisoned
    cache entry); re-running the same work may succeed, so the retry
    budget applies.
    """

    retryable = False


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class HardwareError(ReproError):
    """Base class for simulated-hardware failures."""


class DeviceMemoryError(HardwareError):
    """An allocation exceeded the simulated device-memory capacity."""

    def __init__(self, requested: int, available: int, capacity: int):
        self.requested = requested
        self.available = available
        self.capacity = capacity
        super().__init__(
            f"device OOM: requested {requested} bytes, "
            f"{available} free of {capacity} total"
        )


class PrecisionError(ReproError):
    """A value cannot be represented in the requested precision."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class SchemaError(StorageError):
    """A table/column definition is inconsistent."""


class UnknownTableError(StorageError):
    """The catalog has no table with the requested name."""

    def __init__(self, name: str):
        self.table_name = name
        super().__init__(f"unknown table: {name!r}")


class UnknownColumnError(StorageError):
    """A referenced column does not exist in the table (or is ambiguous)."""

    def __init__(self, name: str, detail: str = ""):
        self.column_name = name
        message = f"unknown column: {name!r}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class SQLError(ReproError):
    """Base class for SQL front-end failures."""


class LexError(SQLError):
    """The SQL text contains an unrecognized token."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at offset {position}")


class ParseError(SQLError):
    """The SQL token stream does not form a supported statement."""


class BindError(SQLError):
    """Name or type resolution of the parsed query failed."""


class PlanError(ReproError):
    """A logical or physical plan could not be constructed."""


class ExecutionError(ReproError):
    """A physical operator failed at run time."""


class QueryCancelled(ExecutionError):
    """The query's cancellation token fired (explicit cancel or a
    deadline/budget expiry) and execution stopped cooperatively."""


class TransientError(ExecutionError):
    """Execution failed transiently (injected or real); re-running the
    same query may succeed."""

    retryable = True


class BackendUnavailable(ExecutionError):
    """An execution backend refused work (driver hiccup, device busy);
    the request itself is fine and may be retried or routed elsewhere."""

    retryable = True


class PoisonedTemplateError(ExecutionError):
    """A cached program template raised during specialization or
    execution; the entry is evicted and the query recompiled fresh."""

    retryable = True


class AdmissionError(ReproError):
    """The serving front-end refused a query (admission queue full)."""


class ServerClosed(QueryCancelled):
    """The server shut down while the query was still queued; the
    ticket is cancelled rather than left hanging forever."""


class InternalError(ReproError):
    """A non-library exception escaped an engine; wrapped so no raw
    ``RuntimeError``/``ValueError`` ever crosses the server boundary."""


class UnsupportedQueryError(ReproError):
    """The query is valid SQL but outside the engine's supported subset."""
