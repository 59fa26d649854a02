"""Engine-layer foundations.

* :class:`ExecutionMode` — REAL executes full numerics; ANALYTIC computes
  exact cardinalities and masks (cheap, vectorized) but skips materializing
  join outputs, so paper-scale configurations run in milliseconds while
  charging identical simulated time.
* :class:`QueryResult` — result rows + the per-stage simulated-time
  breakdown each figure of the paper stacks; its report strings may be
  :class:`Deferred` and render on first read.
* :class:`Engine` — the common ``execute(sql)`` facade.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ReproError
from repro.common.timing import TimingBreakdown
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse
from repro.sql.prepared import PreparedStatement, prepare_statement
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class ExecutionMode(enum.Enum):
    REAL = "real"  # full numerics; results materialized
    ANALYTIC = "analytic"  # exact cardinalities, no result materialization


class Deferred:
    """A report value rendered on first read by ``render()`` — which
    captures small facts only, never a run's context or arrays: a
    result may be held for long."""

    def __init__(self, render):
        self.render = render


class ReportDict(dict):
    """``QueryResult.extra`` whose values may be :class:`Deferred`:
    ``[]`` and ``get`` render one on first read and keep the result, so
    report strings nobody reads cost nothing."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(value, Deferred):
            value = self[key] = value.render()
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    engine: str
    n_rows: int
    breakdown: TimingBreakdown
    table: Table | None = None
    plan_description: str | Deferred = ""
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Total simulated execution time."""
        return self.breakdown.total

    def require_table(self) -> Table:
        if self.table is None:
            raise ReproError(
                "query ran in ANALYTIC mode; no result table materialized"
            )
        return self.table


def _plan_description(result: QueryResult) -> str:
    text = result.__dict__["plan_description"]
    if isinstance(text, Deferred):
        text = result.__dict__["plan_description"] = text.render()
    return text


# The field above, read through a property: a Deferred renders once.
QueryResult.plan_description = property(
    _plan_description,
    lambda result, text: result.__dict__.update(plan_description=text),
)


class Engine:
    """Common facade: parse, bind and run a query against a catalog."""

    name = "engine"

    def __init__(self, catalog: Catalog, mode: ExecutionMode = ExecutionMode.REAL):
        self.catalog = catalog
        self.mode = mode

    def execute(
        self,
        sql: str | PreparedStatement,
        params: dict | list | tuple | None = None,
    ) -> QueryResult:
        """One-shot execution: parse, bind (substituting any ``params``),
        run.  A :class:`PreparedStatement` routes to
        :meth:`execute_prepared`."""
        if isinstance(sql, PreparedStatement):
            return self.execute_prepared(sql, params)
        bound = bind(parse(sql), self.catalog, params)
        return self.execute_bound(bound)

    def prepare(self, sql: str) -> PreparedStatement:
        """Compile-once front half: parse + deferred bind, returning the
        immutable template ``execute_prepared`` (re-)binds values into.
        Engines with a program cache also reuse the lowered program."""
        return prepare_statement(parse(sql), self.catalog, sql)

    def execute_prepared(
        self,
        prepared: PreparedStatement,
        params: dict | list | tuple | None = None,
    ) -> QueryResult:
        """Execute a prepared template with this call's parameter values.

        The base implementation substitutes values into the template's
        already-classified predicate lists and runs the engine's normal
        bound-query path — no re-parse, no re-resolution.
        """
        exec_bound, _ = self.rebound(prepared).bind_execution(params)
        return self.execute_bound(exec_bound)

    def rebound(self, prepared: PreparedStatement) -> PreparedStatement:
        """*prepared*, bound against today's catalog.  A bound template
        holds ``Table`` objects: once a table is replaced or dropped the
        statement re-binds from its AST (no re-parse) rather than answer
        from the old table."""
        if prepared.fingerprint == self.catalog.fingerprint():
            return prepared
        return prepare_statement(prepared.statement, self.catalog,
                                 prepared.sql)

    def execute_bound(self, bound: BoundQuery) -> QueryResult:
        raise NotImplementedError
