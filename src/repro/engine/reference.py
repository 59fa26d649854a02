"""Reference oracle engine: pure-NumPy, cost-free, fully general.

TCUDB's core claim is that matmul-encoded plans return the *same
answers* as a conventional engine.  The :class:`ReferenceEngine` is the
independent arbiter of "same answers": it walks the logical plan with
:class:`~repro.engine.physical.PhysicalExecutor` — no cost model, no
pattern matching, no precision tricks — so the differential and fuzz
test suites can compare every engine against it.

YDB and MonetDB are the same walk with a cost model attached
(:attr:`ReferenceEngine.cost_model`): a
:class:`~repro.engine.cost_models.CostObserver` records the walk's exact
counts and replays the model's charges afterwards.
"""

from __future__ import annotations

from repro.common.timing import TimingBreakdown
from repro.engine.base import Engine, ExecutionMode, QueryResult
from repro.engine.cost_models import CostObserver
from repro.engine.physical import PhysicalExecutor, build_result_table
from repro.sql.binder import BoundQuery
from repro.sql.logical import explain
from repro.sql.planner import plan
from repro.storage.catalog import Catalog
from repro.storage.chunk import chunk_rows_policy


class ReferenceEngine(Engine):
    """The trusted correctness oracle (always REAL-mode, no simulated cost).

    Subclasses that set :attr:`cost_model` (YDB, MonetDB) set their own
    mode and ANALYTIC ``materialize_limit``.
    """

    name = "Reference"
    #: The model a CostObserver prices the walk with; None charges nothing.
    cost_model = None
    materialize_limit: int | None = None

    def __init__(
        self,
        catalog: Catalog,
        mode: ExecutionMode = ExecutionMode.REAL,
        pair_limit: int | None = 20_000_000,
        chunk_rows: int | None = None,
        cancel_token=None,
    ):
        # The oracle always materializes; ANALYTIC mode has no meaning here.
        super().__init__(catalog, ExecutionMode.REAL)
        self.pair_limit = pair_limit
        # Rows per chunk, resolved once like TCUDriver's (None = the
        # storage chunk-size policy; 1 << 30 is the whole-table run) and
        # the cooperative cancellation token, both forwarded to the
        # PhysicalExecutor per query.
        self.chunk_rows = chunk_rows_policy(chunk_rows)
        self.cancel_token = cancel_token

    def execute_bound(self, bound: BoundQuery) -> QueryResult:
        tree = plan(bound)
        observer = None
        if self.cost_model is not None:
            observer = CostObserver(self.cost_model, bound, self.mode,
                                    self.materialize_limit)
        executor = PhysicalExecutor(bound, pair_limit=self.pair_limit,
                                    chunk_rows=self.chunk_rows,
                                    cancel_token=self.cancel_token,
                                    observer=observer)
        arrays, names = executor.run(tree)
        table = (None if arrays is None
                 else build_result_table(bound, arrays, names))
        if observer is not None:
            breakdown, n_rows = observer.charge(tree, len(names))
            return QueryResult(engine=self.name, n_rows=n_rows,
                               breakdown=breakdown, table=table,
                               plan_description=explain(tree))
        return QueryResult(
            engine=self.name,
            n_rows=table.num_rows,
            breakdown=TimingBreakdown(),
            table=table,
            plan_description=explain(tree),
            extra={
                "oracle": True,
                "chunks_pruned": executor.chunks_pruned,
                "chunks_scanned": executor.chunks_scanned,
            },
        )


__all__ = ["ReferenceEngine"]
