"""TCUDB: the TCU-accelerated analytic query engine (Section 4).

Execution pipeline per query:

1. parse + bind (shared SQL front end);
2. **lowering** (:mod:`repro.engine.tcudb.lower`) — translate the bound
   query into a :class:`~repro.engine.tcudb.program.TensorProgram`: a
   DAG of composable TCU operators (pattern lowering for the
   matmul-encodable core shapes, hybrid lowering with a conventional
   pre-stage for partially-expressible queries);
3. **per-operator optimization** — every ``Gemm`` node runs Figure 6's
   workflow (range test, working-set test, density test, adaptive
   precision, cost comparison) for its own product;
4. **execution** — operators thread the timing/precision/feasibility
   machinery through the DAG on the simulated device;
5. **report** — the program's listing, the optimizer traces and the
   CUDA C source (one section per operator) render when first read, so
   executed plans stay inspectable and unread ones cost nothing;
6. fall back to the YDB executor (same device) only when lowering or an
   operator's tests reject TCU execution outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (
    QueryCancelled,
    SQLError,
    UnsupportedQueryError,
)
from repro.common.faults import SITE_CACHE_GET, fault_point
from repro.engine.base import (
    Deferred,
    Engine,
    ExecutionMode,
    QueryResult,
    ReportDict,
)
from repro.engine.cache import ProgramCache
from repro.engine.physical import apply_order_limit, build_result_table
from repro.engine.tcudb.cost import Strategy
from repro.engine.tcudb.driver import TCUDriver
from repro.engine.tcudb.lower import LoweredQuery, lower_hybrid, lower_query
from repro.engine.tcudb.ops import FallbackRequired, OutputValue
from repro.engine.tcudb.optimizer import TCUOptimizer
from repro.engine.tcudb.patterns import MatchFailure
from repro.engine.tcudb.program import ProgramContext, TensorProgram
from repro.engine.tcudb.specialize import specialize_program
from repro.engine.ydb import YDBEngine
from repro.hardware.calibration import run_calibration
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import I7_7700K, HostProfile
from repro.sql.binder import BoundColumn, BoundQuery
from repro.sql.prepared import PreparedStatement, parameterize
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tensor.precision import Precision


@dataclass
class TCUDBOptions:
    """Tuning knobs (ablation benchmarks flip these)."""

    force_strategy: Strategy | None = None
    force_precision: Precision | None = None
    require_exact: bool = False  # reject plans with fp16 rounding
    disable_fallback: bool = False  # raise instead of falling back
    force_cpu_transform: bool = False
    # The TensorProgram fusion pass (repro.engine.tcudb.fuse): on by
    # default; ``fusion=False`` executes the unfused per-aggregate
    # operator DAG (bench ablation / debugging).
    fusion: bool = True
    # Rows per chunk, the unit of execution: scans walk stat-pruned row
    # chunks, the driver accumulates GEMM grids over key-domain chunks,
    # and hybrid pre-stages stream.  ``None`` takes the storage layer's
    # chunk-size policy; a size past every table is one whole chunk.
    chunk_rows: int | None = None
    # Morsel parallelism: worker-thread count for the independent chunk
    # loops (scan filters, probe-chunk GEMMs, grid partials, streaming
    # pre-stages).  ``None`` defers to the REPRO_WORKERS policy; 1 is
    # strictly sequential.  Parallel output is bit-identical.
    workers: int | None = None
    # Cache namespace: distinguishes engines that share one ProgramCache
    # but compile against different catalogs (e.g. the per-shard engines
    # of a DistributedEngine).  Without it, shard engines would share a
    # cache key while their catalog fingerprints differ, so every shard
    # execution would evict the previous shard's entry (the fingerprint
    # guard treats a mismatch as stale) and the cache would thrash.
    cache_namespace: str = ""
    # Tensor backend for the kernel primitives: "sim" (the simulated
    # unit, the reference oracle) or "fast" (optimized NumPy/BLAS).
    # ``None`` defers to the REPRO_BACKEND policy;
    # see repro.tensor.backend.  Simulated seconds are charged by the
    # cost model regardless of backend, so this only changes host
    # wall-clock (within the documented numeric envelope).
    backend: str | None = None


class TCUDBEngine(Engine):
    """The TCU-accelerated engine with YDB fallback."""

    name = "TCUDB"

    def __init__(
        self,
        catalog: Catalog,
        device: GPUDevice | None = None,
        host: HostProfile | None = None,
        mode: ExecutionMode = ExecutionMode.REAL,
        options: TCUDBOptions | None = None,
        program_cache: ProgramCache | None = None,
    ):
        super().__init__(catalog, mode)
        # Compile-once serving: when a ProgramCache is attached (e.g. by
        # the QueryServer, shared across sessions), prepared executions
        # reuse lowered+fused TensorPrograms keyed on normalized SQL,
        # and one-shot execute() routes through the prepared path.
        self.program_cache = program_cache
        self.device = device if device is not None else GPUDevice()
        self.host = host if host is not None else I7_7700K
        self.calibration = run_calibration(self.device, self.host)
        self.options = options if options is not None else TCUDBOptions()
        self.optimizer = TCUOptimizer(
            self.device, self.host, self.calibration,
            allow_gpu_transform=not self.options.force_cpu_transform,
            force_strategy=self.options.force_strategy,
            force_precision=self.options.force_precision,
        )
        self.driver = TCUDriver(self.device,
                                chunk_rows=self.options.chunk_rows,
                                workers=self.options.workers,
                                backend=self.options.backend)
        self._fallback = YDBEngine(catalog, self.device, mode=mode)
        # Per-query cooperative cancellation: the serving front-end sets
        # this before execute_bound and clears it after; operators poll
        # it at chunk/op boundaries.
        self.cancel_token = None

    # ------------------------------------------------------------------ #

    def execute(
        self,
        sql: str | PreparedStatement,
        params: dict | list | tuple | None = None,
    ) -> QueryResult:
        """One-shot execution.  With a program cache attached, raw SQL
        reaches it as a template plus values: WHERE / HAVING literals
        lift into parameters (:func:`~repro.sql.prepared.parameterize`)
        and the cache's statement memo maps the lifted text to its
        prepared statement, so text that differs only in those literals
        is parsed, bound and lowered once.  Text that carries its own
        placeholders (or arrives with ``params``) is prepared as
        written; without a cache every call compiles."""
        if isinstance(sql, PreparedStatement):
            return self.execute_prepared(sql, params)
        cache = self.program_cache
        if cache is None:
            result = super().execute(sql, params)
            result.extra["statement"] = "literal"
            return result
        prepared, statement = None, "literal"
        if params is None and (lifted := parameterize(sql)) is not None:
            text, values = lifted
            prepared = cache.statement(text, self.catalog.fingerprint())
            try:
                if prepared is None:
                    prepared = self.prepare(text)
                    cache.remember(text, prepared)
                params, statement = values, "auto-parameterized"
            except SQLError:
                prepared = None  # report it against the text as written
        result = self.execute_prepared(prepared or self.prepare(sql), params)
        result.extra["statement"] = statement
        return result

    def execute_prepared(
        self,
        prepared: PreparedStatement,
        params: dict | list | tuple | None = None,
    ) -> QueryResult:
        """Compile-once execution: lower the parameter template at most
        once (per catalog fingerprint), then stamp this call's values in
        via :func:`~repro.engine.tcudb.specialize.specialize_program`.

        Cached lowering *failures* are reused too: a statement the
        matcher rejects falls back to YDB without re-matching.  The
        cost-model contract holds because every ``Gemm`` re-runs the
        Figure 6 strategy decision per execution against the execution
        bound — the cache freezes program *structure*, not the
        literal-dependent density/precision choices.
        """
        prepared = self.rebound(prepared)
        exec_bound, values = prepared.bind_execution(params)
        key = None
        if self.program_cache is not None:
            key = (prepared.normalized_sql, self._cache_options_key())
        result = self._run(prepared.bound, exec_bound, values, key,
                           prepared.fingerprint)
        result.extra["statement"] = "prepared"
        return result

    def execute_bound(self, bound: BoundQuery) -> QueryResult:
        return self._run(bound, bound, {})

    def _run(self, template: BoundQuery, bound: BoundQuery, values: dict,
             key=None, fingerprint=None) -> QueryResult:
        """The one run body: take *template*'s program from the cache
        (under *key*) or lower it, stamp *values* in, run it against
        *bound* — the same query with the values substituted.
        ``execute_bound`` passes one literal query as both."""
        cache = self.program_cache if key is not None else None

        def lower(lowering) -> LoweredQuery | MatchFailure:
            lowered = lowering(template, fusion=self.options.fusion)
            # A hybrid re-lowering replaces the pattern template: the
            # data-dependent shape it failed on is stable under this
            # fingerprint (data only changes by re-registering).
            if cache is not None and (lowering is lower_query
                                      or isinstance(lowered, LoweredQuery)):
                cache.put(key, fingerprint, lowered)
            return lowered

        def run(lowered: LoweredQuery | MatchFailure) -> QueryResult:
            while isinstance(lowered, LoweredQuery):
                program = specialize_program(lowered.program, bound, values)
                ctx = self._context(bound)
                try:
                    output = program.run(ctx)
                except FallbackRequired as failure:
                    rejected = MatchFailure(failure.reason, failure.kind)
                else:
                    return self._finalize(bound, program, ctx, output)
                if rejected.kind != "pattern" or lowered.hybrid:
                    lowered = rejected
                    break
                # The pattern program discovered a data-dependent shape
                # problem (e.g. duplicate-key dimensions) at run time;
                # retry through the hybrid pipeline before giving up.
                lowered = lower(lower_hybrid)
                if isinstance(lowered, MatchFailure):
                    # Not hybrid-expressible either: report the run-time
                    # rejection.
                    lowered = rejected
            return self._fall_back(bound, lowered.reason, lowered.kind)

        cached = cache.get(key, fingerprint) if cache is not None else None
        if cached is not None:
            # Hit-path exception safety: a template that raises during
            # specialization or execution is evicted (not pinned) and
            # the statement recompiles fresh, so one poisoned entry
            # cannot fail every subsequent hit.  Cancellation is the
            # caller's signal, never the template's fault.
            try:
                fault_point(SITE_CACHE_GET)
                return run(cached)
            except QueryCancelled:
                raise
            except Exception:
                cache.poison(key)
        return run(lower(lower_query))

    def _cache_options_key(self) -> tuple:
        """Compile-relevant engine configuration, part of the cache key.

        Every option that changes what ``lower_query`` produces (or how
        operators execute) except ``workers``: morsel parallelism is
        bit-identical to sequential execution by contract, so sessions
        with different worker counts share programs.  The *resolved*
        backend name is part of the key: backends only differ within the
        numeric envelope, but cached-program isolation keeps any future
        backend-specific specialization honest (and the key resolves the
        env default so two engines under different ``REPRO_BACKEND``
        values never share an entry).
        """
        options = self.options
        return (
            self.mode.value,
            options.force_strategy,
            options.force_precision,
            options.require_exact,
            options.disable_fallback,
            options.force_cpu_transform,
            options.fusion,
            options.chunk_rows,
            options.cache_namespace,
            self.driver.backend.name,
        )

    def _context(self, bound: BoundQuery) -> ProgramContext:
        return ProgramContext(
            bound=bound, device=self.device, host=self.host, mode=self.mode,
            options=self.options, optimizer=self.optimizer,
            driver=self.driver, cancel_token=self.cancel_token,
        )

    def _fall_back(self, bound: BoundQuery, reason: str,
                   kind: str = "pattern") -> QueryResult:
        if self.options.disable_fallback:
            raise UnsupportedQueryError(f"TCU execution rejected: {reason}")
        result = self._fallback.execute_bound(bound)
        result.engine = self.name
        result.extra["executed_by"] = "YDB-fallback"
        result.extra["fallback_reason"] = reason
        result.extra["fallback_kind"] = kind
        return result

    # -- result assembly ------------------------------------------------ #

    def _finalize(self, bound: BoundQuery, program: TensorProgram,
                  ctx: ProgramContext, output: OutputValue) -> QueryResult:
        decisions = [ctx.decisions[op.id] for op in program.ops
                     if op.id in ctx.decisions]
        table = None
        n_rows = output.n_rows
        if output.arrays is not None:
            arrays = apply_order_limit(bound, output.arrays, output.names)
            table = self._build_table(bound, arrays, output.names,
                                      output.by_columns)
            n_rows = table.num_rows
        elif bound.limit is not None:
            n_rows = min(n_rows, bound.limit)
        plan = decisions[-1].plan if decisions else None
        extra = ReportDict(
            decision=decisions[-1] if decisions else None,
            decisions=decisions,
            generated_code=None,
            strategy=plan.strategy.value if plan else "none",
            precision=plan.precision.value if plan else "none",
            executed_by="TCU-hybrid" if program.hybrid else "TCU",
            fusion=self.options.fusion,
            program=program,
            program_listing=Deferred(program.describe),
            operator_costs=ctx.op_costs,
        )
        # Empty inputs short-circuit before any product is priced.
        plan_description = "empty input: no TCU operator issued"
        if decisions:
            # The report strings render on first read, from what is
            # small — never from ctx: a held result must not keep a
            # run's operand and relation arrays alive.
            facts = program.code_facts(ctx)
            extra["generated_code"] = Deferred(
                lambda: program.generated_code(*facts))
            plan_description = Deferred(lambda: "\n---\n".join(
                [program.describe()] + [d.explain() for d in decisions]))
        return QueryResult(
            engine=self.name,
            n_rows=n_rows,
            breakdown=ctx.breakdown,
            table=table,
            plan_description=plan_description,
            extra=extra,
        )

    def _build_table(self, bound: BoundQuery, arrays, names,
                     columns: list[BoundColumn | None]) -> Table:
        sources = [column if isinstance(column, BoundColumn) else None
                   for column in columns]
        return build_result_table(bound, arrays, names, sources=sources)
