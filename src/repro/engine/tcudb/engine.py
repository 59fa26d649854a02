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
4. **code generation** — the program emits its CUDA C source one
   section per operator, so executed plans stay inspectable;
5. **execution** — operators thread the timing/precision/feasibility
   machinery through the DAG on the simulated device;
6. fall back to the YDB executor (same device) only when lowering or an
   operator's tests reject TCU execution outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import QueryCancelled, UnsupportedQueryError
from repro.common.faults import SITE_CACHE_GET, fault_point
from repro.engine.base import Engine, ExecutionMode, QueryResult
from repro.engine.cache import ProgramCache
from repro.engine.physical import apply_order_limit, build_result_table
from repro.engine.tcudb.cost import Strategy
from repro.engine.tcudb.driver import TCUDriver
from repro.engine.tcudb.lower import LoweredQuery, lower_hybrid, lower_query
from repro.engine.tcudb.ops import FallbackRequired, OutputValue
from repro.engine.tcudb.optimizer import TCUOptimizer
from repro.engine.tcudb.patterns import MatchFailure
from repro.engine.tcudb.program import ProgramContext
from repro.engine.tcudb.specialize import specialize_program
from repro.engine.ydb import YDBEngine
from repro.hardware.calibration import run_calibration
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import I7_7700K, HostProfile
from repro.sql.binder import BoundColumn, BoundQuery
from repro.sql.prepared import PreparedStatement
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
    # Chunked (morsel-driven) execution: scans walk stat-pruned row
    # chunks, the driver accumulates GEMM grids over key-domain chunks,
    # and hybrid pre-stages stream.  ``chunked_execution=False`` is the
    # legacy contiguous ablation switch; ``chunk_rows=None`` takes the
    # storage layer's chunk-size policy.
    chunked_execution: bool = True
    chunk_rows: int | None = None
    # Streaming hybrid pre-stage: lets hybrid-class queries run in
    # ANALYTIC mode (bounded by the stage's row budget) instead of
    # falling back with kind="mode".
    stream_prestage: bool = True
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
    # unit, the reference oracle), "fast" (optimized NumPy/BLAS) or
    # "torch" (optional).  ``None`` defers to the REPRO_BACKEND policy;
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
        self.driver = TCUDriver(self.device, mode,
                                chunk_rows=self._driver_chunk_rows(),
                                workers=self.options.workers,
                                backend=self.options.backend)
        self._fallback = YDBEngine(catalog, self.device, mode=mode)
        # Per-query cooperative cancellation: the serving front-end sets
        # this before execute_bound and clears it after; operators poll
        # it at chunk/op boundaries.
        self.cancel_token = None

    def _driver_chunk_rows(self) -> int | None:
        if not self.options.chunked_execution:
            return None
        from repro.storage.chunk import chunk_rows_policy

        return chunk_rows_policy(self.options.chunk_rows)

    # ------------------------------------------------------------------ #

    def execute(
        self,
        sql: str | PreparedStatement,
        params: dict | list | tuple | None = None,
    ) -> QueryResult:
        if isinstance(sql, PreparedStatement):
            return self.execute_prepared(sql, params)
        if self.program_cache is None:
            return super().execute(sql, params)
        # With a cache attached, one-shot statements route through the
        # prepared path so repeated identical SQL reuses its program
        # (literals render inline, so the normalized text is the key).
        return self.execute_prepared(self.prepare(sql), params)

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
        exec_bound, values = prepared.bind_execution(params)
        cache = self.program_cache
        key = fingerprint = None
        cached = None
        if cache is not None:
            key = (prepared.normalized_sql, self._cache_options_key())
            fingerprint = self.catalog.fingerprint()
            cached = cache.get(key, fingerprint)

        def compile_fresh() -> LoweredQuery | MatchFailure:
            template = lower_query(prepared.bound, self.mode,
                                   fusion=self.options.fusion,
                                   streaming=self.options.stream_prestage)
            if cache is not None:
                cache.put(key, fingerprint, template)
            return template

        def relower() -> LoweredQuery | MatchFailure:
            hybrid = lower_hybrid(prepared.bound, self.mode,
                                  fusion=self.options.fusion,
                                  streaming=self.options.stream_prestage)
            if not isinstance(hybrid, LoweredQuery):
                return hybrid
            if cache is not None:
                # The pattern program failed on a data-dependent shape
                # that is stable under this fingerprint (the data can
                # only change by re-registering, which changes the
                # fingerprint) — remember the hybrid template instead.
                cache.put(key, fingerprint, hybrid)
            return LoweredQuery(
                program=specialize_program(hybrid.program, exec_bound,
                                           values),
                pattern=hybrid.pattern,
                hybrid=hybrid.hybrid,
            )

        def run(template: LoweredQuery | MatchFailure) -> QueryResult:
            specialized = template
            if isinstance(template, LoweredQuery):
                specialized = LoweredQuery(
                    program=specialize_program(template.program, exec_bound,
                                               values),
                    pattern=template.pattern,
                    hybrid=template.hybrid,
                )
            return self._run_lowered(exec_bound, specialized, relower)

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
                return run(compile_fresh())
        return run(compile_fresh())

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
            options.chunked_execution,
            options.chunk_rows,
            options.stream_prestage,
            options.cache_namespace,
            self.driver.backend.name,
        )

    def execute_bound(self, bound: BoundQuery) -> QueryResult:
        lowered = lower_query(bound, self.mode, fusion=self.options.fusion,
                              streaming=self.options.stream_prestage)

        def relower() -> LoweredQuery | MatchFailure:
            return lower_hybrid(bound, self.mode,
                                fusion=self.options.fusion,
                                streaming=self.options.stream_prestage)

        return self._run_lowered(bound, lowered, relower)

    def _run_lowered(
        self,
        bound: BoundQuery,
        lowered: LoweredQuery | MatchFailure,
        relower,
    ) -> QueryResult:
        if isinstance(lowered, MatchFailure):
            return self._fall_back(bound, lowered.reason, lowered.kind)
        ctx = self._context(bound)
        try:
            output = lowered.program.run(ctx)
        except FallbackRequired as failure:
            if failure.kind == "pattern" and not lowered.hybrid:
                # The pattern program discovered a data-dependent shape
                # problem (e.g. duplicate-key dimensions) at run time;
                # retry through the hybrid pipeline before giving up.
                hybrid = relower()
                if isinstance(hybrid, LoweredQuery):
                    ctx = self._context(bound)
                    try:
                        output = hybrid.program.run(ctx)
                        lowered = hybrid
                    except FallbackRequired as second:
                        return self._fall_back(bound, second.reason,
                                               second.kind)
                elif hybrid.kind == "mode":
                    # Hybrid-expressible, blocked only by the mode.
                    return self._fall_back(bound, hybrid.reason, hybrid.kind)
                else:
                    return self._fall_back(bound, failure.reason,
                                           failure.kind)
            else:
                return self._fall_back(bound, failure.reason, failure.kind)
        return self._finalize(bound, lowered, ctx, output)

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

    def _finalize(self, bound: BoundQuery, lowered: LoweredQuery,
                  ctx: ProgramContext, output: OutputValue) -> QueryResult:
        program = lowered.program
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
        if decisions:
            last = decisions[-1]
            strategy = last.plan.strategy.value if last.plan else "none"
            precision = last.plan.precision.value if last.plan else "none"
            generated = program.generated_code(ctx)
            plan_description = "\n---\n".join(
                [program.describe()] + [d.explain() for d in decisions]
            )
        else:
            # Empty inputs short-circuit before any product is priced.
            strategy = precision = "none"
            generated = None
            plan_description = "empty input: no TCU operator issued"
        extra = {
            "decision": decisions[-1] if decisions else None,
            "decisions": decisions,
            "generated_code": generated,
            "strategy": strategy,
            "precision": precision,
            "executed_by": "TCU-hybrid" if lowered.hybrid else "TCU",
            "fusion": self.options.fusion,
            "program": program,
            "program_listing": program.describe(),
            "operator_costs": ctx.op_costs,
        }
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
