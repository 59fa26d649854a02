"""Data-parallel distributed execution: one TensorProgram, N shards.

This is TQP's multi-device architecture ("Query Processing on Tensor
Computation Runtimes", He et al. 2022) mapped onto our driver: the fact
table is row-partitioned per shard (:class:`~repro.storage.shard.
ShardedCatalog`), dimensions are broadcast, every shard runs the *same*
compiled program against its partition, and per-shard partials merge
with an explicit allreduce-style reduction.  Because shard fan-out is
the contract PR 5/6 already built for chunks —
``A@B.T == Σ_s A_s@B_s.T`` and mergeable ``StreamAggregator`` partials
— the merge step reuses that algebra one level up.

Shard-local execution never re-parses or re-binds: a shard bound is the
coordinator's :class:`~repro.sql.binder.BoundQuery` with the fact
binding's ``BoundTable`` swapped for the shard partition (shard
catalogs are schema-identical, so every resolution artifact — column
dtypes, predicate classification, substituted parameter literals — is
shared verbatim).

Merge routes, chosen per query:

``grid-allreduce``
    Aggregate/group-by queries whose program ends in
    ``Gemm -> GridAggregate -> Decode``.  The coordinator compiles ONE
    program; each shard executes the operator *prefix* (scan/fold/fill/
    GEMM) against its shard-local bound, producing aggregation-grid
    partials in its own composite-key space.  The coordinator re-encodes
    every shard grid into the union label space (per-column sorted label
    union; the union equals the single-node label set because every
    qualifying row lives on exactly one shard) and folds the grids in
    **ascending shard order** — the documented deterministic merge order
    that keeps repeated distributed runs bit-identical — then runs the
    program *suffix* (GridAggregate + fused HAVING epilogue + Decode)
    once over the merged grids.

``partial-rows``
    Aggregates the grid path cannot carry (MIN/MAX are beyond TCU
    expressiveness; per-shard cost/feasibility rejections).  Each shard
    runs a rewritten partial query (group keys + SUM partials for
    SUM/AVG, MIN/MAX partials, COUNT(*)); the coordinator re-groups the
    concatenated partial rows with the ``StreamAggregator`` merge
    algebra: sums/counts add, min/max fold, AVG finalizes as
    Σsum/Σcount.  A shard with zero qualifying rows contributes an
    identity partial — its COUNT=0 row is dropped before the fold so it
    can neither fabricate a group nor corrupt a MIN with a spurious 0.

``concat``
    Non-aggregate queries without LIMIT: per-shard rows concatenate in
    shard order; ORDER BY re-applies globally on the coordinator.

``single-node``
    Queries that never read the partitioned fact table (replicated
    dimensions would be counted once per shard), self-joins of the fact
    table (shard-local joins lose cross-shard pairs), ANALYTIC mode, and
    non-aggregate LIMIT queries (which rows survive a tie at the LIMIT
    boundary depends on physical row order, which sharding permutes).

Determinism: the merge folds shards in ascending shard index on the
coordinator thread, so repeated distributed runs are bit-identical.
Versus single-shard execution the results are exact whenever per-group
sums are exact in fp64 (integer-valued measures, e.g. the SSB data);
otherwise they are tolerance-equal under floating-point reassociation —
the same contract chunk accumulation already documents.

Cost model: per-shard simulated time falls out of the ordinary per-op
charging over ``1/N``-row operands; the coordinator takes the
**stage-wise maximum** across shards (shards run in parallel), then
charges the allreduce via
:func:`~repro.engine.tcudb.cost.estimate_shard_merge` — visible as an
``allreduce`` entry in the per-op ledger and a note on the program
listing of every distributed result.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from repro.common.errors import (
    ExecutionError,
    QueryCancelled,
    ResilienceExhausted,
)
from repro.common.faults import (
    SITE_CACHE_GET,
    SITE_GRID_ACCUMULATE,
    SITE_SHARD_EXECUTE,
    checksum_mismatch,
    corrupt_array,
    fault_point,
    suppress,
)
from repro.common.timing import TimingBreakdown
from repro.engine.base import Engine, ExecutionMode, QueryResult
from repro.engine.cache import ProgramCache
from repro.engine.parallel import (
    RetryPolicy,
    call_with_retries,
    is_retryable,
    speculative_map,
)
from repro.engine.physical import (
    StreamGroupEval,
    apply_order_limit,
    build_result_table,
    combine_group_codes,
)
from repro.engine.tcudb.cost import estimate_shard_merge
from repro.engine.tcudb.driver import CompositeKey, PreparedAggSide
from repro.engine.tcudb.engine import TCUDBEngine, TCUDBOptions
from repro.engine.tcudb.lower import LoweredQuery, lower_hybrid, lower_query
from repro.engine.tcudb.ops import (
    AggOperandsValue,
    FallbackRequired,
    Gemm,
    GridAggregate,
    ProductValue,
)
from repro.engine.tcudb.program import OperatorCost, ProgramContext
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import HostProfile
from repro.sql.ast_nodes import (
    AggregateCall,
    ColumnRef,
    SelectItem,
    walk_predicate_exprs,
)
from repro.sql.binder import COMPUTED_GROUP_BINDING, BoundQuery, BoundTable
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.shard import ShardedCatalog
from repro.storage.table import Table
from repro.tensor.keys import unique_inverse

#: Ledger stage name of the allreduce merge charge.
STAGE_SHARD_MERGE = "shard_merge"


class _FanoutRecorder:
    """Per-query ledger of recovery events during one shard fan-out.

    Worker threads report into it concurrently; the coordinator folds
    it into ``extra["resilience"]`` after the merge.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.retries: dict[int, list[dict]] = {}
        self.recovered: list[dict] = []
        self.speculated: list[int] = []

    def record_retries(self, index: int, log: list[dict]) -> None:
        with self._lock:
            self.retries[index] = log

    def record_recovery(self, index: int, error: BaseException) -> None:
        with self._lock:
            self.recovered.append({
                "shard": index, "error": type(error).__name__,
            })

    def record_speculation(self, index: int) -> None:
        with self._lock:
            self.speculated.append(index)

    @property
    def eventful(self) -> bool:
        with self._lock:
            return bool(self.retries or self.recovered or self.speculated)

    def summary(self) -> dict:
        with self._lock:
            return {
                "retries": {
                    shard: list(log)
                    for shard, log in sorted(self.retries.items())
                },
                "attempts": 1 + sum(len(log)
                                    for log in self.retries.values()),
                "recovered": list(self.recovered),
                "speculated": sorted(self.speculated),
            }


class DistributedEngine(Engine):
    """N-shard data-parallel TCUDB with an allreduce merge step."""

    name = "TCUDB-dist"

    def __init__(
        self,
        catalog: Catalog | ShardedCatalog,
        shards: int | None = None,
        fact: str | None = None,
        partition_policy: str = "hash",
        partition_key: str | None = None,
        device: GPUDevice | None = None,
        host: HostProfile | None = None,
        mode: ExecutionMode = ExecutionMode.REAL,
        options: TCUDBOptions | None = None,
        program_cache: ProgramCache | None = None,
        retry_policy: RetryPolicy | None = None,
        straggler_timeout_s: float | None = None,
    ):
        if isinstance(catalog, ShardedCatalog):
            sharded = catalog
            catalog = sharded.base
        else:
            sharded = ShardedCatalog.partition(
                catalog, shards=shards, fact=fact,
                policy=partition_policy, key=partition_key,
            )
        super().__init__(catalog, mode)
        self.sharded = sharded
        self.n_shards = sharded.n_shards
        self.options = options if options is not None else TCUDBOptions()
        self.program_cache = program_cache
        # Per-shard recovery: bounded retry with backoff for retryable
        # failures, optional straggler hedging (host wall-clock seconds
        # before a slow shard is speculatively re-executed).
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.straggler_timeout_s = straggler_timeout_s
        # The coordinator node: runs single-node routes, compiles the
        # shared program, and executes the post-merge suffix.  Its cache
        # entries (and the distributed program entries below) carry a
        # namespace so they never collide with a plain single-node
        # engine sharing the same ProgramCache on the same SQL.
        self.node = TCUDBEngine(
            catalog, device=device, host=host, mode=mode,
            options=replace(self.options, cache_namespace="dist:coord"),
            program_cache=program_cache,
        )
        # One engine per shard over its shard-local catalog.  Morsel
        # workers are pinned to 1 — the shard fan-out *is* the
        # parallelism — and every shard namespaces its cache entries:
        # shard catalogs have distinct fingerprints (each holds its own
        # fact partition), so un-namespaced shard engines sharing the
        # coordinator's cache would evict each other's entries on every
        # execution (the fingerprint guard reads a mismatch as stale).
        self.shard_engines = [
            TCUDBEngine(
                sharded.shard(i), device=self.node.device, host=self.node.host,
                mode=mode,
                options=replace(self.options, workers=1,
                                cache_namespace=f"dist:shard{i}"),
                program_cache=program_cache,
            )
            for i in range(self.n_shards)
        ]
        self.cancel_token = None

    # -- routing --------------------------------------------------------- #

    def execute_bound(self, bound: BoundQuery) -> QueryResult:
        self.node.cancel_token = self.cancel_token
        for engine in self.shard_engines:
            engine.cancel_token = self.cancel_token
        fact_bindings = sum(
            bt.table.name.lower() == self.sharded.fact for bt in bound.tables
        )
        if self.n_shards <= 1:
            return self._single_node(bound, "single shard configured")
        if fact_bindings == 0:
            # Only replicated tables: every shard sees identical rows,
            # so a fan-out would multiply the result N times over.
            return self._single_node(
                bound, "query does not read the partitioned fact table"
            )
        if fact_bindings > 1:
            # A shard-local self-join of the fact misses cross-shard
            # row pairs.
            return self._single_node(
                bound, "self-join of the partitioned fact table"
            )
        if self.mode != ExecutionMode.REAL:
            return self._single_node(bound, "analytic mode")
        if bound.has_aggregates or bound.group_by:
            return self._degradable(bound, "aggregate", self._execute_aggregate)
        if bound.limit is not None:
            # Which rows survive a tie at the LIMIT boundary depends on
            # physical row order, which partitioning permutes.
            return self._single_node(
                bound, "LIMIT on a non-aggregate query is order-sensitive"
            )
        return self._degradable(bound, "concat", self._execute_concat)

    def _degradable(self, bound: BoundQuery, route: str, fn) -> QueryResult:
        """Run a fan-out route with the whole-query degradation rung.

        Per-shard retry and shard-level re-execution live inside
        :meth:`_resilient_fanout`; if a retryable failure still escapes
        (e.g. a shard engine broken beyond its partition), the query is
        re-routed single-node on the coordinator with injection
        suppressed — correct rows, no shard parallelism.  Cancellation
        and non-retryable (user) errors propagate unchanged; if the
        last rung fails too, :class:`ResilienceExhausted` carries the
        final cause.
        """
        try:
            return fn(bound)
        except QueryCancelled:
            raise
        except Exception as error:
            if not is_retryable(error):
                raise
            try:
                with suppress():
                    result = self._single_node(
                        bound,
                        f"degraded from {route} fan-out after "
                        f"{type(error).__name__}",
                    )
            except QueryCancelled:
                raise
            except Exception as final:
                raise ResilienceExhausted(
                    f"retries and single-node degradation both failed "
                    f"for the {route} route: {final}"
                ) from final
            result.extra["resilience"] = {
                "route": "single-node",
                "degraded_from": route,
                "cause": f"{type(error).__name__}: {error}",
            }
            return result

    def _single_node(self, bound: BoundQuery, reason: str) -> QueryResult:
        result = self.node.execute_bound(bound)
        result.engine = self.name
        result.extra["distributed"] = {
            "route": "single-node", "reason": reason,
            "shards": 1, "policy": self.sharded.policy,
        }
        return result

    def _shard_bound(self, bound: BoundQuery, index: int) -> BoundQuery:
        """The shard-local execution bound: same resolution, same
        (already parameter-substituted) predicates, fact binding swapped
        for the shard partition."""
        catalog = self.sharded.shard(index)
        tables = [
            BoundTable(bt.binding, catalog.get(bt.table.name))
            if bt.table.name.lower() == self.sharded.fact else bt
            for bt in bound.tables
        ]
        return replace(bound, tables=tables)

    def _fanout(self, fn, recorder: _FanoutRecorder):
        """Run ``fn(shard_index)`` for every shard with per-shard
        recovery; results come back in ascending shard order — the
        deterministic merge order every reduction below relies on.

        Recovery ladder, per shard: (1) bounded retry with exponential
        backoff + jitter for retryable failures (transient shard
        errors, unavailable backends, corrupt partials); (2) one
        fault-suppressed re-execution of just this shard's partition —
        surviving shards' partials are untouched, only the failed
        partition recomputes.  Straggler hedging
        (``straggler_timeout_s``) speculatively re-executes a slow
        shard on the consuming thread, first result wins.  Every event
        lands in *recorder* for ``extra["resilience"]``.
        """
        token = self.cancel_token
        policy = self.retry_policy

        def run_one(index: int):
            log: list[dict] = []

            def attempt():
                fault_point(SITE_SHARD_EXECUTE, shard=index)
                return fn(index)

            try:
                result = call_with_retries(
                    attempt, policy, token=token, key=index,
                    attempts_log=log,
                )
            except QueryCancelled:
                raise
            except Exception as error:
                if not is_retryable(error):
                    raise
                # Retries exhausted: re-execute only this shard's
                # partition with injection suppressed (thread-local, so
                # sibling shards keep their plans).  A real —
                # non-injected — persistent failure still raises here
                # and escalates to the whole-query single-node rung.
                with suppress():
                    result = fn(index)
                recorder.record_recovery(index, error)
            if log:
                recorder.record_retries(index, log)
            return result

        return list(speculative_map(
            run_one, range(self.n_shards), workers=self.n_shards,
            token=token, straggler_timeout_s=self.straggler_timeout_s,
            on_speculate=recorder.record_speculation,
        ))

    def _attach_resilience(self, result: QueryResult,
                           recorder: _FanoutRecorder) -> None:
        if recorder.eventful:
            summary = recorder.summary()
            summary["route"] = result.extra["distributed"]["route"]
            summary["retry_policy"] = {
                "max_attempts": self.retry_policy.max_attempts,
                "base_backoff_s": self.retry_policy.base_backoff_s,
                "multiplier": self.retry_policy.multiplier,
            }
            result.extra["resilience"] = summary

    # -- grid-allreduce route -------------------------------------------- #

    def _execute_aggregate(self, bound: BoundQuery) -> QueryResult:
        lowered = self._lower_shared(bound)
        if isinstance(lowered, LoweredQuery):
            split = self._split_program(lowered)
            if split is not None:
                try:
                    return self._execute_grid(bound, lowered, *split)
                except FallbackRequired as failure:
                    if failure.kind == "pattern" and not lowered.hybrid:
                        # Data-dependent shape problem (e.g. duplicate
                        # dimension keys — dimension data, so every
                        # shard sees it): retry through hybrid lowering
                        # before abandoning the grid path.
                        hybrid = lower_hybrid(
                            bound, self.mode, fusion=self.options.fusion,
                            streaming=self.options.stream_prestage,
                        )
                        if isinstance(hybrid, LoweredQuery):
                            split = self._split_program(hybrid)
                            if split is not None:
                                try:
                                    return self._execute_grid(
                                        bound, hybrid, *split
                                    )
                                except FallbackRequired:
                                    pass
        return self._execute_partials(bound)

    @staticmethod
    def _bound_key(bound: BoundQuery) -> tuple:
        """Cache key capturing the *executed* query, literals included.

        ``bound.statement`` alone is not enough: a prepared execution's
        statement still spells ``@parameter`` markers while the bound's
        predicate lists carry this call's substituted literals — which
        the lowered program embeds.  Key on both.
        """
        return (
            repr(bound.statement),
            tuple(sorted(
                (binding, tuple(repr(p) for p in conjuncts))
                for binding, conjuncts in bound.filters.items()
            )),
            tuple(repr(p) for p in bound.residuals),
            tuple(repr(p) for p in bound.having),
            tuple(repr(item.expr) for item in bound.select_items),
            tuple(repr(item.expr) for item in bound.order_by),
            tuple(sorted(
                (key, repr(expr))
                for key, expr in bound.group_exprs.items()
            )),
        )

    def _lower_shared(self, bound: BoundQuery):
        """Compile the ONE program all shards execute (cached when a
        ProgramCache is attached)."""
        cache = self.program_cache
        key = fingerprint = None
        if cache is not None:
            key = ("dist-program", self._bound_key(bound),
                   self.node._cache_options_key())
            fingerprint = self.catalog.fingerprint()
            cached = cache.get(key, fingerprint)
            if cached is not None:
                try:
                    fault_point(SITE_CACHE_GET)
                    return cached
                except QueryCancelled:
                    raise
                except Exception:
                    # Poisoned template: evict and recompile fresh
                    # below rather than re-serving the bad entry.
                    cache.poison(key)
        lowered = lower_query(bound, self.mode, fusion=self.options.fusion,
                              streaming=self.options.stream_prestage)
        if cache is not None:
            cache.put(key, fingerprint, lowered)
        return lowered

    @staticmethod
    def _split_program(lowered: LoweredQuery):
        """Split the program at its GridAggregate: the prefix runs per
        shard, the suffix runs once over the merged grids.  ``None``
        when the program has no mergeable grid stage (e.g. an operator
        between GEMM and grid aggregation) — callers then take the
        partial-rows route."""
        ops = lowered.program.ops
        for index, op in enumerate(ops):
            if isinstance(op, GridAggregate):
                gemm = next((o for o in ops[:index] if o.id == op.input), None)
                if isinstance(gemm, Gemm):
                    return ops[:index], ops[index:], gemm
                return None
        return None

    def _execute_grid(self, bound: BoundQuery, lowered: LoweredQuery,
                      prefix, suffix, gemm: Gemm) -> QueryResult:
        token = self.cancel_token

        def run_shard(index: int) -> ProgramContext:
            engine = self.shard_engines[index]
            ctx = ProgramContext(
                bound=self._shard_bound(bound, index), device=engine.device,
                host=engine.host, mode=self.mode, options=engine.options,
                optimizer=engine.optimizer, driver=engine.driver,
                cancel_token=token,
            )
            for op in prefix:
                if token is not None:
                    token.raise_if_cancelled()
                ctx.values[op.id] = op.execute(ctx)
            self._verify_partial(ctx, gemm, index)
            return ctx

        recorder = _FanoutRecorder()
        shard_ctxs = self._fanout(run_shard, recorder)
        products = [ctx.value(gemm.id) for ctx in shard_ctxs]
        merged, grid_cells, n_grids = self._merge_products(products)

        # Coordinator context: stage-wise max of the shard breakdowns
        # (shards run in parallel), the critical shard's ledger, then
        # the allreduce charge and the suffix operators.
        ctx = ProgramContext(
            bound=bound, device=self.node.device, host=self.node.host,
            mode=self.mode, options=self.node.options,
            optimizer=self.node.optimizer, driver=self.node.driver,
            cancel_token=token,
        )
        critical = max(shard_ctxs, key=lambda c: c.breakdown.total)
        for stage in sorted({
            s for c in shard_ctxs for s in c.breakdown.stages
        }):
            ctx.breakdown.add(
                stage, max(c.breakdown.get(stage) for c in shard_ctxs)
            )
        ctx.op_costs.extend(critical.op_costs)
        ctx.decisions.update(critical.decisions)
        merge_seconds = estimate_shard_merge(
            self.node.device, grid_cells, self.n_shards, n_grids
        )
        ctx.breakdown.add(STAGE_SHARD_MERGE, merge_seconds)
        ctx.op_costs.append(OperatorCost(
            op_id="allreduce", kind=STAGE_SHARD_MERGE,
            stage=STAGE_SHARD_MERGE, seconds=merge_seconds,
        ))
        ctx.values[gemm.id] = merged
        ctx.values[gemm.input] = merged.operands  # for program emission
        output = None
        for op in suffix:
            if token is not None:
                token.raise_if_cancelled()
            output = op.execute(ctx)
            ctx.values[op.id] = output
        result = self.node._finalize(bound, lowered.program, ctx, output)
        result.engine = self.name
        self._annotate(result, "grid-allreduce", merge_seconds,
                       executed_by="TCU-dist")
        self._attach_resilience(result, recorder)
        return result

    @staticmethod
    def _verify_partial(ctx: ProgramContext, gemm: Gemm, index: int) -> None:
        """Checksum-guard one shard's grid partial before it is shipped.

        The checksums (per-grid sums) are captured from the honest
        arrays; the partial then passes through the
        ``grid.accumulate`` corruption point — so an injected
        perturbation flows exactly where a real bit-flip would — and is
        re-verified.  A mismatch raises the retryable
        :class:`~repro.common.errors.CorruptPartialError`, and the
        retry ladder recomputes this shard from scratch.
        """
        product = ctx.value(gemm.id)
        if (not isinstance(product, ProductValue)
                or product.grids is None or product.count_grid is None):
            return
        arrays = [*product.grids, product.count_grid]
        checksums = [float(np.sum(a)) for a in arrays]
        shipped = [corrupt_array(SITE_GRID_ACCUMULATE, a, shard=index)
                   for a in arrays]
        ctx.values[gemm.id] = replace(
            product, grids=shipped[:-1], count_grid=shipped[-1]
        )
        for expected, array in zip(checksums, shipped):
            actual = float(np.sum(array))
            if (not np.isfinite(actual)
                    or abs(actual - expected) > 1e-6 * max(1.0, abs(expected))):
                checksum_mismatch(SITE_GRID_ACCUMULATE, shard=index)

    def _merge_products(self, products: list[ProductValue]):
        """Fold per-shard grid partials into the union composite space.

        Returns ``(merged ProductValue, grid cells, grid count)`` for
        the allreduce cost charge.  Shards whose operands were empty
        contribute the identity (they are skipped); all-empty shards
        collapse to an empty product, from which GridAggregate
        synthesizes the correct empty/zero-row output.
        """
        live = [p for p in products if not p.empty]
        if not live:
            return ProductValue(operands=products[0].operands,
                                empty=True), 0, 0
        if any(p.grids is None or p.count_grid is None for p in live):
            raise FallbackRequired(
                "shard produced a grid-less product partial", kind="cost"
            )
        first = live[0].operands
        left_side, row_maps = self._merge_side(
            [p.operands.left for p in live]
        )
        right_side, col_maps = self._merge_side(
            [p.operands.right for p in live]
        )
        g1, g2 = left_side.g, right_side.g
        grids = [np.zeros((g1, g2)) for _ in first.specs]
        count_grid = np.zeros((g1, g2))
        # Deterministic allreduce: ascending shard order, coordinator
        # thread.  Row/col maps are injective (distinct shard composite
        # codes map to distinct union codes), so fancy-indexed += folds
        # every shard cell exactly once.
        for product, rows, cols in zip(live, row_maps, col_maps):
            cells = np.ix_(rows, cols)
            for merged_grid, grid in zip(grids, product.grids):
                merged_grid[cells] += grid
            count_grid[cells] += product.count_grid
        operands = AggOperandsValue(
            left=left_side, right=right_side, k=first.k,
            geometry=first.geometry, feasibility=first.feasibility,
            pairs=sum(p.operands.pairs for p in live),
            specs=first.specs, grouped=first.grouped,
        )
        merged = ProductValue(operands=operands, grids=grids,
                              count_grid=count_grid)
        return merged, g1 * g2, len(grids) + 1

    @staticmethod
    def _merge_side(sides: list[PreparedAggSide]):
        """Union composite-key space of one operand side, plus the
        injective shard-code -> union-code index map per shard.

        Per group column, the union of shard label sets equals the
        single-node label set (np.unique output is sorted, and every
        qualifying row lives on exactly one shard), so the merged grid
        has exactly the single-node geometry and group enumeration
        order.
        """
        if all(side.group is None for side in sides):
            merged = PreparedAggSide(
                keys_mapped=np.zeros(0, dtype=np.int64), group=None)
            return merged, [np.zeros(1, dtype=np.int64) for _ in sides]
        if any(side.group is None for side in sides):
            raise ExecutionError(
                "shard grid partials disagree on group structure"
            )
        n_columns = len(sides[0].group.labels)
        union_labels = [
            np.unique(np.concatenate(
                [side.group.labels[c] for side in sides]
            ))
            for c in range(n_columns)
        ]
        cardinality = 1
        for labels in union_labels:
            cardinality *= int(labels.size)
        maps = []
        for side in sides:
            codes = np.arange(side.group.cardinality, dtype=np.int64)
            decoded = side.group.decode(codes)
            mapped = np.zeros(codes.size, dtype=np.int64)
            for values, labels in zip(decoded, union_labels):
                mapped = mapped * labels.size + np.searchsorted(
                    labels, values
                )
            maps.append(mapped)
        merged = PreparedAggSide(
            keys_mapped=np.zeros(0, dtype=np.int64),
            group=CompositeKey(labels=union_labels,
                               codes=np.zeros(0, dtype=np.int64),
                               cardinality=cardinality),
            group_order=list(sides[0].group_order),
        )
        return merged, maps

    # -- partial-rows route ---------------------------------------------- #

    @staticmethod
    def _aggregate_calls(bound: BoundQuery) -> list[AggregateCall]:
        calls: list[AggregateCall] = []
        for item in bound.select_items:
            for sub in item.expr.walk():
                if isinstance(sub, AggregateCall) and sub not in calls:
                    calls.append(sub)
        for predicate in bound.having:
            for expr in walk_predicate_exprs(predicate):
                for sub in expr.walk():
                    if isinstance(sub, AggregateCall) and sub not in calls:
                        calls.append(sub)
        return calls

    def _execute_partials(self, bound: BoundQuery) -> QueryResult:
        calls = self._aggregate_calls(bound)
        group_cols = list(bound.group_by)
        resolution = dict(bound.resolution)
        items: list[SelectItem] = []
        for i, col in enumerate(group_cols):
            if col.binding == COMPUTED_GROUP_BINDING:
                expr = bound.group_exprs[col.key]
            else:
                expr = ColumnRef(col.binding, col.column)
                resolution[expr] = col
            items.append(SelectItem(expr, alias=f"__g{i}"))
        # SUM partials carry SUM and AVG (AVG finalizes as Σsum/Σcount);
        # MIN/MAX fold; every COUNT derives from the shared __cnt.
        partial_alias: dict[AggregateCall, str | None] = {}
        for j, call in enumerate(calls):
            if call.argument is None or call.func == "count":
                partial_alias[call] = None
                continue
            func = "sum" if call.func in ("sum", "avg") else call.func
            alias = f"__a{j}"
            partial_alias[call] = alias
            items.append(
                SelectItem(AggregateCall(func, call.argument), alias=alias)
            )
        items.append(SelectItem(AggregateCall("count", None), alias="__cnt"))
        statement = replace(
            bound.statement, select_items=tuple(items), having=(),
            order_by=(), limit=None, select_star=False,
        )
        partial = replace(
            bound, statement=statement, resolution=resolution,
            select_items=items, order_by=[], limit=None, having=[],
        )

        def run_shard(index: int) -> QueryResult:
            return self.shard_engines[index].execute_bound(
                self._shard_bound(partial, index)
            )

        recorder = _FanoutRecorder()
        shard_results = self._fanout(run_shard, recorder)
        tables = [r.require_table() for r in shard_results]

        def gather(name: str) -> np.ndarray:
            return np.concatenate(
                [np.asarray(t.column(name).data, dtype=np.float64)
                 for t in tables]
            )

        def gather_raw(name: str) -> np.ndarray:
            return np.concatenate(
                [np.asarray(t.column(name).data) for t in tables]
            )

        counts_in = gather("__cnt")
        # Identity partials: a shard with zero qualifying rows reports
        # one ungrouped COUNT=0 row — drop those before the fold so they
        # neither fabricate a group nor pollute a MIN/MAX with a
        # spurious 0.
        live = counts_in > 0
        if not np.any(live):
            if group_cols:
                evaluator = StreamGroupEval(bound, group_cols, {}, {}, 0)
            else:
                finals = {call: np.zeros(1) for call in calls}
                evaluator = StreamGroupEval(bound, group_cols, {}, finals, 1)
        else:
            counts_in = counts_in[live]
            if group_cols:
                keys = [gather_raw(f"__g{i}")[live]
                        for i in range(len(group_cols))]
                combined = combine_group_codes(keys)
                uniques, ids = unique_inverse(combined)
                n_groups = int(uniques.size)
                representatives = np.zeros(n_groups, dtype=np.int64)
                representatives[ids] = np.arange(ids.size)
                key_values = {
                    col.key: keys[i][representatives]
                    for i, col in enumerate(group_cols)
                }
            else:
                ids = np.zeros(counts_in.size, dtype=np.int64)
                n_groups = 1
                key_values = {}
            counts = np.bincount(ids, weights=counts_in, minlength=n_groups)
            finals = {}
            for call in calls:
                alias = partial_alias[call]
                if alias is None:
                    finals[call] = counts
                    continue
                values = gather(alias)[live]
                if call.func == "sum":
                    finals[call] = np.bincount(ids, weights=values,
                                               minlength=n_groups)
                elif call.func == "avg":
                    sums = np.bincount(ids, weights=values,
                                       minlength=n_groups)
                    finals[call] = sums / np.maximum(counts, 1)
                elif call.func == "min":
                    out = np.full(n_groups, np.inf)
                    np.minimum.at(out, ids, values)
                    finals[call] = out
                else:  # max
                    out = np.full(n_groups, -np.inf)
                    np.maximum.at(out, ids, values)
                    finals[call] = out
            evaluator = StreamGroupEval(bound, group_cols, key_values,
                                        finals, n_groups)
        names = [item.output_name for item in bound.select_items]
        if evaluator.n_groups == 0:
            arrays = [np.array([]) for _ in bound.select_items]
        else:
            arrays = [np.asarray(evaluator.eval_expr(item.expr))
                      for item in bound.select_items]
            if bound.having:
                mask = evaluator.having_mask(bound.having)
                arrays = [array[mask] for array in arrays]
        arrays = apply_order_limit(bound, arrays, names)
        table = build_result_table(bound, arrays, names)
        transferred = int(counts_in.size) * max(len(items), 1)
        result = self._merged_result(
            bound, shard_results, table, "partial-rows", transferred,
            executed_by="TCU-dist-partial",
        )
        self._attach_resilience(result, recorder)
        return result

    # -- concat route ----------------------------------------------------- #

    def _execute_concat(self, bound: BoundQuery) -> QueryResult:
        statement = replace(bound.statement, order_by=(), limit=None)
        local = replace(bound, statement=statement, order_by=[], limit=None)

        def run_shard(index: int) -> QueryResult:
            return self.shard_engines[index].execute_bound(
                self._shard_bound(local, index)
            )

        recorder = _FanoutRecorder()
        shard_results = self._fanout(run_shard, recorder)
        tables = [r.require_table() for r in shard_results]
        names = tables[0].column_names
        columns = {name: [t.column(name) for t in tables] for name in names}
        arrays = [
            np.concatenate([c.data for c in columns[name]])
            for name in names
        ]
        items = (list(bound.select_items)
                 if len(bound.select_items) == len(names) else None)
        arrays = apply_order_limit(bound, arrays, names, items=items)
        out = {
            name: Column(array, columns[name][0].dtype,
                         columns[name][0].dictionary)
            for name, array in zip(names, arrays)
        }
        table = Table("result", out)
        transferred = sum(t.num_rows for t in tables) * max(len(names), 1)
        result = self._merged_result(
            bound, shard_results, table, "concat", transferred,
            executed_by="TCU-dist-concat",
        )
        self._attach_resilience(result, recorder)
        return result

    # -- shared result assembly ------------------------------------------- #

    def _merged_result(self, bound: BoundQuery,
                       shard_results: list[QueryResult], table: Table,
                       route: str, transferred_cells: int,
                       executed_by: str) -> QueryResult:
        breakdown = TimingBreakdown()
        for stage in sorted({
            s for r in shard_results for s in r.breakdown.stages
        }):
            breakdown.add(
                stage, max(r.breakdown.get(stage) for r in shard_results)
            )
        merge_seconds = estimate_shard_merge(
            self.node.device, transferred_cells, self.n_shards, 1
        )
        breakdown.add(STAGE_SHARD_MERGE, merge_seconds)
        critical = max(shard_results, key=lambda r: r.breakdown.total)
        op_costs = list(critical.extra.get("operator_costs") or [])
        op_costs.append(OperatorCost(
            op_id="allreduce", kind=STAGE_SHARD_MERGE,
            stage=STAGE_SHARD_MERGE, seconds=merge_seconds,
        ))
        result = QueryResult(
            engine=self.name,
            n_rows=table.num_rows,
            breakdown=breakdown,
            table=table,
            plan_description=critical.plan_description,
            extra={
                "executed_by": executed_by,
                "operator_costs": op_costs,
                "program_listing": critical.extra.get(
                    "program_listing",
                    f"distributed[{route}] per-shard plans",
                ),
                "shard_executed_by": [
                    r.extra.get("executed_by", "TCU")
                    for r in shard_results
                ],
            },
        )
        self._annotate(result, route, merge_seconds,
                       executed_by=executed_by)
        return result

    def _annotate(self, result: QueryResult, route: str,
                  merge_seconds: float, executed_by: str) -> None:
        result.extra["executed_by"] = executed_by
        result.extra["distributed"] = {
            "route": route,
            "shards": self.n_shards,
            "policy": self.sharded.policy,
            "fact": self.sharded.fact,
            "merge_seconds": merge_seconds,
        }
        note = (f"note: allreduce merge over {self.n_shards} shards "
                f"({self.sharded.policy} partition on "
                f"{self.sharded.fact!r}): {merge_seconds:.3e}s "
                f"[{STAGE_SHARD_MERGE}]")
        listing = result.extra.get("program_listing")
        result.extra["program_listing"] = (
            f"{listing}\n  {note}" if listing else note
        )
        if result.plan_description:
            result.plan_description = f"{result.plan_description}\n{note}"
        else:
            result.plan_description = note


__all__ = ["DistributedEngine", "STAGE_SHARD_MERGE"]
