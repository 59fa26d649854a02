"""General vectorized physical-plan executor and shared NumPy kernels.

This module is the execution backbone of the repo:

* the join / group-by kernels every engine uses live here (they are
  re-exported by :mod:`repro.engine.relational` for the cost-charging
  baseline executors);
* :class:`PhysicalExecutor` interprets the *full* logical algebra from
  :mod:`repro.sql.logical` — Scan, Join, Filter, Aggregate (with HAVING
  and MIN/MAX), Project, Sort, Limit — with pure NumPy semantics and no
  cost model, which is what makes it suitable as a correctness oracle
  (see :class:`repro.engine.reference.ReferenceEngine`);
* the shared output helpers (:func:`resolve_output_index`,
  :func:`apply_order_limit`, :func:`build_result_table`) centralize
  ORDER BY/LIMIT and result-table semantics so TCUDB, the baselines and
  the oracle cannot drift apart on ordering or result typing.

ORDER BY on dictionary-encoded string columns sorts by *decoded* values
(lexicographic), not by dictionary codes, in every engine that routes
through these helpers.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.common.errors import BindError, ExecutionError
from repro.engine.parallel import (
    CancellationToken,
    parallel_map,
    workers_policy,
)
from repro.sql.ast_nodes import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    Predicate,
    SelectItem,
)
from repro.sql.binder import BoundColumn, BoundQuery
from repro.sql.eval import (
    Environment,
    conjunction_mask,
    encode_literal,
    evaluate_expr,
    predicate_mask,
)
from repro.sql.logical import (
    Aggregate,
    Compute,
    Filter,
    Join,
    Limit,
    LogicalNode,
    Project,
    Scan,
    Sort,
)
from repro.storage.column import Column
from repro.storage.statistics import conjunction_can_match
from repro.storage.table import Table
from repro.storage.types import DataType

# --------------------------------------------------------------------------- #
# Join kernels (shared by every engine; re-exported from engine.relational)
# --------------------------------------------------------------------------- #


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray,
    pair_limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching (left_index, right_index) pairs of an equi join.

    With ``pair_limit``, the (cheaply computed) pair count is checked
    before materialization, so callers need no separate counting pass.
    """
    # The oracle's kernel on purpose: TCUDB joins pair through
    # transform.PairRuns, so the differential compares two kernels.
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    ends = np.searchsorted(sorted_right, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if pair_limit is not None and total > pair_limit:
        raise ExecutionError(
            f"equi join would materialize {total} pairs (> {pair_limit})"
        )
    left_idx = np.repeat(np.arange(left_keys.size), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[np.repeat(starts, counts) + offsets]
    return left_idx, right_idx


def equi_join_count(left_keys: np.ndarray, right_keys: np.ndarray) -> int:
    """Exact matching-pair count without materializing the pairs."""
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    ends = np.searchsorted(sorted_right, left_keys, side="right")
    return int((ends - starts).sum())


# searchsorted side per operator: for "left op right" we count, per left
# key, the right keys satisfying the comparison in the sorted right array.
# "<" needs right keys strictly greater (insertion point from the right),
# "<=" needs right keys >= (insertion point from the left), and mirrored
# for ">" / ">=".
_NONEQUI_SIDES = {
    "<": "right",
    "<=": "left",
    ">": "left",
    ">=": "right",
}


def nonequi_join_count(
    left_keys: np.ndarray, right_keys: np.ndarray, op: str
) -> int:
    """Exact pair count for <, <=, >, >=, != joins via sorted counting."""
    sorted_right = np.sort(right_keys)
    m = sorted_right.size
    if op in ("<", "<="):
        side = _NONEQUI_SIDES[op]
        positions = np.searchsorted(sorted_right, left_keys, side=side)
        return int((m - positions).sum())
    if op in (">", ">="):
        side = _NONEQUI_SIDES[op]
        positions = np.searchsorted(sorted_right, left_keys, side=side)
        return int(positions.sum())
    if op in ("<>", "!="):
        equal = equi_join_count(left_keys, right_keys)
        return int(left_keys.size) * m - equal
    raise ExecutionError(f"unsupported join operator {op!r}")


def nonequi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray, op: str,
    pair_limit: int = 50_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize non-equi join pairs (bounded by ``pair_limit``)."""
    pairs = nonequi_join_count(left_keys, right_keys, op)
    if pairs > pair_limit:
        raise ExecutionError(
            f"non-equi join would materialize {pairs} pairs (> {pair_limit})"
        )
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    m = sorted_right.size
    if op in ("<", "<=", ">", ">="):
        side = _NONEQUI_SIDES[op]
        positions = np.searchsorted(sorted_right, left_keys, side=side)
        if op in ("<", "<="):
            counts = m - positions
            starts = positions
        else:
            counts = positions
            starts = np.zeros_like(positions)
        total = int(counts.sum())
        left_idx = np.repeat(np.arange(left_keys.size), counts)
        offsets = (
            np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        right_idx = order[np.repeat(starts, counts) + offsets]
        return left_idx, right_idx
    if op in ("<>", "!="):
        left_idx_all = np.repeat(np.arange(left_keys.size), m)
        right_idx_all = np.tile(np.arange(m), left_keys.size)
        keep = left_keys[left_idx_all] != right_keys[right_idx_all]
        return left_idx_all[keep], right_idx_all[keep]
    raise ExecutionError(f"unsupported join operator {op!r}")


def combine_group_codes(arrays: list[np.ndarray]) -> np.ndarray:
    """Collapse multiple key arrays into one composite code per row."""
    if not arrays:
        raise ExecutionError("group-by requires at least one key")
    combined = np.zeros(arrays[0].size, dtype=np.int64)
    for array in arrays:
        # np.unique on purpose: the oracle engines must not share
        # repro.tensor.keys.unique_inverse, the primitive under test.
        _, codes = np.unique(array, return_inverse=True)
        span = int(codes.max()) + 1 if codes.size else 1
        combined = combined * span + codes
    return combined


def group_aggregate(
    call: AggregateCall, env: Environment, bound: BoundQuery,
    group_ids: np.ndarray, n_groups: int,
) -> np.ndarray:
    """Evaluate one SUM/COUNT/AVG/MIN/MAX call per group."""
    if call.argument is None:  # COUNT(*)
        return np.bincount(group_ids, minlength=n_groups).astype(np.float64)
    values = evaluate_expr(call.argument, env, bound).astype(np.float64)
    if call.func == "count":
        return np.bincount(group_ids, minlength=n_groups).astype(np.float64)
    if call.func == "sum":
        return np.bincount(group_ids, weights=values, minlength=n_groups)
    if call.func == "avg":
        sums = np.bincount(group_ids, weights=values, minlength=n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        return sums / np.maximum(counts, 1)
    if call.func == "min":
        out = np.full(n_groups, np.inf)
        np.minimum.at(out, group_ids, values)
        return _zero_empty_groups(out, group_ids, n_groups)
    if call.func == "max":
        out = np.full(n_groups, -np.inf)
        np.maximum.at(out, group_ids, values)
        return _zero_empty_groups(out, group_ids, n_groups)
    raise ExecutionError(f"unsupported aggregate {call.func!r}")


def _zero_empty_groups(out: np.ndarray, group_ids: np.ndarray,
                       n_groups: int) -> np.ndarray:
    """Replace the ±inf MIN/MAX sentinels of row-less groups with 0.0.

    Only the single global group of an ungrouped aggregate over zero
    rows can be row-less (grouped group ids come from the present
    rows); this storage model has no NULLs, so that row reports 0.0.
    """
    counts = np.bincount(group_ids, minlength=n_groups)
    out[counts == 0] = 0.0
    return out


_ARITH_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.divide, "%": np.mod,
}


class GroupContext:
    """Per-group evaluation of expressions and HAVING predicates.

    Wraps one grouped relation: ``group_ids`` assigns each input row to a
    group, ``representatives`` holds one input row index per group (for
    group-key columns).  Expressions evaluate to one value per group.
    Expressions structurally equal to a computed GROUP BY key resolve to
    that key's projected column (expression GROUP BY).
    """

    def __init__(
        self,
        bound: BoundQuery,
        env: Environment,
        group_ids: np.ndarray,
        n_groups: int,
        representatives: np.ndarray,
        group_by: list[BoundColumn],
    ):
        self.bound = bound
        self.env = env
        self.group_ids = group_ids
        self.n_groups = n_groups
        self.representatives = representatives
        self.group_keys = {c.key for c in group_by}
        self.computed = {
            expr: key
            for key, expr in getattr(bound, "group_exprs", {}).items()
        }

    # -- expressions ---------------------------------------------------- #

    def eval_expr(self, expr: Expr) -> np.ndarray:
        computed_key = self.computed.get(expr)
        if computed_key is not None:
            return self.env.lookup(computed_key)[self.representatives]
        if isinstance(expr, AggregateCall):
            return group_aggregate(expr, self.env, self.bound,
                                   self.group_ids, self.n_groups)
        if isinstance(expr, Literal):
            return np.full(self.n_groups, expr.value)
        if isinstance(expr, ColumnRef):
            key = self.bound.resolve(expr).key
            if key not in self.group_keys:
                raise ExecutionError(f"non-grouped column {key} in select")
            return self.env.lookup(key)[self.representatives]
        if isinstance(expr, BinaryOp):
            left = self.eval_expr(expr.left)
            right = self.eval_expr(expr.right)
            op = _ARITH_OPS.get(expr.op)
            if op is None:
                raise ExecutionError(
                    f"unsupported arithmetic operator {expr.op!r}"
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                return op(
                    np.asarray(left, dtype=np.float64),
                    np.asarray(right, dtype=np.float64),
                )
        raise ExecutionError(
            f"unsupported aggregate-context expression {expr!r}"
        )

    # -- HAVING predicates ---------------------------------------------- #

    def eval_predicate(self, predicate: Predicate) -> np.ndarray:
        # Same interpreter as WHERE evaluation, with per-group leaves.
        return predicate_mask(
            predicate,
            self.n_groups,
            self.eval_expr,
            lambda ref, value: encode_literal(self.bound, ref, value),
        )

    def having_mask(self, predicates: list[Predicate]) -> np.ndarray:
        mask = np.ones(self.n_groups, dtype=bool)
        for predicate in predicates:
            mask &= self.eval_predicate(predicate)
        return mask


def compute_environment(
    env: Environment, computed, bound: BoundQuery
) -> Environment:
    """Extend an environment with computed columns (``Compute`` node)."""
    arrays = dict(env.arrays)
    for key, expr in computed:
        arrays[key] = evaluate_expr(expr, env, bound)
    return Environment(arrays, env.n_rows)


def pruned_scan_chunks(bound: BoundQuery, binding: str, filters,
                       chunk_rows: int | None = None):
    """Chunks of one binding's table surviving stat pruning for a scan's
    filter conjuncts.

    Returns ``(kept_chunks, chunked_table, name_of)`` where ``name_of``
    maps lowercase column names to the table's actual names.  This is
    the single chunk-prune protocol — shared by the streaming executor's
    Scan and TCUDB's ``TableSource`` so the statistics-resolution rules
    cannot drift between the two scans.
    """
    table = bound.binding(binding).table
    chunked = table.chunked(chunk_rows)
    name_of = {name.lower(): name for name in table.column_names}
    if not filters:
        return list(chunked), chunked, name_of

    # A literal's physical code depends on the column alone, never on the
    # chunk: encode each once per scan, not once per chunk.
    encoded: dict = {}

    def encode(ref, value):
        key = (ref, value)
        if key not in encoded:
            encoded[key] = encode_literal(bound, ref, value)
        return encoded[key]

    kept = []
    for chunk in chunked:
        def stats_of(expr, chunk=chunk):
            if not isinstance(expr, ColumnRef):
                return None
            try:
                resolved = bound.resolve(expr)
            except BindError:
                return None
            if resolved.binding != binding:
                return None
            return chunk.stats(name_of[resolved.column])

        if conjunction_can_match(filters, stats_of, encode):
            kept.append(chunk)
    return kept, chunked, name_of


def build_group_context(
    bound: BoundQuery, env: Environment, group_by: list[BoundColumn]
) -> GroupContext:
    """Assign group ids over an environment (one global group if no keys)."""
    if group_by:
        key_arrays = [env.lookup(c.key) for c in group_by]
        combined = combine_group_codes(key_arrays)
        unique_codes, group_ids = np.unique(combined, return_inverse=True)
        n_groups = int(unique_codes.size)
        representatives = np.zeros(n_groups, dtype=np.int64)
        representatives[group_ids] = np.arange(group_ids.size)
    else:
        group_ids = np.zeros(env.n_rows, dtype=np.int64)
        # An ungrouped aggregate always produces exactly one row — over
        # zero input rows that row is COUNT=0 and SUM/AVG/MIN/MAX=0.0
        # (no NULLs in this storage model).
        n_groups = 1
        representatives = np.zeros(1, dtype=np.int64)
    return GroupContext(bound, env, group_ids, n_groups, representatives,
                        group_by)


# --------------------------------------------------------------------------- #
# Output helpers: ORDER BY / LIMIT resolution and result-table assembly
# --------------------------------------------------------------------------- #


def resolve_output_index(
    bound: BoundQuery,
    expr: Expr,
    names: list[str],
    items: list[SelectItem] | None = None,
) -> int | None:
    """Index of the output column an ORDER BY key refers to (or None).

    Resolution order: bare select-list alias/name, resolved column key
    against plain-column select items, output-name match, stringified
    expression against output names and select expressions (so ``ORDER BY
    SUM(x)`` finds ``SUM(x) AS total``).
    """
    items = list(items) if items is not None else list(bound.select_items)
    by_name = {name.lower(): i for i, name in enumerate(names)}
    if isinstance(expr, ColumnRef):
        if expr.table is None and expr.column in by_name:
            return by_name[expr.column]
        try:
            key = bound.resolve(expr).key
        except BindError:
            key = None  # select-list alias, not a table column
        if key is not None:
            for i, item in enumerate(items):
                if isinstance(item.expr, ColumnRef):
                    try:
                        if bound.resolve(item.expr).key == key:
                            return i
                    except BindError:
                        continue
            for i, name in enumerate(names):
                if name.lower() in (key, expr.column):
                    return i
    text = str(expr).lower()
    if text in by_name:
        return by_name[text]
    for i, item in enumerate(items):
        if str(item.expr).lower() == text:
            return i
    return None


def sort_key_array(
    bound: BoundQuery, item: SelectItem | None, array: np.ndarray
) -> np.ndarray:
    """The array to argsort for one ORDER BY key.

    String outputs are decoded through their dictionary so ordering is
    lexicographic rather than dictionary-code order.
    """
    array = np.asarray(array)
    if item is not None and isinstance(item.expr, ColumnRef):
        try:
            resolved = bound.resolve(item.expr)
        except BindError:
            return array
        if resolved.dtype == DataType.STRING:
            source = bound.binding(resolved.binding).table.column(
                resolved.column
            )
            if source.dictionary is not None:
                return source.dictionary.decode(
                    np.asarray(array, dtype=np.int64)
                )
    return array


def apply_order_limit(
    bound: BoundQuery,
    arrays: list[np.ndarray],
    names: list[str],
    items: list[SelectItem] | None = None,
) -> list[np.ndarray]:
    """Apply the query's ORDER BY and LIMIT to materialized output arrays.

    Unresolvable ORDER BY keys raise: silently skipping a key reorders
    LIMIT results (the historical `_order_index` bug).
    """
    items = list(items) if items is not None else list(bound.select_items)
    if bound.order_by and arrays:
        order = np.arange(np.asarray(arrays[0]).size)
        for order_item in reversed(bound.order_by):
            index = resolve_output_index(bound, order_item.expr, names, items)
            if index is None:
                raise ExecutionError(
                    f"ORDER BY key {order_item.expr} not in select list"
                )
            item = items[index] if index < len(items) else None
            keys = sort_key_array(bound, item, arrays[index])[order]
            positions = np.argsort(keys, kind="stable")
            if order_item.descending:
                positions = positions[::-1]
            order = order[positions]
        arrays = [np.asarray(a)[order] for a in arrays]
    if bound.limit is not None:
        arrays = [np.asarray(a)[: bound.limit] for a in arrays]
    return arrays


def make_output_column(
    bound: BoundQuery, source: BoundColumn | None, array: np.ndarray
) -> Column:
    """Type one output array, preserving string dictionaries and int64.

    ``source`` is the table column the output projects, if any.  The
    column adopts (and freezes) an array that owns its data and already
    has the result dtype; anything else is copied — a view would pin
    its base, an operator's buffer or a scratch grid, for the result's
    lifetime.
    """
    dtype, dictionary = DataType.FLOAT64, None
    if source is not None and source.dtype == DataType.STRING:
        dtype = DataType.STRING
        dictionary = bound.binding(source.binding).table.column(
            source.column
        ).dictionary
    elif ((source is not None and source.dtype == DataType.INT64)
            or array.dtype.kind in ("i", "u")):
        dtype = DataType.INT64
    if not (array.flags.owndata and array.dtype == dtype.numpy_dtype):
        array = array.astype(dtype.numpy_dtype)
    return Column(array, dtype, dictionary)


def build_result_table(
    bound: BoundQuery,
    arrays: list[np.ndarray],
    names: list[str],
    items: list[SelectItem] | None = None,
    sources: list[BoundColumn | None] | None = None,
) -> Table:
    """Assemble output arrays into a result table with unique column
    names.  Each output is typed by its entry of ``sources`` (default:
    the column its select item names, by output name)."""
    if sources is None:
        items = list(items) if items is not None else list(bound.select_items)
        by_name: dict[str, BoundColumn | None] = {}
        for item, name in zip(items, names):
            by_name[name] = (bound.resolve(item.expr)
                             if isinstance(item.expr, ColumnRef) else None)
        sources = [by_name.get(name) for name in names]
    columns: dict[str, Column] = {}
    for array, name, source in zip(arrays, names, sources):
        column = make_output_column(bound, source, np.asarray(array))
        unique_name = name
        suffix = 1
        while unique_name in columns:
            suffix += 1
            unique_name = f"{name}_{suffix}"
        columns[unique_name] = column
    return Table("result", columns)


# --------------------------------------------------------------------------- #
# The general physical executor
# --------------------------------------------------------------------------- #


class PhysicalExecutor:
    """Interpret a logical plan tree with pure NumPy kernels.

    Cost-free and exact on both of its paths:

    * the legacy contiguous path (:meth:`run`) materializes every
      operator's full output;
    * the streaming path (:meth:`run_streaming`) pulls fixed-size row
      chunks through Scan/Filter/Compute/Join and merges mergeable
      aggregate partials, so grouped queries execute in memory bounded
      by (chunk size x join fan-out) + (distinct groups) instead of the
      full intermediate — what lets REAL-mode oracle replay work at
      paper scale.  Scans prune chunks their per-chunk min/max
      statistics prove empty for the pushed-down filters.

    ``pair_limit`` bounds join materialization (cumulative across
    chunks on the streaming path) so runaway fuzzed queries fail loudly
    instead of exhausting memory.

    ``workers`` > 1 fans independent chunks of the streaming path
    across a thread pool (``None`` takes the ``REPRO_WORKERS`` policy).
    Chunks are processed by workers but *merged in submission order*,
    so the parallel output — and every floating-point accumulation
    order behind it — is bit-identical to the sequential run.
    ``cancel_token`` is polled at every chunk boundary for cooperative
    cancellation (see :class:`~repro.engine.parallel.CancellationToken`).
    """

    def __init__(self, bound: BoundQuery, pair_limit: int = 20_000_000,
                 chunk_rows: int | None = None,
                 workers: int | None = None,
                 cancel_token: CancellationToken | None = None):
        self.bound = bound
        self.pair_limit = pair_limit
        self.chunk_rows = chunk_rows
        self.workers = workers_policy(workers)
        self.cancel_token = cancel_token
        #: chunks skipped by stat pruning in the last streaming run
        self.chunks_pruned = 0
        self.chunks_scanned = 0

    def _check_cancelled(self) -> None:
        if self.cancel_token is not None:
            self.cancel_token.raise_if_cancelled()

    # -- relational operators (return environments) ---------------------- #

    def _run_relation(self, node: LogicalNode) -> Environment:
        if isinstance(node, Scan):
            env = Environment.from_table(self.bound, node.binding)
            if node.filters:
                env = env.filtered(
                    conjunction_mask(node.filters, env, self.bound)
                )
            return env
        if isinstance(node, Join):
            return self._run_join(node)
        if isinstance(node, Filter):
            env = self._run_relation(node.input)
            return env.filtered(
                conjunction_mask(node.predicates, env, self.bound)
            )
        if isinstance(node, Compute):
            env = self._run_relation(node.input)
            return compute_environment(env, node.computed, self.bound)
        raise ExecutionError(f"unexpected relational node {node!r}")

    def _run_join(self, node: Join) -> Environment:
        left = self._run_relation(node.left)
        right = self._run_relation(node.right)
        predicate = node.predicate
        left_keys = left.lookup(predicate.left.key)
        right_keys = right.lookup(predicate.right.key)
        if predicate.is_equi:
            left_idx, right_idx = equi_join_indices(
                left_keys, right_keys, pair_limit=self.pair_limit
            )
        else:
            left_idx, right_idx = nonequi_join_indices(
                left_keys, right_keys, predicate.op,
                pair_limit=self.pair_limit,
            )
        merged = dict(left.taken(left_idx).arrays)
        merged.update(right.taken(right_idx).arrays)
        return Environment(merged, int(left_idx.size))

    # -- projection operators (return output arrays) --------------------- #

    def _run_aggregate(
        self, node: Aggregate
    ) -> tuple[list[np.ndarray], list[str]]:
        env = self._run_relation(node.input)
        names = [item.output_name for item in node.items]
        context = build_group_context(self.bound, env, node.group_by)
        if context.n_groups == 0:
            return [np.array([]) for _ in node.items], names
        arrays = [context.eval_expr(item.expr) for item in node.items]
        if node.having:
            mask = context.having_mask(node.having)
            arrays = [np.asarray(a)[mask] for a in arrays]
        return arrays, names

    def _run_output(self, node: LogicalNode) -> tuple[list[np.ndarray], list[str]]:
        if isinstance(node, Aggregate):
            return self._run_aggregate(node)
        if isinstance(node, Project):
            env = self._run_relation(node.input)
            names = [item.output_name for item in node.items]
            arrays = [
                evaluate_expr(item.expr, env, self.bound)
                for item in node.items
            ]
            return arrays, names
        if isinstance(node, (Sort, Limit)):
            # Sorting and limiting are applied once at the top via
            # apply_order_limit (bound carries the keys and count).
            return self._run_output(node.input)
        raise ExecutionError(f"unknown plan node {node!r}")

    def run(self, tree: LogicalNode) -> tuple[list[np.ndarray], list[str]]:
        """Execute the plan; returns fully ordered/limited output arrays."""
        self._check_cancelled()
        arrays, names = self._run_output(tree)
        arrays = apply_order_limit(self.bound, arrays, names)
        return arrays, names

    # -- streaming (morsel-driven) execution ----------------------------- #

    def stream_relation(self, node: LogicalNode):
        """Yield the relation's rows as a sequence of chunk Environments.

        Chunk boundaries are an implementation detail: concatenating the
        yielded chunks equals the contiguous ``_run_relation`` output row
        for row (streaming never reorders).  With ``workers`` > 1 the
        chunks run on the worker pool; results are still yielded in
        chunk order, so downstream consumers cannot observe the
        parallelism.
        """
        if self.workers > 1:
            tasks = self._chunk_tasks(node)
            for envs in parallel_map(
                lambda task: task(), tasks, self.workers,
                token=self.cancel_token,
            ):
                yield from envs
            return
        yield from self._stream_relation_sequential(node)

    def _stream_relation_sequential(self, node: LogicalNode):
        if isinstance(node, Scan):
            yield from self._stream_scan(node)
        elif isinstance(node, Join):
            yield from self._stream_join(node)
        elif isinstance(node, Filter):
            for env in self.stream_relation(node.input):
                filtered = env.filtered(
                    conjunction_mask(node.predicates, env, self.bound)
                )
                if filtered.n_rows:
                    yield filtered
        elif isinstance(node, Compute):
            for env in self.stream_relation(node.input):
                yield compute_environment(env, node.computed, self.bound)
        else:
            raise ExecutionError(f"unexpected relational node {node!r}")

    def _stream_scan(self, node: Scan):
        binding = node.binding
        kept, chunked, name_of = pruned_scan_chunks(
            self.bound, binding, node.filters, self.chunk_rows
        )
        self.chunks_pruned += chunked.num_chunks - len(kept)
        for chunk in kept:
            self._check_cancelled()
            self.chunks_scanned += 1
            env = Environment(
                {
                    f"{binding}.{lower}": chunk.column(name).data
                    for lower, name in name_of.items()
                },
                chunk.num_rows,
            )
            if node.filters:
                env = env.filtered(
                    conjunction_mask(node.filters, env, self.bound)
                )
            if env.n_rows:
                yield env

    def _stream_join(self, node: Join):
        """Stream the probe (left) side against a materialized build
        (right) side, one chunk of matches at a time."""
        right = self._run_relation(node.right)
        predicate = node.predicate
        right_keys = right.lookup(predicate.right.key)
        total = 0
        for left_env in self.stream_relation(node.left):
            self._check_cancelled()
            left_keys = left_env.lookup(predicate.left.key)
            # Each chunk gets the *remaining* budget, so a skewed chunk
            # fails on its cheap pre-count instead of materializing an
            # over-limit pair set first.
            remaining = self.pair_limit - total
            if predicate.is_equi:
                left_idx, right_idx = equi_join_indices(
                    left_keys, right_keys, pair_limit=remaining
                )
            else:
                left_idx, right_idx = nonequi_join_indices(
                    left_keys, right_keys, predicate.op,
                    pair_limit=remaining,
                )
            total += int(left_idx.size)
            if not left_idx.size:
                continue
            merged = dict(left_env.taken(left_idx).arrays)
            merged.update(right.taken(right_idx).arrays)
            yield Environment(merged, int(left_idx.size))

    # -- parallel morsel decomposition ----------------------------------- #

    def _chunk_tasks(self, node: LogicalNode):
        """Decompose a relation into independent chunk tasks.

        Each task returns the list of Environments its chunk contributes;
        concatenating every task's list in task order reproduces the
        sequential :meth:`stream_relation` output exactly — scans map to
        one task per surviving chunk, Filter/Compute wrap the inner
        tasks, and a Join materializes its build side once (here, on the
        submitting thread) and wraps the probe-side tasks around a
        lock-protected cumulative pair budget.
        """
        if isinstance(node, Scan):
            kept, chunked, name_of = pruned_scan_chunks(
                self.bound, node.binding, node.filters, self.chunk_rows
            )
            self.chunks_pruned += chunked.num_chunks - len(kept)
            self.chunks_scanned += len(kept)
            return [
                self._scan_task(node, chunk, name_of) for chunk in kept
            ]
        if isinstance(node, Filter):
            return [
                self._filter_task(node, inner)
                for inner in self._chunk_tasks(node.input)
            ]
        if isinstance(node, Compute):
            return [
                self._compute_task(node, inner)
                for inner in self._chunk_tasks(node.input)
            ]
        if isinstance(node, Join):
            right = self._run_relation(node.right)
            budget = _PairBudget(self.pair_limit)
            return [
                self._probe_task(node, inner, right, budget)
                for inner in self._chunk_tasks(node.left)
            ]
        raise ExecutionError(f"unexpected relational node {node!r}")

    def _scan_task(self, node: Scan, chunk, name_of):
        binding = node.binding

        def task():
            env = Environment(
                {
                    f"{binding}.{lower}": chunk.column(name).data
                    for lower, name in name_of.items()
                },
                chunk.num_rows,
            )
            if node.filters:
                env = env.filtered(
                    conjunction_mask(node.filters, env, self.bound)
                )
            return [env] if env.n_rows else []

        return task

    def _filter_task(self, node: Filter, inner):
        def task():
            out = []
            for env in inner():
                filtered = env.filtered(
                    conjunction_mask(node.predicates, env, self.bound)
                )
                if filtered.n_rows:
                    out.append(filtered)
            return out

        return task

    def _compute_task(self, node: Compute, inner):
        def task():
            return [
                compute_environment(env, node.computed, self.bound)
                for env in inner()
            ]

        return task

    def _probe_task(self, node: Join, inner, right: Environment,
                    budget: "_PairBudget"):
        predicate = node.predicate
        right_keys = right.lookup(predicate.right.key)

        def task():
            out = []
            for left_env in inner():
                left_keys = left_env.lookup(predicate.left.key)
                if predicate.is_equi:
                    count = equi_join_count(left_keys, right_keys)
                else:
                    count = nonequi_join_count(
                        left_keys, right_keys, predicate.op
                    )
                # Reserve before materializing: over-budget chunks fail
                # on their cheap pre-count, exactly like the sequential
                # remaining-budget check.
                budget.reserve(count, predicate.op)
                if not count:
                    continue
                if predicate.is_equi:
                    left_idx, right_idx = equi_join_indices(
                        left_keys, right_keys
                    )
                else:
                    left_idx, right_idx = nonequi_join_indices(
                        left_keys, right_keys, predicate.op,
                        pair_limit=count,
                    )
                merged = dict(left_env.taken(left_idx).arrays)
                merged.update(right.taken(right_idx).arrays)
                out.append(Environment(merged, int(left_idx.size)))
            return out

        return task

    def _stream_output(
        self, node: LogicalNode
    ) -> tuple[list[np.ndarray], list[str]]:
        if isinstance(node, Aggregate):
            return self._stream_aggregate(node)
        if isinstance(node, Project):
            names = [item.output_name for item in node.items]
            parts: list[list[np.ndarray]] = [[] for _ in node.items]
            for env in self.stream_relation(node.input):
                for i, item in enumerate(node.items):
                    parts[i].append(
                        np.asarray(evaluate_expr(item.expr, env, self.bound))
                    )
            arrays = [
                np.concatenate(chunks) if chunks else np.array([])
                for chunks in parts
            ]
            return arrays, names
        if isinstance(node, (Sort, Limit)):
            return self._stream_output(node.input)
        raise ExecutionError(f"unknown plan node {node!r}")

    def _stream_aggregate(
        self, node: Aggregate
    ) -> tuple[list[np.ndarray], list[str]]:
        names = [item.output_name for item in node.items]
        calls: list[AggregateCall] = []
        for item in node.items:
            for sub in item.expr.walk():
                if isinstance(sub, AggregateCall) and sub not in calls:
                    calls.append(sub)
        for predicate in node.having:
            from repro.sql.ast_nodes import walk_predicate_exprs

            for expr in walk_predicate_exprs(predicate):
                for sub in expr.walk():
                    if isinstance(sub, AggregateCall) and sub not in calls:
                        calls.append(sub)
        aggregator = StreamAggregator(self.bound, node.group_by, calls)
        for env in self.stream_relation(node.input):
            aggregator.consume(env)
        evaluator = aggregator.finalize()
        if evaluator.n_groups == 0:
            return [np.array([]) for _ in node.items], names
        arrays = [evaluator.eval_expr(item.expr) for item in node.items]
        if node.having:
            mask = evaluator.having_mask(node.having)
            arrays = [np.asarray(a)[mask] for a in arrays]
        return arrays, names

    def run_streaming(
        self, tree: LogicalNode
    ) -> tuple[list[np.ndarray], list[str]]:
        """Streaming equivalent of :meth:`run`: same arrays, bounded
        memory."""
        self._check_cancelled()
        self.chunks_pruned = 0
        self.chunks_scanned = 0
        arrays, names = self._stream_output(tree)
        arrays = apply_order_limit(self.bound, arrays, names)
        return arrays, names


class _PairBudget:
    """Cumulative join-pair budget shared by parallel probe tasks.

    The sequential streaming join raises once the cumulative pair count
    crosses ``pair_limit``; with probe chunks racing, the reservation
    must be atomic so exactly the same total triggers exactly the same
    error (only the reporting chunk can differ).
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._total = 0
        self._lock = threading.Lock()

    def reserve(self, pairs: int, op: str) -> None:
        with self._lock:
            self._total += pairs
            if self._total > self.limit:
                kind = "equi" if op == "=" else "non-equi"
                raise ExecutionError(
                    f"{kind} join would materialize {self._total} "
                    f"cumulative pairs (> {self.limit})"
                )


# --------------------------------------------------------------------------- #
# Streaming aggregation: mergeable per-chunk partials
# --------------------------------------------------------------------------- #


class StreamAggregator:
    """Grouped aggregation over a chunk stream.

    Each chunk reduces to per-chunk-group partials (SUM/COUNT partials
    sum, MIN/MAX partials min/max, AVG carries sum+count), keyed by the
    chunk's group-key values; ``finalize`` merges the partials with one
    global re-group.  Memory is bounded by the number of *distinct
    groups seen*, never by the input row count.
    """

    def __init__(self, bound: BoundQuery, group_by: list[BoundColumn],
                 calls: list[AggregateCall]):
        self.bound = bound
        self.group_by = list(group_by)
        self.group_keys = [c.key for c in group_by]
        self.calls = list(calls)
        self._key_parts: list[list[np.ndarray]] = [
            [] for _ in self.group_keys
        ]
        # Per call: list of (component name -> partial array) per chunk.
        self._partials: list[dict[str, list[np.ndarray]]] = [
            {"sum": [], "count": [], "min": [], "max": []}
            for _ in self.calls
        ]
        self._saw_rows = False

    def consume(self, env: Environment) -> None:
        n = env.n_rows
        if n == 0:
            return
        self._saw_rows = True
        if self.group_keys:
            key_arrays = [np.asarray(env.lookup(k)) for k in self.group_keys]
            combined = combine_group_codes(key_arrays)
            uniques, ids = np.unique(combined, return_inverse=True)
            n_groups = int(uniques.size)
            representatives = np.zeros(n_groups, dtype=np.int64)
            representatives[ids] = np.arange(n)
            for part, keys in zip(self._key_parts, key_arrays):
                part.append(keys[representatives])
        else:
            ids = np.zeros(n, dtype=np.int64)
            n_groups = 1
        counts = np.bincount(ids, minlength=n_groups).astype(np.float64)
        for call, partial in zip(self.calls, self._partials):
            if call.argument is None or call.func == "count":
                partial["count"].append(counts)
                continue
            values = np.asarray(
                evaluate_expr(call.argument, env, self.bound),
                dtype=np.float64,
            )
            if call.func in ("sum", "avg"):
                partial["sum"].append(
                    np.bincount(ids, weights=values, minlength=n_groups)
                )
                partial["count"].append(counts)
            elif call.func == "min":
                out = np.full(n_groups, np.inf)
                np.minimum.at(out, ids, values)
                partial["min"].append(out)
            elif call.func == "max":
                out = np.full(n_groups, -np.inf)
                np.maximum.at(out, ids, values)
                partial["max"].append(out)
            else:
                raise ExecutionError(f"unsupported aggregate {call.func!r}")

    def finalize(self) -> "StreamGroupEval":
        if not self._saw_rows:
            if self.group_keys:
                return StreamGroupEval(self.bound, self.group_by, {}, {}, 0)
            # Ungrouped aggregate over an empty stream: one output row
            # with COUNT=0 and SUM/AVG/MIN/MAX=0.0 — mirroring
            # build_group_context on the batch path.
            finals = {call: np.zeros(1) for call in self.calls}
            return StreamGroupEval(self.bound, self.group_by, {}, finals, 1)
        if self.group_keys:
            key_arrays = [np.concatenate(part) for part in self._key_parts]
            combined = combine_group_codes(key_arrays)
            uniques, ids = np.unique(combined, return_inverse=True)
            n_groups = int(uniques.size)
            representatives = np.zeros(n_groups, dtype=np.int64)
            representatives[ids] = np.arange(ids.size)
            key_values = {
                key: array[representatives]
                for key, array in zip(self.group_keys, key_arrays)
            }
        else:
            n_partials = max(
                (len(p["count"]) or len(p["sum"]) or len(p["min"])
                 or len(p["max"]))
                for p in self._partials
            ) if self._partials else 1
            ids = np.zeros(max(n_partials, 1), dtype=np.int64)
            n_groups = 1
            key_values = {}
        finals: dict[AggregateCall, np.ndarray] = {}
        for call, partial in zip(self.calls, self._partials):
            if call.argument is None or call.func == "count":
                finals[call] = np.bincount(
                    ids, weights=np.concatenate(partial["count"]),
                    minlength=n_groups,
                )
            elif call.func in ("sum", "avg"):
                sums = np.bincount(
                    ids, weights=np.concatenate(partial["sum"]),
                    minlength=n_groups,
                )
                if call.func == "sum":
                    finals[call] = sums
                else:
                    counts = np.bincount(
                        ids, weights=np.concatenate(partial["count"]),
                        minlength=n_groups,
                    )
                    finals[call] = sums / np.maximum(counts, 1)
            elif call.func == "min":
                out = np.full(n_groups, np.inf)
                np.minimum.at(out, ids, np.concatenate(partial["min"]))
                finals[call] = out
            else:  # max
                out = np.full(n_groups, -np.inf)
                np.maximum.at(out, ids, np.concatenate(partial["max"]))
                finals[call] = out
        return StreamGroupEval(self.bound, self.group_by, key_values,
                               finals, n_groups)


class StreamGroupEval:
    """Per-group expression/HAVING evaluation over merged partials
    (the streaming counterpart of :class:`GroupContext`)."""

    def __init__(self, bound: BoundQuery, group_by: list[BoundColumn],
                 key_values: dict[str, np.ndarray],
                 finals: dict[AggregateCall, np.ndarray], n_groups: int):
        self.bound = bound
        self.group_keys = {c.key for c in group_by}
        self.key_values = key_values
        self.finals = finals
        self.n_groups = n_groups
        self.computed = {
            expr: key
            for key, expr in getattr(bound, "group_exprs", {}).items()
        }

    def eval_expr(self, expr: Expr) -> np.ndarray:
        computed_key = self.computed.get(expr)
        if computed_key is not None and computed_key in self.key_values:
            return self.key_values[computed_key]
        if isinstance(expr, AggregateCall):
            final = self.finals.get(expr)
            if final is None:
                raise ExecutionError(
                    f"aggregate {expr} was not accumulated by the stream"
                )
            return final
        if isinstance(expr, Literal):
            return np.full(self.n_groups, expr.value)
        if isinstance(expr, ColumnRef):
            key = self.bound.resolve(expr).key
            if key not in self.group_keys:
                raise ExecutionError(f"non-grouped column {key} in select")
            return self.key_values[key]
        if isinstance(expr, BinaryOp):
            left = np.asarray(self.eval_expr(expr.left), dtype=np.float64)
            right = np.asarray(self.eval_expr(expr.right), dtype=np.float64)
            op = _ARITH_OPS.get(expr.op)
            if op is None:
                raise ExecutionError(
                    f"unsupported arithmetic operator {expr.op!r}"
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                return op(left, right)
        raise ExecutionError(
            f"unsupported aggregate-context expression {expr!r}"
        )

    def having_mask(self, predicates: list[Predicate]) -> np.ndarray:
        mask = np.ones(self.n_groups, dtype=bool)
        for predicate in predicates:
            mask &= predicate_mask(
                predicate,
                self.n_groups,
                self.eval_expr,
                lambda ref, value: encode_literal(self.bound, ref, value),
            )
        return mask
