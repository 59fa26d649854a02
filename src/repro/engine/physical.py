"""The one plan walker and the NumPy kernels it runs.

This module is the execution backbone of the repo:

* the NumPy join / group-by kernels live here;
* :class:`PhysicalExecutor` interprets the *full* logical algebra from
  :mod:`repro.sql.logical` — Scan, Join, Filter, Aggregate (with HAVING
  and MIN/MAX), Project, Sort, Limit — as chunk tasks.  It is the only
  plan interpreter: unobserved it is the Reference oracle, observed by a
  :class:`~repro.engine.cost_models.CostObserver` it is YDB or MonetDB,
  and TCUDB's hybrid pre-stage materializes a relational prefix with it;
* the shared output helpers (:func:`resolve_output_index`,
  :func:`apply_order_limit`, :func:`build_result_table`) centralize
  ORDER BY/LIMIT and result-table semantics so TCUDB, the baselines and
  the oracle cannot drift apart on ordering or result typing.

ORDER BY on dictionary-encoded string columns sorts by *decoded* values
(lexicographic), not by dictionary codes, in every engine that routes
through these helpers.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import BindError, ExecutionError
from repro.engine.cancel import CancellationToken
from repro.sql.ast_nodes import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    Predicate,
    SelectItem,
    walk_predicate_exprs,
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
# Join kernels
# --------------------------------------------------------------------------- #


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


class _PairBudget:
    """A join-pair budget: :meth:`reserve` adds a count and raises once
    the total crosses ``limit`` (``None``: unbounded).

    One budget spans every probe chunk of a streaming join.
    """

    def __init__(self, limit: int | None, op: str):
        self.limit = limit
        self.kind = "equi" if op == "=" else "non-equi"
        self._total = 0

    def reserve(self, pairs: int) -> None:
        self._total += pairs
        if self.limit is not None and self._total > self.limit:
            raise ExecutionError(
                f"{self.kind} join would materialize {self._total} "
                f"pairs (> {self.limit})"
            )


class JoinBuild:
    """A join's build (right) side, sorted once and probed any number of
    times.

    :meth:`pairs` counts a probe's matches and reserves that count from
    a :class:`_PairBudget` before materializing anything, so one counting
    pass serves both the budget and the expansion.
    """

    def __init__(self, keys: np.ndarray, op: str):
        if op not in ("=", "<>", "!=", *_NONEQUI_SIDES):
            raise ExecutionError(f"unsupported join operator {op!r}")
        self.keys = keys
        self.op = op
        # The oracle's kernel on purpose: TCUDB joins pair through
        # transform.PairRuns, so the differential compares two kernels.
        self.order = np.argsort(keys, kind="stable")
        self.sorted = keys[self.order]

    def _runs(self, left_keys: np.ndarray):
        """Per probe key, its run ``(start, count)`` of matches in
        ``order`` (for "<>": of equal keys, the complement)."""
        if self.op in _NONEQUI_SIDES:
            positions = np.searchsorted(self.sorted, left_keys,
                                        side=_NONEQUI_SIDES[self.op])
            if self.op in ("<", "<="):
                return positions, self.sorted.size - positions
            return np.zeros_like(positions), positions
        starts = np.searchsorted(self.sorted, left_keys, side="left")
        ends = np.searchsorted(self.sorted, left_keys, side="right")
        return starts, ends - starts

    def count(self, left_keys: np.ndarray) -> int:
        """Exact matching-pair count without materializing the pairs."""
        matched = int(self._runs(left_keys)[1].sum())
        if self.op in ("<>", "!="):
            return int(left_keys.size) * self.sorted.size - matched
        return matched

    def pairs(self, left_keys: np.ndarray, budget: _PairBudget):
        """Matching ``(left_index, right_index)`` pairs, left-major."""
        if self.op in ("<>", "!="):
            budget.reserve(self.count(left_keys))
            m = self.sorted.size
            left_all = np.repeat(np.arange(left_keys.size), m)
            right_all = np.tile(np.arange(m), left_keys.size)
            keep = left_keys[left_all] != self.keys[right_all]
            return left_all[keep], right_all[keep]
        starts, counts = self._runs(left_keys)
        total = int(counts.sum())
        budget.reserve(total)
        left_idx = np.repeat(np.arange(left_keys.size), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        return left_idx, self.order[np.repeat(starts, counts) + offsets]


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray,
    pair_limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching (left_index, right_index) pairs of an equi join.

    With ``pair_limit``, the pair count is checked before
    materialization, so callers need no separate counting pass.
    """
    return JoinBuild(right_keys, "=").pairs(left_keys,
                                            _PairBudget(pair_limit, "="))


def equi_join_count(left_keys: np.ndarray, right_keys: np.ndarray) -> int:
    """Exact matching-pair count without materializing the pairs."""
    return JoinBuild(right_keys, "=").count(left_keys)


def nonequi_join_count(
    left_keys: np.ndarray, right_keys: np.ndarray, op: str
) -> int:
    """Exact pair count for <, <=, >, >=, != joins via sorted counting."""
    return JoinBuild(right_keys, op).count(left_keys)


#: Non-equi joins that would materialize more pairs than this fail.
NONEQUI_PAIR_LIMIT = 50_000_000


def nonequi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray, op: str,
    pair_limit: int = NONEQUI_PAIR_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize non-equi join pairs (bounded by ``pair_limit``)."""
    return JoinBuild(right_keys, op).pairs(left_keys,
                                           _PairBudget(pair_limit, op))


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


_ARITH_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.divide, "%": np.mod,
}


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
    if not filters or not chunked.num_chunks:
        return list(chunked), chunked, name_of

    def stats_of(expr):
        if not isinstance(expr, ColumnRef):
            return None
        try:
            resolved = bound.resolve(expr)
        except BindError:
            return None
        if resolved.binding != binding:
            return None
        return chunked.column_stats(name_of[resolved.column])

    # One pass per conjunct over every chunk's statistics at once.
    keep = conjunction_can_match(
        filters, stats_of,
        lambda ref, value: encode_literal(bound, ref, value))
    if keep is True:  # no conjunct the statistics could read
        return list(chunked), chunked, name_of
    return ([chunk for chunk, kept in zip(chunked.chunks, keep.tolist())
             if kept], chunked, name_of)


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
# The plan walker
# --------------------------------------------------------------------------- #


class PhysicalExecutor:
    """Walk a logical plan as independent chunk tasks over NumPy kernels.

    Scans yield fixed-size row chunks, skipping chunks their per-chunk
    min/max statistics prove empty for the pushed-down filters;
    Filter/Compute wrap the chunk tasks, a Join materializes its build
    side once and probes every chunk, and aggregates merge mergeable
    per-chunk partials.  Memory is bounded by (chunk size x join
    fan-out) + (distinct groups), and answers do not depend on the chunk
    size: ``chunk_rows=1 << 30`` is the whole-table run.

    This is the only plan interpreter.  Unobserved it is the Reference
    oracle.  With an ``observer`` (a
    :class:`~repro.engine.cost_models.CostObserver`) it is YDB or
    MonetDB: the walker reports exact counts to it and counts every join
    before expanding it, so the observer can decline an ANALYTIC join
    too large to materialize; everything above a declined join is left
    to the observer's estimators (:meth:`run` returns no arrays).
    TCUDB's hybrid pre-stage runs a relational prefix through
    :meth:`materialize`.

    ``pair_limit`` (``None``: unbounded) bounds each join's pairs,
    cumulative across its probe chunks, so runaway fuzzed queries fail
    loudly instead of exhausting memory.  ``cancel_token`` is polled at
    every chunk boundary for cooperative cancellation (see
    :class:`~repro.engine.cancel.CancellationToken`).
    """

    def __init__(self, bound: BoundQuery, pair_limit: int | None = 20_000_000,
                 chunk_rows: int | None = None,
                 cancel_token: CancellationToken | None = None,
                 observer=None):
        self.bound = bound
        self.pair_limit = pair_limit
        self.chunk_rows = chunk_rows
        self.cancel_token = cancel_token
        self.observer = observer
        #: chunks skipped by stat pruning / scanned, over the executor's life
        self.chunks_pruned = 0
        self.chunks_scanned = 0

    def run(self, tree: LogicalNode
            ) -> tuple[list[np.ndarray] | None, list[str]]:
        """Execute the plan; returns ordered/limited output arrays (None
        above a join the observer declined) and their names."""
        if self.cancel_token is not None:
            self.cancel_token.raise_if_cancelled()
        while isinstance(tree, (Sort, Limit)):
            # Sorting and limiting apply once, below, from the bound
            # query's keys and count.
            tree = tree.input
        arrays, names = self._output(tree)
        if arrays is not None:
            arrays = apply_order_limit(self.bound, arrays, names)
        return arrays, names

    def materialize(self, node: LogicalNode,
                    max_rows: int | None = None) -> Environment | None:
        """The relation's chunk environments, concatenated (None above a
        declined join); more than ``max_rows`` rows raises."""
        tasks = self._chunk_tasks(node)
        if tasks is None:
            return None
        chunks: list[Environment] = []
        total = 0
        for env in self._stream(tasks):
            total += env.n_rows
            if max_rows is not None and total > max_rows:
                raise ExecutionError(f"relation exceeds {max_rows} rows")
            chunks.append(env)
        if not chunks:
            return Environment({}, 0)
        if len(chunks) == 1:
            return chunks[0]
        return Environment({
            key: np.concatenate([chunk.arrays[key] for chunk in chunks])
            for key in chunks[0].arrays
        }, total)

    def _stream(self, tasks):
        """Run chunk tasks in order, polling the cancel token before
        each, and yield their Environments in chunk order."""
        for task in tasks:
            if self.cancel_token is not None:
                self.cancel_token.raise_if_cancelled()
            yield from task()

    def _rows_out(self, node: LogicalNode, envs: list[Environment]) -> None:
        if self.observer is not None:
            self.observer.rows(node, sum(env.n_rows for env in envs))

    def _chunk_tasks(self, node: LogicalNode):
        """Decompose a relation into independent chunk tasks (None above
        a declined join).

        Each task returns the list of Environments its chunk contributes,
        in task order — scans map to one task per surviving chunk,
        Filter/Compute wrap the inner tasks, and a Join materializes and
        sorts its build side once and wraps the probe-side tasks around
        one cumulative pair budget.
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
        if isinstance(node, (Filter, Compute)):
            inner = self._chunk_tasks(node.input)
            if inner is None:
                return None
            wrap = (self._filter_task if isinstance(node, Filter)
                    else self._compute_task)
            return [wrap(node, task) for task in inner]
        if isinstance(node, Join):
            return self._join_tasks(node)
        raise ExecutionError(f"unexpected relational node {node!r}")

    def _join_tasks(self, node: Join):
        tasks = self._chunk_tasks(node.left)
        right = self.materialize(node.right)
        if tasks is None or right is None:
            return None
        predicate = node.predicate
        build = (JoinBuild(right.lookup(predicate.right.key), predicate.op)
                 if right.n_rows else None)
        if self.observer is not None:
            # Counted before expanded: the observer may decline to
            # materialize an ANALYTIC join.
            chunks = list(self._stream(tasks))
            pairs = sum(build.count(env.lookup(predicate.left.key))
                        for env in chunks) if build is not None else 0
            if not self.observer.expands(node, pairs):
                return None
            tasks = [lambda env=env: [env] for env in chunks]
        if build is None:
            return []
        budget = _PairBudget(self.pair_limit, predicate.op)
        return [self._probe_task(node, inner, right, build, budget)
                for inner in tasks]

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
            out = [env] if env.n_rows else []
            self._rows_out(node, out)
            return out

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
            self._rows_out(node, out)
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
                    build: JoinBuild, budget: _PairBudget):
        key = node.predicate.left.key

        def task():
            out = []
            for left_env in inner():
                # The count that reserves is the count that expands:
                # over-budget chunks fail before materializing a pair.
                left_idx, right_idx = build.pairs(left_env.lookup(key),
                                                  budget)
                if not left_idx.size:
                    continue
                merged = dict(left_env.taken(left_idx).arrays)
                merged.update(right.taken(right_idx).arrays)
                out.append(Environment(merged, int(left_idx.size)))
            return out

        return task

    def _output(self, node: LogicalNode):
        if not isinstance(node, (Aggregate, Project)):
            raise ExecutionError(f"unknown plan node {node!r}")
        names = [item.output_name for item in node.items]
        tasks = self._chunk_tasks(node.input)
        if tasks is None:
            return None, names
        if isinstance(node, Aggregate):
            return self._aggregate(node, self._stream(tasks)), names
        parts: list[list[np.ndarray]] = [[] for _ in node.items]
        for env in self._stream(tasks):
            for i, item in enumerate(node.items):
                parts[i].append(
                    np.asarray(evaluate_expr(item.expr, env, self.bound))
                )
        return [
            np.concatenate(chunks) if chunks else np.array([])
            for chunks in parts
        ], names

    def _aggregate(self, node: Aggregate, envs) -> list[np.ndarray]:
        aggregator = StreamAggregator(self.bound, node.group_by,
                                      aggregate_calls(node.items, node.having))
        for env in envs:
            aggregator.consume(env)
        evaluator = aggregator.finalize()
        arrays, kept = evaluator.output(node.items, node.having)
        if self.observer is not None:
            self.observer.grouped(node, evaluator.n_groups, kept)
        return arrays


# --------------------------------------------------------------------------- #
# Streaming aggregation: mergeable per-chunk partials
# --------------------------------------------------------------------------- #


def aggregate_calls(items: list[SelectItem],
                    having: list[Predicate]) -> list[AggregateCall]:
    """The distinct aggregate calls of the select items, then of HAVING,
    in first-seen order: the calls a :class:`StreamAggregator` carries."""
    calls: list[AggregateCall] = []
    exprs = [item.expr for item in items] + [
        expr for predicate in having
        for expr in walk_predicate_exprs(predicate)
    ]
    for expr in exprs:
        for sub in expr.walk():
            if isinstance(sub, AggregateCall) and sub not in calls:
                calls.append(sub)
    return calls


class StreamAggregator:
    """Grouped aggregation over a stream of mergeable partials.

    A partial is one row per group: the group's key values, its row
    count and, per call, one reduced value (SUM/AVG: the sum, MIN/MAX:
    the min/max; COUNT reads the row count).  :meth:`consume` reduces a
    chunk to its partials and hands them to :meth:`add_partial`.
    ``finalize`` merges the partials with one global re-group: sums and
    counts add, min/max fold, AVG is Σsum/Σcount.
    Memory is bounded by the number of *distinct groups seen*, never by
    the input row count.
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
        self._counts: list[np.ndarray] = []
        # Per call: its partial values, one array per partial.
        self._values: list[list[np.ndarray]] = [[] for _ in self.calls]

    def consume(self, env: Environment) -> None:
        n = env.n_rows
        if n == 0:
            return
        keys = []
        if self.group_keys:
            key_arrays = [np.asarray(env.lookup(k)) for k in self.group_keys]
            combined = combine_group_codes(key_arrays)
            uniques, ids = np.unique(combined, return_inverse=True)
            n_groups = int(uniques.size)
            representatives = np.zeros(n_groups, dtype=np.int64)
            representatives[ids] = np.arange(n)
            keys = [array[representatives] for array in key_arrays]
        else:
            ids = np.zeros(n, dtype=np.int64)
            n_groups = 1
        counts = np.bincount(ids, minlength=n_groups).astype(np.float64)
        values = []
        for call in self.calls:
            if call.argument is None or call.func == "count":
                values.append(None)
                continue
            column = np.asarray(
                evaluate_expr(call.argument, env, self.bound),
                dtype=np.float64,
            )
            if call.func in ("sum", "avg"):
                values.append(
                    np.bincount(ids, weights=column, minlength=n_groups)
                )
            elif call.func == "min":
                out = np.full(n_groups, np.inf)
                np.minimum.at(out, ids, column)
                values.append(out)
            elif call.func == "max":
                out = np.full(n_groups, -np.inf)
                np.maximum.at(out, ids, column)
                values.append(out)
            else:
                raise ExecutionError(f"unsupported aggregate {call.func!r}")
        self.add_partial(keys, counts, values)

    def add_partial(self, keys: list[np.ndarray], counts: np.ndarray,
                    values: list[np.ndarray | None]) -> None:
        """Append partials already reduced per group: ``keys`` holds one
        array per GROUP BY key, ``counts`` the groups' row counts and
        ``values`` one array per call (``None`` for COUNT).

        Every group must hold rows: a zero-count partial would fabricate
        a group and fold its 0 into MIN/MAX.
        """
        for part, array in zip(self._key_parts, keys):
            part.append(array)
        self._counts.append(counts)
        for part, array in zip(self._values, values):
            if array is not None:
                part.append(array)

    def finalize(self) -> "StreamGroupEval":
        if not self._counts:
            if self.group_keys:
                return StreamGroupEval(self.bound, self.group_by, {}, {}, 0)
            # Ungrouped aggregate over an empty stream: one output row
            # with COUNT=0 and SUM/AVG/MIN/MAX=0.0 (no NULLs in this
            # storage model).
            finals = {call: np.zeros(1) for call in self.calls}
            return StreamGroupEval(self.bound, self.group_by, {}, finals, 1)
        row_counts = np.concatenate(self._counts)
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
            ids = np.zeros(row_counts.size, dtype=np.int64)
            n_groups = 1
            key_values = {}
        counts = np.bincount(ids, weights=row_counts, minlength=n_groups)
        finals: dict[AggregateCall, np.ndarray] = {}
        for call, parts in zip(self.calls, self._values):
            if call.argument is None or call.func == "count":
                finals[call] = counts
                continue
            values = np.concatenate(parts)
            if call.func in ("sum", "avg"):
                sums = np.bincount(ids, weights=values, minlength=n_groups)
                finals[call] = (sums if call.func == "sum"
                                else sums / np.maximum(counts, 1))
            elif call.func == "min":
                out = np.full(n_groups, np.inf)
                np.minimum.at(out, ids, values)
                finals[call] = out
            else:  # max
                out = np.full(n_groups, -np.inf)
                np.maximum.at(out, ids, values)
                finals[call] = out
        return StreamGroupEval(self.bound, self.group_by, key_values,
                               finals, n_groups)


class StreamGroupEval:
    """Per-group expression/HAVING evaluation over merged partials.

    Expressions structurally equal to a computed GROUP BY key resolve to
    that key's column (expression GROUP BY).
    """

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
            for key, expr in bound.group_exprs.items()
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

    def output(self, items: list[SelectItem], having: list[Predicate]
               ) -> tuple[list[np.ndarray], int]:
        """The select items per group, restricted to the groups HAVING
        keeps, and the number kept."""
        if not self.n_groups:
            return [np.array([]) for _ in items], 0
        arrays = [self.eval_expr(item.expr) for item in items]
        if not having:
            return arrays, self.n_groups
        mask = self.having_mask(having)
        return ([np.asarray(array)[mask] for array in arrays],
                int(np.count_nonzero(mask)))

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
