"""Composable TCU operators: the nodes of a :class:`TensorProgram` DAG.

Each operator implements ``execute(ctx)`` — reading its input payloads
from the program context's value store, charging simulated time, and
returning its own payload — plus ``describe()`` (plan listing) and
``emission(ctx)`` (its per-operator CUDA section for the code
generator).  The catalog:

* :class:`TableSource`    — scan one binding, apply its local filters;
* :class:`FoldJoin`       — one chained-join step folding a dimension
  into the fact side (Section 3.2's matrix->table conversion);
* :class:`FoldJoinChain`  — a fused run of consecutive fold steps
  (installed by the fusion pass): each step probes the rows the earlier
  ones kept, one gather pass over the final survivors;
* :class:`IndicatorBuild` — union key domain + indicator/comparison
  operand matrices for one join step (Section 3.1/3.4 encodings);
* :class:`ValueFill`      — value-filled grouped operand matrices for a
  join+aggregate product (residual predicates masking the fact side
  inside the fill), or the Lemma-3.1 grouped-reduce encoding of an
  already-materialized relation (hybrid mode);
* :class:`Gemm`           — run the Figure-6 optimizer workflow for this
  product (range/working-set/density tests, adaptive precision, cost
  comparison) and execute the matrix multiply;
* :class:`NonzeroExtract` — nonzero() extraction of matching pairs,
  extending the join chain (residual predicates masking the pairs);
* :class:`GridAggregate`  — harvest non-empty cells of the aggregate
  grids (AVG division, group-key decoding, HAVING over the groups);
* :class:`PhysicalStage`  — conventional pre-stage executing the
  non-TCU-expressible prefix of the plan (hybrid execution);
* :class:`Decode`         — project output columns / evaluate output
  expressions into result arrays.

The payload dataclasses (``RelationValue``, ``ChainValue``, ...) are the
typed edges of the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.timing import STAGE_FILL
from repro.engine.base import ExecutionMode
from repro.engine.physical import (
    PhysicalExecutor,
    StreamGroupEval,
    pruned_scan_chunks,
)
from repro.engine.tcudb.codegen import OpEmission
from repro.engine.tcudb.cost import (
    OperatorGeometry,
    estimate_fold_chain,
    estimate_mask_apply,
    estimate_physical_stage,
)
from repro.engine.tcudb.driver import (
    CompositeKey,
    OperandStructure,
    PreparedAggSide,
    PreparedJoin,
    build_coo_operands,
    product_slots,
)
from repro.storage.statistics import (
    bound_stats_lookup,
    conjunction_selectivity,
)
from repro.engine.tcudb.feasibility import (
    INDICATOR_RANGE,
    FeasibilityReport,
    run_feasibility_test,
)
from repro.engine.tcudb.patterns import AggregateSpec, TCUPattern, sum_parts
from repro.engine.tcudb.transform import (
    PairIndex,
    PairRuns,
    union_key_domain,
)
from repro.sql.ast_nodes import AggregateCall, ColumnRef, Expr, Predicate
from repro.sql.binder import BoundColumn, BoundQuery, JoinPredicate
from repro.sql.eval import Environment, conjunction_mask, evaluate_expr
from repro.sql.logical import Join as JoinNode
from repro.sql.logical import LogicalNode, Scan
from repro.tensor.keys import presence_probe

# Per-qualifying-record cost of one chained-join step's matrix->table
# conversion and intermediate rebuild (Section 3.2's step 2/3).  Fitted to
# the paper's SSB results, where TCUDB's star joins win by 1.3x-3.7x over
# YDB rather than by orders of magnitude.
CHAINED_JOIN_FILL_S = 150e-9


class FallbackRequired(Exception):
    """An operator determined the program cannot (or should not) run on
    the TCU; the engine falls back to the conventional plan."""

    def __init__(self, reason: str, kind: str = "cost"):
        super().__init__(reason)
        self.reason = reason
        self.kind = kind


# --------------------------------------------------------------------------- #
# Payloads — the typed edges of the DAG
# --------------------------------------------------------------------------- #


@dataclass
class RelationValue:
    """A materialized (filtered) relation."""

    env: Environment

    @property
    def n_rows(self) -> int:
        return self.env.n_rows


@dataclass
class FactValue:
    """The fact side of a star, with folded-dimension state."""

    env: Environment
    gathered: dict[str, np.ndarray]
    # Per-row multiplicity from folded duplicate-key dimensions; None:
    # every row counts once.
    weights: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.env.n_rows

    def column(self, key: str) -> np.ndarray:
        if key in self.gathered:
            return self.gathered[key]
        return self.env.lookup(key)

    def eval_environment(self) -> Environment:
        """Fact env extended with the gathered dimension columns."""
        arrays = dict(self.env.arrays)
        arrays.update(self.gathered)
        return Environment(arrays, self.env.n_rows)

    def filtered(self, mask: np.ndarray) -> "FactValue":
        return self.taken(np.flatnonzero(mask))

    def taken(self, rows: np.ndarray) -> "FactValue":
        """The given rows, in order.  Gathering every column by row ids
        beats a boolean mask, which is walked again for each column."""
        return FactValue(
            env=self.env.taken(rows),
            weights=None if self.weights is None else self.weights[rows],
            gathered={k: np.asarray(v)[rows] for k, v in self.gathered.items()},
        )


@dataclass
class ChainValue:
    """State of a (possibly multi-step) join chain, composed lazily.

    No per-binding row index is stored.  A chain records how its rows
    derive from its ``parent``'s — ``step`` is the join's pair list
    (:class:`PairRuns` or :class:`PairIndex`, whose right side is
    ``right_binding``) or the rows a filter kept — and :meth:`expand` lays
    a binding's columns out over the chain's rows on demand, so a
    binding nobody projects, joins on or filters by is never gathered.
    The seed chain (``parent`` None) is the identity.

    ``materialized`` is False for ANALYTIC estimates;
    ``multiplicity[binding]`` then carries, per scanned row of that
    binding, its exact row count in the unmaterialized intermediate —
    what lets chain steps past the first price from exact per-step
    cardinalities instead of unfiltered key counts."""

    envs: dict[str, Environment]
    n_rows: int
    multiplicity: dict[str, np.ndarray] = field(default_factory=dict)
    materialized: bool = True
    parent: "ChainValue | None" = None
    step: PairRuns | PairIndex | None = None
    right_binding: str | None = None

    def expand(self, binding: str,
               columns: list[np.ndarray]) -> list[np.ndarray]:
        """``columns`` (one value per scanned row of ``binding``) over
        this chain's rows."""
        if self.parent is None:
            return list(columns)
        if binding == self.right_binding:
            return self.step.right(columns)
        return self.step.left(self.parent.expand(binding, columns))

    def filtered(self, predicates: list[Predicate], bound) -> "ChainValue":
        """The rows satisfying ``predicates``; only the columns they
        read are expanded."""
        keep = np.flatnonzero(
            conjunction_mask(predicates, _ChainEnvironment(self), bound))
        return ChainValue(envs=self.envs, n_rows=int(keep.size),
                          parent=self, step=PairIndex(keep))

    def head(self, limit: int) -> "ChainValue":
        """The first ``limit`` rows, before any column is expanded."""
        return replace(self, step=self.step.head(limit),
                       n_rows=min(self.n_rows, limit))


class _ChainEnvironment(Environment):
    """The joined bindings' columns over a chain's rows; a column is
    expanded the first time a predicate looks it up."""

    def __init__(self, chain: ChainValue):
        super().__init__({}, chain.n_rows)
        self._chain = chain

    def lookup(self, key: str) -> np.ndarray:
        if key not in self.arrays:
            for binding, env in self._chain.envs.items():
                column = env.arrays.get(key)
                if column is not None:
                    self.arrays[key], = self._chain.expand(binding, [column])
                    break
        return super().lookup(key)


@dataclass
class JoinOperandsValue:
    """Operand matrices of one join product (indicator/comparison)."""

    prepared: PreparedJoin
    geometry: OperatorGeometry
    feasibility: FeasibilityReport
    pairs: int
    chain: ChainValue
    right_env: Environment
    right_binding: str
    inner_binding: str
    # Per-left-scanned-row multiplicity in the unmaterialized chain
    # (ANALYTIC chain steps); None when the chain is materialized.
    left_weights: np.ndarray | None = None


@dataclass
class AggOperandsValue:
    """Operand matrices of one join+aggregate (or grouped-reduce) product.

    Each side's coordinate structure (its per-tuple slots released) and
    the per-cell sums of every fill slot the product multiplies ride
    along (``ValueFill`` computes them for the range test, fused or not,
    and leaves slot 0 None when it does not run): the consuming ``Gemm``
    multiplies these, it builds nothing.
    """

    left: PreparedAggSide | None
    right: PreparedAggSide | None
    k: int
    geometry: OperatorGeometry | None
    feasibility: FeasibilityReport | None
    pairs: int
    specs: list[AggregateSpec]
    grouped: bool
    empty: bool = False
    left_structure: OperandStructure | None = None
    right_structure: OperandStructure | None = None
    left_sums: list[np.ndarray] | None = None
    right_sums: list[np.ndarray] | None = None


@dataclass
class ProductValue:
    """Output of one Gemm: pairs / grids, or a deferred handle."""

    operands: JoinOperandsValue | AggOperandsValue
    grids: list[np.ndarray] | None = None  # one grid per aggregate
    # The COUNT grid, when it was multiplied: a COUNT or AVG aggregate
    # reads it, or presence needed it.
    count_grid: np.ndarray | None = None
    # Cells holding a tuple; None: every cell does, proved from operand
    # occupancy (driver.all_present) with no COUNT product.
    present: np.ndarray | None = None
    semantic: bool = False  # extraction defers to exact-key kernels
    empty: bool = False
    # Chunked numeric join: pairs extracted grid-wise per product chunk
    # (the full dense product was never materialized at once).
    pair_indices: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class GroupsValue:
    """Aggregated output grid, harvested to per-group arrays: one float64
    final per aggregate call and one array per GROUP BY key."""

    finals: dict[AggregateCall, np.ndarray] | None  # None in ANALYTIC mode
    group_columns: dict[str, np.ndarray] | None
    n_rows: int
    empty: bool = False

    def evaluator(self, bound: BoundQuery) -> StreamGroupEval:
        return StreamGroupEval(bound, bound.group_by, self.group_columns,
                               self.finals, self.n_rows)

    def having(self, ctx, predicates: list[Predicate]) -> "GroupsValue":
        """The groups the HAVING conjuncts keep."""
        mask = self.evaluator(ctx.bound).having_mask(predicates)
        keys, calls = list(self.group_columns), list(self.finals)
        masked = ctx.backend.apply_mask(
            [self.group_columns[k] for k in keys]
            + [self.finals[c] for c in calls], mask)
        return GroupsValue(
            finals=dict(zip(calls, masked[len(keys):])),
            group_columns=dict(zip(keys, masked)),
            n_rows=int(np.count_nonzero(mask)),
        )


@dataclass
class OutputValue:
    """Final output arrays (pre ORDER BY / LIMIT)."""

    arrays: list[np.ndarray] | None
    names: list[str]
    by_columns: list
    n_rows: int


# --------------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------------- #


@dataclass
class TensorOp:
    """Base operator: an id plus input op ids."""

    id: str

    kind = "op"

    def input_ids(self) -> list[str]:
        return []

    def describe(self) -> str:
        return f"{self.id}: {type(self).__name__}"

    def emission(self, ctx) -> OpEmission | None:
        return None

    def execute(self, ctx):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class TableSource(TensorOp):
    """Scan one binding and apply its local filter conjuncts.

    The scan walks the table's fixed-size row chunks and *prunes* chunks
    whose per-chunk min/max statistics prove the filters empty — pruned
    chunks are never touched and never charged, so selective filters
    over clustered columns get cheaper with data layout, as a real
    columnar scan would.
    """

    binding: str

    kind = "scan"

    def describe(self) -> str:
        return f"{self.id}: TableSource({self.binding})"

    def emission(self, ctx) -> OpEmission:
        return OpEmission(
            kind="scan",
            label=f"Scan+Filter({self.binding})",
            lines=[f"  // host: scan {self.binding} chunk-wise, apply local "
                   "predicates (stat-pruned)"],
        )

    def execute(self, ctx) -> RelationValue:
        table = ctx.bound.binding(self.binding).table
        # Projected scan: every column an operator can ask this binding
        # for was resolved by the binder (SELECT * resolves them all),
        # so the rest are never read; a column only the filters read is
        # read for the mask and never gathered.
        read = {column.column for column in ctx.bound.resolution.values()
                if column.binding == self.binding}
        name_of = {name.lower(): name for name in table.column_names
                   if name.lower() in read}
        filters = ctx.bound.filters.get(self.binding, [])
        if not filters:
            return RelationValue(env=self._env_of(table, name_of))
        return RelationValue(env=self._scan_chunked(
            ctx, filters, name_of,
            [key for key in (f"{self.binding}.{lower}" for lower in name_of)
             if key in ctx.bound.read_past_filters]))

    def _env_of(self, source, name_of) -> Environment:
        """Environment over the projected columns of a table or chunk."""
        return Environment(
            {f"{self.binding}.{lower}": source.column(name).data
             for lower, name in name_of.items()},
            source.num_rows,
        )

    def _scan_chunked(self, ctx, filters, name_of, gathered) -> Environment:
        binding = self.binding
        table = ctx.bound.binding(binding).table
        kept, chunked, _ = pruned_scan_chunks(
            ctx.bound, binding, filters, ctx.chunk_rows
        )
        scanned = sum(chunk.num_rows for chunk in kept)
        ctx.charge(self, STAGE_FILL,
                   scanned * ctx.host.scan_elem_s * len(filters))

        def filtered(env):
            rows = np.flatnonzero(conjunction_mask(filters, env, ctx.bound))
            return Environment({key: env.arrays[key].take(rows)
                                for key in gathered}, int(rows.size))

        if len(kept) == chunked.num_chunks:
            return filtered(self._env_of(table, name_of))
        # The zero-length head keeps the column dtype when every chunk
        # was pruned.
        return filtered(Environment(
            {
                f"{binding}.{lower}": np.concatenate(
                    [table.column(name).data[:0]]
                    + [chunk.column(name).data for chunk in kept]
                )
                for lower, name in name_of.items()
            },
            scanned,
        ))



@dataclass
class ChainStart(TensorOp):
    """Seed the join chain with its first (scanned, filtered) binding."""

    input: str
    binding: str

    kind = "chain_start"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        return f"{self.id}: ChainStart({self.binding})"

    def execute(self, ctx) -> ChainValue:
        relation: RelationValue = ctx.value(self.input)
        return ChainValue(
            envs={self.binding: relation.env},
            n_rows=relation.env.n_rows,
        )


@dataclass
class FoldJoin(TensorOp):
    """Fold one non-B dimension into the fact side.

    One step of the paper's multi-way join chain (Section 3.2): a join
    realized as a matrix product followed by a CUDA nonzero()
    matrix->table conversion that rebuilds the intermediate for the next
    step.  We charge that per-qualifying-record conversion cost and
    shrink the fact side progressively, so selective dimensions (e.g.
    SSB Q4.1's region filters) make the remaining chain cheaper — as in
    the paper.

    Unique-key dimensions gather their group/factor/residual columns
    onto fact rows; duplicate-key dimensions that contribute nothing
    multiply the fact weight by their key multiplicity (exact bag
    semantics).  Executes as a one-step :class:`FoldJoinChain` (a
    one-step chain estimate equals ``estimate_fold_step``).
    """

    fact_input: str
    dim_input: str
    dim_binding: str
    fact_column: BoundColumn
    dim_column: BoundColumn
    needed: list[str]

    kind = "fold"

    def input_ids(self) -> list[str]:
        return [self.fact_input, self.dim_input]

    def describe(self) -> str:
        return (f"{self.id}: FoldJoin({self.fact_column.key} = "
                f"{self.dim_column.key}, gather={self.needed or '[]'})")

    def emission(self, ctx) -> OpEmission:
        return OpEmission(
            kind="fold",
            label=f"FoldJoin({self.dim_binding})",
            lines=[
                f"  // chained-join step: fold {self.dim_binding} into the "
                "fact side",
                "  fold_gather_kernel<<<grid, block>>>"
                f"(d_fact_keys, d_{self.dim_binding}_keys, d_gathered);",
            ],
        )

    def execute(self, ctx) -> FactValue:
        return _fold_steps(ctx, self, self.fact_input, [self])


@dataclass(frozen=True)
class FoldStep:
    """One folded dimension of a :class:`FoldJoinChain` (the same
    fields a standalone :class:`FoldJoin` carries)."""

    dim_input: str
    dim_binding: str
    fact_column: BoundColumn
    dim_column: BoundColumn
    needed: list[str]


@dataclass
class FoldJoinChain(TensorOp):
    """Fold a run of consecutive dimensions in one gather pass.

    The fusion pass collapses back-to-back :class:`FoldJoin` steps into
    this op: the run carries the surviving fact row ids, so each step
    probes only the rows the earlier ones kept (per-row, so bit-identical
    to the step-at-a-time refilter, with no intermediate fact copy), and
    each needed dimension column is gathered exactly once — on the rows
    that survive the whole run — instead of being gathered early and
    refiltered by every later step.

    The cost model charges a single fold step for the run: one ledger
    entry whose seconds are exactly the sum of the sequential per-step
    estimates (each over the rows that would have survived into that
    step), so fused programs keep byte-identical simulated time.
    """

    fact_input: str
    steps: list[FoldStep]

    kind = "fold_chain"

    def input_ids(self) -> list[str]:
        return [self.fact_input] + [step.dim_input for step in self.steps]

    def describe(self) -> str:
        folds = ", ".join(
            f"{step.fact_column.key} = {step.dim_column.key}"
            for step in self.steps
        )
        return f"{self.id}: FoldJoinChain({folds})"

    def emission(self, ctx) -> OpEmission:
        bindings = ", ".join(step.dim_binding for step in self.steps)
        return OpEmission(
            kind="fold_chain",
            label=f"FoldJoinChain({bindings})",
            lines=[
                f"  // fused chained-join run: fold {bindings} into the "
                "fact side in one pass",
                *[
                    "  fold_gather_kernel<<<grid, block>>>"
                    f"(d_fact_keys, d_{step.dim_binding}_keys, d_gathered);"
                    for step in self.steps
                ],
            ],
        )

    def execute(self, ctx) -> FactValue:
        return _fold_steps(ctx, self, self.fact_input, self.steps)


def _fold_steps(ctx, op: TensorOp, fact_input: str, steps) -> FactValue:
    """The fold body of :class:`FoldJoin` (one step) and
    :class:`FoldJoinChain` (a fused run); ``steps`` carry the
    :class:`FoldStep` fields."""
    fact = ctx.value(fact_input)
    if isinstance(fact, RelationValue):
        fact = FactValue(env=fact.env, gathered={})
    rows = None  # surviving fact row ids so far; None: all of them
    weights = fact.weights
    # Matching dimension rows per gathering step, narrowed with ``rows``;
    # in step order, the gathered-column layout of a step-at-a-time chain.
    gathers: list[tuple] = []
    step_sizes: list[tuple[int, int]] = []
    for step in steps:
        dim_env = ctx.value(step.dim_input).env
        dim_keys = dim_env.lookup(step.dim_column.key)
        fact_keys = fact.column(step.fact_column.key)
        if rows is not None:
            fact_keys = fact_keys.take(rows)
        # Rows entering the step: what a step-at-a-time estimate charges.
        step_sizes.append((int(fact_keys.size), int(dim_keys.size)))
        keep, dim_rows, multiplicity = probe_dimension(
            ctx.backend, dim_keys, fact_keys, bool(step.needed))
        # An empty dimension matches nothing: the join eliminates every
        # fact row, and later steps run on the empty survivor set.
        if keep.size < fact_keys.size:
            rows = keep if rows is None else rows.take(keep)
            if weights is not None:
                weights = weights.take(keep)
            gathers = [(env, found.take(keep), needed)
                       for env, found, needed in gathers]
        if multiplicity is not None:
            if step.needed:
                raise FallbackRequired(
                    f"dimension {step.dim_binding} has duplicate join keys "
                    "but contributes group/factor columns",
                    kind="pattern",
                )
            weights = (multiplicity if weights is None
                       else weights * multiplicity)
        elif step.needed:
            gathers.append((dim_env, dim_rows, step.needed))
    ctx.charge(op, STAGE_FILL, estimate_fold_chain(
        ctx.host, ctx.device, step_sizes, CHAINED_JOIN_FILL_S))
    kept = fact if rows is None else fact.taken(rows)
    folded = FactValue(env=kept.env, weights=weights,
                       gathered=dict(kept.gathered))
    for dim_env, dim_rows, needed in gathers:
        for key in needed:
            folded.gathered[key] = ctx.backend.gather(dim_env.lookup(key),
                                                      dim_rows)
    return folded


def probe_dimension(backend, dim_keys: np.ndarray, fact_keys: np.ndarray,
                    want_rows: bool):
    """Resolve the fact keys against one (filtered) dimension's join keys.

    Returns the survivors, ``(keep, dim_rows, multiplicity)``: ``keep``
    is the ascending positions of the fact rows whose key occurs in the
    dimension, the other two describe those rows only.  A unique-key
    dimension gives the matching dimension row (``None`` unless
    ``want_rows``) and ``multiplicity`` ``None``; a duplicate-key one
    gives ``dim_rows`` ``None`` and the count of matching dimension rows.

    Integer keys :func:`~repro.tensor.keys.address_range` accepts are the
    matrix index the paper's "Fill Matrices" step makes of them, in two
    levels: every fact row reads a one-byte presence table (positive
    surrogate keys index it directly, see :mod:`repro.tensor.keys`),
    only the survivors read the 8-byte row (or count) table.  Sparse, float or
    over-span keys binary-search the sorted key domain instead.  The
    choice reads only the arrays in hand.
    """
    if dim_keys.size == 0:
        none = np.empty(0, dtype=np.intp)
        return none, none, None
    table = presence_probe(dim_keys, fact_keys)
    if table is None:
        return _probe_sorted(backend, dim_keys, fact_keys)
    present, dim_slots, hits, slots = table
    keep = np.flatnonzero(hits)
    unique = np.count_nonzero(present) == dim_keys.size
    if unique and not want_rows:
        return keep, None, None
    slots = slots.take(keep)
    if not unique:
        counts = backend.bincount(dim_slots, minlength=present.size)
        return keep, None, backend.gather(counts, slots)
    # Only present slots are ever read: no fill pass.
    row_of = np.empty(present.size, dtype=np.intp)
    row_of[dim_slots] = np.arange(dim_keys.size)
    return keep, backend.gather(row_of, slots), None


def _probe_sorted(backend, dim_keys, fact_keys):
    unique_keys, first_row, counts = np.unique(
        dim_keys, return_index=True, return_counts=True)
    positions = np.minimum(np.searchsorted(unique_keys, fact_keys),
                           unique_keys.size - 1)
    keep = np.flatnonzero(unique_keys[positions] == fact_keys)
    positions = positions.take(keep)
    if unique_keys.size < dim_keys.size:
        return keep, None, counts[positions]
    return keep, backend.gather(first_row, positions), None


@dataclass
class IndicatorBuild(TensorOp):
    """Build the operand matrices of one join step (Section 3.1/3.4).

    Consumes the chain state plus the next table's relation, derives the
    union key domain, and produces the prepared indicator (equi) or
    comparison (non-equi) matrices together with the operator geometry
    and the data-range feasibility report the downstream ``Gemm``
    prices.  ``profile`` selects the geometry accounting: ``two_way``
    (the 2-table pattern, non-equi aware) or ``chain_step`` (one link of
    a multi-way chain).
    """

    chain_input: str
    right_input: str
    predicate: JoinPredicate
    right_binding: str
    profile: str = "two_way"

    kind = "indicator_build"

    def input_ids(self) -> list[str]:
        return [self.chain_input, self.right_input]

    def describe(self) -> str:
        return (f"{self.id}: IndicatorBuild({self.predicate.left.key} "
                f"{self.predicate.op} {self.predicate.right.key})")

    def emission(self, ctx) -> OpEmission:
        return OpEmission(
            kind="indicator_build",
            label=f"IndicatorBuild({self.predicate.op})",
            consumer_id=getattr(self, "consumer_id", None),
            transform=True,
        )

    def execute(self, ctx) -> JoinOperandsValue:
        chain: ChainValue = ctx.value(self.chain_input)
        right: RelationValue = ctx.value(self.right_input)
        predicate = self.predicate
        inner, outer = ((predicate.left, predicate.right)
                        if predicate.right.binding == self.right_binding
                        else (predicate.right, predicate.left))
        weights = None
        left_keys = chain.envs[inner.binding].lookup(inner.key)
        if chain.materialized:
            left_keys, = chain.expand(inner.binding, [left_keys])
        else:
            # ANALYTIC chains past the first unmaterialized step: the
            # chain threads exact per-row multiplicities, so this step
            # prices from the exact intermediate cardinality instead of
            # the unfiltered key counts.
            weights = chain.multiplicity.get(inner.binding)
        right_keys = right.env.lookup(outer.key)
        domain = union_key_domain(left_keys, right_keys)
        n, m, k = left_keys.size, right_keys.size, domain.k
        prepared = PreparedJoin(
            op=predicate.op if self.profile == "two_way" else "=",
            left_keys_mapped=domain.left,
            right_keys_mapped=domain.right,
            domain_values=domain.values,
            k=k,
        )
        if self.profile == "two_way":
            nnz_left = _comparison_nnz(domain, predicate.op, n)
            pairs = ctx.driver._join_count(prepared)
            raw_bytes = 8.0 * (
                n * ctx.referenced_columns(inner.binding)
                + m * ctx.referenced_columns(outer.binding)
            )
        elif weights is not None:
            # Exact cardinality of the unmaterialized intermediate and of
            # this step's output (weighted histogram dot product).
            n = max(int(chain.n_rows), 0)
            nnz_left = n
            per_key = np.bincount(domain.left, weights=weights,
                                  minlength=max(domain.k, 1))
            pairs = int(round(float(per_key[domain.right].sum())))
            raw_bytes = 8.0 * (n + m)
        else:
            nnz_left = n
            pairs = ctx.driver._join_count(prepared)
            raw_bytes = 8.0 * (n + m)
        geometry = OperatorGeometry(
            g1=n, g2=m, k=k, nnz_left=nnz_left, nnz_right=m,
            n_tuples=n + m, raw_bytes=raw_bytes, result_rows=pairs,
            n_matmuls=1, needs_nonzero=True,
        )
        feasibility = run_feasibility_test(
            INDICATOR_RANGE, INDICATOR_RANGE, k,
            require_exact=(ctx.options.require_exact
                           if self.profile == "two_way" else False),
        )
        return JoinOperandsValue(
            prepared=prepared, geometry=geometry, feasibility=feasibility,
            pairs=pairs, chain=chain, right_env=right.env,
            right_binding=self.right_binding, inner_binding=inner.binding,
            left_weights=weights,
        )


def _charge_epilogue(ctx, op: TensorOp, rows: int) -> None:
    """An operator's epilogue predicates ride its own traversal."""
    ctx.charge(op, "tcu_mask_apply", estimate_mask_apply(ctx.device, rows))


@dataclass
class ValueFill(TensorOp):
    """Build value-filled grouped operand matrices for one aggregate
    product.

    Two modes:

    * ``star`` — the pattern lowering: the folded fact side joins the B
      dimension; values are the per-side products of the decomposed
      aggregate factors (Section 3.1's grouped/adjacency construction).
    * ``reduce`` — hybrid lowering (Lemma 3.1): a fully materialized
      relation reduces against a ones-vector; aggregate arguments are
      arbitrary scalar expressions evaluated per row, the inner
      dimension is the row index.
    """

    left_input: str
    right_input: str | None
    mode: str  # "star" | "reduce"
    specs: list[AggregateSpec]
    group_by: list[BoundColumn]
    # star mode only:
    pattern: TCUPattern | None = None
    b_side: str | None = None
    fact_column: BoundColumn | None = None
    b_column: BoundColumn | None = None
    # reduce mode only: one argument expression (or None for COUNT) per spec
    arguments: list[Expr | None] = field(default_factory=list)
    # Set by the fusion pass when a BatchedGemm consumes this fill: the
    # listing and the emitted section name the shared indicator
    # structure (built, and charged, once either way).
    shared: bool = False
    # star mode only: residual conjuncts evaluated inside the operand
    # fill — masked fact tuples are never placed.
    epilogue_predicates: list[Predicate] = field(default_factory=list)

    kind = "value_fill"

    def input_ids(self) -> list[str]:
        ids = [self.left_input]
        if self.right_input is not None:
            ids.append(self.right_input)
        return ids

    def describe(self) -> str:
        funcs = ",".join(s.func for s in self.specs) or "-"
        keys = ",".join(c.key for c in self.group_by) or "<global>"
        suffix = " [coo-shared]" if self.shared else ""
        if self.epilogue_predicates:
            conds = " AND ".join(str(p) for p in self.epilogue_predicates)
            suffix += f" epilogue({conds})"
        return (f"{self.id}: ValueFill[{self.mode}](aggs={funcs}, "
                f"group_by={keys}){suffix}")

    def emission(self, ctx) -> OpEmission:
        label = f"ValueFill[{self.mode}]"
        if self.shared:
            label += " (shared indicator structure)"
        if self.epilogue_predicates:
            label += " +MaskedFill"
        return OpEmission(
            kind="value_fill",
            label=label,
            consumer_id=getattr(self, "consumer_id", None),
            transform=True,
        )

    def execute(self, ctx) -> AggOperandsValue:
        if self.mode == "reduce":
            return self._execute_reduce(ctx)
        return self._execute_star(ctx)

    # -- star (pattern) mode ------------------------------------------- #

    def _execute_star(self, ctx) -> AggOperandsValue:
        fact = ctx.value(self.left_input)
        if isinstance(fact, RelationValue):
            fact = FactValue(env=fact.env, gathered={})
        if self.epilogue_predicates:
            # Masked operand fill: residual-fact conjuncts ride the fill
            # pass — masked tuples are never placed into the operands.
            _charge_epilogue(ctx, self, fact.n_rows)
            mask = conjunction_mask(self.epilogue_predicates,
                                    fact.eval_environment(), ctx.bound)
            fact = fact.filtered(mask)
        b_env = ctx.value(self.right_input).env
        grouped = bool(self.pattern.group_by)
        if fact.env.n_rows == 0 or b_env.n_rows == 0:
            return AggOperandsValue(
                left=None, right=None, k=0, geometry=None, feasibility=None,
                pairs=0, specs=self.specs, grouped=grouped, empty=True,
            )
        fact_keys = fact.column(self.fact_column.key)
        b_keys = b_env.lookup(self.b_column.key)
        domain = union_key_domain(fact_keys, b_keys)
        bound = ctx.bound
        fact_binding = self.pattern.fact
        dims = {t.binding for t in bound.tables} - {fact_binding, self.b_side}
        # One side at a time: the left operand is placed and summed, and
        # its per-tuple slots and fill values are gone, before the right
        # one is built.
        fill_dtype = ctx.backend.fill_dtype
        left = _summed_operand(*_build_agg_side(
            self.specs, self.group_by, fact.column, domain.left,
            side_bindings={fact_binding} | dims, weights=fact.weights,
            b_side=False,
        ), domain.k, fill_dtype)
        right = _summed_operand(*_build_agg_side(
            self.specs, self.group_by, b_env.lookup, domain.right,
            side_bindings={self.b_side}, weights=None, b_side=True,
        ), domain.k, fill_dtype)
        # The equi-join pair count: tuples per key, read off each operand.
        pairs = int(np.dot(left.structure.column_counts(),
                           right.structure.column_counts()))
        geometry = _agg_geometry(
            ctx, self.specs, left.side, right.side, domain.k, pairs,
            fact_binding, self.b_side, left.structure.nnz,
            right.structure.nnz,
        )
        return self._operands(ctx, left, right, domain.k, geometry, pairs,
                              grouped)

    def _operands(self, ctx, left: _SummedOperand, right: _SummedOperand,
                  k, geometry, pairs, grouped):
        """The product's inputs from both summed sides: the data-range
        test over their cell ranges, and the fill slots the product
        multiplies (``driver.product_slots``), decided here once —
        a unit COUNT slot is counted only if it runs."""
        feasibility = _agg_feasibility(
            left.ranges, right.ranges, k,
            require_exact=ctx.options.require_exact,
        )
        left_sums, right_sums = product_slots(
            left.structure, right.structure, left.sums, right.sums,
            self.specs)
        return AggOperandsValue(
            left=left.side, right=right.side, k=k, geometry=geometry,
            feasibility=feasibility, pairs=pairs, specs=self.specs,
            grouped=grouped,
            left_structure=left.structure, right_structure=right.structure,
            left_sums=left_sums, right_sums=right_sums,
        )

    # -- reduce (hybrid) mode ------------------------------------------ #

    def _execute_reduce(self, ctx) -> AggOperandsValue:
        relation: RelationValue = ctx.value(self.left_input)
        env = relation.env
        n = env.n_rows
        grouped = bool(self.group_by)
        if n == 0:
            return AggOperandsValue(
                left=None, right=None, k=0, geometry=None, feasibility=None,
                pairs=0, specs=self.specs, grouped=grouped, empty=True,
            )
        group = None
        group_order = [c.key for c in self.group_by]
        if self.group_by:
            group = CompositeKey.build(
                [np.asarray(env.lookup(c.key)) for c in self.group_by]
            )
        # COUNT reads the count grid (slot 0, unit weights).
        left_fills: list[np.ndarray | None] = [None] + [
            np.asarray(evaluate_expr(argument, env, ctx.bound),
                       dtype=np.float64)
            for spec, argument in zip(self.specs, self.arguments)
            if spec.func != "count"
        ]
        left_side = PreparedAggSide(
            keys_mapped=np.arange(n, dtype=np.int64),
            group=group,
            group_order=group_order,
        )
        # The reduce-mode B side is an all-ones vector for every grid.
        right_side = PreparedAggSide(
            keys_mapped=np.arange(n, dtype=np.int64), group=None)
        value_specs = len(left_fills) - 1
        g1 = left_side.g
        geometry = OperatorGeometry(
            g1=g1, g2=1, k=n,
            nnz_left=n, nnz_right=n,
            n_tuples=n,
            raw_bytes=8.0 * n * max(len(self.group_by) + len(self.specs), 1),
            result_rows=min(g1, n),
            n_matmuls=value_specs + 1,
            needs_nonzero=True,
            fill_scale=4.0 if value_specs else 1.0,
        )
        return self._operands(
            ctx, _summed_operand(left_side, left_fills, n,
                                 ctx.backend.fill_dtype),
            _summed_operand(right_side, [None] * len(left_fills), n),
            n, geometry, n, grouped,
        )


@dataclass
class Gemm(TensorOp):
    """Price (Figure 6) and execute one matrix product.

    Runs the per-operator optimizer workflow over the operand geometry
    and feasibility report, charges the chosen plan's transform/compute/
    result costs, and performs the product — bit-accurate TCU emulation
    when the matrices are small enough to materialize, the semantically
    equivalent exact-key path beyond that.  The plan's strategy (DENSE,
    BLOCKED or SPARSE) is a price: it sets the simulated seconds and the
    emitted kernel, and the host runs the same backend product for each.
    """

    input: str
    label: str = "TCU GEMM"

    kind = "gemm"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        return f"{self.id}: Gemm({self.label})"

    def emission(self, ctx) -> OpEmission:
        decision = ctx.decisions.get(self.id)
        operands = ctx.values.get(self.input)
        dims = (0, 0, 0)
        n_matmuls = 1
        if isinstance(operands, JoinOperandsValue):
            dims = (operands.geometry.g1, operands.geometry.g2,
                    operands.geometry.k)
        elif isinstance(operands, AggOperandsValue) and operands.geometry:
            dims = (operands.geometry.g1, operands.geometry.g2,
                    operands.geometry.k)
            n_matmuls = operands.geometry.n_matmuls
        return OpEmission(
            kind="gemm", label=self.label,
            plan=decision.plan if decision else None,
            dims=dims, n_matmuls=n_matmuls,
        )

    def execute(self, ctx) -> ProductValue:
        operands = ctx.value(self.input)
        if isinstance(operands, AggOperandsValue) and operands.empty:
            return ProductValue(operands=operands, empty=True)
        grouped = (operands.grouped
                   if isinstance(operands, AggOperandsValue) else False)
        decision = ctx.optimizer.decide(
            operands.geometry, operands.feasibility, operands.pairs,
            grouped=grouped, op_label=f"{self.id} ({self.label})",
        )
        ctx.record_decision(self, decision)
        if not decision.use_tcu and not ctx.options.force_strategy:
            kind = ("feasibility"
                    if decision.feasibility is not None
                    and not decision.feasibility.feasible else "cost")
            raise FallbackRequired(decision.reason, kind=kind)
        plan = decision.plan
        if isinstance(operands, JoinOperandsValue):
            ctx.charge_plan(self, plan, "tcu_join")
            return self._execute_join(ctx, operands, plan)
        stage = ("tcu_join_groupby_aggregation" if grouped
                 else "tcu_join_aggregation")
        ctx.charge_plan(self, plan, stage)
        return self._execute_agg(ctx, operands, plan)

    def _execute_join(self, ctx, operands: JoinOperandsValue,
                      plan) -> ProductValue:
        prepared = operands.prepared
        if not ctx.driver.use_numeric_join(prepared, ctx.mode):
            return ProductValue(operands=operands, semantic=True)
        # The driver chunks the probe rows when the full dense product
        # would blow the cell budget, extracting nonzeros per product
        # chunk and accumulating the pair lists grid-wise.
        rows, cols = ctx.driver._join_pairs_by_matmul(prepared, plan)
        return ProductValue(operands=operands, pair_indices=(rows, cols))

    def _execute_agg(self, ctx, operands: AggOperandsValue,
                     plan) -> ProductValue:
        # The product keeps what GridAggregate reads; the structures and
        # slot sums die with the operands value, after this operator.
        harvested = replace(operands, left_structure=None,
                            right_structure=None, left_sums=None,
                            right_sums=None)
        if ctx.mode != ExecutionMode.REAL:
            return ProductValue(operands=harvested, semantic=True)
        # Either way the grids come from what ValueFill prepared.
        prepared = (operands.left_structure, operands.right_structure,
                    operands.left_sums, operands.right_sums, operands.specs)
        if ctx.driver.use_numeric_grid(operands.left.g, operands.right.g,
                                       operands.k):
            grids, count_grid, present = ctx.driver._grids_numeric(
                *prepared, plan, operands.feasibility.integral_magnitudes)
        else:
            grids, count_grid, present = ctx.driver._grids_semantic(
                *prepared)
        return ProductValue(operands=harvested, grids=grids,
                            count_grid=count_grid, present=present)


@dataclass
class BatchedGemm(Gemm):
    """Fused multi-aggregate GEMM (fusion rewrite of a JOIN_AGG fan-out).

    Each side's indicator structure is built once — rows and group codes
    shared across every aggregate — the per-aggregate fill values stack
    into an (n_agg, g, k) operand and a single stacked matmul is issued.
    It executes and is priced as ``Gemm`` is: one shared operand fill
    plus ``n_agg`` MMA passes.  What the rewrite changes is the emitted
    kernel sequence.
    """

    n_grids: int = 1
    fused_from: list[str] = field(default_factory=list)

    kind = "batched_gemm"

    def describe(self) -> str:
        base = (f"{self.id}: BatchedGemm({self.label}, "
                f"grids={self.n_grids})")
        if self.fused_from:
            base += f" fused_from={self.fused_from}"
        return base

    def emission(self, ctx) -> OpEmission:
        emission = super().emission(ctx)
        return replace(emission, kind="batched_gemm",
                       label=f"{self.label} (batched x{self.n_grids})")


@dataclass
class NonzeroExtract(TensorOp):
    """nonzero() extraction of matching pairs; extends the join chain.

    Residual predicates (``epilogue_predicates``, set by the lowering on
    the chain's last extraction) are evaluated inside this result hook —
    the extracted pairs are masked in the same pass instead of a separate
    grid traversal.
    """

    input: str
    epilogue_predicates: list[Predicate] = field(default_factory=list)

    kind = "nonzero"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        base = f"{self.id}: NonzeroExtract()"
        if self.epilogue_predicates:
            conds = " AND ".join(str(p) for p in self.epilogue_predicates)
            base += f" epilogue({conds})"
        return base

    def emission(self, ctx) -> OpEmission:
        lines = ["  nonzero_kernel<<<grid, block>>>"
                 "(d_Ct, d_pairs, &n_pairs);"]
        label = "NonzeroExtract"
        if self.epilogue_predicates:
            label = "NonzeroExtract+MaskEpilogue"
            lines = [
                "  // fused epilogue: residual predicate evaluated inside "
                "the extraction kernel",
                "  nonzero_masked_kernel<<<grid, block>>>"
                f"(d_Ct, d_pairs, &n_pairs, epilogue_pred/*"
                f"{len(self.epilogue_predicates)} conjunct(s)*/);",
            ]
        return OpEmission(kind="nonzero", label=label, lines=lines)

    def execute(self, ctx) -> ChainValue:
        product: ProductValue = ctx.value(self.input)
        operands = product.operands
        chain = operands.chain
        if product.pair_indices is not None:
            pairs = PairIndex(*product.pair_indices)
        elif ctx.mode == ExecutionMode.REAL:
            pairs = ctx.driver._join_pairs_semantic(operands.prepared)
        else:
            # ANALYTIC: exact count, no materialization.  Equi steps also
            # compute the per-right-row multiplicity of the new
            # intermediate (a weighted histogram), so the next chain step
            # prices from exact cardinalities; the epilogue contributes
            # its estimated selectivity.
            prepared = operands.prepared
            right_mult = None
            if prepared.op == "=":
                weights = operands.left_weights
                if weights is None:
                    weights = np.ones(prepared.left_keys_mapped.size)
                per_key = np.bincount(
                    prepared.left_keys_mapped, weights=weights,
                    minlength=max(prepared.k, 1),
                )
                right_mult = per_key[prepared.right_keys_mapped]
                count = int(round(float(right_mult.sum())))
            else:
                count = ctx.driver._join_count(prepared)
            if self.epilogue_predicates:
                _charge_epilogue(ctx, self, count)
                selectivity = conjunction_selectivity(
                    self.epilogue_predicates, bound_stats_lookup(ctx.bound)
                )
                count = int(count * selectivity)
                if right_mult is not None:
                    right_mult = right_mult * selectivity
            multiplicity = (
                {operands.right_binding: right_mult}
                if right_mult is not None else {}
            )
            return ChainValue(
                envs={**chain.envs, operands.right_binding: operands.right_env},
                n_rows=count,
                multiplicity=multiplicity,
                materialized=False,
            )
        extracted = ChainValue(
            envs={**chain.envs, operands.right_binding: operands.right_env},
            n_rows=pairs.n_pairs,
            parent=chain, step=pairs, right_binding=operands.right_binding,
        )
        if not self.epilogue_predicates:
            return extracted
        _charge_epilogue(ctx, self, extracted.n_rows)
        return extracted.filtered(self.epilogue_predicates, ctx.bound)


@dataclass
class GridAggregate(TensorOp):
    """Harvest the non-empty cells of the aggregate grids.

    Extracts present (group-left, group-right) cells via the COUNT grid,
    applies AVG division, and decodes the composite group codes back
    into physical group-column values.  The per-spec values become one
    float64 final per aggregate call in ``calls``; under ``split_sums``
    (the star lowering) a ``SUM(x ± y)`` call owns the specs of its
    linear parts and adds or subtracts them.  HAVING
    (``epilogue_predicates``) is evaluated inside this result hook —
    masked groups never leave the extraction pass.
    """

    input: str
    calls: list[AggregateCall] = field(default_factory=list)
    split_sums: bool = False
    epilogue_predicates: list[Predicate] = field(default_factory=list)

    kind = "grid_aggregate"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        base = f"{self.id}: GridAggregate()"
        if self.epilogue_predicates:
            conds = " AND ".join(str(p) for p in self.epilogue_predicates)
            base += f" epilogue({conds})"
        return base

    def emission(self, ctx) -> OpEmission:
        label = "GridAggregate"
        extract = ("  nonzero_kernel<<<grid, block>>>"
                   "(d_count_grid, d_groups, &n_groups);")
        if self.epilogue_predicates:
            label = "GridAggregate+HavingEpilogue"
            extract = (
                "  nonzero_masked_kernel<<<grid, block>>>"
                "(d_count_grid, d_groups, &n_groups, having_pred/*"
                f"{len(self.epilogue_predicates)} conjunct(s)*/);"
            )
        lines = [extract]
        if self.epilogue_predicates:
            lines.insert(0, "  // fused epilogue: HAVING predicate "
                            "evaluated inside the result hook")
        lines.extend([
            "  avg_divide_kernel<<<grid, block>>>"
            "(d_grids, d_count_grid, n_groups);",
            "  decode_groups_kernel<<<grid, block>>>"
            "(d_groups, d_group_labels);",
        ])
        return OpEmission(kind="grid_aggregate", label=label, lines=lines)

    def execute(self, ctx) -> GroupsValue:
        product: ProductValue = ctx.value(self.input)
        operands: AggOperandsValue = product.operands
        if product.empty:
            if operands.grouped:
                return GroupsValue(finals={}, group_columns={}, n_rows=0,
                                   empty=True)
            # Ungrouped aggregates over zero qualifying rows still return
            # one row: COUNT = 0 and (NULL-free model) SUM/AVG/MIN/MAX =
            # 0.0 — synthesize it rather than dropping the result row,
            # matching the conventional executors.
            return self._apply_epilogue(ctx, self._empty_row())
        left, right = operands.left, operands.right
        if product.semantic and ctx.mode != ExecutionMode.REAL:
            estimate = min(
                left.g * right.g,
                max(int(left.keys_mapped.size),
                    int(right.keys_mapped.size), 1),
            )
            if self.epilogue_predicates:
                _charge_epilogue(ctx, self, estimate)
                estimate = int(estimate * conjunction_selectivity(
                    self.epilogue_predicates, bound_stats_lookup(ctx.bound)
                ))
            return GroupsValue(finals=None, group_columns=None,
                               n_rows=estimate)
        if product.present is None:
            # Every cell holds a tuple, so the row-major order nonzero
            # would give is the flat order: no mask pass and no gather,
            # and a group column is its ``g`` labels repeated (rows) or
            # tiled (columns) rather than decoded per cell.
            n_rows = left.g * right.g

            def harvest(grid):
                return grid.reshape(-1)

            sides = ((left, np.arange(left.g),
                      lambda labels: np.repeat(labels, right.g)),
                     (right, np.arange(right.g),
                      lambda labels: _tiled(labels, left.g)))
        else:
            rows, cols = ctx.backend.nonzero(product.present)
            n_rows = int(rows.size)

            def harvest(grid):
                return grid[rows, cols]

            sides = ((left, rows, None), (right, cols, None))
        if n_rows == 0 and not operands.grouped:
            # Non-empty operands but zero matching pairs: the ungrouped
            # result row still exists (COUNT = 0, sums 0.0).
            return self._apply_epilogue(ctx, self._empty_row())
        agg_values: list[np.ndarray] = []
        for spec, grid in zip(operands.specs, product.grids):
            values = harvest(grid)
            if spec.func == "avg":
                values = values / np.maximum(harvest(product.count_grid), 1)
            agg_values.append(values)
        group_columns: dict[str, np.ndarray] = {}
        for side, codes, spread in sides:
            if side.group is None:
                continue
            decoded = side.group.decode(codes)
            for column, values in zip(side.group_order, decoded):
                group_columns[column] = (values if spread is None
                                         else spread(values))
        groups = GroupsValue(finals=self._finals(agg_values),
                             group_columns=group_columns, n_rows=n_rows)
        return self._apply_epilogue(ctx, groups)

    def _finals(self, values: list[np.ndarray]
                ) -> dict[AggregateCall, np.ndarray]:
        """One float64 final per call from the per-spec values, in spec
        order; a float64 value is the final itself, not a copy, and an
        integer one (an integer-precision product) converts once, into
        an array the result adopts."""
        parts = iter(values)
        return {call: self._final(call, parts) for call in self.calls}

    def _final(self, call: AggregateCall, parts) -> np.ndarray:
        # A method, not a closure: a recursive closure is a reference
        # cycle, and it would hold the grids until the cyclic collector
        # runs.
        halves = sum_parts(call) if self.split_sums else None
        if halves is None:
            return np.asarray(next(parts), dtype=np.float64)
        left = self._final(halves[0], parts)
        right = self._final(halves[1], parts)
        return (np.add if call.argument.op == "+" else np.subtract)(
            left, right)

    def _empty_row(self) -> GroupsValue:
        return GroupsValue(
            finals={call: np.zeros(1) for call in self.calls},
            group_columns={}, n_rows=1,
        )

    def _apply_epilogue(self, ctx, groups: GroupsValue) -> GroupsValue:
        if not self.epilogue_predicates:
            return groups
        _charge_epilogue(ctx, self, groups.n_rows)
        return groups.having(ctx, self.epilogue_predicates)


@dataclass
class PhysicalStage(TensorOp):
    """Conventional pre-stage of a hybrid program.

    Executes the non-TCU-expressible relational prefix (joins, filters,
    residual predicates) with the exact NumPy kernels of
    :class:`~repro.engine.physical.PhysicalExecutor`, charging
    host-executor time, and hands the materialized relation to the TCU
    core (grouped-reduce ValueFill/Gemm).

    The prefix executes morsel-driven — chunk batches pulled through
    Scan/Filter/Join — which bounds peak intermediates to the chunk size
    times the join fan-out and lets the stage run in every execution
    mode: ANALYTIC streams up to ``budget_rows`` output rows.
    """

    tree: LogicalNode
    budget_rows: int = 4_000_000

    kind = "physical_stage"

    def describe(self) -> str:
        return (f"{self.id}: PhysicalStage({self.tree.describe()}...) "
                "[streaming]")

    def emission(self, ctx) -> OpEmission:
        return OpEmission(
            kind="physical_stage",
            label="PhysicalStage (host pre-join, streamed)",
            lines=["  // host executor: joins/filters beyond matmul "
                   "expressiveness; streams the joined relation to the TCU "
                   "chunk by chunk"],
        )

    def execute(self, ctx) -> RelationValue:
        executor = PhysicalExecutor(ctx.bound, chunk_rows=ctx.chunk_rows,
                                    cancel_token=ctx.cancel_token)
        # ANALYTIC streams up to the row budget; REAL keeps the pair-limit
        # bound alone.
        budget = (self.budget_rows
                  if ctx.mode != ExecutionMode.REAL else None)
        try:
            env = executor.materialize(self.tree, budget)
        except ExecutionError as error:
            raise FallbackRequired(
                f"hybrid pre-stage exceeded materialization budget: {error}",
                kind="cost",
            ) from error
        n_input = 0
        n_joins = 0
        for node in self.tree.walk():
            if isinstance(node, Scan):
                n_input += ctx.bound.binding(node.binding).table.num_rows
            if isinstance(node, JoinNode):
                n_joins += 1
        ctx.charge(
            self, "hybrid_prestage",
            estimate_physical_stage(ctx.host, n_input, env.n_rows, n_joins),
        )
        return RelationValue(env=env)


@dataclass
class Decode(TensorOp):
    """Materialize output arrays from the final pairs/groups payload."""

    input: str
    role: str  # "project" | "aggregate"
    items: list = field(default_factory=list)  # SelectItems
    projected: list = field(default_factory=list)  # BoundColumn | float

    kind = "decode"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        if self.role == "project":
            cols = ", ".join(
                c.key if isinstance(c, BoundColumn) else repr(c)
                for c in self.projected
            )
        else:
            cols = ", ".join(item.output_name for item in self.items)
        return f"{self.id}: Decode[{self.role}]({cols})"

    def emission(self, ctx) -> OpEmission:
        return OpEmission(
            kind="decode", label=f"Decode[{self.role}]",
            lines=[
                "  cudaMemcpyAsync(h_result, d_result, n_rows * row_bytes, "
                "cudaMemcpyDeviceToHost, result_stream);",
            ],
        )

    def execute(self, ctx) -> OutputValue:
        value = ctx.value(self.input)
        if self.role == "project":
            return self._decode_chain(ctx, value)
        return self._decode_groups(ctx, value)

    def _decode_chain(self, ctx, chain: ChainValue) -> OutputValue:
        names = [item.output_name for item in self.items]
        if not chain.materialized:
            return OutputValue(arrays=None, names=names,
                               by_columns=list(self.projected),
                               n_rows=chain.n_rows)
        limit = ctx.bound.limit
        if limit is not None and not ctx.bound.order_by:
            # Without ORDER BY the result is the first ``limit`` rows:
            # truncate the pair list instead of the expanded columns.
            chain = chain.head(limit)
        # One expansion per output column; a binding's columns expand
        # together so they share its row positions.
        arrays: list = [None] * len(self.projected)
        positions: dict[str, list[int]] = {}
        for position, column in enumerate(self.projected):
            if isinstance(column, float):
                arrays[position] = np.full(chain.n_rows, column)
            else:
                positions.setdefault(column.binding, []).append(position)
        for binding, at in positions.items():
            env = chain.envs[binding]
            expanded = chain.expand(
                binding, [env.lookup(self.projected[p].key) for p in at])
            for position, array in zip(at, expanded):
                arrays[position] = array
        return OutputValue(arrays=arrays, names=names,
                           by_columns=list(self.projected),
                           n_rows=chain.n_rows)

    def _decode_groups(self, ctx, groups: GroupsValue) -> OutputValue:
        bound = ctx.bound
        names = [item.output_name for item in self.items]
        by_columns = [_key_column(bound, item.expr) for item in self.items]
        if groups.empty:
            return OutputValue(
                arrays=[np.array([]) for _ in self.items],
                names=names, by_columns=by_columns, n_rows=0,
            )
        if groups.finals is None:
            return OutputValue(arrays=None, names=names,
                               by_columns=by_columns, n_rows=groups.n_rows)
        evaluator = groups.evaluator(bound)
        arrays = [evaluator.eval_expr(item.expr) for item in self.items]
        return OutputValue(arrays=arrays, names=names, by_columns=by_columns,
                           n_rows=groups.n_rows)


def _tiled(labels: np.ndarray, reps: int) -> np.ndarray:
    """``np.tile(labels, reps)`` as an array that owns its data (tile
    returns a view of its repeat), so the result adopts it uncopied."""
    out = np.empty(labels.size * reps, dtype=labels.dtype)
    out.reshape(reps, labels.size)[:] = labels
    return out


def _key_column(bound: BoundQuery, expr: Expr) -> BoundColumn | None:
    """The GROUP BY key an aggregate output reads whole, which types the
    output: a key column, or the computed key the expression equals."""
    for key, group_expr in bound.group_exprs.items():
        if group_expr == expr:
            return next(c for c in bound.group_by if c.key == key)
    return bound.resolve(expr) if isinstance(expr, ColumnRef) else None


# --------------------------------------------------------------------------- #
# Shared helpers (ported from the former engine monoliths)
# --------------------------------------------------------------------------- #


def _comparison_nnz(domain, op: str, n: int) -> int:
    if op == "=":
        return n
    left_values = domain.values[domain.left]
    sorted_domain = domain.values
    if op == "<":
        counts = domain.k - np.searchsorted(sorted_domain, left_values,
                                            side="right")
    elif op == "<=":
        counts = domain.k - np.searchsorted(sorted_domain, left_values,
                                            side="left")
    elif op == ">":
        counts = np.searchsorted(sorted_domain, left_values, side="left")
    elif op == ">=":
        counts = np.searchsorted(sorted_domain, left_values, side="right")
    else:  # <>, !=
        counts = np.full(n, domain.k - 1)
    return int(counts.sum())


def _build_agg_side(specs, group_by, column_of, mapped_keys, side_bindings,
                    weights, b_side):
    """One side's placement (:class:`PreparedAggSide`) and its per-tuple
    fill values, one entry per grid: the COUNT grid's weights (None:
    every tuple counts once), then the factor product of each non-COUNT
    aggregate."""
    group_cols = [c for c in group_by if c.binding in side_bindings]
    group = None
    if group_cols:
        group = CompositeKey.build(
            [np.asarray(column_of(c.key)) for c in group_cols]
        )
    n = mapped_keys.size
    fills: list[np.ndarray | None] = [
        None if weights is None else np.asarray(weights, dtype=np.float64)]
    for spec in specs:
        if spec.func == "count":
            continue  # reads the count grid
        # The terms of the per-tuple product, in multiplication order.
        terms = []
        if not b_side and spec.constant != 1.0:
            terms.append(spec.constant)  # multiplies in once, on the A side
        if weights is not None:
            terms.append(fills[0])
        for factor in spec.factors:
            if factor.column.binding not in side_bindings:
                continue
            array = np.asarray(column_of(factor.column.key), dtype=np.float64)
            terms.append(array if factor.power == 1 else 1.0 / array)
        fills.append(_term_product(terms, n))
    side = PreparedAggSide(
        keys_mapped=np.asarray(mapped_keys), group=group,
        group_order=[c.key for c in group_cols],
    )
    return side, fills


def _term_product(terms, n: int) -> np.ndarray:
    """``1.0 * t0 * t1 * ...`` over per-tuple terms (float64 arrays, or
    a leading scalar), as ``n`` float64 values: multiplied left to right
    from the first term, into the first product's array.  ``x * 1.0 ==
    x`` exactly, so no bit differs from starting at a ones-array.  A lone
    array term is returned as is."""
    if not terms:
        return np.ones(n)
    if len(terms) == 1:
        (term,) = terms
        return (term if isinstance(term, np.ndarray)
                else np.full(n, term, dtype=np.float64))
    values = terms[0] * terms[1]
    for term in terms[2:]:
        values *= term
    return values


def _agg_geometry(ctx, specs, left_side, right_side, k, pairs, fact,
                  b_side, nnz_left, nnz_right) -> OperatorGeometry:
    n = left_side.keys_mapped.size
    m = right_side.keys_mapped.size
    raw_bytes = 8.0 * (
        n * ctx.referenced_columns(fact)
        + m * ctx.referenced_columns(b_side)
    )
    value_specs = sum(1 for spec in specs if spec.func != "count")
    has_value_fill = any(spec.factors for spec in specs)
    return OperatorGeometry(
        g1=left_side.g, g2=right_side.g, k=k,
        nnz_left=nnz_left, nnz_right=nnz_right,
        n_tuples=n + m, raw_bytes=raw_bytes,
        result_rows=min(left_side.g * right_side.g, max(pairs, 1)),
        n_matmuls=value_specs + 1,  # +1 for the COUNT/indicator grid
        needs_nonzero=True,
        fill_scale=4.0 if has_value_fill else 1.0,
    )


@dataclass
class _SummedOperand:
    """One side of an aggregate product once ``ValueFill`` has placed
    and summed it: the side, its structure (slots released), one array
    of per-slot sums per fill slot (a unit COUNT slot None: uncounted),
    and each slot's exact cell range (None: a value is non-finite)."""

    side: PreparedAggSide
    structure: OperandStructure
    sums: list[np.ndarray | None]
    ranges: list


def _summed_operand(side: PreparedAggSide, fills, k: int,
                    fill_dtype=np.float64) -> _SummedOperand:
    """Check each fill slot's per-tuple values, place the side's tuples
    (:func:`build_coo_operands`), sum every slot per operand slot once
    and read its range, then release the per-tuple slots.  ``fills``
    holds the per-tuple values, one entry per grid: the COUNT grid's
    weights, then one array per non-COUNT aggregate; None fills every
    tuple with one.  Finiteness, integrality and the tuples' extremes
    are read first, before the slots or any ``g * k`` array exist; a
    unit slot's range is the structure's multiplicity bound, and a unit
    slot 0 is left None for ``driver.product_slots``.

    Where no two tuples share an addressed cell (``structure.placed``)
    each cell holds its one tuple's value, so a slot's cell range is the
    tuples' own range widened to zero, and the slot is placed in the
    backend's ``fill_dtype`` when every value is an integer it holds
    exactly (within 2**24, FP32's window), in float64 otherwise: a
    forced integer precision quantizes a single-slot operand from its
    float64 sums, so a fractional value or one past 2**24 must reach it
    unrounded."""
    from repro.tensor.precision import FP32_EXACT_INT, ValueRange

    tuple_ranges = [None if values is None else _tuple_range(values)
                    for values in fills]
    structure = build_coo_operands(side, k)
    sums, ranges = [], []
    for slot, (values, tuples) in enumerate(zip(fills, tuple_ranges)):
        if values is None:
            sums.append(None if slot == 0 else structure.cell_sums(None))
            ranges.append(ValueRange(
                0.0, float(structure.max_multiplicity), integral=True))
            continue
        if tuples is None:
            sums.append(structure.cell_sums(values))
            ranges.append(None)
            continue
        lo, hi, integral = tuples
        exact = integral and max(-lo, hi) <= FP32_EXACT_INT
        slot_sums = structure.cell_sums(
            values, fill_dtype if exact else np.float64)
        sums.append(slot_sums)
        if not structure.placed:
            lo, hi = slot_sums.min(), slot_sums.max()
        # + 0.0: a -0.0 extreme reads as the +0.0 its placed cell holds.
        ranges.append(ValueRange(float(min(lo, 0.0)) + 0.0,
                                 float(max(hi, 0.0)) + 0.0,
                                 integral=integral))
    structure.release_slots()
    return _SummedOperand(side=side, structure=structure, sums=sums,
                          ranges=ranges)


def _tuple_range(values) -> tuple[float, float, bool] | None:
    """``(lo, hi, integral)`` of one slot's per-tuple fill values, or
    None when one is non-finite (e.g. division by a zero-valued column).
    Integrality reads every value, not just the endpoints: fractional
    fills quantize to garbage at int4/int8."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    # The extremes are non-finite exactly when some value is: NaN
    # propagates through both, an infinity is one of them.
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return None
    return float(lo), float(hi), bool(np.all(values == np.rint(values)))


def _agg_feasibility(left_ranges, right_ranges, k, require_exact=False):
    """Exact data-range test over the prepared operand matrices.

    Both sides are fully materialized by the time the optimizer decides,
    so the test reads the exact per-cell range each matrix will hold:
    ``*_ranges`` hold one range per fill slot (:func:`_summed_operand`),
    None where a value is non-finite.
    """
    worst_left = worst_right = None
    for left_range, right_range in zip(left_ranges, right_ranges):
        if left_range is None or right_range is None:
            return run_feasibility_test(None, None, k)
        worst_left = _wider(worst_left, left_range)
        worst_right = _wider(worst_right, right_range)
    return run_feasibility_test(worst_left, worst_right, k,
                                require_exact=require_exact)


def _wider(a, b):
    from repro.tensor.precision import ValueRange

    if a is None:
        return b
    if b is None:
        return a
    return ValueRange(min(a.lo, b.lo), max(a.hi, b.hi),
                      integral=a.is_integral and b.is_integral)


__all__ = [
    "CHAINED_JOIN_FILL_S",
    "AggOperandsValue",
    "BatchedGemm",
    "ChainStart",
    "ChainValue",
    "Decode",
    "FactValue",
    "FallbackRequired",
    "FoldJoin",
    "Gemm",
    "GridAggregate",
    "GroupsValue",
    "IndicatorBuild",
    "JoinOperandsValue",
    "NonzeroExtract",
    "OutputValue",
    "PhysicalStage",
    "ProductValue",
    "RelationValue",
    "TableSource",
    "TensorOp",
    "ValueFill",
]
