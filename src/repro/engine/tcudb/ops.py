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
  join+aggregate product, or the Lemma-3.1 grouped-reduce encoding of an
  already-materialized relation (hybrid mode);
* :class:`Gemm`           — run the Figure-6 optimizer workflow for this
  product (range/working-set/density tests, adaptive precision, cost
  comparison) and execute the matrix multiply;
* :class:`NonzeroExtract` — nonzero() extraction of matching pairs,
  extending the join chain;
* :class:`GridAggregate`  — harvest non-empty cells of the aggregate
  grids (AVG division, group-key decoding);
* :class:`MaskApply`      — residual predicates over the fact side or
  extracted pairs, and HAVING over the aggregated grid;
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
from repro.engine.physical import PhysicalExecutor, pruned_scan_chunks
from repro.engine.tcudb.codegen import OpEmission
from repro.engine.tcudb.cost import (
    OperatorGeometry,
    Strategy,
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
from repro.engine.tcudb.patterns import (
    AggRef,
    AggregateSpec,
    ConstRef,
    GroupRef,
    OutputItem,
    OutputNode,
    OutputOp,
    TCUPattern,
)
from repro.engine.tcudb.transform import (
    PairIndex,
    PairRuns,
    mapped_pair_count,
    union_key_domain,
)
from repro.sql.ast_nodes import Expr, Predicate
from repro.sql.binder import BoundColumn, JoinPredicate
from repro.sql.eval import (
    Environment,
    conjunction_mask,
    encode_literal,
    evaluate_expr,
    predicate_mask,
)
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

    Each side's coordinate structure and every fill slot's per-cell sums
    ride along (``ValueFill`` computes them for the range test, fused or
    not): the consuming ``Gemm`` multiplies these, it builds nothing.
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
    count_grid: np.ndarray | None = None
    semantic: bool = False  # extraction defers to exact-key kernels
    empty: bool = False
    # Chunked numeric join: pairs extracted grid-wise per product chunk
    # (the full dense product was never materialized at once).
    pair_indices: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class GroupsValue:
    """Aggregated output grid, harvested to per-group arrays."""

    agg_values: list[np.ndarray] | None  # None in ANALYTIC mode
    group_columns: dict[str, np.ndarray] | None
    n_rows: int
    empty: bool = False


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

    With chunked execution on, the scan walks the table's fixed-size row
    chunks and *prunes* chunks whose per-chunk min/max statistics prove
    the filters empty — pruned chunks are never touched and never
    charged, so selective filters over clustered columns get cheaper
    with data layout, as a real columnar scan would.
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
        # so the rest are never read — and never copied by a filter.
        read = {column.column for column in ctx.bound.resolution.values()
                if column.binding == self.binding}
        name_of = {name.lower(): name for name in table.column_names
                   if name.lower() in read}
        filters = ctx.bound.filters.get(self.binding, [])
        if not filters:
            return RelationValue(env=self._env_of(table, name_of))
        if ctx.chunk_rows is None:
            env = self._env_of(table, name_of)
            ctx.charge(self, STAGE_FILL,
                       env.n_rows * ctx.host.scan_elem_s * len(filters))
            return RelationValue(env=self._filtered(ctx, env, filters))
        return RelationValue(env=self._scan_chunked(ctx, filters, name_of))

    def _env_of(self, source, name_of) -> Environment:
        """Environment over the projected columns of a table or chunk."""
        return Environment(
            {f"{self.binding}.{lower}": source.column(name).data
             for lower, name in name_of.items()},
            source.num_rows,
        )

    def _scan_chunked(self, ctx, filters, name_of) -> Environment:
        binding = self.binding
        table = ctx.bound.binding(binding).table
        kept, chunked, _ = pruned_scan_chunks(
            ctx.bound, binding, filters, ctx.chunk_rows
        )
        scanned = sum(chunk.num_rows for chunk in kept)
        ctx.charge(self, STAGE_FILL,
                   scanned * ctx.host.scan_elem_s * len(filters))
        if ctx.workers > 1 and kept:
            # Morsel-parallel filtering: each kept chunk evaluates the
            # conjunction over its own slice; filtering per chunk and
            # concatenating in chunk order is elementwise-identical to
            # filtering the concatenated arrays.
            from repro.engine.parallel import parallel_map

            def filter_chunk(chunk):
                env = self._env_of(chunk, name_of)
                return self._filtered(ctx, env, filters).arrays

            parts = list(parallel_map(filter_chunk, kept, ctx.workers))
            arrays = {
                key: np.concatenate([part[key] for part in parts])
                for key in parts[0]
            }
            n_rows = int(next(iter(arrays.values())).size) if arrays else 0
            return Environment(arrays, n_rows)
        if len(kept) == chunked.num_chunks:
            env = self._env_of(table, name_of)
        else:
            # The zero-length head keeps the column dtype when every
            # chunk was pruned.
            env = Environment(
                {
                    f"{binding}.{lower}": np.concatenate(
                        [table.column(name).data[:0]]
                        + [chunk.column(name).data for chunk in kept]
                    )
                    for lower, name in name_of.items()
                },
                scanned,
            )
        return self._filtered(ctx, env, filters)

    @staticmethod
    def _filtered(ctx, env: Environment, filters) -> Environment:
        mask = conjunction_mask(filters, env, ctx.bound)
        return env.taken(np.flatnonzero(mask))


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
    levels: every fact row reads a one-byte presence table, only the
    survivors read the 8-byte row (or count) table.  Sparse, float or
    over-span keys binary-search the sorted key domain instead.  The
    choice reads only the arrays in hand.
    """
    if dim_keys.size == 0:
        none = np.empty(0, dtype=np.intp)
        return none, none, None
    table = presence_probe(dim_keys, fact_keys)
    if table is None:
        return _probe_sorted(backend, dim_keys, fact_keys)
    present, dim_slots, slots = table
    keep = np.flatnonzero(backend.gather(present, slots))
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
    # Set by the fusion pass: the consuming BatchedGemm charges one
    # fill of the shared indicator structure instead of one per
    # aggregate (the structure itself is built once either way).
    shared: bool = False
    # Fused residual-fact mask (fusion pass): the residual conjuncts are
    # evaluated inside the operand fill — masked fact tuples are never
    # placed, instead of a separate MaskApply pass over the fact side.
    epilogue_predicates: list[Predicate] = field(default_factory=list)
    fused_from: list[str] = field(default_factory=list)

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
            suffix += f" epilogue({conds}) fused_from={self.fused_from}"
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
            ctx.charge(
                self, "tcu_mask_apply",
                estimate_mask_apply(ctx.device, fact.n_rows,
                                    len(self.epilogue_predicates),
                                    fused=True),
            )
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
        left_side, left_fills = _build_agg_side(
            self.specs, self.group_by, fact.column, domain.left,
            side_bindings={fact_binding} | dims, weights=fact.weights,
            b_side=False,
        )
        right_side, right_fills = _build_agg_side(
            self.specs, self.group_by, b_env.lookup, domain.right,
            side_bindings={self.b_side}, weights=None, b_side=True,
        )
        pairs = mapped_pair_count(domain.left, domain.right, domain.k)
        left_structure = build_coo_operands(left_side, domain.k)
        right_structure = build_coo_operands(right_side, domain.k)
        geometry = _agg_geometry(
            ctx, self.specs, left_side, right_side, domain.k, pairs,
            fact_binding, self.b_side, left_structure.nnz,
            right_structure.nnz,
        )
        return self._operands(ctx, left_side, right_side, domain.k, geometry,
                              pairs, grouped, left_structure, right_structure,
                              left_fills, right_fills)

    def _operands(self, ctx, left_side, right_side, k, geometry, pairs,
                  grouped, left_structure, right_structure,
                  left_fills, right_fills):
        """``*_fills`` hold each side's per-tuple fill values, one entry
        per grid: the COUNT grid's weights, then one array per non-COUNT
        aggregate; None fills every tuple with one.  Each is summed per
        operand slot once, here: the feasibility test reads the sums'
        range, the consuming ``Gemm`` multiplies the same arrays, and the
        per-tuple values end with this call."""
        left_sums = [left_structure.cell_sums(v) for v in left_fills]
        right_sums = [right_structure.cell_sums(v) for v in right_fills]
        feasibility = _agg_feasibility(
            zip(left_fills, left_sums), zip(right_fills, right_sums), k,
            require_exact=ctx.options.require_exact,
        )
        return AggOperandsValue(
            left=left_side, right=right_side, k=k, geometry=geometry,
            feasibility=feasibility, pairs=pairs, specs=self.specs,
            grouped=grouped,
            left_structure=left_structure, right_structure=right_structure,
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
            ctx, left_side, right_side, n, geometry, n, grouped,
            build_coo_operands(left_side, n),
            build_coo_operands(right_side, n),
            left_fills, [None] * len(left_fills),
        )


@dataclass
class Gemm(TensorOp):
    """Price (Figure 6) and execute one matrix product.

    Runs the per-operator optimizer workflow over the operand geometry
    and feasibility report, charges the chosen plan's transform/compute/
    result costs, and performs the product — bit-accurate TCU emulation
    when the matrices are small enough to materialize, the semantically
    equivalent exact-key path beyond that.
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

    def priced_geometry(self, operands) -> OperatorGeometry:
        """Geometry the optimizer prices and the plan charges.

        An unfused multi-grid product is priced as the per-aggregate
        loop it stands for — one operand fill per matmul; the fused
        ``BatchedGemm`` overrides this to a single shared fill.
        """
        geometry = operands.geometry
        if isinstance(operands, AggOperandsValue) and geometry.n_matmuls > 1:
            return replace(geometry, fill_passes=geometry.n_matmuls)
        return geometry

    def execute(self, ctx) -> ProductValue:
        operands = ctx.value(self.input)
        if isinstance(operands, AggOperandsValue) and operands.empty:
            return ProductValue(operands=operands, empty=True)
        grouped = (operands.grouped
                   if isinstance(operands, AggOperandsValue) else False)
        geometry = self.priced_geometry(operands)
        decision = ctx.optimizer.decide(
            geometry, operands.feasibility, operands.pairs,
            grouped=grouped, op_label=f"{self.id} ({self.label})",
        )
        ctx.record_decision(self.id, decision)
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
        if ctx.mode != ExecutionMode.REAL:
            return ProductValue(operands=operands, semantic=True)
        geometry = operands.geometry
        # Either way the grids come from what ValueFill prepared.
        prepared = (operands.left_structure, operands.right_structure,
                    operands.left_sums, operands.right_sums, operands.specs)
        if ctx.driver.use_numeric_grid(
            operands.left.g, operands.right.g, operands.k,
            nnz_left=geometry.nnz_left, nnz_right=geometry.nnz_right,
            sparse=plan.strategy == Strategy.SPARSE,
        ):
            grids, count_grid = ctx.driver._grids_numeric(*prepared, plan)
        else:
            grids, count_grid = ctx.driver._grids_semantic(*prepared)
        return ProductValue(operands=operands, grids=grids,
                            count_grid=count_grid)


@dataclass
class BatchedGemm(Gemm):
    """Fused multi-aggregate GEMM (fusion rewrite of a JOIN_AGG fan-out).

    Each side's indicator structure is built once — rows and group codes
    shared across every aggregate — the per-aggregate fill values stack
    into an (n_agg, g, k) operand and a single stacked matmul is issued.
    It executes as ``Gemm`` does; what the rewrite changes is the price:
    one operand fill plus ``n_agg`` MMA passes instead of ``n_agg`` full
    operand rebuilds.
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

    def priced_geometry(self, operands) -> OperatorGeometry:
        # One shared fill regardless of the grid count.
        return operands.geometry

    def emission(self, ctx) -> OpEmission:
        emission = super().emission(ctx)
        return replace(emission, kind="batched_gemm",
                       label=f"{self.label} (batched x{self.n_grids})")


@dataclass
class NonzeroExtract(TensorOp):
    """nonzero() extraction of matching pairs; extends the join chain.

    A fused residual epilogue (``epilogue_predicates``, installed by the
    fusion pass from a downstream ``MaskApply[residual-pairs]``) is
    evaluated inside this result hook — the extracted pairs are masked in
    the same pass instead of a separate grid traversal.
    """

    input: str
    epilogue_predicates: list[Predicate] = field(default_factory=list)
    fused_from: list[str] = field(default_factory=list)

    kind = "nonzero"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        base = f"{self.id}: NonzeroExtract()"
        if self.epilogue_predicates:
            conds = " AND ".join(str(p) for p in self.epilogue_predicates)
            base += f" epilogue({conds}) fused_from={self.fused_from}"
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
                self._charge_epilogue(ctx, count)
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
        self._charge_epilogue(ctx, extracted.n_rows)
        return extracted.filtered(self.epilogue_predicates, ctx.bound)

    def _charge_epilogue(self, ctx, rows: int) -> None:
        ctx.charge(
            self, "tcu_mask_apply",
            estimate_mask_apply(ctx.device, rows,
                                len(self.epilogue_predicates), fused=True),
        )


@dataclass
class GridAggregate(TensorOp):
    """Harvest the non-empty cells of the aggregate grids.

    Extracts present (group-left, group-right) cells via the COUNT grid,
    applies AVG division, and decodes the composite group codes back
    into physical group-column values.  A fused HAVING epilogue
    (installed by the fusion pass from a downstream
    ``MaskApply[having]``) evaluates the HAVING conjuncts inside this
    result hook — masked groups never leave the extraction pass.
    """

    input: str
    epilogue_predicates: list[Predicate] = field(default_factory=list)
    epilogue_nodes: dict[Expr, OutputNode] = field(default_factory=dict)
    fused_from: list[str] = field(default_factory=list)

    kind = "grid_aggregate"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        base = f"{self.id}: GridAggregate()"
        if self.epilogue_predicates:
            conds = " AND ".join(str(p) for p in self.epilogue_predicates)
            base += f" epilogue({conds}) fused_from={self.fused_from}"
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
                return GroupsValue(agg_values=[], group_columns={}, n_rows=0,
                                   empty=True)
            # Ungrouped aggregates over zero qualifying rows still return
            # one row: COUNT = 0 and (NULL-free model) SUM/AVG/MIN/MAX =
            # 0.0 — synthesize it rather than dropping the result row,
            # matching the conventional executors.
            groups = GroupsValue(
                agg_values=[np.zeros(1) for _ in operands.specs],
                group_columns={}, n_rows=1,
            )
            return self._apply_epilogue(ctx, groups)
        left, right = operands.left, operands.right
        if product.semantic and ctx.mode != ExecutionMode.REAL:
            estimate = min(
                left.g * right.g,
                max(int(left.keys_mapped.size),
                    int(right.keys_mapped.size), 1),
            )
            if self.epilogue_predicates:
                self._charge_epilogue(ctx, estimate)
                estimate = int(estimate * conjunction_selectivity(
                    self.epilogue_predicates, bound_stats_lookup(ctx.bound)
                ))
            return GroupsValue(agg_values=None, group_columns=None,
                               n_rows=estimate)
        grids, count_grid = product.grids, product.count_grid
        present = count_grid > 0
        rows, cols = ctx.backend.nonzero(present)
        if rows.size == 0 and not operands.grouped:
            # Non-empty operands but zero matching pairs: the ungrouped
            # result row still exists (COUNT = 0, sums 0.0).
            groups = GroupsValue(
                agg_values=[np.zeros(1) for _ in operands.specs],
                group_columns={}, n_rows=1,
            )
            return self._apply_epilogue(ctx, groups)
        agg_values: list[np.ndarray] = []
        for spec, grid in zip(operands.specs, grids):
            values = grid[rows, cols]
            if spec.func == "avg":
                values = values / np.maximum(count_grid[rows, cols], 1)
            agg_values.append(values)
        group_columns: dict[str, np.ndarray] = {}
        if left.group is not None:
            decoded = left.group.decode(rows)
            for column, values in zip(left.group_order, decoded):
                group_columns[column] = values
        if right.group is not None:
            decoded = right.group.decode(cols)
            for column, values in zip(right.group_order, decoded):
                group_columns[column] = values
        groups = GroupsValue(agg_values=agg_values,
                             group_columns=group_columns,
                             n_rows=int(rows.size))
        return self._apply_epilogue(ctx, groups)

    def _apply_epilogue(self, ctx, groups: GroupsValue) -> GroupsValue:
        if not self.epilogue_predicates:
            return groups
        self._charge_epilogue(ctx, groups.n_rows)
        mask = having_mask(ctx, self.epilogue_predicates,
                           self.epilogue_nodes, groups)
        keys = list(groups.group_columns)
        masked_groups = ctx.backend.apply_mask(
            [groups.group_columns[k] for k in keys], mask)
        return GroupsValue(
            agg_values=ctx.backend.apply_mask(groups.agg_values, mask),
            group_columns=dict(zip(keys, masked_groups)),
            n_rows=int(np.count_nonzero(mask)),
        )

    def _charge_epilogue(self, ctx, rows: int) -> None:
        ctx.charge(
            self, "tcu_mask_apply",
            estimate_mask_apply(ctx.device, rows,
                                len(self.epilogue_predicates), fused=True),
        )


@dataclass
class MaskApply(TensorOp):
    """Predicate masks over intermediate results.

    Roles:

    * ``residual-fact``  — cross-table residual conjuncts over the fact
      side after its dimensions folded (JOIN_AGG lowering);
    * ``residual-pairs`` — residual conjuncts over extracted join pairs
      (JOIN_2WAY / multiway lowering);
    * ``having``         — HAVING conjuncts over the aggregated grid,
      with aggregate sub-expressions compiled onto the grid's values.
    """

    input: str
    predicates: list[Predicate]
    role: str
    having_nodes: dict[Expr, OutputNode] = field(default_factory=dict)

    kind = "mask_apply"

    def input_ids(self) -> list[str]:
        return [self.input]

    def describe(self) -> str:
        conds = " AND ".join(str(p) for p in self.predicates)
        return f"{self.id}: MaskApply[{self.role}]({conds})"

    def emission(self, ctx) -> OpEmission:
        return OpEmission(
            kind="mask_apply", label=f"MaskApply[{self.role}]",
            lines=[
                f"  // {len(self.predicates)} predicate(s), role="
                f"{self.role}",
                "  mask_apply_kernel<<<grid, block>>>"
                "(d_rows, d_mask, n_rows);",
            ],
        )

    def execute(self, ctx):
        value = ctx.value(self.input)
        if isinstance(value, FactValue) or isinstance(value, RelationValue):
            return self._mask_fact(ctx, value)
        if isinstance(value, ChainValue):
            return self._mask_chain(ctx, value)
        if isinstance(value, GroupsValue):
            return self._mask_groups(ctx, value)
        raise ExecutionError(f"MaskApply cannot filter {type(value).__name__}")

    def _charge(self, ctx, rows: int) -> None:
        ctx.charge(
            self, "tcu_mask_apply",
            estimate_mask_apply(ctx.device, rows, len(self.predicates)),
        )

    def _mask_fact(self, ctx, value):
        if isinstance(value, RelationValue):
            value = FactValue(env=value.env, gathered={})
        self._charge(ctx, value.n_rows)
        env = value.eval_environment()
        mask = conjunction_mask(self.predicates, env, ctx.bound)
        return value.filtered(mask)

    def _mask_chain(self, ctx, chain: ChainValue) -> ChainValue:
        self._charge(ctx, chain.n_rows)
        if not chain.materialized:
            # ANALYTIC estimate: per-conjunct selectivities derived from
            # column statistics (0.5 only for conjuncts beyond them).
            selectivity = conjunction_selectivity(
                self.predicates, bound_stats_lookup(ctx.bound)
            )
            n = int(chain.n_rows * selectivity)
            return ChainValue(
                envs=chain.envs, n_rows=n,
                multiplicity={b: m * selectivity
                              for b, m in chain.multiplicity.items()},
                materialized=False,
            )
        return chain.filtered(self.predicates, ctx.bound)

    def _mask_groups(self, ctx, groups: GroupsValue) -> GroupsValue:
        self._charge(ctx, groups.n_rows)
        if groups.empty:
            return groups
        if groups.agg_values is None:
            n = int(groups.n_rows * conjunction_selectivity(
                self.predicates, bound_stats_lookup(ctx.bound)
            ))
            return GroupsValue(agg_values=None, group_columns=None, n_rows=n)
        mask = having_mask(ctx, self.predicates, self.having_nodes, groups)
        keys = list(groups.group_columns)
        masked_groups = ctx.backend.apply_mask(
            [groups.group_columns[k] for k in keys], mask)
        return GroupsValue(
            agg_values=ctx.backend.apply_mask(groups.agg_values, mask),
            group_columns=dict(zip(keys, masked_groups)),
            n_rows=int(np.count_nonzero(mask)),
        )


def having_mask(ctx, predicates, having_nodes, groups: GroupsValue):
    """Boolean per-group mask of HAVING conjuncts compiled onto the grid
    (shared by ``MaskApply[having]`` and the fused HAVING epilogue)."""
    n = groups.n_rows

    def eval_expr(expr: Expr) -> np.ndarray:
        node = having_nodes.get(expr)
        if node is None:
            raise ExecutionError(
                f"HAVING expression {expr} was not lowered onto the grid"
            )
        return eval_output_node(node, groups.agg_values,
                                groups.group_columns, n)

    mask = np.ones(n, dtype=bool)
    for predicate in predicates:
        mask &= predicate_mask(
            predicate, n, eval_expr,
            lambda ref, value: encode_literal(ctx.bound, ref, value),
        )
    return mask


@dataclass
class PhysicalStage(TensorOp):
    """Conventional pre-stage of a hybrid program.

    Executes the non-TCU-expressible relational prefix (joins, filters,
    residual predicates) with the exact NumPy kernels of
    :class:`~repro.engine.physical.PhysicalExecutor`, charging
    host-executor time, and hands the materialized relation to the TCU
    core (grouped-reduce ValueFill/Gemm).

    With ``streaming`` on (the default since the chunked-storage
    refactor), the prefix executes morsel-driven — chunk batches pulled
    through Scan/Filter/Join — which bounds peak intermediates to the
    chunk size times the join fan-out and, crucially, lets hybrid
    lowering run in ANALYTIC mode: the pre-stage streams up to
    ``budget_rows`` output rows instead of refusing with a ``mode``
    fallback.
    """

    tree: LogicalNode
    streaming: bool = False
    budget_rows: int = 4_000_000

    kind = "physical_stage"

    def describe(self) -> str:
        roots = [n.describe() for n in self.tree.walk()]
        suffix = " [streaming]" if self.streaming else ""
        return f"{self.id}: PhysicalStage({' <- '.join(roots[:1])}...)"\
            + suffix

    def emission(self, ctx) -> OpEmission:
        label = "PhysicalStage (host pre-join"
        label += ", streamed)" if self.streaming else ")"
        return OpEmission(
            kind="physical_stage", label=label,
            lines=["  // host executor: joins/filters beyond matmul "
                   "expressiveness; streams the joined relation to the TCU "
                   "chunk by chunk"],
        )

    def execute(self, ctx) -> RelationValue:
        if ctx.mode != ExecutionMode.REAL and not self.streaming:
            raise FallbackRequired(
                "hybrid pre-stage requires REAL mode (materialized relation)",
                kind="mode",
            )
        executor = PhysicalExecutor(ctx.bound, chunk_rows=ctx.chunk_rows,
                                    workers=ctx.workers,
                                    cancel_token=ctx.cancel_token)
        try:
            if self.streaming:
                env = self._stream_prefix(ctx, executor)
            else:
                env = executor._run_relation(self.tree)
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

    def _stream_prefix(self, ctx, executor: PhysicalExecutor) -> Environment:
        """Pull the prefix through the streaming executor, bounded by the
        row budget in ANALYTIC mode (REAL keeps the pair-limit bound)."""
        chunks: list[Environment] = []
        total = 0
        budget = (self.budget_rows
                  if ctx.mode != ExecutionMode.REAL else None)
        for env in executor.stream_relation(self.tree):
            total += env.n_rows
            if budget is not None and total > budget:
                raise FallbackRequired(
                    f"streaming pre-stage exceeded {budget} rows in "
                    f"{ctx.mode.value} mode",
                    kind="cost",
                )
            chunks.append(env)
        if not chunks:
            return Environment({}, 0)
        arrays = {
            key: np.concatenate([chunk.arrays[key] for chunk in chunks])
            for key in chunks[0].arrays
        }
        return Environment(arrays, total)


@dataclass
class Decode(TensorOp):
    """Materialize output arrays from the final pairs/groups payload."""

    input: str
    role: str  # "project" | "aggregate"
    items: list = field(default_factory=list)  # SelectItems (project)
    projected: list = field(default_factory=list)  # BoundColumn | float
    outputs: list[OutputItem] = field(default_factory=list)  # aggregate

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
            cols = ", ".join(item.name for item in self.outputs)
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
        names = [item.name for item in self.outputs]
        by_columns = [
            item.node.column if isinstance(item.node, GroupRef) else None
            for item in self.outputs
        ]
        if groups.empty:
            return OutputValue(
                arrays=[np.array([]) for _ in self.outputs],
                names=names, by_columns=by_columns, n_rows=0,
            )
        if groups.agg_values is None:
            return OutputValue(arrays=None, names=names,
                               by_columns=by_columns, n_rows=groups.n_rows)
        arrays = [
            eval_output_node(item.node, groups.agg_values,
                             groups.group_columns, groups.n_rows)
            for item in self.outputs
        ]
        return OutputValue(arrays=arrays, names=names, by_columns=by_columns,
                           n_rows=groups.n_rows)


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
        values = np.full(n, 1.0)
        if not b_side:  # the constant multiplies in once, on the A side
            values = values * spec.constant
        if weights is not None:
            values = values * weights
        for factor in spec.factors:
            if factor.column.binding not in side_bindings:
                continue
            array = np.asarray(column_of(factor.column.key), dtype=np.float64)
            values = values * (array if factor.power == 1 else 1.0 / array)
        fills.append(values)
    side = PreparedAggSide(
        keys_mapped=np.asarray(mapped_keys), group=group,
        group_order=[c.key for c in group_cols],
    )
    return side, fills


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


def _agg_feasibility(left_fills, right_fills, k, require_exact=False):
    """Exact data-range test over the prepared operand matrices.

    Both sides are fully materialized by the time the optimizer decides,
    so the test reads the exact per-cell sums each matrix will hold:
    ``*_fills`` yield one ``(fill values, per-cell sums)`` pair per fill
    slot, over the side's canonicalized coordinates.
    """
    worst_left = worst_right = None
    for (left_values, left_sums), (right_values, right_sums) in zip(
            left_fills, right_fills):
        left_range = _exact_cell_range(left_values, left_sums)
        right_range = _exact_cell_range(right_values, right_sums)
        if left_range is None or right_range is None:
            return run_feasibility_test(None, None, k)
        worst_left = _wider(worst_left, left_range)
        worst_right = _wider(worst_right, right_range)
    return run_feasibility_test(worst_left, worst_right, k,
                                require_exact=require_exact)


def _exact_cell_range(values, sums):
    """Exact [min, max] of one operand matrix's cell sums (0 included for
    empty cells); None when a value is non-finite (e.g. division by a
    zero-valued column).  ``values`` None: every tuple fills one."""
    from repro.tensor.precision import ValueRange

    if values is None:  # unit fills: the sums are tuple counts
        return ValueRange(0.0, float(sums.max()), integral=True)
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        return None
    # The fill values (not just the accumulated endpoints) decide
    # integrality: fractional fills quantize to garbage at int4/int8.
    integral = bool(np.all(values == np.rint(values)))
    return ValueRange(float(min(sums.min(), 0.0)),
                      float(max(sums.max(), 0.0)),
                      integral=integral)


def _wider(a, b):
    from repro.tensor.precision import ValueRange

    if a is None:
        return b
    if b is None:
        return a
    return ValueRange(min(a.lo, b.lo), max(a.hi, b.hi),
                      integral=a.is_integral and b.is_integral)


def eval_output_node(node: OutputNode, agg_values, group_columns,
                     n_rows) -> np.ndarray:
    """Evaluate one output-expression tree over per-group arrays."""
    if isinstance(node, AggRef):
        return np.asarray(agg_values[node.index], dtype=np.float64)
    if isinstance(node, ConstRef):
        return np.full(n_rows, node.value)
    if isinstance(node, GroupRef):
        values = group_columns.get(node.column.key)
        if values is None:
            raise ExecutionError(
                f"group column {node.column.key} missing from grid"
            )
        return np.asarray(values)
    if isinstance(node, OutputOp):
        left = eval_output_node(node.left, agg_values, group_columns,
                                n_rows).astype(np.float64)
        right = eval_output_node(node.right, agg_values, group_columns,
                                 n_rows).astype(np.float64)
        ops = {"+": np.add, "-": np.subtract, "*": np.multiply,
               "/": np.divide, "%": np.mod}
        return ops[node.op](left, right)
    raise ExecutionError(f"bad output node {node!r}")


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
    "MaskApply",
    "NonzeroExtract",
    "OutputValue",
    "PhysicalStage",
    "ProductValue",
    "RelationValue",
    "TableSource",
    "TensorOp",
    "ValueFill",
    "eval_output_node",
    "having_mask",
]
