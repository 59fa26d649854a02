"""Cost models for the baseline (non-TCU) engines, and their observer.

YDB and MonetDB run the same plan walk as the Reference oracle
(:class:`~repro.engine.physical.PhysicalExecutor`); they differ only in
what they charge.  A :class:`CostObserver` watches the walk and replays
one model's charges: :class:`GPUCostModel` for YDB-style plans on the
simulated GPU, :class:`CPUCostModel` for MonetDB-style plans on the CPU.
Each model method returns ``(stage, seconds)`` charges, the stacked
breakdowns the paper's figures show.
"""

from __future__ import annotations

import math

from repro.common.errors import ExecutionError
from repro.common.timing import (
    STAGE_AGGREGATION,
    STAGE_CPU,
    STAGE_GROUPBY,
    STAGE_JOIN,
    STAGE_MEMCPY,
    STAGE_OTHER,
    TimingBreakdown,
)
from repro.engine.base import ExecutionMode
from repro.engine.physical import NONEQUI_PAIR_LIMIT
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import HostProfile
from repro.sql.ast_nodes import ColumnRef
from repro.sql.binder import BoundColumn, BoundQuery
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
from repro.storage.statistics import (
    bound_stats_lookup,
    conjunction_selectivity,
)

Charge = tuple[str, float]

#: A Join that is an Aggregate's direct input aggregates during the probe
#: instead of materializing tuples once it exceeds this many pairs
#: (matmul-shaped queries; see Section 5.4.1).
FUSED_ACCUMULATE_PAIRS = 50_000_000


class GPUCostModel:
    """YDB: operators as CUDA kernels, data over PCIe (Section 2.2)."""

    def __init__(self, device: GPUDevice):
        self.device = device

    def load_table(self, nbytes: float) -> list[Charge]:
        return [(STAGE_MEMCPY, self.device.h2d_seconds(nbytes))]

    def scan(self, nrows: int, npasses: int = 1) -> list[Charge]:
        return [(STAGE_OTHER, self.device.cuda.scan_seconds(nrows) * npasses)]

    def hash_join(self, n_left: int, n_right: int, pairs: int) -> list[Charge]:
        seconds = (
            self.device.cuda.hash_build_seconds(n_right)
            + self.device.cuda.hash_probe_seconds(n_left)
            + self.device.cuda.join_materialize_seconds(pairs)
        )
        return [(STAGE_JOIN, seconds)]

    def nonequi_join(self, n_left: int, n_right: int, pairs: int) -> list[Charge]:
        # Sort-merge style: sort both sides, then emit ranges.
        sort = self.device.cuda.scan_seconds(n_left + n_right) * 4
        emit = self.device.cuda.join_materialize_seconds(pairs)
        return [(STAGE_JOIN, sort + emit)]

    def accumulate_join(self, nrows: int, pairs: int) -> list[Charge]:
        return [(STAGE_JOIN, self.device.cuda.accumulate_join_seconds(nrows, pairs))]

    def groupby(self, n_input: int, n_groups: int, grouped: bool) -> list[Charge]:
        stage = STAGE_GROUPBY if grouped else STAGE_AGGREGATION
        return [(stage, self.device.cuda.groupby_seconds(n_input, n_groups))]

    def project(self, nrows: int, nitems: int) -> list[Charge]:
        return [(STAGE_OTHER, self.device.cuda.elementwise_seconds(nrows, nitems))]

    def sort(self, nrows: int) -> list[Charge]:
        return [(STAGE_OTHER, self.device.cuda.scan_seconds(nrows) * 4)]

    def result_out(self, nrows: int, ncols: int) -> list[Charge]:
        nbytes = nrows * ncols * 8.0
        return [(STAGE_MEMCPY, self.device.d2h_seconds(nbytes, overlap=True))]


class CPUCostModel:
    """MonetDB: the same plan on host cores; one aggregate stage."""

    def __init__(self, host: HostProfile):
        self.host = host

    def load_table(self, nbytes: float) -> list[Charge]:
        # Tables are already in host memory; charge one streaming pass.
        return [(STAGE_CPU, nbytes / (self.host.cores * 8e9))]

    def scan(self, nrows: int, npasses: int = 1) -> list[Charge]:
        return [(STAGE_CPU, nrows * self.host.scan_elem_s * npasses)]

    def hash_join(self, n_left: int, n_right: int, pairs: int) -> list[Charge]:
        seconds = (
            (n_left + n_right) * self.host.hash_row_s * 0.5
            + pairs * self.host.join_pair_s
        )
        return [(STAGE_CPU, seconds)]

    def nonequi_join(self, n_left: int, n_right: int, pairs: int) -> list[Charge]:
        total = n_left + n_right
        sort = total * self.host.scan_elem_s * max(math.log2(max(total, 2)), 1.0)
        return [(STAGE_CPU, sort + pairs * self.host.join_pair_s)]

    def accumulate_join(self, nrows: int, pairs: int) -> list[Charge]:
        seconds = (
            nrows * self.host.hash_row_s * 0.5 + pairs * self.host.agg_pair_s
        )
        return [(STAGE_CPU, seconds)]

    def groupby(self, n_input: int, n_groups: int, grouped: bool) -> list[Charge]:
        seconds = n_input * self.host.agg_pair_s + n_groups * self.host.scan_elem_s
        return [(STAGE_CPU, seconds)]

    def project(self, nrows: int, nitems: int) -> list[Charge]:
        return [(STAGE_CPU, nrows * nitems * self.host.scan_elem_s)]

    def sort(self, nrows: int) -> list[Charge]:
        factor = max(math.log2(max(nrows, 2)), 1.0)
        return [(STAGE_CPU, nrows * self.host.scan_elem_s * factor)]

    def result_out(self, nrows: int, ncols: int) -> list[Charge]:
        return [(STAGE_CPU, nrows * ncols * self.host.scan_elem_s)]


class CostObserver:
    """Prices one walk of the plan with a cost model.

    The walker reports exact counts as it runs (:meth:`rows` for every
    Scan and Filter chunk, :meth:`expands` for every Join, :meth:`grouped`
    for every Aggregate).  It asks :meth:`expands` before materializing
    a join: in ANALYTIC mode a join of more than ``materialize_limit``
    pairs is declined, and the operators above it are priced from
    statistics instead; a non-equi join it would expand past
    ``NONEQUI_PAIR_LIMIT`` pairs raises.  :meth:`charge` then replays the model's charges
    in post-order — a Join after both of its inputs, Sort after its
    input, ``result_out`` last — so they depend on neither the chunk
    size the walk ran with.
    """

    def __init__(self, model, bound: BoundQuery, mode: ExecutionMode,
                 materialize_limit: int):
        self.model = model
        self.bound = bound
        self.analytic = mode == ExecutionMode.ANALYTIC
        self.materialize_limit = materialize_limit
        self._rows: dict[int, int] = {}
        self._groups: dict[int, tuple[int, int]] = {}
        self._declined: set[int] = set()

    # -- what the walker reports ----------------------------------------- #

    def rows(self, node: LogicalNode, n: int) -> None:
        self._rows[id(node)] = self._rows.get(id(node), 0) + n

    def expands(self, join: Join, pairs: int) -> bool:
        self._rows[id(join)] = pairs
        if self.analytic and pairs > self.materialize_limit:
            self._declined.add(id(join))
            return False
        if not join.predicate.is_equi and pairs > NONEQUI_PAIR_LIMIT:
            # Equi joins expand unbounded; a runaway range join fails loudly.
            raise ExecutionError(f"non-equi join would materialize {pairs} "
                                 f"pairs (> {NONEQUI_PAIR_LIMIT})")
        return True

    def grouped(self, aggregate: Aggregate, groups: int, kept: int) -> None:
        """Groups before and after HAVING."""
        self._groups[id(aggregate)] = (groups, kept)

    # -- the replay ---------------------------------------------------- #

    def charge(self, tree: LogicalNode,
               n_outputs: int) -> tuple[TimingBreakdown, int]:
        """The walk's charges and the result's row count (estimated above
        a declined join)."""
        self._aggregate_inputs = {
            id(node.input) for node in tree.walk()
            if isinstance(node, Aggregate)
        }
        charges: list[Charge] = []
        n_rows, _ = self._replay(tree, charges)
        charges += self.model.result_out(n_rows, max(n_outputs, 1))
        breakdown = TimingBreakdown()
        for stage, seconds in charges:
            breakdown.add(stage, seconds)
        return breakdown, n_rows

    def _replay(self, node: LogicalNode,
                charges: list[Charge]) -> tuple[int, bool]:
        """Charge ``node``'s subtree; returns its output rows and whether
        they are exact (False above a declined join)."""
        model = self.model
        if isinstance(node, Scan):
            n_input = self.bound.binding(node.binding).table.num_rows
            charges += model.load_table(
                n_input * self._referenced_columns(node.binding) * 8.0)
            if node.filters:
                charges += model.scan(n_input, len(node.filters))
            return self._rows.get(id(node), 0), True
        if isinstance(node, Join):
            n_left, left_exact = self._replay(node.left, charges)
            n_right, right_exact = self._replay(node.right, charges)
            exact = left_exact and right_exact
            pairs = (self._rows[id(node)] if exact
                     else self._estimate_pairs(node.predicate, n_left,
                                               n_right))
            if self._accumulates(node, pairs):
                charges += model.accumulate_join(n_left + n_right, pairs)
            elif node.predicate.op == "=":
                charges += model.hash_join(n_left, n_right, pairs)
            else:
                charges += model.nonequi_join(n_left, n_right, pairs)
            return pairs, exact and id(node) not in self._declined
        n, exact = self._replay(node.input, charges)
        if isinstance(node, Filter):
            charges += model.scan(n, len(node.predicates))
            if exact:
                return self._rows.get(id(node), 0), True
            # Per-conjunct selectivities derived from column statistics
            # (0.5 only beyond their reach).
            return int(n * conjunction_selectivity(
                node.predicates, bound_stats_lookup(self.bound))), False
        if isinstance(node, Compute):
            charges += model.scan(n, len(node.computed))
            return n, exact
        if isinstance(node, Aggregate):
            grouped = bool(node.group_by)
            if exact:
                groups, kept = self._groups[id(node)]
                charges += model.groupby(n, groups, grouped)
                return kept, True
            groups = self._estimate_groups(node.group_by, n)
            n_input = groups if self._accumulates(node.input, n) else n
            charges += model.groupby(n_input, groups, grouped)
            if node.having:
                # Aggregate comparisons price at the 0.5 default; plain
                # column conjuncts use their statistics.
                groups = int(groups * conjunction_selectivity(
                    node.having, bound_stats_lookup(self.bound)))
            return groups, False
        if isinstance(node, Project):
            charges += model.project(n, len(node.items))
            return n, exact
        if isinstance(node, Sort):
            charges += model.sort(n)
            return n, exact
        if isinstance(node, Limit):
            return min(n, node.count), exact
        raise ExecutionError(f"unknown plan node {node!r}")

    def _accumulates(self, node: LogicalNode, pairs: int) -> bool:
        """Whether ``node`` is a fused-accumulate join: an equi Join that
        is an Aggregate's direct input, past the pair threshold."""
        return (id(node) in self._aggregate_inputs
                and isinstance(node, Join) and node.predicate.op == "="
                and pairs > FUSED_ACCUMULATE_PAIRS)

    def _referenced_columns(self, binding: str) -> int:
        keys = {
            column.column for column in self.bound.resolution.values()
            if column.binding == binding
        }
        return max(len(keys), 1)

    def _estimate_pairs(self, predicate, n_left: int, n_right: int) -> int:
        left_stats = self.bound.column_stats(predicate.left)
        right_stats = self.bound.column_stats(predicate.right)
        if predicate.is_equi:
            d = max(left_stats.n_distinct, right_stats.n_distinct, 1)
            return int(n_left * n_right / d)
        return int(n_left * n_right / 2)

    def _estimate_groups(self, group_by: list[BoundColumn],
                         n_input: int) -> int:
        bound = self.bound
        if not group_by:
            # Ungrouped aggregates always emit one row, even over zero
            # input rows (COUNT=0 / SUM=0.0 in this NULL-free model).
            return 1
        estimate = 1
        group_exprs = bound.group_exprs
        for column in group_by:
            if column.key in group_exprs:
                # Computed key: distinct(f(x, y, ...)) is bounded by the
                # product of the base columns' distinct counts.
                factor = 1
                for node in group_exprs[column.key].walk():
                    if isinstance(node, ColumnRef):
                        stats = bound.column_stats(bound.resolve(node))
                        factor *= max(stats.n_distinct, 1)
                estimate *= min(factor, max(n_input, 1))
                continue
            estimate *= max(bound.column_stats(column).n_distinct, 1)
        return min(estimate, n_input)
