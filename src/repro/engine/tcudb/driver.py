"""The TCUDB program driver: TCU-accelerated physical operators.

Executes the plan the optimizer selected.  Numerics run through the
simulated tensor cores (bit-accurate fp16/int8/int4 emulation) whenever
the matrices are small enough to materialize; beyond that the driver
switches to a semantically equivalent vectorized path — indicator-matrix
products over exact keys — while charging identical simulated time.  The
equivalence of the two paths is property-tested.

Since the TensorProgram refactor the operator-level orchestration lives
in :mod:`repro.engine.tcudb.ops`; this module provides the shared
device kernels those operators invoke — strategy-dispatched GEMM
execution (``_execute_gemm``), dense operand construction
(``join_operand_matrices``, ``_grids_by_matmul``), the semantic
exact-key equivalents (``_join_pairs_semantic``, ``_grids_semantic``)
and the numeric-emulation gates — plus the legacy ``join_2way``
operator retained for the driver-level property tests.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.timing import STAGE_FILL, STAGE_MEMCPY, TimingBreakdown
from repro.engine.base import ExecutionMode
from repro.engine.parallel import parallel_map, workers_policy
from repro.engine.relational import equi_join_indices, nonequi_join_indices
from repro.engine.tcudb.cost import PlanCost, Strategy
from repro.engine.tcudb.transform import (
    PairIndex,
    PairRuns,
    mapped_pair_count,
)
from repro.hardware.gpu import GPUDevice
from repro.tensor.backend import get_backend
from repro.tensor.coo import COOMatrix, dense_from_coo
from repro.tensor.keys import (
    DIRECT_ADDRESS_SLOTS_PER_ROW,
    KEY_TABLE_MAX_SLOTS,
    unique_inverse,
)
from repro.tensor.matmul import msplit_gemm
from repro.tensor.tiled import TiledMatrix, TileLayout

# Largest dense matrix/grid the driver will actually materialize for
# numeric emulation; beyond this, the semantic fast path takes over.
NUMERIC_CELL_LIMIT = 8_000_000


@dataclass
class CompositeKey:
    """Invertible composite encoding of one side's group-by columns."""

    labels: list[np.ndarray]  # distinct physical values per column
    codes: np.ndarray  # composite code per input row
    cardinality: int

    @staticmethod
    def build(arrays: list[np.ndarray]) -> "CompositeKey":
        if not arrays:
            raise ExecutionError("composite key needs at least one array")
        labels: list[np.ndarray] = []
        combined = None
        cardinality = 1
        for array in arrays:
            uniques, codes = unique_inverse(array)
            labels.append(uniques)
            # The first column's codes are the composite so far.
            combined = (codes.astype(np.int64, copy=False)
                        if combined is None
                        else combined * uniques.size + codes)
            cardinality *= uniques.size
        return CompositeKey(labels=labels, codes=combined,
                            cardinality=cardinality)

    def decode(self, composite: np.ndarray) -> list[np.ndarray]:
        """Recover the per-column physical values of composite codes."""
        if len(self.labels) == 1:
            return [self.labels[0][composite]]
        remaining = np.asarray(composite, dtype=np.int64)
        sizes = [u.size for u in self.labels]
        out: list[np.ndarray] = [None] * len(self.labels)  # type: ignore
        for i in range(len(self.labels) - 1, -1, -1):
            out[i] = self.labels[i][remaining % sizes[i]]
            remaining = remaining // sizes[i]
        return out


@dataclass
class PreparedJoin:
    """Inputs of a 2-way join operator (keys already in physical codes)."""

    op: str
    left_keys_mapped: np.ndarray  # positions in the union domain
    right_keys_mapped: np.ndarray
    domain_values: np.ndarray
    k: int


@dataclass
class PreparedAggSide:
    """One side of a join+aggregate operator."""

    keys_mapped: np.ndarray
    group: CompositeKey | None  # None => side collapses to one row
    values_per_agg: list[np.ndarray]  # factor products (incl. weights)
    # Weights for the COUNT grid; None: every tuple counts once, so the
    # COUNT operand is the structure's occupancy histogram.
    count_values: np.ndarray | None
    # binding.column keys of the group columns, in composite-code order
    # (used to decode grid rows back into output columns).
    group_order: list[str] = field(default_factory=list)
    # Streamed fill (the B side of ValueFill): per-aggregate fill values
    # are computed on demand — whole-side or one key-domain chunk's
    # tuple selection — instead of being materialized up front, so at
    # most one aggregate slice of one chunk is ever live.
    value_fill: Callable[[int, np.ndarray | None], np.ndarray] | None = None

    @property
    def g(self) -> int:
        return self.group.cardinality if self.group else 1

    def row_codes(self) -> np.ndarray:
        if self.group is None:
            return np.zeros(self.keys_mapped.size, dtype=np.int64)
        return self.group.codes

    def fill_slots(self, aggregates) -> list[np.ndarray | None]:
        """Fill values of every grid the product computes: the COUNT
        grid's weights (None on a unit side), then one array per
        non-COUNT aggregate."""
        return [self.count_values] + [
            self.values_for(i) for i, spec in enumerate(aggregates)
            if spec.func != "count"
        ]

    def count_fill(self, selection: np.ndarray | None = None) -> np.ndarray:
        """Per-tuple COUNT weights, for the paths that place tuples one
        by one (unfused, chunked, semantic)."""
        if self.count_values is None:
            return unit_fill(self.keys_mapped.size, selection)
        return _resolve_values(self.count_values, selection)

    def values_for(self, index: int,
                   selection: np.ndarray | None = None) -> np.ndarray:
        """Fill values of aggregate ``index``, optionally restricted to a
        tuple ``selection`` (boolean mask or index array).  Slicing the
        factor columns before the elementwise products is bit-identical
        to slicing the materialized product."""
        if self.value_fill is not None:
            return self.value_fill(index, selection)
        values = np.asarray(self.values_per_agg[index])
        return values if selection is None else values[selection]


def unit_fill(n: int, selection: np.ndarray | None = None) -> np.ndarray:
    """The all-ones fill of ``n`` tuples, or of a ``selection`` (boolean
    mask or index array) of them."""
    if selection is not None:
        selection = np.asarray(selection)
        n = (int(np.count_nonzero(selection))
             if selection.dtype == np.bool_ else selection.size)
    return np.ones(n)


def _resolve_values(values, selection: np.ndarray | None = None):
    """Materialize one fill-value operand: a plain array (optionally
    sliced) or a streamed-fill thunk called with the selection."""
    if callable(values):
        return values(selection)
    arr = np.asarray(values)
    return arr if selection is None else arr[selection]


@dataclass
class OperatorRun:
    """What one driver invocation produced."""

    n_rows: int
    breakdown: TimingBreakdown
    arrays: list[np.ndarray] | None = None
    names: list[str] | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OperandStructure:
    """Shared indicator structure of one operand matrix, built once.

    The (row, column) coordinate pattern of a grouped operand matrix is
    the same for every aggregate of a product — only the fill values
    differ.  This structure gives every input tuple the *slot* of its
    cell a single time, so per-aggregate operand builds, nnz accounting
    and exact cell-range feasibility all reduce to one ``np.bincount``
    over the shared ``slots`` array.  :func:`build_coo_operands` picks
    one of two placements:

    * **addressed** — the slot is the cell's address ``row * k + col``
      and there are ``g * k`` slots: per-slot sums already are the flat
      operand, and no canonicalization runs;
    * **ranked** — the slot is the cell's rank among the distinct
      occupied ``cells`` (one ``unique_inverse``), for operands too
      large or too thinly occupied to address.

    ``bincount`` accumulates in tuple order in both, so every operand
    cell is bit-identical whichever ran.
    """

    g: int
    k: int
    slots: np.ndarray  # input tuple -> slot of its cell
    # Ranked placement: slot -> linearized cell (row * k + col), sorted.
    # None: addressed, a slot is its cell.
    cells: np.ndarray | None

    @property
    def n_slots(self) -> int:
        return self.g * self.k if self.cells is None else int(self.cells.size)

    @cached_property
    def occupancy(self) -> np.ndarray:
        """Tuples per slot, counted on first read and kept: the COUNT
        operand of a unit side, and what ``nnz`` of an addressed
        structure reads.  A ranked, weighted side never needs it."""
        return np.bincount(self.slots, minlength=self.n_slots)

    @property
    def nnz(self) -> int:
        if self.cells is not None:
            return self.n_slots
        return int(np.count_nonzero(self.occupancy))

    @cached_property
    def occupied_cells(self) -> np.ndarray:
        """Sorted linearized cells holding at least one tuple."""
        if self.cells is None:
            return np.flatnonzero(self.occupancy)
        return self.cells

    @property
    def rows(self) -> np.ndarray:
        return self.occupied_cells // self.k

    @property
    def cols(self) -> np.ndarray:
        return self.occupied_cells % self.k

    def cell_sums(self, values: np.ndarray | None) -> np.ndarray:
        """Per-slot sums of one fill-value array (duplicates summed).
        ``None`` fills every tuple with one: an integer count equals the
        sum of that many 1.0s exactly, so the sums are the occupancy."""
        if values is None:
            return self.occupancy
        return np.bincount(
            self.slots, weights=np.asarray(values, dtype=np.float64),
            minlength=self.n_slots,
        )

    def at_cells(self, sums: np.ndarray) -> np.ndarray:
        """Per-slot sums as one value per occupied cell, in the order of
        :attr:`rows` / :attr:`cols`."""
        return sums if self.cells is not None else sums[self.occupied_cells]

    def coo(self, values: np.ndarray | None) -> COOMatrix:
        """Direct-sparse operand: COO built straight from the key/code
        arrays — the dense intermediate is never materialized."""
        sums = self.cell_sums(values)
        keep = np.flatnonzero(sums)
        cells = keep if self.cells is None else self.cells[keep]
        return COOMatrix(
            rows=cells // self.k, cols=cells % self.k, vals=sums[keep],
            shape=(self.g, self.k),
        )

    def dense_stack(self, sums_list: list[np.ndarray],
                    dtype=np.float64) -> np.ndarray:
        """(n_agg, g, k) stacked operand: shared coordinates, one slice of
        per-slot sums (:meth:`cell_sums`) per aggregate.  ``dtype``
        follows the active backend's fill dtype (float32 stacks feed
        sgemm directly).  Addressed sums are the flat slices already —
        a converting copy; ranked sums scatter to their cells."""
        addressed = self.cells is None
        stack = (np.empty if addressed else np.zeros)(
            (len(sums_list), self.g * self.k), dtype=dtype)
        where = slice(None) if addressed else self.cells
        for i, sums in enumerate(sums_list):
            stack[i, where] = sums
        return stack.reshape(len(sums_list), self.g, self.k)


def build_coo_operands(side: "PreparedAggSide", k: int) -> OperandStructure:
    """Place one agg side's tuples into operand slots (rows/codes shared
    across every aggregate of the product).  A cell's slot is its address
    when the ``g * k`` table fits :func:`~repro.tensor.keys.address_range`'s
    budget — the table cap, and a few slots per tuple served — and its
    rank among the distinct cells otherwise; the choice reads only the
    arrays in hand."""
    slots = side.row_codes() * k
    slots += np.asarray(side.keys_mapped, dtype=np.int64)
    cells = None
    if side.g * k > min(KEY_TABLE_MAX_SLOTS,
                        DIRECT_ADDRESS_SLOTS_PER_ROW * slots.size):
        cells, slots = unique_inverse(slots)
    return OperandStructure(g=side.g, k=k, slots=slots, cells=cells)


class TCUDriver:
    """Executes TCU plans on a simulated device.

    ``chunk_rows`` enables morsel-driven numeric execution: dense/blocked
    aggregate grids accumulate over key-domain chunks (each operand slice
    is at most ``g x chunk_rows`` cells) and numeric join products chunk
    the probe rows, extracting nonzero pairs per product slice.  Chunked
    accumulation is what keeps large-``k`` products on the bit-accurate
    numeric path with bounded memory; ``None`` reproduces the legacy
    whole-operand build.

    ``workers`` > 1 fans the independent chunks of both loops across a
    thread pool (the GEMM emulation is stateless, so parallel products
    are safe).  Partials still merge in chunk order — pair concatenation
    and grid summation see exactly the sequential order, so parallel
    results stay bit-identical (``A @ B.T == sum_c A[:,c] @ B[:,c].T``
    accumulated in a fixed order).
    """

    def __init__(self, device: GPUDevice, mode: ExecutionMode,
                 chunk_rows: int | None = None,
                 workers: int | None = None,
                 backend: str | None = None):
        self.device = device
        self.mode = mode
        self.chunk_rows = chunk_rows
        self.workers = workers_policy(workers)
        # Kernel-primitive layer: "sim" (the simulated unit, the oracle),
        # "fast" (optimized NumPy/BLAS) or "torch"; see
        # repro.tensor.backend for the selection policy and the
        # equivalence contract.
        self.backend = get_backend(backend)

    # -- shared charging ---------------------------------------------------- #

    def _charge(self, breakdown: TimingBreakdown, plan: PlanCost,
                op_stage: str) -> None:
        breakdown.add(STAGE_FILL, plan.transform.fill_seconds)
        breakdown.add(STAGE_MEMCPY, plan.transform.memcpy_seconds)
        breakdown.add(op_stage, plan.compute_seconds)
        # Result extraction: nonzero scan belongs to the operator, the
        # host transfer to the memcpy stage; plan.result_seconds bundles
        # both, so split by recomputing the transfer part.
        breakdown.add(STAGE_MEMCPY, plan.result_seconds)

    # -- numeric-emulation gates (shared with the TensorProgram ops) -------- #

    def use_numeric_join(self, prepared: PreparedJoin,
                         mode: ExecutionMode) -> bool:
        """True when the join product can run bit-accurate TCU emulation.

        Unchunked, every dense piece (left operand, right operand, the
        product) must fit the cell budget.  With chunked execution the
        probe rows stream: only one ``chunk x k`` operand slice and one
        ``chunk x m`` product slice live at a time, so the left row count
        stops being a limit — the build side still must fit.
        """
        if mode != ExecutionMode.REAL:
            return False
        n = prepared.left_keys_mapped.size
        m = prepared.right_keys_mapped.size
        k = prepared.k
        if (n * m <= NUMERIC_CELL_LIMIT
                and n * k <= NUMERIC_CELL_LIMIT
                and m * k <= NUMERIC_CELL_LIMIT):
            return True
        if self.chunk_rows is None:
            return False
        chunk = min(self.chunk_rows, max(n, 1))
        return (
            m * k <= NUMERIC_CELL_LIMIT
            and chunk * m <= NUMERIC_CELL_LIMIT
            and chunk * k <= NUMERIC_CELL_LIMIT
        )

    def use_numeric_grid(self, g1: int, g2: int, k: int,
                         nnz_left: int | None = None,
                         nnz_right: int | None = None,
                         sparse: bool = False) -> bool:
        """True when the aggregate grids can run bit-accurate numerics.

        Dense plans must materialize both (g, k) operand matrices, so the
        dense cell counts gate — unless chunked execution is on, in which
        case the key domain streams through the unit in ``chunk_rows``
        column slices and only the ``g x chunk`` slices plus the output
        grid need fit.  Sparse plans with direct-COO operands
        (``sparse=True`` plus known nnz) never build the dense operands —
        what bounds them is the tiled representation: at worst one 16x16
        tile per stored entry (or per grid slot, whichever is smaller),
        kept under the same cell budget as the dense gate.  That keeps
        large-but-sparse products on the bit-accurate numeric path
        without letting a scattered operand blow up tile memory.
        """
        if g1 * g2 > NUMERIC_CELL_LIMIT:
            return False
        if sparse and nnz_left is not None and nnz_right is not None:
            from repro.tensor.tiled import TILE

            k_slots = -(-k // TILE)
            worst_tiles = (
                min(nnz_left, -(-g1 // TILE) * k_slots)
                + min(nnz_right, -(-g2 // TILE) * k_slots)
            )
            return worst_tiles * TILE * TILE <= NUMERIC_CELL_LIMIT
        k_slice = k if self.chunk_rows is None else min(k, self.chunk_rows)
        return (
            g1 * k_slice <= NUMERIC_CELL_LIMIT
            and g2 * k_slice <= NUMERIC_CELL_LIMIT
        )

    # -- 2-way join (Q1/Q5) ---------------------------------------------------- #

    def join_2way(self, prepared: PreparedJoin, plan: PlanCost) -> OperatorRun:
        breakdown = TimingBreakdown()
        self._charge(breakdown, plan, "tcu_join")
        if self.mode != ExecutionMode.REAL:
            count = self._join_count(prepared)
            return OperatorRun(n_rows=count, breakdown=breakdown,
                               meta={"strategy": plan.strategy.value})
        if self.use_numeric_join(prepared, self.mode):
            left_idx, right_idx = self._join_pairs_by_matmul(prepared, plan)
        else:
            pairs = self._join_pairs_semantic(prepared)
            left_idx, = pairs.left(
                [np.arange(prepared.left_keys_mapped.size)])
            right_idx, = pairs.right(
                [np.arange(prepared.right_keys_mapped.size)])
        return OperatorRun(
            n_rows=int(left_idx.size),
            breakdown=breakdown,
            arrays=[left_idx, right_idx],
            names=["__left_index", "__right_index"],
            meta={"strategy": plan.strategy.value},
        )

    @staticmethod
    def join_operand_matrices(
        prepared: PreparedJoin,
        backend=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense indicator/comparison operand matrices of one join
        (Sections 3.1/3.4), shared by the legacy 2-way path and the
        TensorProgram ``Gemm`` operator.  ``backend`` supplies the
        dense-from-COO fill kernel (``None``: the simulator's)."""
        from repro.engine.tcudb.transform import comparison_matrix

        fill = backend.dense_from_coo if backend is not None else dense_from_coo
        n = prepared.left_keys_mapped.size
        m = prepared.right_keys_mapped.size
        k = prepared.k
        if prepared.op == "=":
            left = fill(
                np.arange(n), prepared.left_keys_mapped, np.ones(n), (n, k)
            )
        else:
            side = comparison_matrix(
                prepared.left_keys_mapped, prepared.domain_values, prepared.op
            )
            left = fill(side.rows, side.cols, side.vals, (n, k))
        right = fill(
            np.arange(m), prepared.right_keys_mapped, np.ones(m), (m, k)
        )
        return left, right

    def _join_pairs_by_matmul(self, prepared: PreparedJoin, plan: PlanCost):
        n = prepared.left_keys_mapped.size
        if self.chunk_rows is not None and n > self.chunk_rows:
            return self._join_pairs_chunked(prepared, plan)
        left, right = self.join_operand_matrices(prepared, self.backend)
        product = self._execute_gemm(left, right.T, plan)
        rows, cols = self.backend.nonzero(product > 0)
        return rows, cols

    def _join_pairs_chunked(self, prepared: PreparedJoin, plan: PlanCost):
        """Numeric join with the probe rows streamed in chunks: one
        ``chunk x k`` operand slice and one ``chunk x m`` product slice
        live at a time; pairs are extracted per slice and accumulated."""
        from repro.engine.tcudb.transform import comparison_matrix

        m = prepared.right_keys_mapped.size
        k = prepared.k
        right = self.backend.dense_from_coo(
            np.arange(m), prepared.right_keys_mapped, np.ones(m), (m, k)
        ).T

        chunk = self.chunk_rows
        n = prepared.left_keys_mapped.size

        def probe_chunk(start: int) -> tuple[np.ndarray, np.ndarray]:
            keys = prepared.left_keys_mapped[start:start + chunk]
            nc = keys.size
            if prepared.op == "=":
                left = self.backend.dense_from_coo(
                    np.arange(nc), keys, np.ones(nc), (nc, k)
                )
            else:
                side = comparison_matrix(
                    keys, prepared.domain_values, prepared.op
                )
                left = self.backend.dense_from_coo(side.rows, side.cols,
                                                   side.vals, (nc, k))
            product = self._execute_gemm(left, right, plan)
            rows, cols = self.backend.nonzero(product > 0)
            return rows + start, cols

        # Chunks are independent GEMMs over a shared read-only build side;
        # parallel_map yields them in submission order, so the pair lists
        # concatenate exactly as the sequential loop would.
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        for rows, cols in parallel_map(probe_chunk, range(0, n, chunk),
                                       self.workers):
            rows_parts.append(rows)
            cols_parts.append(cols)
        if not rows_parts:
            empty = np.array([], dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(rows_parts), np.concatenate(cols_parts)

    def _join_pairs_semantic(self, prepared: PreparedJoin):
        """The exact-key pair list: run-length for an equi join (nothing
        of pair-list length is built until a column is expanded),
        materialized indices otherwise."""
        if prepared.op == "=":
            return PairRuns(prepared.left_keys_mapped,
                            prepared.right_keys_mapped, prepared.k)
        left_values = prepared.domain_values[prepared.left_keys_mapped]
        right_values = prepared.domain_values[prepared.right_keys_mapped]
        return PairIndex(
            *nonequi_join_indices(left_values, right_values, prepared.op))

    def _join_count(self, prepared: PreparedJoin) -> int:
        from repro.engine.relational import nonequi_join_count

        if prepared.op == "=":
            return mapped_pair_count(
                prepared.left_keys_mapped, prepared.right_keys_mapped,
                prepared.k,
            )
        left_values = prepared.domain_values[prepared.left_keys_mapped]
        right_values = prepared.domain_values[prepared.right_keys_mapped]
        return nonequi_join_count(left_values, right_values, prepared.op)

    # -- join + (group-by) aggregation grids ------------------------------------ #
    # (invoked by the TensorProgram Gemm operator; result assembly lives
    # in ops.GridAggregate)

    def _grids_by_matmul(self, left: PreparedAggSide, right: PreparedAggSide,
                         k: int, aggregates, plan: PlanCost):
        """Unfused per-aggregate grid execution: each grid rebuilds both
        operand matrices from scratch (the redundancy the fusion pass's
        ``BatchedGemm`` eliminates)."""
        count_grid = self._one_grid(
            left, right, k, left.count_fill, right.count_fill, plan,
        )
        grids = []
        for i, spec in enumerate(aggregates):
            if spec.func == "count":
                grids.append(count_grid)
                continue
            grids.append(
                self._one_grid(
                    left, right, k, left.values_per_agg[i],
                    partial(right.values_for, i), plan,
                )
            )
        return grids, count_grid

    def _one_grid(self, left, right, k, left_values, right_values, plan):
        # Indicator products stay exact at any TCU precision; value
        # products run at the plan's precision.  Sparse plans build the
        # operands straight in COO (no dense intermediate).  Values may
        # arrive as a streamed-fill thunk (the B side's, either side's
        # COUNT weights); the chunked path below fills it one key-domain
        # chunk at a time.
        if plan.strategy == Strategy.SPARSE:
            mat_a = build_coo_operands(left, k).coo(
                _resolve_values(left_values))
            mat_b = build_coo_operands(right, k).coo(
                _resolve_values(right_values))
            return self._execute_gemm(mat_a, mat_b.transpose(), plan)
        if self.chunk_rows is not None and k > self.chunk_rows:
            return self._grid_accumulate(left, right, k, [left_values],
                                         [right_values], plan)[0]
        mat_a = self.backend.dense_from_coo(
            left.row_codes(), left.keys_mapped,
            _resolve_values(left_values), (left.g, k)
        )
        mat_b = self.backend.dense_from_coo(
            right.row_codes(), right.keys_mapped,
            _resolve_values(right_values), (right.g, k)
        )
        return self._execute_gemm(mat_a, mat_b.T, plan)

    def _grid_accumulate(self, left, right, k, left_values_list,
                         right_values_list, plan):
        """Grid-wise accumulation over key-domain chunks.

        Each chunk builds per-side ``(g, chunk)`` operand slices holding
        only the tuples whose mapped key falls in the chunk, multiplies
        them and accumulates the partial grids — the tiled-matmul
        identity ``A @ B.T == sum_c A[:, c] @ B[:, c].T`` over column
        chunks ``c``.  Only one slice pair is live at a time, so the
        dense numeric path scales to any key-domain size.  Value entries
        may be streamed-fill thunks: each chunk then fills only its own
        tuple selection, so the full value arrays are never
        materialized.
        """
        chunk = self.chunk_rows
        n_slices = len(left_values_list)
        lrows, lkeys = left.row_codes(), np.asarray(left.keys_mapped)
        rrows, rkeys = right.row_codes(), np.asarray(right.keys_mapped)

        def chunk_operands(k0: int, i: int, lsel, rsel, kc: int):
            mat_a = self.backend.dense_from_coo(
                lrows[lsel], lkeys[lsel] - k0,
                _resolve_values(left_values_list[i], lsel), (left.g, kc),
            )
            mat_b = self.backend.dense_from_coo(
                rrows[rsel], rkeys[rsel] - k0,
                _resolve_values(right_values_list[i], rsel),
                (right.g, kc),
            )
            return mat_a, mat_b

        grids = [np.zeros((left.g, right.g)) for _ in range(n_slices)]
        if (self.workers <= 1
                and plan.strategy not in (Strategy.SPARSE, Strategy.BLOCKED)):
            # Sequential dense accumulation: the backend adds each chunk's
            # partial straight into the output grid (matmul_into), reusing
            # one scratch buffer across all key-domain chunks instead of
            # materializing a partial grid per chunk.  Same accumulation
            # order as the parallel merge below, so both stay
            # bit-identical per backend.
            for k0 in range(0, k, chunk):
                k1 = min(k0 + chunk, k)
                lsel = (lkeys >= k0) & (lkeys < k1)
                rsel = (rkeys >= k0) & (rkeys < k1)
                if not lsel.any() or not rsel.any():
                    continue
                for i in range(n_slices):
                    mat_a, mat_b = chunk_operands(k0, i, lsel, rsel, k1 - k0)
                    self.backend.matmul_into(grids[i], self.device,
                                             mat_a, mat_b.T, plan.precision)
            return grids

        def chunk_partials(k0: int) -> list[np.ndarray] | None:
            k1 = min(k0 + chunk, k)
            lsel = (lkeys >= k0) & (lkeys < k1)
            rsel = (rkeys >= k0) & (rkeys < k1)
            if not lsel.any() or not rsel.any():
                return None
            partials = []
            for i in range(n_slices):
                mat_a, mat_b = chunk_operands(k0, i, lsel, rsel, k1 - k0)
                partials.append(self._execute_gemm(mat_a, mat_b.T, plan))
            return partials

        # Partial grids compute in parallel but sum on this thread in
        # chunk order — float accumulation order matches the sequential
        # loop, keeping the parallel grids bit-identical.
        for partials in parallel_map(chunk_partials, range(0, k, chunk),
                                     self.workers):
            if partials is None:
                continue
            for i in range(n_slices):
                grids[i] += partials[i]
        return grids

    def _grids_batched(self, left: PreparedAggSide, right: PreparedAggSide,
                       k: int, aggregates, plan: PlanCost,
                       left_structure: OperandStructure,
                       right_structure: OperandStructure,
                       left_sums: list[np.ndarray],
                       right_sums: list[np.ndarray]):
        """Fused multi-aggregate grid execution (``BatchedGemm``).

        The producing ``ValueFill`` built each side's indicator structure
        and every fill slot's per-cell sums once (slot 0 = COUNT grid,
        then one per non-COUNT aggregate); this stacks them into an
        (n_agg, g, k) operand and issues a single stacked matmul, instead
        of the per-aggregate rebuild-everything loop of
        :meth:`_grids_by_matmul`.
        """
        value_index = [None] + [i for i, spec in enumerate(aggregates)
                                if spec.func != "count"]
        if plan.strategy == Strategy.SPARSE:
            # Batched sparse tiles: the tile structure (block keys,
            # uniques, within-tile offsets) is derived ONCE from the
            # shared COO coordinates; each aggregate of the batch then
            # materializes its tiles with a single fancy-index fill —
            # no per-grid TiledMatrix re-derivation.
            g1, g2 = left_structure.g, right_structure.g
            layout_a = TileLayout.from_coords(
                left_structure.rows, left_structure.cols, (g1, k))
            layout_b = TileLayout.from_coords(
                right_structure.cols, right_structure.rows, (k, g2))
            products = []
            for lsums, rsums in zip(left_sums, right_sums):
                tiled_a = layout_a.fill(left_structure.at_cells(lsums))
                tiled_b = layout_b.fill(right_structure.at_cells(rsums))
                product, _ = tiled_a.spmm(tiled_b)
                products.append(product.to_dense()[:g1, :g2])
            stacked = np.stack(products)
        elif self.chunk_rows is not None and k > self.chunk_rows:
            # Grid-wise accumulation over key-domain chunks; the shared
            # coordinate structure is rebuilt per chunk slice, but only
            # one (g, chunk) slice pair is ever live.
            def streamed(side):
                return [side.count_fill] + [partial(side.values_for, i)
                                            for i in value_index[1:]]

            stacked = np.stack(self._grid_accumulate(
                left, right, k, streamed(left), streamed(right), plan))
        else:
            fill_dtype = self.backend.fill_dtype
            a_stack = left_structure.dense_stack(left_sums, dtype=fill_dtype)
            b_stack = right_structure.dense_stack(right_sums,
                                                  dtype=fill_dtype)
            if plan.strategy == Strategy.BLOCKED:
                stacked = np.stack([
                    np.asarray(
                        msplit_gemm(self.device, a, b.T, plan.precision,
                                    backend=self.backend)[0],
                        dtype=np.float64,
                    )
                    for a, b in zip(a_stack, b_stack)
                ])
            else:
                stacked = np.asarray(
                    self.backend.matmul(
                        self.device, a_stack, b_stack.transpose(0, 2, 1),
                        plan.precision
                    ),
                    dtype=np.float64,
                )
        count_grid = stacked[0]
        by_index = {
            index: stacked[slot]
            for slot, index in enumerate(value_index)
            if index is not None
        }
        grids = [
            count_grid if spec.func == "count" else by_index[i]
            for i, spec in enumerate(aggregates)
        ]
        return grids, count_grid

    def _execute_gemm(self, a, b, plan: PlanCost) -> np.ndarray:
        """Strategy-dispatched GEMM.  ``a``/``b`` may be dense arrays or
        :class:`~repro.tensor.coo.COOMatrix` operands — sparse plans
        consume the COO directly (no dense round-trip), dense plans
        densify it."""
        if plan.strategy == Strategy.SPARSE:
            coo_a = a if isinstance(a, COOMatrix) else COOMatrix.from_dense(a)
            coo_b = b if isinstance(b, COOMatrix) else COOMatrix.from_dense(b)
            # Both operands carry unique coordinates (nonzero extraction
            # and the operand builder are both duplicate-free), so the
            # canonicalizing sort in from_coo is skipped.
            tiled_a = TiledMatrix.from_coo(coo_a, assume_canonical=True)
            tiled_b = TiledMatrix.from_coo(coo_b, assume_canonical=True)
            result, _ = tiled_a.spmm(tiled_b)
            return result.to_dense()[: coo_a.shape[0], : coo_b.shape[1]]
        if isinstance(a, COOMatrix):
            a = a.to_dense()
        if isinstance(b, COOMatrix):
            b = b.to_dense()
        if plan.strategy == Strategy.BLOCKED:
            result, _ = msplit_gemm(self.device, a, b, plan.precision,
                                    backend=self.backend)
            return np.asarray(result, dtype=np.float64)
        return np.asarray(
            self.backend.matmul(self.device, a, b, plan.precision),
            dtype=np.float64,
        )

    def _grids_semantic(self, left, right, aggregates, g1, g2):
        left_idx, right_idx = equi_join_indices(
            left.keys_mapped, right.keys_mapped
        )
        cell = left.row_codes()[left_idx] * g2 + right.row_codes()[right_idx]
        size = g1 * g2
        count_grid = np.bincount(
            cell,
            weights=left.count_fill(left_idx) * right.count_fill(right_idx),
            minlength=size,
        ).reshape(g1, g2)
        grids = []
        for i, spec in enumerate(aggregates):
            if spec.func == "count":
                grids.append(count_grid)
                continue
            weights = (
                left.values_per_agg[i][left_idx]
                * right.values_for(i, right_idx)
            )
            grids.append(
                np.bincount(cell, weights=weights, minlength=size)
                .reshape(g1, g2)
            )
        return grids, count_grid

