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
execution (``_execute_gemm``), operand construction
(``join_operand_matrices``, ``build_coo_operands``), the one aggregate
product over a prepared operand (``_grids_numeric``: whole, in
key-domain column slices, or as SPARSE tiles), the semantic exact-key
equivalents (``_join_pairs_semantic``, ``_grids_semantic``) and the
numeric-emulation gates — plus ``join_2way``, the join operator the
driver-level property tests call directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """One side of a join+aggregate operator: where each tuple goes.
    What it is filled with — one array of per-tuple values per grid —
    lives only until ``ValueFill`` has summed it per operand slot
    (:meth:`OperandStructure.cell_sums`)."""

    keys_mapped: np.ndarray
    group: CompositeKey | None  # None => side collapses to one row
    # binding.column keys of the group columns, in composite-code order
    # (used to decode grid rows back into output columns).
    group_order: list[str] = field(default_factory=list)

    @property
    def g(self) -> int:
        return self.group.cardinality if self.group else 1

    def row_codes(self) -> np.ndarray:
        if self.group is None:
            return np.zeros(self.keys_mapped.size, dtype=np.int64)
        return self.group.codes


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

    @cached_property
    def rows(self) -> np.ndarray:
        return self.occupied_cells // self.k

    @cached_property
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


class ColumnSlices:
    """Key-domain chunks ``[c * chunk, (c + 1) * chunk)`` of one prepared
    operand: the ``(g, width)`` column slices of the matrices
    :meth:`OperandStructure.dense_stack` would build whole.

    An addressed chunk is a view of the per-slot sums, converted to the
    fill dtype.  Ranked ``cells`` are sorted by row, then column, so a
    chunk is one run of cells per row: a single ``searchsorted`` finds
    every run's bounds, and a chunk scatters its runs into one slice —
    O(nnz) over the whole product, nothing of ``g * k`` cells allocated.
    """

    def __init__(self, structure: OperandStructure, chunk: int):
        self.structure = structure
        self.chunk = chunk
        if structure.cells is not None:
            g, k = structure.g, structure.k
            edges = np.minimum(np.arange(-(-k // chunk) + 1) * chunk, k)
            # (g, n_chunks + 1): row r's run of chunk c in ``cells``.
            self._bounds = np.searchsorted(
                structure.cells, np.arange(g)[:, None] * k + edges)

    def occupied(self, c: int) -> bool:
        """Whether any tuple's key falls in chunk ``c``."""
        structure = self.structure
        if structure.cells is not None:
            return bool(
                (self._bounds[:, c + 1] > self._bounds[:, c]).any())
        k0 = c * self.chunk
        return bool(structure.occupancy.reshape(structure.g, structure.k)
                    [:, k0:k0 + self.chunk].any())

    def fills(self, c: int, sums_list: list[np.ndarray], dtype):
        """Chunk ``c`` of every operand of ``sums_list`` (one value per
        slot each, :meth:`OperandStructure.cell_sums`), C-contiguous,
        generated one at a time."""
        structure = self.structure
        g, k = structure.g, structure.k
        k0 = c * self.chunk
        if structure.cells is None:
            for sums in sums_list:
                yield np.ascontiguousarray(
                    sums.reshape(g, k)[:, k0:k0 + self.chunk], dtype=dtype)
            return
        width = min(self.chunk, k - k0)
        starts = self._bounds[:, c]
        lengths = self._bounds[:, c + 1] - starts
        run_starts = np.cumsum(lengths) - lengths
        # The chunk's cells, row by row, and their offsets in the slice
        # (int32: a slice the numeric gate admits has under 2**23 cells).
        index = np.arange(lengths.sum()) + np.repeat(starts - run_starts,
                                                     lengths)
        offsets = (structure.cells[index] - np.repeat(
            np.arange(g) * (k - width) + k0, lengths)).astype(np.int32)
        for sums in sums_list:
            out = np.zeros(g * width, dtype=dtype)
            out[offsets] = sums[index]
            yield out.reshape(g, width)


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
    numeric path with bounded memory; ``None`` multiplies every operand
    whole, whatever its ``k``.

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
        column slices of the prepared operand (:class:`ColumnSlices`: a
        view of at most 2**20 addressed cells, or O(nnz) ranked cells
        plus one ``(g, chunk)`` slice pair) and only the ``g x chunk``
        slices plus the output grid need fit.  Sparse plans with direct-COO operands
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

    def _grids_numeric(self, left: OperandStructure,
                       right: OperandStructure,
                       left_sums: list[np.ndarray],
                       right_sums: list[np.ndarray],
                       aggregates, plan: PlanCost):
        """Every grid of one aggregate product (``Gemm``, fused or not).

        The producing ``ValueFill`` built each side's indicator structure
        and every fill slot's per-cell sums once (slot 0 = COUNT grid,
        then one per non-COUNT aggregate).  They are multiplied as SPARSE
        tiles, in key-domain column slices when ``k`` outgrows
        ``chunk_rows``, or whole — an (n_agg, g, k) stack and a single
        stacked matmul.
        """
        k = left.k
        if plan.strategy == Strategy.SPARSE:
            # Batched sparse tiles: the tile structure (block keys,
            # uniques, within-tile offsets) is derived ONCE from the
            # shared COO coordinates; each aggregate of the batch then
            # materializes its tiles with a single fancy-index fill —
            # no per-grid TiledMatrix re-derivation.
            g1, g2 = left.g, right.g
            layout_a = TileLayout.from_coords(left.rows, left.cols, (g1, k))
            layout_b = TileLayout.from_coords(right.cols, right.rows,
                                              (k, g2))
            products = []
            for lsums, rsums in zip(left_sums, right_sums):
                tiled_a = layout_a.fill(left.at_cells(lsums))
                tiled_b = layout_b.fill(right.at_cells(rsums))
                product, _ = tiled_a.spmm(tiled_b)
                products.append(product.to_dense()[:g1, :g2])
            stacked = np.stack(products)
        elif self.chunk_rows is not None and k > self.chunk_rows:
            stacked = np.stack(self._grids_by_slices(
                left, right, left_sums, right_sums, plan))
        else:
            fill_dtype = self.backend.fill_dtype
            a_stack = left.dense_stack(left_sums, dtype=fill_dtype)
            b_stack = right.dense_stack(right_sums, dtype=fill_dtype)
            if plan.strategy == Strategy.BLOCKED:
                stacked = np.stack([
                    self._execute_gemm(a, b.T, plan)
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
        return _grids_of(stacked, aggregates)

    def _grids_by_slices(self, left: OperandStructure,
                         right: OperandStructure, left_sums, right_sums,
                         plan: PlanCost) -> list[np.ndarray]:
        """Grid-wise accumulation over key-domain chunks — the tiled
        matmul identity ``A @ B.T == sum_c A[:, c] @ B[:, c].T`` over
        column slices ``c`` of the prepared operands.  A chunk either
        side leaves empty is skipped, and one slice pair is live at a
        time, so the dense numeric path scales to any key-domain size.
        """
        chunk = self.chunk_rows
        fill_dtype = self.backend.fill_dtype
        left_slices = ColumnSlices(left, chunk)
        right_slices = ColumnSlices(right, chunk)
        grids = [np.zeros((left.g, right.g)) for _ in left_sums]
        # Sequential dense accumulation: the backend adds each chunk's
        # product straight into the output grid (matmul_into), reusing
        # one scratch buffer across all chunks.  Otherwise the partials
        # compute on the pool (or as BLOCKED msplit products) and sum on
        # this thread in chunk order — the same float accumulation
        # order, so every variant is bit-identical per backend.
        in_place = self.workers <= 1 and plan.strategy != Strategy.BLOCKED

        def chunk_partials(c: int) -> list[np.ndarray]:
            partials: list[np.ndarray] = []
            if not (left_slices.occupied(c) and right_slices.occupied(c)):
                return partials
            for grid, mat_a, mat_b in zip(
                    grids, left_slices.fills(c, left_sums, fill_dtype),
                    right_slices.fills(c, right_sums, fill_dtype)):
                if in_place:
                    self.backend.matmul_into(grid, self.device, mat_a,
                                             mat_b.T, plan.precision)
                else:
                    partials.append(self._execute_gemm(mat_a, mat_b.T, plan))
            return partials

        for partials in parallel_map(chunk_partials,
                                     range(-(-left.k // chunk)),
                                     self.workers):
            for grid, partial in zip(grids, partials):
                grid += partial
        return grids

    def _execute_gemm(self, a: np.ndarray, b: np.ndarray,
                      plan: PlanCost) -> np.ndarray:
        """Strategy-dispatched GEMM of two dense operands."""
        if plan.strategy == Strategy.SPARSE:
            # from_dense extracts nonzeros in row-major order: unique,
            # sorted coordinates, so from_coo's canonicalizing sort is
            # skipped.
            tiled_a = TiledMatrix.from_coo(COOMatrix.from_dense(a),
                                           assume_canonical=True)
            tiled_b = TiledMatrix.from_coo(COOMatrix.from_dense(b),
                                           assume_canonical=True)
            result, _ = tiled_a.spmm(tiled_b)
            return result.to_dense()[: a.shape[0], : b.shape[1]]
        if plan.strategy == Strategy.BLOCKED:
            result, _ = msplit_gemm(self.device, a, b, plan.precision,
                                    backend=self.backend)
            return np.asarray(result, dtype=np.float64)
        return np.asarray(
            self.backend.matmul(self.device, a, b, plan.precision),
            dtype=np.float64,
        )

    @staticmethod
    def _grids_semantic(left: OperandStructure, right: OperandStructure,
                        left_sums, right_sums, aggregates):
        """The exact-key equivalent of :meth:`_grids_numeric`, for
        products too large to emulate: the occupied cells of the two
        operands join on their column, in float64."""
        left_idx, right_idx = equi_join_indices(left.cols, right.cols)
        cell = left.rows[left_idx] * right.g + right.rows[right_idx]
        return _grids_of([
            np.bincount(
                cell,
                weights=(left.at_cells(lsums)[left_idx]
                         * right.at_cells(rsums)[right_idx]),
                minlength=left.g * right.g,
            ).reshape(left.g, right.g)
            for lsums, rsums in zip(left_sums, right_sums)
        ], aggregates)


def _grids_of(slots, aggregates):
    """``(grids, count_grid)`` of a product's slot grids — slot 0 is the
    COUNT grid, which every COUNT aggregate shares."""
    count_grid = slots[0]
    values = iter(slots[1:])
    return ([count_grid if spec.func == "count" else next(values)
             for spec in aggregates], count_grid)
