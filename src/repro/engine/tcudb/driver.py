"""The TCUDB program driver: TCU-accelerated physical operators.

Executes the plan the optimizer selected.  Numerics run through the
active tensor backend (bit-accurate fp16/int8/int4 emulation on the
simulator) whenever the matrices are small enough to materialize; beyond
that the driver switches to a semantically equivalent vectorized path —
indicator-matrix products over exact keys — while charging identical
simulated time.  The equivalence of the two paths is property-tested.

A plan's strategy (DENSE, BLOCKED or SPARSE, Section 4.2) is its price:
it decides the simulated seconds and the emitted CUDA source, and every
strategy computes the same product, so the host runs one backend product
for all three.

The operator-level orchestration lives in :mod:`repro.engine.tcudb.ops`;
this module provides what those operators invoke — operand construction
(``join_operand_matrices``, ``build_coo_operands``), the join product
(``_join_pairs_by_matmul``), the one aggregate product over a prepared
operand (``_grids_numeric``: whole, or in key-domain column slices), the
semantic exact-key equivalents (``_join_pairs_semantic``,
``_grids_semantic``) and the numeric-emulation gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.common.errors import ExecutionError
from repro.engine.base import ExecutionMode
from repro.engine.physical import (
    equi_join_indices,
    nonequi_join_count,
    nonequi_join_indices,
)
from repro.engine.tcudb.cost import PlanCost
from repro.engine.tcudb.transform import (
    PairIndex,
    PairRuns,
    mapped_pair_count,
)
from repro.hardware.gpu import GPUDevice
from repro.storage.chunk import chunk_rows_policy
from repro.tensor.backend import get_backend
from repro.tensor.coo import dense_from_coo
from repro.tensor.keys import (
    DIRECT_ADDRESS_SLOTS_PER_ROW,
    KEY_TABLE_MAX_SLOTS,
    unique_inverse,
)

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
class OperandStructure:
    """Shared indicator structure of one operand matrix, built once.

    The (row, column) coordinate pattern of a grouped operand matrix is
    the same for every aggregate of a product — only the fill values
    differ.  This structure gives every input tuple the *slot* of its
    cell a single time, so per-aggregate operand builds and exact
    cell-range feasibility reduce to one ``np.bincount`` over the shared
    ``slots`` array, and nnz to a one-byte presence table (the tuple
    count per slot is counted only when a COUNT operand or a cell
    holding two tuples needs it).  :func:`build_coo_operands` picks one
    of two placements:

    * **addressed** — the slot is the cell's address ``row * k + col``
      and there are ``g * k`` slots: per-slot sums already are the flat
      operand, and no canonicalization runs;
    * **ranked** — the slot is the cell's rank among the distinct
      occupied ``cells`` (one ``unique_inverse``), for operands too
      large or too thinly occupied to address.

    ``bincount`` accumulates in tuple order in both, so every operand
    cell is bit-identical whichever ran.  An addressed structure whose
    cells each hold at most one tuple (:attr:`placed`) can place each
    value in its cell, in a narrower dtype, to the same bits.  Once every
    fill slot is summed, :meth:`release_slots` lets the per-tuple
    ``slots`` go.
    """

    g: int
    k: int
    # Input tuple -> slot of its cell; None once released.
    slots: np.ndarray | None
    # Ranked placement: slot -> linearized cell (row * k + col), sorted.
    # None: addressed, a slot is its cell.
    cells: np.ndarray | None
    # Rows are a multi-column CompositeKey's codes: a cross product, which
    # may leave a row without tuples.  One group column (or none) codes
    # only values that occur, so each of its rows holds a tuple.
    cross_rows: bool = False
    n_tuples: int = field(init=False)

    def __post_init__(self):
        self.n_tuples = int(self.slots.size)

    @property
    def n_slots(self) -> int:
        return self.g * self.k if self.cells is None else int(self.cells.size)

    @cached_property
    def occupancy(self) -> np.ndarray:
        """Tuples per slot, counted on first read and kept: the COUNT
        operand of a unit side.  Where no cell holds two tuples it is
        the presence table, read as counts; presence and the
        multiplicity bound never need it."""
        if self.unique:
            if self.cells is not None:
                return np.ones(self.n_slots, dtype=np.intp)
            return self.presence.astype(np.intp)
        return np.bincount(self.slots, minlength=self.n_slots)

    @cached_property
    def presence(self) -> np.ndarray:
        """One byte per addressed slot, set where a tuple lives."""
        present = np.zeros(self.n_slots, dtype=np.bool_)
        present[self.slots] = True
        return present

    @cached_property
    def nnz(self) -> int:
        if self.cells is not None:
            return self.n_slots
        return int(np.count_nonzero(self.presence))

    @property
    def unique(self) -> bool:
        """No two tuples share a cell."""
        return self.nnz == self.n_tuples

    @property
    def placed(self) -> bool:
        """Addressed, and no two tuples share a cell: each slot's sum is
        its one tuple's value (or zero), which can be placed rather than
        summed."""
        return self.cells is None and self.unique

    @property
    def full(self) -> bool:
        """Every (row, key) cell holds a tuple."""
        return self.nnz == self.g * self.k

    @property
    def max_multiplicity(self) -> int:
        """Most tuples in one cell — the largest COUNT operand entry: 1
        exactly when no two tuples share a cell."""
        if self.unique:
            return 1
        return int(self.occupancy.max())

    @cached_property
    def rows_occupied(self) -> bool:
        """Every row holds a tuple: by construction unless
        :attr:`cross_rows`, when the occupied rows are counted."""
        return (not self.cross_rows
                or bool(np.bincount(self.rows, minlength=self.g).all()))

    @cached_property
    def occupied_cells(self) -> np.ndarray:
        """Sorted linearized cells holding at least one tuple."""
        if self.cells is None:
            return np.flatnonzero(self.presence)
        return self.cells

    @cached_property
    def rows(self) -> np.ndarray:
        return self.occupied_cells // self.k

    @cached_property
    def cols(self) -> np.ndarray:
        return self.occupied_cells % self.k

    def column_counts(self) -> np.ndarray:
        """Tuples per key (operand column), read from the operand: the
        presence summed per key when no cell holds two tuples, the
        occupancy otherwise; ranked cells add up by ``cells % k``."""
        if self.cells is not None:
            counts = np.bincount(
                self.cells % self.k,
                weights=None if self.unique else self.occupancy,
                minlength=self.k)
            return counts.astype(np.int64, copy=False)
        per_slot = self.presence if self.unique else self.occupancy
        return per_slot.reshape(self.g, self.k).sum(axis=0, dtype=np.int64)

    def release_slots(self) -> None:
        """Drop the per-tuple ``slots`` once every fill slot is summed.
        What the product still reads survives them: the presence table,
        and the occupancy when a cell holds two tuples (counted now if
        nothing has yet); :meth:`cell_sums` of values needs the slots."""
        # ``unique`` reads (and caches) the presence table first.
        if not self.unique:
            self.occupancy
        self.slots = None

    def cell_sums(self, values: np.ndarray | None,
                  dtype=np.float64) -> np.ndarray:
        """Per-slot sums of one fill-value array (duplicates summed).
        ``None`` fills every tuple with one: an integer count equals the
        sum of that many 1.0s exactly, so the sums are the occupancy.
        A :attr:`placed` structure asked for a narrower ``dtype`` (one
        that holds every value exactly: the caller's choice) scatters
        the values into a zeroed ``dtype`` array, one write per tuple;
        every other sum is float64, where ``bincount`` is the faster
        scatter."""
        if values is None:
            return self.occupancy
        if self.placed and dtype != np.float64:
            sums = np.zeros(self.n_slots, dtype=dtype)
            # bincount adds each value into +0.0, so a -0.0 lands as
            # +0.0; converted before the scatter, which casts slower.
            sums[self.slots] = np.add(values, 0.0, dtype=dtype)
            return sums
        return np.bincount(
            self.slots, weights=np.asarray(values, dtype=np.float64),
            minlength=self.n_slots,
        )

    def at_cells(self, sums: np.ndarray) -> np.ndarray:
        """Per-slot sums as one value per occupied cell, in the order of
        :attr:`rows` / :attr:`cols`."""
        return sums if self.cells is not None else sums[self.occupied_cells]

    def dense_stack(self, sums_list: list[np.ndarray], dtype=np.float64,
                    cast=None):
        """(n_agg, g, k) stacked operand: shared coordinates, one slice of
        per-slot sums (:meth:`cell_sums`) per aggregate, and the
        ``(n_agg, 1, 1)`` scales of the ``cast`` (``None`` without one).
        ``dtype`` and ``cast`` are the active backend's fill format
        (:meth:`~repro.tensor.backend.TensorBackend.fill_format`):
        float32 stacks feed sgemm directly, and a cast runs over each
        slice's per-slot sums — one value per occupied cell — before
        placement.  Addressed sums are the flat slices already: one slot
        is returned as its sums, unconverted (the backend's product
        converts what it reads), more are copied into one stack; ranked
        sums scatter to their cells."""
        scale = None
        if cast is not None:
            sums_list, scales = zip(*map(cast, sums_list))
            scale = np.array(scales).reshape(-1, 1, 1)
        addressed = self.cells is None
        if addressed and len(sums_list) == 1:
            return sums_list[0].reshape(1, self.g, self.k), scale
        stack = (np.empty if addressed else np.zeros)(
            (len(sums_list), self.g * self.k), dtype=dtype)
        where = slice(None) if addressed else self.cells
        for i, sums in enumerate(sums_list):
            stack[i, where] = sums
        return stack.reshape(len(sums_list), self.g, self.k), scale


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
        return bool(structure.presence.reshape(structure.g, structure.k)
                    [:, k0:k0 + self.chunk].any())

    def fills(self, c: int, sums_list: list[np.ndarray], dtype,
              cast=None):
        """Chunk ``c`` of every operand of ``sums_list`` (one value per
        slot each, :meth:`OperandStructure.cell_sums`), C-contiguous,
        generated one at a time with its scale.  A ``cast`` (the
        backend's fill format) runs over the chunk's own values, so each
        chunk carries its own scale; without one the scale is None."""
        structure = self.structure
        g, k = structure.g, structure.k
        k0 = c * self.chunk
        scale = None
        if structure.cells is None:
            for sums in sums_list:
                values = sums.reshape(g, k)[:, k0:k0 + self.chunk]
                if cast is not None:
                    values, scale = cast(values)
                yield np.ascontiguousarray(values, dtype=dtype), scale
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
            values = sums[index]
            if cast is not None:
                values, scale = cast(values)
            out = np.zeros(g * width, dtype=dtype)
            out[offsets] = values
            yield out.reshape(g, width), scale


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
    return OperandStructure(
        g=side.g, k=k, slots=slots, cells=cells,
        cross_rows=side.group is not None and len(side.group.labels) > 1)


def all_present(left: OperandStructure, right: OperandStructure) -> bool:
    """Whether every cell (i, j) of the product provably holds a tuple,
    read from operand occupancy with no product: one side occupies every
    (row, key) cell, and every row j of the other holds a tuple at some
    key k0 — which the full side occupies in every row i, so (i, j) has
    a pair through k0.  COUNT weights are multiplicities >= 1, so that
    cell's count is > 0."""
    return ((left.full and right.rows_occupied)
            or (right.full and left.rows_occupied))


def reads_count(aggregates) -> bool:
    """Whether an aggregate reads the COUNT grid: COUNT itself (HAVING
    COUNT included: it adds a spec) and AVG's divisor."""
    return any(spec.func != "sum" for spec in aggregates)


def product_slots(left: OperandStructure, right: OperandStructure,
                  left_sums, right_sums, aggregates):
    """The fill slots one product multiplies, decided once, by the
    producing ``ValueFill``.  Slot 0, the COUNT grid, runs only when
    something reads it: an aggregate (:func:`reads_count`), or cell
    presence that :func:`all_present` does not prove.  A unit slot 0
    arrives uncounted (None) and is counted here, only then.  Returns
    both sides' slot sums, slot 0 None where it does not run — what
    :meth:`TCUDriver._grids_numeric` multiplies."""
    if all_present(left, right) and not reads_count(aggregates):
        return [None, *left_sums[1:]], [None, *right_sums[1:]]
    return _counted(left, left_sums), _counted(right, right_sums)


def _counted(structure: OperandStructure, sums):
    if sums[0] is not None:
        return sums
    return [structure.cell_sums(None), *sums[1:]]


def _run_slots(left_sums, right_sums):
    """The slot sums a product multiplies, and whether slot 0 (the
    COUNT grid) is among them: it is unless :func:`product_slots` left
    it None, on both sides."""
    if left_sums[0] is None:
        assert right_sums[0] is None
        return left_sums[1:], right_sums[1:], False
    return left_sums, right_sums, True


class TCUDriver:
    """Executes TCU plans on a simulated device.

    ``chunk_rows`` (``None``: the storage layer's chunk-size policy,
    resolved once here) drives morsel-driven numeric execution:
    aggregate grids accumulate over key-domain chunks (each operand
    slice is at most ``g x chunk_rows`` cells) and numeric join
    products chunk the probe rows, extracting nonzero pairs per product
    slice.  Chunked accumulation is what keeps large-``k`` products on
    the bit-accurate numeric path with bounded memory; an operand no
    wider than one chunk multiplies whole.
    """

    def __init__(self, device: GPUDevice, chunk_rows: int | None = None,
                 backend: str | None = None):
        self.device = device
        self.chunk_rows = chunk_rows_policy(chunk_rows)
        # Kernel-primitive layer: "sim" (the simulated unit, the oracle)
        # or "fast" (optimized NumPy/BLAS); see
        # repro.tensor.backend for the selection policy and the
        # equivalence contract.
        self.backend = get_backend(backend)

    # -- numeric-emulation gates (shared with the TensorProgram ops) -------- #

    def use_numeric_join(self, prepared: PreparedJoin,
                         mode: ExecutionMode) -> bool:
        """True when the join product can run bit-accurate TCU emulation.

        Whole, every dense piece (left operand, right operand, the
        product) must fit the cell budget.  Chunked, the probe rows
        stream: only one ``chunk x k`` operand slice and one ``chunk x m``
        product slice live at a time, so the left row count stops being a
        limit — the build side still must fit.
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
        chunk = min(self.chunk_rows, max(n, 1))
        return (
            m * k <= NUMERIC_CELL_LIMIT
            and chunk * m <= NUMERIC_CELL_LIMIT
            and chunk * k <= NUMERIC_CELL_LIMIT
        )

    def use_numeric_grid(self, g1: int, g2: int, k: int) -> bool:
        """True when the aggregate grids can run bit-accurate numerics.

        Whatever the plan's strategy, both operands materialize one
        key-domain chunk at a time: the key domain streams through the
        unit in ``chunk_rows`` column slices of the prepared operand
        (:class:`ColumnSlices`: a view of at most 2**20 addressed cells,
        or O(nnz) ranked cells plus one ``(g, chunk)`` slice pair) and
        only the ``g x chunk`` slices plus the output grid need fit.
        """
        k_slice = min(k, self.chunk_rows)
        return (
            g1 * g2 <= NUMERIC_CELL_LIMIT
            and g1 * k_slice <= NUMERIC_CELL_LIMIT
            and g2 * k_slice <= NUMERIC_CELL_LIMIT
        )

    @staticmethod
    def join_operand_matrices(
        prepared: PreparedJoin,
        backend=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense indicator/comparison operand matrices of one join
        (Sections 3.1/3.4), as the TensorProgram ``Gemm`` operator
        multiplies them.  ``backend`` supplies the dense-from-COO fill
        kernel (``None``: the simulator's)."""
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
        if n > self.chunk_rows:
            return self._join_pairs_chunked(prepared, plan)
        left, right = self.join_operand_matrices(prepared, self.backend)
        product = self.backend.matmul(self.device, left, right.T,
                                      plan.precision)
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
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        for start in range(0, n, chunk):
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
            product = self.backend.matmul(self.device, left, right,
                                          plan.precision)
            rows, cols = self.backend.nonzero(product > 0)
            rows_parts.append(rows + start)
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
                       aggregates, plan: PlanCost, magnitudes=None):
        """Every grid of one aggregate product (``Gemm``, fused or not).

        The producing ``ValueFill`` built each side's indicator structure
        and every fill slot's per-cell sums once (slot 0 = COUNT grid,
        then one per non-COUNT aggregate), slot 0 None when
        :func:`product_slots` decided it does not run.  The slots handed
        are multiplied in key-domain column slices when ``k`` outgrows
        ``chunk_rows``, or whole — an (n_agg, g, k) stack and a single
        stacked matmul, whose product keeps the backend's dtype (int64
        at the integer precisions).  The plan's strategy priced the
        product and does not change it: only its precision is read.
        ``magnitudes`` bound each side's ``max|v|`` over the slots
        handed, when every one of them is integral (the range test's
        :attr:`~repro.engine.tcudb.feasibility.FeasibilityReport.integral_magnitudes`;
        None otherwise): the backend's integer product reads them
        instead of the operands.
        Returns ``(grids, count_grid, present)`` (:func:`_grids_of`).
        """
        left_sums, right_sums, counted = _run_slots(left_sums, right_sums)
        if not left_sums:
            stacked = []
        elif left.k > self.chunk_rows:
            stacked = np.stack(self._grids_by_slices(
                left, right, left_sums, right_sums, plan, magnitudes))
        else:
            dtype, cast = self.backend.fill_format(plan.precision)
            a_stack, a_scale = left.dense_stack(left_sums, dtype, cast)
            b_stack, b_scale = right.dense_stack(right_sums, dtype, cast)
            stacked = self.backend.matmul(
                self.device, a_stack, b_stack.transpose(0, 2, 1),
                plan.precision, scale=_times(a_scale, b_scale),
                magnitudes=magnitudes)
        return _grids_of(stacked, aggregates, counted,
                         all_present(left, right))

    def _grids_by_slices(self, left: OperandStructure,
                         right: OperandStructure, left_sums, right_sums,
                         plan: PlanCost,
                         magnitudes=None) -> list[np.ndarray]:
        """Grid-wise accumulation over key-domain chunks — the tiled
        matmul identity ``A @ B.T == sum_c A[:, c] @ B[:, c].T`` over
        column slices ``c`` of the prepared operands.  A chunk either
        side leaves empty is skipped, and one slice pair is live at a
        time, so the numeric path scales to any key-domain size.  The
        backend adds each chunk's product straight into the output grid
        (``matmul_into``), reusing one scratch buffer across all chunks.
        """
        chunk = self.chunk_rows
        dtype, cast = self.backend.fill_format(plan.precision)
        left_slices = ColumnSlices(left, chunk)
        right_slices = ColumnSlices(right, chunk)
        grids = [np.zeros((left.g, right.g)) for _ in left_sums]
        for c in range(-(-left.k // chunk)):
            if not (left_slices.occupied(c) and right_slices.occupied(c)):
                continue
            for grid, (mat_a, scale_a), (mat_b, scale_b) in zip(
                    grids, left_slices.fills(c, left_sums, dtype, cast),
                    right_slices.fills(c, right_sums, dtype, cast)):
                self.backend.matmul_into(grid, self.device, mat_a, mat_b.T,
                                         plan.precision,
                                         scale=_times(scale_a, scale_b),
                                         magnitudes=magnitudes)
        return grids

    @staticmethod
    def _grids_semantic(left: OperandStructure, right: OperandStructure,
                        left_sums, right_sums, aggregates):
        """The exact-key equivalent of :meth:`_grids_numeric`, for
        products too large to emulate: the occupied cells of the two
        operands join on their column, in float64 (placed sums may be
        float32)."""
        left_sums, right_sums, counted = _run_slots(left_sums, right_sums)
        left_idx, right_idx = equi_join_indices(left.cols, right.cols)
        cell = left.rows[left_idx] * right.g + right.rows[right_idx]
        return _grids_of([
            np.bincount(
                cell,
                weights=np.multiply(left.at_cells(lsums)[left_idx],
                                    right.at_cells(rsums)[right_idx],
                                    dtype=np.float64),
                minlength=left.g * right.g,
            ).reshape(left.g, right.g)
            for lsums, rsums in zip(left_sums, right_sums)
        ], aggregates, counted, all_present(left, right))


def _times(scale_a, scale_b):
    """The scale a product of two cast operands carries back: None when
    the fills ran no cast."""
    return None if scale_a is None else scale_a * scale_b


def _grids_of(slots, aggregates, counted: bool, proven: bool):
    """``(grids, count_grid, present)`` of a product's slot grids: one
    grid per aggregate (every COUNT aggregate shares the COUNT grid), the
    COUNT grid when slot 0 was multiplied (``counted``) else None, and the
    mask of cells holding a tuple — None when every cell provably does
    (``proven``), else the COUNT grid's ``> 0``."""
    count_grid = slots[0] if counted else None
    values = iter(slots[1:] if counted else slots)
    grids = [count_grid if spec.func == "count" else next(values)
             for spec in aggregates]
    return grids, count_grid, None if proven else count_grid > 0
