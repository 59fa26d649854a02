"""Table -> matrix transformation (Section 3 constructions, Section 4.2 costs).

Given join-key columns, the transformer derives the union key domain
dom(A.ID) | dom(B.ID), remaps tuples onto it, and produces the COO triples
of the paper's matrix encodings:

* indicator matrices  mat[i, j] = 1      (joins, COUNT)
* value matrices      mat[i, j] = value  (SUM/AVG over joins)
* grouped matrices    rows indexed by group keys, duplicates summed
  (the "adjacency" construction of Section 3.1 / Lemma 3.1)

Two cost paths mirror Equations (1) and (2):

* CPU transformation: the host fills matrices at ``alpha`` per element and
  ships the *matrices* over PCIe.
* GPU-assisted transformation: raw key/value columns ship over PCIe and
  the GPU's thousands of lanes scatter them into device-resident matrices
  (zero-init charged at memory bandwidth) — only feasible when raw data
  plus the working set fit device memory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import HostProfile
from repro.tensor.keys import unique_inverse


@dataclass(frozen=True)
class KeyDomain:
    """Union domain of two join-key columns with remapped tuple codes."""

    values: np.ndarray  # sorted distinct key values (codes for strings)
    left: np.ndarray  # left tuples' positions in `values`
    right: np.ndarray  # right tuples' positions in `values`

    @property
    def k(self) -> int:
        return int(self.values.size)


def union_key_domain(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> KeyDomain:
    """dom(A.ID) | dom(B.ID) with both columns remapped onto it.

    One :func:`unique_inverse` over both columns yields the domain and
    both remappings in a single pass: a presence table when the keys are
    dense integers, one sort otherwise.
    """
    values, left, right = unique_inverse(left_keys, right_keys)
    return KeyDomain(values=values, left=left, right=right)


def mapped_pair_count(left_codes: np.ndarray, right_codes: np.ndarray,
                      k: int) -> int:
    """Exact equi-join pair count for codes already mapped onto a domain
    of size ``k``: one histogram per side and a dot product — O(n + k),
    versus the sort-based count's O(n log n)."""
    return int(np.dot(_key_histogram(left_codes, k),
                      _key_histogram(right_codes, k)))


def _key_histogram(codes: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(np.asarray(codes, dtype=np.int64), minlength=max(k, 1))


# Pairs per block of :meth:`PairRuns.right`: the block's positions and
# one gathered slice stay cache-resident.  Measured on ``em_blocking``
# (quiet geomean): 24.3 ms at 2**16 pairs, 25.9 at 2**14, 26.5 at 2**18,
# 33.9 at 2**20 (the block leaves the cache), 36.5 at 2**12 (per-block
# overhead).
PAIR_BLOCK = 1 << 16


class PairRuns:
    """Exact equi-join pair list in run-length form.

    Built from key codes already mapped onto ``0..k-1``.  Pairs are
    left-major with each left row's matching right rows in input order —
    the order ``nonzero`` of the dense indicator product gives — but only
    O(n + m + k) state is held: where each left row's run of pairs ends
    in the pair list (``run_end``) and the right rows grouped by key
    (``order``).
    :meth:`left` and :meth:`right` lay columns out over the pairs and
    are the only code that touches anything of pair-list length; index
    arrays are ``intp``, which ``take`` and ``repeat`` use without a
    converted copy.
    """

    def __init__(self, left_codes: np.ndarray, right_codes: np.ndarray,
                 k: int):
        per_key = _key_histogram(right_codes, k)
        # The narrowest code dtype: NumPy radix-sorts 16-bit integers.
        self.order = np.argsort(
            np.asarray(right_codes).astype(np.min_scalar_type(k)),
            kind="stable")
        counts = per_key[left_codes]
        self.run_end = np.cumsum(counts)
        # order[_shift[row] + p] is the right row of pair ``p``, one of
        # left row ``row``'s.
        self._shift = ((np.cumsum(per_key) - per_key)[left_codes]
                       - (self.run_end - counts))

    @property
    def n_pairs(self) -> int:
        return int(self.run_end[-1]) if self.run_end.size else 0

    def head(self, limit: int) -> "PairRuns":
        """The first ``limit`` pairs: runs clipped, nothing expanded."""
        clipped = copy.copy(self)
        clipped.run_end = np.minimum(self.run_end, limit)
        return clipped

    def left(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        """Left-side columns (one value per left row) over the pairs."""
        counts = np.diff(self.run_end, prepend=0)
        return [np.repeat(column, counts) for column in columns]

    def right(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        """Right-side columns (one value per right row) over the pairs.

        Each column is first grouped by key (one m-length gather), so a
        run reads consecutive positions; positions are then computed one
        block of pairs at a time, shared by all columns, and each
        column is gathered by them (bounds-checked) into its output."""
        n_pairs = self.n_pairs
        columns = [column[self.order] for column in columns]
        outs = [np.empty(n_pairs, dtype=column.dtype) for column in columns]
        ramp = np.arange(PAIR_BLOCK)
        for begin in range(0, n_pairs, PAIR_BLOCK):
            end = min(begin + PAIR_BLOCK, n_pairs)
            # Runs overlapping [begin, end): only the first can start
            # before the block and only the last can end after it.
            first = np.searchsorted(self.run_end, begin, side="right")
            last = np.searchsorted(self.run_end, end, side="left") + 1
            sizes = np.diff(np.minimum(self.run_end[first:last], end),
                            prepend=begin)
            positions = np.repeat(self._shift[first:last] + begin, sizes)
            positions += ramp[:end - begin]
            for column, out in zip(columns, outs):
                # Not take(..., out=): bounds-checked, it copies ``out``
                # in and back, a second fault on every fresh page.
                out[begin:end] = column[positions]
        return outs


@dataclass(frozen=True)
class PairIndex:
    """A materialized pair list with :class:`PairRuns`' interface:
    ``nonzero`` of a numeric product, a non-equi join, or (``cols``
    None) the rows a mask kept."""

    rows: np.ndarray
    cols: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        return int(self.rows.size)

    def head(self, limit: int) -> "PairIndex":
        cols = None if self.cols is None else self.cols[:limit]
        return PairIndex(self.rows[:limit], cols)

    def left(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        return [column[self.rows] for column in columns]

    def right(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        return [column[self.cols] for column in columns]


@dataclass(frozen=True)
class SideMatrix:
    """One operand of a TCU operator in COO form.

    ``rows``/``cols``/``vals`` follow the paper's constructions; ``shape``
    is (rows_dim, k).  ``row_labels`` carries the group-key values (or
    tuple indices) each matrix row stands for, used to assemble results.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]
    row_labels: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def to_dense(self) -> np.ndarray:
        from repro.tensor.coo import dense_from_coo

        return dense_from_coo(self.rows, self.cols, self.vals, self.shape)


def tuple_matrix(mapped_keys: np.ndarray, k: int,
                 values: np.ndarray | None = None) -> SideMatrix:
    """Section 3.1: one row per tuple; mat[i, j] = 1 (or the tuple value)
    iff tuple i's key maps to domain position j."""
    n = int(mapped_keys.size)
    vals = np.ones(n) if values is None else np.asarray(values, dtype=np.float64)
    return SideMatrix(
        rows=np.arange(n, dtype=np.int64),
        cols=np.asarray(mapped_keys, dtype=np.int64),
        vals=vals,
        shape=(n, k),
        row_labels=None,
    )


def grouped_matrix(mapped_keys: np.ndarray, k: int,
                   group_codes: np.ndarray | None = None,
                   values: np.ndarray | None = None) -> SideMatrix:
    """Grouped/adjacency construction: one row per distinct group key.

    mat[i, j] = sum of tuple values with group key u_i and join key v_j
    (bag semantics — duplicates accumulate, which is what SUM over a join
    requires).  With ``group_codes`` None the side collapses to a single
    row: the paper's 1-vector reduction pre-applied.
    """
    n = int(mapped_keys.size)
    vals = np.ones(n) if values is None else np.asarray(values, dtype=np.float64)
    if group_codes is None:
        rows = np.zeros(n, dtype=np.int64)
        labels = np.array([0], dtype=np.int64)
        g = 1
    else:
        labels, rows = unique_inverse(group_codes)
        g = int(labels.size)
    return SideMatrix(
        rows=rows,
        cols=np.asarray(mapped_keys, dtype=np.int64),
        vals=vals,
        shape=(max(g, 1), k),
        row_labels=labels,
    )


def comparison_matrix(mapped_keys: np.ndarray, domain: np.ndarray,
                      op: str) -> SideMatrix:
    """Section 3.4 non-equi encoding: mat[i, j] = 1 iff key_i op v_j.

    Dense by construction (up to n*k nonzeros); returned in COO so the
    same downstream kernels apply.
    """
    keys = np.asarray(mapped_keys)
    n, k = keys.size, domain.size
    key_values = domain[keys]
    if op == "<":
        counts = k - np.searchsorted(domain, key_values, side="right")
        starts = np.searchsorted(domain, key_values, side="right")
    elif op == "<=":
        counts = k - np.searchsorted(domain, key_values, side="left")
        starts = np.searchsorted(domain, key_values, side="left")
    elif op == ">":
        counts = np.searchsorted(domain, key_values, side="left")
        starts = np.zeros(n, dtype=np.int64)
    elif op == ">=":
        counts = np.searchsorted(domain, key_values, side="right")
        starts = np.zeros(n, dtype=np.int64)
    elif op in ("<>", "!="):
        rows = np.repeat(np.arange(n), k - 1)
        grid = np.tile(np.arange(k), n).reshape(n, k)
        mask = grid != keys[:, None]
        cols = grid[mask]
        return SideMatrix(rows=rows, cols=cols, vals=np.ones(rows.size),
                          shape=(n, k))
    else:
        raise ValueError(f"unsupported comparison {op!r}")
    total = int(counts.sum())
    rows = np.repeat(np.arange(n), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.repeat(starts, counts) + offsets
    return SideMatrix(rows=rows, cols=cols, vals=np.ones(total), shape=(n, k))


# --------------------------------------------------------------------------- #
# Transformation cost paths (Equations 1 and 2)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TransformCost:
    """DT_op and DM_op of getting one operator's matrices device-resident."""

    fill_seconds: float  # DT_op
    memcpy_seconds: float  # DM_op
    on_gpu: bool

    @property
    def total(self) -> float:
        return self.fill_seconds + self.memcpy_seconds


def cpu_transform_cost(
    host: HostProfile,
    device: GPUDevice,
    n_tuples: int,
    matrix_bytes: float,
) -> TransformCost:
    """Equation (1): fill on the host (alpha per qualifying record, plus a
    streaming pass over the matrix buffers), then move the matrices."""
    fill = n_tuples * host.fill_elem_s + matrix_bytes / 8e9
    memcpy = device.h2d_seconds(matrix_bytes)
    return TransformCost(fill_seconds=fill, memcpy_seconds=memcpy, on_gpu=False)


def gpu_transform_cost(
    host: HostProfile,
    device: GPUDevice,
    n_tuples: int,
    raw_bytes: float,
    matrix_bytes: float,
) -> TransformCost:
    """Equation (2): ship raw columns, zero-init + scatter on the GPU."""
    memcpy = device.h2d_seconds(raw_bytes)
    fill = (
        device.cuda.fill_matrix_seconds(n_tuples)
        + device.cuda.zero_init_seconds(matrix_bytes)
    )
    return TransformCost(fill_seconds=fill, memcpy_seconds=memcpy, on_gpu=True)


def best_transform_cost(
    host: HostProfile,
    device: GPUDevice,
    n_tuples: int,
    raw_bytes: float,
    matrix_bytes: float,
    gpu_feasible: bool,
) -> TransformCost:
    """Pick the cheaper of the CPU and GPU-assisted paths (Section 4.2.2:
    'TCUDB still needs to evaluate the summation of DM_op and DT_op to
    determine the most appropriate data transformation method')."""
    cpu = cpu_transform_cost(host, device, n_tuples, matrix_bytes)
    if not gpu_feasible:
        return cpu
    gpu = gpu_transform_cost(host, device, n_tuples, raw_bytes, matrix_bytes)
    return gpu if gpu.total < cpu.total else cpu

