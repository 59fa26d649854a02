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

    One :func:`unique_inverse` over the concatenation yields the domain
    and both remappings in a single pass: a presence table when the keys
    are dense integers, one sort otherwise.
    """
    n = int(np.asarray(left_keys).size)
    values, inverse = unique_inverse(np.concatenate([left_keys, right_keys]))
    return KeyDomain(
        values=values,
        left=inverse[:n],
        right=inverse[n:],
    )


def mapped_pair_count(left_codes: np.ndarray, right_codes: np.ndarray,
                      k: int) -> int:
    """Exact equi-join pair count for codes already mapped onto a domain
    of size ``k``: one histogram per side and a dot product — O(n + k),
    versus the sort-based count's O(n log n)."""
    left_hist = np.bincount(np.asarray(left_codes, dtype=np.int64),
                            minlength=max(k, 1))
    right_hist = np.bincount(np.asarray(right_codes, dtype=np.int64),
                             minlength=max(k, 1))
    return int(np.dot(left_hist, right_hist))


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

