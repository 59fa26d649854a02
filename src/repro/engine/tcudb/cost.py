"""Cost estimation for TCU-accelerated plans (Section 4.2.2).

A plan's estimated cost is DT_op + DM_op + CT_op:

* DT_op / DM_op come from :mod:`repro.engine.tcudb.transform` (Equations
  1 and 2, CPU vs GPU-assisted transformation);
* CT_op follows Equation (3) at the precision's peak rate, replaced by
  the measured blocked/pipelined rate for out-of-memory inputs and by
  the tile-stream rate scaled by input density for sparse inputs.

The same geometry also prices the conventional GPU (YDB hash-join) and
CPU plans so the optimizer can run Figure 6's final comparison.  All
estimators work from :class:`OperatorGeometry` — plain numbers — so
benchmarks can project paper-scale configurations without materializing
data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.engine.tcudb.transform import (
    TransformCost,
    best_transform_cost,
)
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import HostProfile
from repro.tensor.matmul import msplit_gemm_seconds
from repro.tensor.precision import Precision
from repro.tensor.tiled import estimate_tile_pairs


class Strategy(enum.Enum):
    DENSE = "dense"  # one cuBLAS/WMMA GEMM (TCUJoin)
    BLOCKED = "blocked"  # MSplitGEMM streaming GEMM
    SPARSE = "sparse"  # TCU-SpMM over non-empty 16x16 tiles


@dataclass(frozen=True)
class OperatorGeometry:
    """Dimensions and cardinalities of one TCU operator invocation."""

    g1: int  # rows of the left matrix (tuples or group keys)
    g2: int  # rows of the right matrix
    k: int  # join-key domain size (inner dimension)
    nnz_left: int  # stored entries of the left matrix
    nnz_right: int
    n_tuples: int  # qualifying records scanned to build the matrices
    raw_bytes: float  # raw column bytes the GPU-assisted path must ship
    result_rows: int  # rows the operator emits (pairs or non-empty groups)
    n_matmuls: int = 1  # aggregates may need value + count products
    needs_nonzero: bool = True  # join patterns extract nonzero coordinates
    # Value-filled matrices (SUM aggregates) scatter with duplicate
    # accumulation — atomic conflicts make each record ~4x costlier to
    # place than an indicator fill.
    fill_scale: float = 1.0

    def fill_tuples(self) -> int:
        """Qualifying-record placements the transformation must perform:
        one shared fill, however many grids the product stacks."""
        return int(self.n_tuples * self.fill_scale)

    @property
    def density_left(self) -> float:
        cells = self.g1 * self.k
        return self.nnz_left / cells if cells else 0.0

    @property
    def density_right(self) -> float:
        cells = self.g2 * self.k
        return self.nnz_right / cells if cells else 0.0

    @property
    def min_density(self) -> float:
        return min(self.density_left, self.density_right)

    def matrix_bytes(self, precision: Precision) -> float:
        per = precision.bytes_per_element
        return (self.g1 * self.k + self.g2 * self.k) * per

    def output_bytes(self) -> float:
        # fp32/int32 accumulator grid.
        return self.g1 * self.g2 * 4.0

    def working_set_bytes(self, precision: Precision) -> float:
        return self.matrix_bytes(precision) + self.output_bytes()


@dataclass(frozen=True)
class PlanCost:
    """Cost breakdown of one candidate TCU plan."""

    strategy: Strategy
    precision: Precision
    transform: TransformCost
    compute_seconds: float  # CT_op
    result_seconds: float  # nonzero + result transfer
    n_blocks: int = 1

    @property
    def total(self) -> float:
        return self.transform.total + self.compute_seconds + self.result_seconds


def _result_seconds(
    device: GPUDevice, geo: OperatorGeometry
) -> float:
    """nonzero() extraction over the result grid plus the (pipelined)
    transfer of result rows back to the host."""
    seconds = 0.0
    if geo.needs_nonzero:
        seconds += device.cuda.nonzero_seconds(geo.g1 * geo.g2, geo.result_rows)
    seconds += device.d2h_seconds(geo.result_rows * 8.0, overlap=True)
    return seconds


def estimate_dense(
    device: GPUDevice,
    host: HostProfile,
    geo: OperatorGeometry,
    precision: Precision,
    allow_gpu_transform: bool = True,
) -> PlanCost:
    """Single in-memory GEMM (the TCUJoin fast path)."""
    matrix_bytes = geo.matrix_bytes(precision)
    gpu_feasible = allow_gpu_transform and device.memory.fits(
        geo.raw_bytes + geo.working_set_bytes(precision)
    )
    transform = best_transform_cost(
        host, device, geo.fill_tuples(), geo.raw_bytes,
        matrix_bytes, gpu_feasible,
    )
    compute = (
        device.tcu.matmul_seconds(geo.g1, geo.g2, geo.k, precision)
        * geo.n_matmuls
    )
    return PlanCost(
        strategy=Strategy.DENSE,
        precision=precision,
        transform=transform,
        compute_seconds=compute,
        result_seconds=_result_seconds(device, geo),
    )


def estimate_blocked(
    device: GPUDevice,
    host: HostProfile,
    geo: OperatorGeometry,
    precision: Precision,
) -> PlanCost:
    """MSplitGEMM streaming GEMM for working sets beyond device memory.

    The transformation must run on the CPU (matrices cannot be device
    resident in full); submatrix transfers overlap with compute inside
    ``msplit_gemm_seconds``.
    """
    from repro.engine.tcudb.transform import cpu_transform_cost

    matrix_bytes = geo.matrix_bytes(precision)
    transform = cpu_transform_cost(
        host, device, geo.fill_tuples(), 0.0
    )
    # Matrix traffic is part of the pipelined GEMM below, so the CPU
    # transform here charges only the host-side fill.
    compute, plan = msplit_gemm_seconds(
        device, geo.g1, geo.g2, geo.k, precision,
        memory_budget=device.memory.available * 0.9,
    )
    compute += matrix_bytes / device.profile.pcie_bandwidth
    compute *= geo.n_matmuls
    return PlanCost(
        strategy=Strategy.BLOCKED,
        precision=precision,
        transform=transform,
        compute_seconds=compute,
        result_seconds=_result_seconds(device, geo),
        n_blocks=plan.n_stages,
    )


def estimate_sparse(
    device: GPUDevice,
    host: HostProfile,
    geo: OperatorGeometry,
    precision: Precision,
    tile_pairs: float | None = None,
    allow_gpu_transform: bool = True,
) -> PlanCost:
    """TCU-SpMM: CSR build + 16x16 tiling + MMA over non-empty tiles.

    Costs follow Section 4.2.4: the dense compute cost scaled by input
    density (realized here by charging only surviving tile pairs), plus a
    linear scan to construct/partition/filter the inputs.
    """
    if tile_pairs is None:
        tile_pairs = estimate_tile_pairs(
            (geo.g1, geo.k), geo.nnz_left, (geo.k, geo.g2), geo.nnz_right
        )
    # Sparse operands ship in CSR, not dense: nnz * (value + index).
    csr_bytes = (geo.nnz_left + geo.nnz_right) * (
        precision.bytes_per_element + 4.0
    )
    gpu_feasible = allow_gpu_transform and device.memory.fits(
        geo.raw_bytes + csr_bytes * 3
    )
    transform = best_transform_cost(
        host, device, geo.fill_tuples(), geo.raw_bytes,
        csr_bytes, gpu_feasible,
    )
    build = device.cuda.gather_seconds(geo.nnz_left + geo.nnz_right)
    compute = (
        device.tcu.spmm_seconds(int(tile_pairs), precision) * geo.n_matmuls
        + build
    )
    return PlanCost(
        strategy=Strategy.SPARSE,
        precision=precision,
        transform=transform,
        compute_seconds=compute,
        result_seconds=_result_seconds(device, geo),
    )


# -- non-GEMM operator estimates (TensorProgram per-operator costing) --------- #


def estimate_mask_apply(device: GPUDevice, rows: int) -> float:
    """CUDA-core cost of a predicate epilogue: the predicates ride the
    host operator's existing traversal (the operand fill, the pair
    extraction or the grid harvest), so one gather-rate pass over the
    masked rows, regardless of the conjunct count."""
    return device.cuda.gather_seconds(max(rows, 1))


def estimate_fold_step(host: HostProfile, device: GPUDevice,
                       fact_rows: int, dim_rows: int,
                       chained_fill_s: float) -> float:
    """One ``FoldJoin`` chained-join step: host fill of both sides, the
    per-qualifying-record matrix->table conversion, and the device-side
    gather of the folded columns."""
    return (
        fact_rows * chained_fill_s
        + (fact_rows + dim_rows) * host.fill_elem_s
        + device.cuda.gather_seconds(fact_rows)
    )


def estimate_fold_chain(host: HostProfile, device: GPUDevice,
                        step_sizes: list[tuple[int, int]],
                        chained_fill_s: float) -> float:
    """One fused ``FoldJoinChain``: a single ledger entry whose seconds
    are exactly the sum of the sequential per-step fold estimates.

    ``step_sizes`` holds one ``(fact_rows, dim_rows)`` pair per folded
    dimension, with ``fact_rows`` the survivor count *entering* that
    step.  The fusion is a host-side rewrite — the simulated kernel
    stream (fills, conversions, gathers) is unchanged — so the chain
    charges the exact sequential sum of its steps.
    """
    return sum(
        estimate_fold_step(host, device, fact_rows, dim_rows, chained_fill_s)
        for fact_rows, dim_rows in step_sizes
    )


def estimate_physical_stage(host: HostProfile, input_rows: int,
                            output_rows: int, n_joins: int) -> float:
    """Host cost of a hybrid ``PhysicalStage`` pre-join: hash passes over
    the scanned inputs plus pair materialization per join level."""
    return (
        input_rows * host.hash_row_s * 0.5
        + output_rows * host.join_pair_s * max(n_joins, 1)
    )


# -- baseline plan estimates (Figure 6's final comparison) -------------------- #


def estimate_gpu_baseline(
    device: GPUDevice,
    geo: OperatorGeometry,
    pairs: int,
    grouped: bool,
) -> float:
    """YDB-style hash-join (+ group-by) plan on the CUDA cores."""
    seconds = (
        device.h2d_seconds(geo.raw_bytes)
        + device.cuda.hash_build_seconds(geo.g2 if geo.g2 > 1 else geo.n_tuples // 2)
        + device.cuda.hash_probe_seconds(geo.n_tuples)
        + device.cuda.join_materialize_seconds(pairs)
    )
    if grouped:
        seconds += device.cuda.groupby_seconds(pairs, geo.result_rows)
    seconds += device.d2h_seconds(geo.result_rows * 8.0, overlap=True)
    return seconds


def estimate_cpu_baseline(
    host: HostProfile,
    geo: OperatorGeometry,
    pairs: int,
    grouped: bool,
) -> float:
    """MonetDB-style plan on the host cores."""
    seconds = (
        geo.n_tuples * host.hash_row_s * 0.5 + pairs * host.join_pair_s
    )
    if grouped:
        seconds += pairs * host.agg_pair_s
    return seconds


def candidate_precisions(choice_precision: Precision) -> list[Precision]:
    """Precisions the adaptive mixed-precision optimizer evaluates: the
    most compact feasible one plus every wider TCU type (a wider type is
    always feasible when a narrower one is)."""
    order = [Precision.INT4, Precision.INT8, Precision.FP16]
    index = order.index(choice_precision)
    return order[index:]
