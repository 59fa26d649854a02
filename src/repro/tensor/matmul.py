"""Analytic prices of the TCU GEMM strategies (Section 4.2).

The optimizer prices a product three ways — one in-memory WMMA GEMM, the
blocked, pipelined MSplitGEMM for working sets beyond device memory
(Section 4.2.3), and the tiled TCU-SpMM (Section 4.2.4, priced from
:mod:`repro.tensor.tiled`'s tile-pair estimates).  All three compute the
same product, so only their cost is modelled here: the host runs one
backend product whichever is chosen
(:meth:`repro.tensor.backend.TensorBackend.matmul`).

* :func:`dense_gemm_seconds` — Equation 3 on the tensor cores.
* :func:`msplit_gemm_seconds` — per stage the slower of DMA and MMA
  (streams overlap them), over the submatrix geometry
  :func:`plan_blocked_gemm` picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.tensor.precision import Precision

if TYPE_CHECKING:
    from repro.hardware.gpu import GPUDevice

# Fraction of peak a well-tuned blocked pipeline sustains (paper 4.2.3:
# TCUDB tunes submatrix sizes to balance pipeline stages).
BLOCKED_EFFICIENCY = 0.7


def dense_gemm_seconds(
    device: GPUDevice, m: int, n: int, k: int,
    precision: Precision = Precision.FP16,
) -> float:
    return device.tcu.matmul_seconds(m, n, k, precision)


@dataclass(frozen=True)
class BlockedPlan:
    """Chosen submatrix geometry for an out-of-memory GEMM."""

    block_m: int
    block_n: int
    block_k: int
    n_stages: int
    bytes_per_stage: float


def plan_blocked_gemm(
    device: GPUDevice, m: int, n: int, k: int,
    precision: Precision = Precision.FP16,
    memory_budget: float | None = None,
) -> BlockedPlan:
    """Pick submatrix sizes whose working set fits the memory budget.

    MSplitGEMM double-buffers one A-block, one B-block and one C-block;
    we choose the largest square-ish block split that fits in a third of
    the budget (triple buffering for the pipeline).
    """
    if memory_budget is None:
        memory_budget = device.memory.available * 0.9
    elem = precision.bytes_per_element
    splits = 1
    while True:
        block_m = -(-m // splits)
        block_n = -(-n // splits)
        block_k = -(-k // splits)
        stage_bytes = (
            block_m * block_k * elem
            + block_k * block_n * elem
            + block_m * block_n * 4.0  # fp32/int32 accumulator tile
        )
        if stage_bytes * 3 <= memory_budget or splits >= 4096:
            n_stages = splits ** 3
            return BlockedPlan(block_m, block_n, block_k, n_stages, stage_bytes)
        splits *= 2


def msplit_gemm_seconds(
    device: GPUDevice, m: int, n: int, k: int,
    precision: Precision = Precision.FP16,
    memory_budget: float | None = None,
) -> tuple[float, BlockedPlan]:
    """Pipelined blocked-GEMM latency: per stage, the slower of DMA and
    MMA (streams overlap them), plus one pipeline fill."""
    plan = plan_blocked_gemm(device, m, n, k, precision, memory_budget)
    compute_per_stage = (
        2.0 * plan.block_m * plan.block_n * plan.block_k
        / (device.profile.tcu_tflops(precision) * 1e12 * BLOCKED_EFFICIENCY)
    )
    transfer_per_stage = plan.bytes_per_stage / device.profile.pcie_bandwidth
    stage = max(compute_per_stage, transfer_per_stage)
    fill = compute_per_stage + transfer_per_stage - stage
    return (
        device.profile.kernel_launch_s + fill + stage * plan.n_stages,
        plan,
    )
