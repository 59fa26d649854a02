"""Device-level matrix-multiplication kernels.

Three TCU execution strategies from Section 4.2 plus the CUDA-core
reference used by baseline plans:

* :func:`dense_gemm` — single cuBLAS/WMMA call when everything fits in
  device memory.
* :func:`msplit_gemm` — the blocked, pipelined MSplitGEMM extension for
  working sets beyond device memory (Section 4.2.3).  Submatrices stream
  over PCIe while previous blocks compute; the timing model overlaps
  transfer and compute and charges the slower of the two per stage.
* :func:`tcu_spmm` — the tiled sparse kernel (Section 4.2.4).

Each kernel returns ``(result, seconds)``; analytic variants
(``*_seconds``) cost a product from its dimensions without numerics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError
from repro.tensor.precision import Precision
from repro.tensor.tiled import TILE, TiledMatrix, tile_pair_count

# Fraction of peak a well-tuned blocked pipeline sustains (paper 4.2.3:
# TCUDB tunes submatrix sizes to balance pipeline stages).
BLOCKED_EFFICIENCY = 0.7


def dense_gemm(
    device: GPUDevice,
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision = Precision.FP16,
) -> tuple[np.ndarray, float]:
    """One in-memory TCU GEMM: numerics + Equation-3 timing."""
    result = device.tcu.matmul(a, b, precision)
    m, k = a.shape
    n = b.shape[1]
    return result, device.tcu.matmul_seconds(m, n, k, precision)


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


def msplit_gemm(
    device: GPUDevice,
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision = Precision.FP16,
    memory_budget: float | None = None,
    backend=None,
) -> tuple[np.ndarray, float]:
    """Blocked GEMM with real numerics: block-by-block TCU products
    accumulated in fp32/int32, exactly as the streaming kernel would.

    ``backend`` (a :class:`repro.tensor.backend.TensorBackend`) supplies
    the per-block product kernel; ``None`` uses the simulated unit
    directly, which is bit-identical to passing ``SimBackend``."""
    if a.shape[1] != b.shape[0]:
        raise ReproError(f"incompatible shapes {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    seconds, plan = msplit_gemm_seconds(device, m, n, k, precision, memory_budget)
    out_dtype = np.int64 if precision.is_integer else np.float64
    # The streaming kernel casts whole operands to fp16 once (with a single
    # power-of-two pre-scale); blocks must share that scale or block
    # boundaries would change the numerics relative to the dense kernel.
    rescale = 1.0
    if precision == Precision.FP16:
        from repro.tensor.precision import fp16_scale_factor

        scale_a = fp16_scale_factor(float(np.max(np.abs(a))) if a.size else 0.0)
        scale_b = fp16_scale_factor(float(np.max(np.abs(b))) if b.size else 0.0)
        a = np.asarray(a, dtype=np.float64) / scale_a
        b = np.asarray(b, dtype=np.float64) / scale_b
        rescale = scale_a * scale_b
    result = np.zeros((m, n), dtype=out_dtype)
    for i0 in range(0, m, plan.block_m):
        for j0 in range(0, n, plan.block_n):
            accumulator = np.zeros(
                (min(plan.block_m, m - i0), min(plan.block_n, n - j0)),
                dtype=out_dtype,
            )
            for k0 in range(0, k, plan.block_k):
                a_block = a[i0:i0 + plan.block_m, k0:k0 + plan.block_k]
                b_block = b[k0:k0 + plan.block_k, j0:j0 + plan.block_n]
                if backend is None:
                    accumulator += device.tcu.matmul(a_block, b_block,
                                                     precision)
                else:
                    accumulator += backend.matmul(device, a_block, b_block,
                                                  precision)
            result[i0:i0 + plan.block_m, j0:j0 + plan.block_n] = accumulator
    if rescale != 1.0:
        result = result * rescale
    return result, seconds


def tcu_spmm(
    device: GPUDevice,
    a: TiledMatrix,
    b: TiledMatrix,
    precision: Precision = Precision.FP16,
) -> tuple[TiledMatrix, float]:
    """Tiled sparse product: numerics via tile pairing, time per MMA issue.

    The construct/partition/filter scan cost (linear in the inputs, per
    Section 4.2.4) is charged by the caller as part of data
    transformation; this kernel charges only the MMA stream.
    """
    result, tile_pairs = a.spmm(b)
    return result, device.tcu.spmm_seconds(tile_pairs, precision)


def tcu_spmm_seconds(
    device: GPUDevice,
    a: TiledMatrix,
    b: TiledMatrix,
    precision: Precision = Precision.FP16,
) -> float:
    """Analytic TCU-SpMM latency from exact tile-pair counts."""
    return device.tcu.spmm_seconds(tile_pair_count(a, b), precision)


def cuda_gemm(
    device: GPUDevice, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, float]:
    """Reference dense GEMM on the CUDA cores (Figure 3's baseline)."""
    result = device.cuda.matmul(a, b)
    m, k = a.shape
    n = b.shape[1]
    return result, device.cuda.matmul_seconds(m, n, k)


def pad_to_tiles(matrix: np.ndarray) -> np.ndarray:
    """Zero-pad a dense matrix so both dimensions are multiples of 16.

    WMMA fragments operate on 16x16 tiles; cuBLAS pads internally, and we
    do the same before handing matrices to the tiled kernels.
    """
    rows, cols = matrix.shape
    pad_r = (-rows) % TILE
    pad_c = (-cols) % TILE
    if pad_r == 0 and pad_c == 0:
        return matrix
    return np.pad(matrix, ((0, pad_r), (0, pad_c)))


def matrix_bytes(m: int, n: int, precision: Precision) -> float:
    """Device bytes of an m x n matrix at a precision (int4 packs 2/byte)."""
    return m * n * precision.bytes_per_element


def gemm_flops(m: int, n: int, k: int) -> float:
    return 2.0 * m * n * k
