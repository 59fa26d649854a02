"""Simulated Tensor Core Unit.

Two concerns live here:

* **Timing** — a WMMA/cuBLAS GEMM of an (m x k) by (k x n) product costs
  ``2 m n k`` flops at the profile's peak TCU rate for the chosen
  precision, plus a kernel launch (paper Equation 3).

* **Numerics** — tensor cores are low-precision: fp16 inputs with fp32
  accumulation, or int8/int4 inputs with int32 accumulation.  We emulate
  this bit-accurately with numpy: casting operands to IEEE binary16
  reproduces the exact rounding real TCUs see, and accumulating in
  float32 reproduces the accumulator rounding that appears once partial
  sums exceed 2**24.  This is what regenerates the paper's Table 1 MAPE
  behaviour (zeros for 0/1 matrices, tiny errors growing with the value
  range and reduction length).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import PrecisionError
from repro.tensor.precision import (
    FP16_MAX,
    INT32_MAX,
    INTEGER_WINDOW,
    Precision,
    exact_integer_matmul,
    fp16_scale_factor,
    in_integer_window,
)

# WMMA fragment edge: tensor cores consume 16x16x16 tiles.
WMMA_TILE = 16


class TensorCoreUnit:
    """Timing + numeric emulation of a GPU's tensor cores."""

    def __init__(self, profile):
        self._profile = profile

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    def matmul_seconds(
        self, m: int, n: int, k: int, precision: Precision = Precision.FP16,
        efficiency: float = 1.0,
    ) -> float:
        """Dense GEMM latency: 2mnk flops at the peak rate (Equation 3)."""
        if min(m, n, k) < 0:
            raise ValueError("matrix dimensions must be non-negative")
        flops = 2.0 * m * n * k
        peak = self._profile.tcu_tflops(precision) * 1e12
        return self._profile.kernel_launch_s + flops / (peak * max(efficiency, 1e-6))

    def spmm_seconds(
        self, tile_pairs: int, precision: Precision = Precision.FP16,
        efficiency: float = 0.25,
    ) -> float:
        """TCU-SpMM latency: only non-empty 16^3 tile products are issued.

        ``tile_pairs`` counts (A-tile, B-tile) MMA issues after skipping
        all-zero tiles (Section 4.2.4).  Sparse tile streams run at a
        fraction of peak because operand fetches are irregular.
        """
        flops = 2.0 * tile_pairs * WMMA_TILE**3
        peak = self._profile.tcu_tflops(precision) * 1e12
        return self._profile.kernel_launch_s + flops / (peak * max(efficiency, 1e-6))

    # ------------------------------------------------------------------ #
    # Numerics
    # ------------------------------------------------------------------ #

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        precision: Precision = Precision.FP16,
    ) -> np.ndarray:
        """Numerically emulated tensor-core product of ``a @ b``.

        Returns float64 for fp16 inputs (values carry fp16+fp32 rounding)
        and int64 for integer precisions (bit-exact while in range).
        Stacked (batched) 3-D operands run as one broadcast product —
        the fused ``BatchedGemm`` path — with per-slice fp16 scaling so
        every slice rounds exactly as its standalone 2-D product would.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        batched = a.ndim == 3 and b.ndim == 3
        if batched:
            if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
                raise ValueError(
                    f"incompatible batched shapes {a.shape} @ {b.shape}"
                )
        elif a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
        if precision == Precision.FP16:
            return self._matmul_fp16(a, b)
        if precision in (Precision.INT8, Precision.INT4):
            return self._matmul_int(a, b, precision)
        raise PrecisionError(f"TCUs cannot execute precision {precision}")

    @staticmethod
    def _fp16_scales(operand: np.ndarray) -> np.ndarray | float:
        """Power-of-two pre-scale(s): scalar for a 2-D operand, one per
        slice (broadcastable) for a stacked operand."""
        if operand.ndim == 3:
            magnitudes = (
                np.abs(operand).max(axis=(1, 2)) if operand.size
                else np.zeros(operand.shape[0])
            )
            return np.array(
                [fp16_scale_factor(float(m)) for m in magnitudes]
            ).reshape(-1, 1, 1)
        return fp16_scale_factor(
            float(np.max(np.abs(operand))) if operand.size else 0.0
        )

    def _matmul_fp16(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Values beyond fp16's finite range are scaled down by a lossless
        # power of two first (the optimizer's range-handling strategy);
        # the product is scaled back afterwards.
        scale_a = self._fp16_scales(a)
        scale_b = self._fp16_scales(b)
        a16 = (a / scale_a).astype(np.float16)
        b16 = (b / scale_b).astype(np.float16)
        if a16.size and not np.all(np.isfinite(a16)):
            raise PrecisionError("operand A overflows fp16 even after scaling")
        if b16.size and not np.all(np.isfinite(b16)):
            raise PrecisionError("operand B overflows fp16 even after scaling")
        # fp16 products are exact in fp32; accumulation rounds in fp32,
        # exactly as WMMA's fp32 accumulator does.
        product = np.matmul(a16.astype(np.float32), b16.astype(np.float32))
        return product.astype(np.float64) * (scale_a * scale_b)

    def _matmul_int(
        self, a: np.ndarray, b: np.ndarray, precision: Precision
    ) -> np.ndarray:
        for name, operand in (("A", a), ("B", b)):
            # rint is monotonic: the quantized operand's extremes are the
            # quantized extremes.  A NaN or infinite one fails the test.
            if operand.size and not in_integer_window(
                    np.rint(operand.min()), np.rint(operand.max()),
                    precision):
                lo, hi = INTEGER_WINDOW[precision]
                raise PrecisionError(
                    f"operand {name} outside {precision.value} range "
                    f"[{lo}, {hi}]"
                )
        # int8/int4 MMA accumulates in int32; the exact-width product is
        # exact for every in-range input (its bound is <= 2**14 * k), so
        # emulate and then check the accumulator.
        product = exact_integer_matmul(a, b)
        if product.size and max(product.max(), -product.min()) > INT32_MAX:
            raise PrecisionError("int32 accumulator overflow in TCU matmul")
        return product

    @staticmethod
    def representable_fp16(values: np.ndarray) -> bool:
        """Whether all values fit fp16's finite range without scaling."""
        if values.size == 0:
            return True
        return bool(np.max(np.abs(values)) <= FP16_MAX)
