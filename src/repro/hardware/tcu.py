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
    INT32_MAX,
    INTEGER_WINDOW,
    Precision,
    exact_integer_matmul,
    fp16_scale_factor,
    in_integer_window,
)

# WMMA fragment edge: tensor cores consume 16x16x16 tiles.
WMMA_TILE = 16


def fp16_cast(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """TCUDB's binary16 operand cast, as the Fill Matrices step applies it.

    Values beyond fp16's exact window are scaled down by a lossless
    power of two first (the optimizer's range-handling strategy,
    :func:`~repro.tensor.precision.fp16_scale_factor` of the finite
    extremes), then rounded through binary16 and held as float32, the
    type the fp32-accumulating product reads.  A 3-D stack casts per
    slice and returns an ``(n, 1, 1)`` scale array; any other operand
    casts whole and returns one float.  The product is scaled back by
    the two operands' scales.  A NaN or infinite value raises
    :class:`PrecisionError`: no power of two brings it into range.
    """
    values = np.asarray(values)
    stacked = values.ndim == 3
    if values.size:
        axis = (1, 2) if stacked else None
        lo, hi = values.min(axis=axis), values.max(axis=axis)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise PrecisionError("fp16 operand holds a NaN or infinite value")
        magnitude = np.maximum(np.abs(lo), np.abs(hi))
    else:
        magnitude = np.zeros(values.shape[0] if stacked else ())
    if stacked:
        scale = np.array([fp16_scale_factor(float(m)) for m in magnitude]
                         ).reshape(-1, 1, 1)
        unscaled = bool((scale == 1.0).all())
    else:
        scale = fp16_scale_factor(float(magnitude))
        unscaled = scale == 1.0
    # Dividing by 1.0 is exact: skip the pass.
    scaled = values if unscaled else values / scale
    return scaled.astype(np.float16).astype(np.float32), scale


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
        scale=None,
    ) -> np.ndarray:
        """Numerically emulated tensor-core product of ``a @ b``.

        Returns float64 for fp16 inputs (values carry fp16+fp32 rounding)
        and int64 for integer precisions (bit-exact while in range).
        Stacked (batched) 3-D operands run as one broadcast product —
        the fused ``BatchedGemm`` path — with per-slice fp16 scaling so
        every slice rounds exactly as its standalone 2-D product would.

        An fp16 product casts both operands (:func:`fp16_cast`) unless
        ``scale`` is given: then ``a`` and ``b`` are operands the Fill
        Matrices step already cast, and ``scale`` is the product of their
        scales, carried back onto the product.
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
            if scale is None:
                a, scale_a = fp16_cast(a)
                b, scale_b = fp16_cast(b)
                scale = scale_a * scale_b
            # fp16 products are exact in fp32; accumulation rounds in
            # fp32, exactly as WMMA's fp32 accumulator does.
            return np.matmul(a, b).astype(np.float64) * scale
        if precision in (Precision.INT8, Precision.INT4):
            return self._matmul_int(a, b, precision)
        raise PrecisionError(f"TCUs cannot execute precision {precision}")

    def _matmul_int(
        self, a: np.ndarray, b: np.ndarray, precision: Precision
    ) -> np.ndarray:
        magnitudes = []
        for name, operand in (("A", a), ("B", b)):
            if not operand.size:
                magnitudes.append(0.0)
                continue
            # rint is monotonic: the quantized operand's extremes are the
            # quantized extremes.  A NaN or infinite one fails the test.
            lo, hi = np.rint(operand.min()), np.rint(operand.max())
            if not in_integer_window(lo, hi, precision):
                window_lo, window_hi = INTEGER_WINDOW[precision]
                raise PrecisionError(
                    f"operand {name} outside {precision.value} range "
                    f"[{window_lo}, {window_hi}]"
                )
            magnitudes.append(float(max(hi, -lo)))
        # int8/int4 MMA accumulates in int32; the exact-width product is
        # exact for every in-range input (its bound is <= 2**14 * k), so
        # emulate and then check the accumulator — unless the bound on
        # every partial sum, k * max|a| * max|b|, already clears it.
        product = exact_integer_matmul(a, b, tuple(magnitudes))
        if (a.shape[-1] * magnitudes[0] * magnitudes[1] > INT32_MAX
                and max(product.max(), -product.min()) > INT32_MAX):
            raise PrecisionError("int32 accumulator overflow in TCU matmul")
        return product
