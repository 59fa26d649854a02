"""Quantization helpers for TCU execution.

The feasibility test (Section 4.2.1) picks the most compact TCU precision
that represents a column's value range.  When values exceed a precision's
range, TCUDB either scales them (power-of-two scaling is lossless for the
fp16 path) or rejects the precision.  This module implements the range ->
precision decision and the (de)quantization used around a TCU matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import PrecisionError
from repro.tensor.precision import (
    TCU_PRECISIONS_COMPACT_FIRST,
    Precision,
    ValueRange,
    accumulator_exact,
    fits_exactly,
    fits_representable,
    fp16_scale_factor,
    in_integer_window,
)


@dataclass(frozen=True)
class PrecisionChoice:
    """Outcome of the range feasibility test for one operand pair."""

    precision: Precision | None  # None => TCUs rejected, fall back
    exact: bool  # result guaranteed bit-exact
    scale: float  # power-of-two pre-scale applied to the fp16 path

    @property
    def feasible(self) -> bool:
        return self.precision is not None


def choose_precision(
    a: ValueRange,
    b: ValueRange,
    k: int,
    require_exact: bool = False,
) -> PrecisionChoice:
    """Pick the most compact TCU precision for a (m x k) @ (k x n) product.

    Walks int4 -> int8 -> fp16 (Figure 6's data-range test).  A precision
    qualifies if both operand ranges are representable and — for integer
    precisions — the int32 accumulator cannot overflow under the paper's
    conservative bound m1 * m2 * k.  With ``require_exact`` the fp16 path
    additionally demands exact integer representation; otherwise fp16 is
    accepted with (bounded) rounding error, using power-of-two scaling for
    out-of-range magnitudes.
    """
    for precision in TCU_PRECISIONS_COMPACT_FIRST:
        if precision.is_integer:
            if (fits_exactly(a, precision) and fits_exactly(b, precision)
                    and accumulator_exact(a, b, k, precision)):
                return PrecisionChoice(precision, exact=True, scale=1.0)
            continue
        # fp16: exact only inside the significand window with an exact
        # fp32 accumulator; otherwise representable-with-rounding.
        exact = (
            fits_exactly(a, precision)
            and fits_exactly(b, precision)
            and accumulator_exact(a, b, k, precision)
        )
        if exact:
            return PrecisionChoice(precision, exact=True, scale=1.0)
        if require_exact:
            return PrecisionChoice(None, exact=False, scale=1.0)
        scale = fp16_scale_factor(max(a.magnitude, b.magnitude))
        scaled_a = ValueRange(a.lo / scale, a.hi / scale)
        scaled_b = ValueRange(b.lo / scale, b.hi / scale)
        if (fits_representable(scaled_a, precision)
                and fits_representable(scaled_b, precision)):
            return PrecisionChoice(precision, exact=False, scale=scale)
    return PrecisionChoice(None, exact=False, scale=1.0)


def quantize(values: np.ndarray, precision: Precision) -> np.ndarray:
    """Cast values into the simulated storage type for ``precision``."""
    values = np.asarray(values, dtype=np.float64)
    if precision == Precision.FP16:
        out = values.astype(np.float16)
        if out.size and not np.all(np.isfinite(out)):
            raise PrecisionError("values overflow fp16; scale first")
        return out
    if precision.is_integer:
        out = np.rint(values)
        if out.size and not in_integer_window(out.min(), out.max(),
                                              precision):
            raise PrecisionError(f"values outside {precision.value} range")
        return out.astype(np.int8)
    if precision == Precision.FP32:
        return values.astype(np.float32)
    return values


def dequantize(values: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Back to float64 logical values (undoing any pre-scale)."""
    return np.asarray(values, dtype=np.float64) * scale


def observed_range(values: np.ndarray) -> ValueRange:
    """ValueRange of an array (0-width range for empty input)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ValueRange(0.0, 0.0)
    return ValueRange(float(values.min()), float(values.max()))
