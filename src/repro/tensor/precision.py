"""TCU-compatible precisions and their numeric properties.

NVIDIA's tensor cores accept at most 16-bit inputs: half floats (fp16),
8-bit integers (int8) and 4-bit integers (int4), accumulating into fp32 or
int32 (Section 2.1 of the paper).  TCUDB's feasibility test (Section 4.2.1)
uses per-column min/max/distinct statistics to pick the most compact type
that still represents the data — or rejects TCU execution entirely.

This module defines the precision lattice and the exact-representability
rules the feasibility test relies on:

* fp16 represents every integer with magnitude <= 2**11 exactly (11-bit
  significand); beyond that, casting rounds.
* int8/int4 represent integers within their two's-complement range exactly.
* Products of two fp16 values are exact in fp32; int8/int4 products
  accumulate exactly in int32 until the accumulator itself overflows.
* A product of integer-valued operands is exact in the narrowest float
  type that holds ``k * max|a| * max|b|`` (:func:`exact_integer_matmul`,
  the one integer product every backend runs).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import PrecisionError

# Largest integer n such that all integers in [-n, n] round-trip
# exactly through IEEE binary16 (2**11).
FP16_EXACT_INT = 2048
# Largest finite fp16 magnitude.
FP16_MAX = 65504.0
# fp32 represents integers exactly up to 2**24; beyond that, accumulation
# rounds, which is the error source in Table 1's small-range rows.
FP32_EXACT_INT = 1 << 24
INT32_MAX = (1 << 31) - 1


class Precision(enum.Enum):
    """Input precisions the simulated hardware supports."""

    FP64 = "fp64"  # CPU reference only
    FP32 = "fp32"  # CUDA cores only
    FP16 = "fp16"  # TCU
    INT8 = "int8"  # TCU
    INT4 = "int4"  # TCU

    @property
    def bytes_per_element(self) -> float:
        return {
            Precision.FP64: 8.0,
            Precision.FP32: 4.0,
            Precision.FP16: 2.0,
            Precision.INT8: 1.0,
            Precision.INT4: 0.5,
        }[self]

    @property
    def is_tcu_compatible(self) -> bool:
        return self in (Precision.FP16, Precision.INT8, Precision.INT4)

    @property
    def is_integer(self) -> bool:
        return self in (Precision.INT8, Precision.INT4)


# Two's-complement window of each integer input type.
INTEGER_WINDOW = {Precision.INT4: (-8, 7), Precision.INT8: (-128, 127)}


def in_integer_window(lo, hi, precision: Precision) -> bool:
    """Whether ``[lo, hi]`` lies inside ``precision``'s integer window.

    Written as two positive comparisons so that a NaN or infinite
    endpoint — the ``min()`` / ``max()`` of an array holding one — fails
    it: ``nan < lo or nan > hi`` would let the array through.
    """
    window_lo, window_hi = INTEGER_WINDOW[precision]
    return bool(window_lo <= lo and hi <= window_hi)


# Precision order from most compact upward; the feasibility test walks
# this list and picks the first precision that fits (Figure 6, steps
# "4bit? / 8bit? / 16bit? / 32bit?").
TCU_PRECISIONS_COMPACT_FIRST = (Precision.INT4, Precision.INT8, Precision.FP16)


@dataclass(frozen=True)
class ValueRange:
    """Closed interval of values observed in a column (from statistics).

    ``integral`` records whether every value in the interval is known to
    be an integer.  ``None`` (the default) falls back to inferring from
    the endpoints — correct for per-column statistics, but callers that
    observe actual values (e.g. exact per-cell matrix sums) must pass the
    flag explicitly: fractional values can have integral endpoints.
    """

    lo: float
    hi: float
    integral: bool | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise PrecisionError(f"empty value range [{self.lo}, {self.hi}]")

    @property
    def magnitude(self) -> float:
        """m = max(|lo|, |hi|), the paper's conservative bound."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def is_integral(self) -> bool:
        if self.integral is not None:
            return self.integral
        return float(self.lo).is_integer() and float(self.hi).is_integer()


def fits_exactly(values: ValueRange, precision: Precision) -> bool:
    """Whether every value in the range is exactly representable."""
    if precision.is_integer:
        return values.is_integral and in_integer_window(
            values.lo, values.hi, precision)
    if precision == Precision.FP16:
        # Exact only for integers within the fp16 significand window; real
        # values are never exact, so the caller must accept rounding.
        return values.is_integral and values.magnitude <= FP16_EXACT_INT
    if precision == Precision.FP32:
        return values.is_integral and values.magnitude <= FP32_EXACT_INT
    return precision == Precision.FP64


def fits_representable(values: ValueRange, precision: Precision) -> bool:
    """Whether the range fits the precision at all (allowing rounding)."""
    if precision in (Precision.INT4, Precision.INT8):
        return fits_exactly(values, precision)
    if precision == Precision.FP16:
        return values.magnitude <= FP16_MAX
    return True


def product_magnitude_bound(a: ValueRange, b: ValueRange, k: int) -> float:
    """Paper's conservative result bound m1 * m2 * n for a K-length dot.

    Section 4.2.1: with m1/m2 the max magnitudes of the two operand columns
    and n the reduction length, the largest possible result magnitude is
    ``m1 * m2 * n``.
    """
    if k < 0:
        raise PrecisionError("reduction length must be non-negative")
    return a.magnitude * b.magnitude * max(k, 1)


def accumulator_exact(a: ValueRange, b: ValueRange, k: int,
                      precision: Precision) -> bool:
    """Whether the matmul accumulator stays exact for integral inputs.

    int8/int4 accumulate in int32 (exact until overflow); fp16 inputs
    accumulate in fp32 (exact while partial sums stay below 2**24).
    """
    bound = product_magnitude_bound(a, b, k)
    if precision.is_integer:
        return bound <= INT32_MAX
    if precision == Precision.FP16:
        return bound <= FP32_EXACT_INT
    return False


def _quantized_magnitude(operand: np.ndarray) -> float:
    # max |rint(x)|.  rint is monotonic, so the two extremes decide it:
    # no array-sized temporary (np.abs, np.rint) is made.
    if operand.size == 0:
        return 0.0
    return float(max(np.rint(operand.max()), -np.rint(operand.min())))


def exact_integer_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rint(a) @ rint(b)`` (2-D or stacked), exactly, as int64.

    Operands are quantized to the nearest integer, as the unit's input
    cast does.  Every partial sum of the product is then an integer of
    magnitude at most ``k * max|a| * max|b|``.  While that bound stays
    within 2**24 each one is exactly representable in float32, so the
    product is exact in *any* accumulation order — blocked and FMA
    kernels included — and runs as sgemm; up to 2**53 the same holds in
    float64.  The width is read from the operands in hand: int4 data
    stays in float32 for every k <= 262144, full-range int8 for
    k <= 1024, and every product the int32 accumulator admits fits
    float64.  This is the one integer product of the code base: the
    simulated unit and the execution backends both call it, so integer
    results agree by construction.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    bound = a.shape[-1] * _quantized_magnitude(a) * _quantized_magnitude(b)
    dtype = np.float32 if bound <= FP32_EXACT_INT else np.float64
    # One pass per operand: quantized straight into the product's width
    # and the operand's own layout (BLAS takes transposed views as-is).
    a, b = (np.rint(x, out=np.empty_like(x, dtype=dtype), casting="same_kind")
            for x in (a, b))
    return np.matmul(a, b).astype(np.int64)


def fp16_scale_factor(magnitude: float) -> float:
    """Power-of-two scale that maps ``magnitude`` into fp16's exact window.

    TCUDB handles ranges beyond 16-bit (e.g. Table 1's +-2**31 row) by
    scaling inputs down by a power of two before casting to fp16 and
    scaling the product back up afterwards.  Powers of two are lossless to
    apply, so the only error left is the fp16 significand rounding.
    """
    if magnitude <= 0:
        return 1.0
    if magnitude <= FP16_EXACT_INT:
        return 1.0
    return 2.0 ** math.ceil(math.log2(magnitude / FP16_EXACT_INT))
