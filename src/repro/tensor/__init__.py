"""Tensor formats, precisions, backends and GEMM prices for the simulated GPU."""

from repro.tensor.coo import COOMatrix
from repro.tensor.csr import CSRMatrix
from repro.tensor.matmul import (
    BLOCKED_EFFICIENCY,
    BlockedPlan,
    dense_gemm_seconds,
    msplit_gemm_seconds,
    plan_blocked_gemm,
)
from repro.tensor.precision import (
    FP16_EXACT_INT,
    FP16_MAX,
    FP32_EXACT_INT,
    Precision,
    ValueRange,
    accumulator_exact,
    fits_exactly,
    fits_representable,
    fp16_scale_factor,
    product_magnitude_bound,
)
from repro.tensor.quantize import (
    PrecisionChoice,
    choose_precision,
    observed_range,
    quantize,
)
from repro.tensor.tiled import (
    TILE,
    estimate_nonempty_tiles,
    estimate_tile_pairs,
)

__all__ = [
    "BLOCKED_EFFICIENCY",
    "BlockedPlan",
    "COOMatrix",
    "CSRMatrix",
    "FP16_EXACT_INT",
    "FP16_MAX",
    "FP32_EXACT_INT",
    "Precision",
    "PrecisionChoice",
    "TILE",
    "ValueRange",
    "accumulator_exact",
    "choose_precision",
    "dense_gemm_seconds",
    "estimate_nonempty_tiles",
    "estimate_tile_pairs",
    "fits_exactly",
    "fits_representable",
    "fp16_scale_factor",
    "msplit_gemm_seconds",
    "observed_range",
    "plan_blocked_gemm",
    "product_magnitude_bound",
    "quantize",
]
