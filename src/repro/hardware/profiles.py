"""Simulated device and host profiles.

The paper evaluates TCUDB on an NVIDIA RTX 3090 (Ampere, 328 Tensor Cores,
24 GB, PCIe 3.0 x16) hosted by an Intel i7-7700K, and compares against an
RTX 2080 (Turing).  This module captures those machines as *profiles*: a
set of peak rates and per-element operator costs that the analytic timing
model charges.

Calibration: the per-element constants were fitted to the paper's own
normalized results (Figures 7, 8 and 10).  The paper's YDB baseline at the
(4096 records, 32 distinct) microbenchmark point takes roughly 5 ms on the
RTX 3090 under this model, which makes all the relative series line up
with the published figures.  ``docs/benchmarking.md`` § Known divergences
records the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.tensor.precision import Precision


@dataclass(frozen=True)
class DeviceProfile:
    """Peak rates and per-element costs of a simulated GPU."""

    name: str
    cuda_cores: int
    tensor_cores: int
    sm_count: int
    cuda_tflops: float  # peak vector-unit TFLOPS (mixed precision)
    tcu_tflops_fp16: float  # peak tensor-core TFLOPS at fp16
    memory_bytes: int
    memory_bandwidth: float  # device-memory bytes/second
    pcie_bandwidth: float  # host<->device bytes/second
    kernel_launch_s: float  # fixed overhead per kernel launch

    # Vector-processing (CUDA-core) per-element costs, in seconds.  These
    # aggregate all the passes a YDB-style operator makes over each element.
    hash_row_s: float  # per row, per hash pass (build or probe)
    join_pair_s: float  # per output pair materialized by HashJoin
    agg_pair_s: float  # per pair consumed by GroupBy/Aggregation
    accum_pair_s: float  # per pair in the fused vectorized-accumulate path
    gather_elem_s: float  # per element for gather/scatter kernels
    fill_elem_s: float  # per element for table->matrix scatter on GPU

    # Pipelining: result/readback transfers overlap with compute by this
    # factor (MSplitGEMM-style multi-stream DMA).
    transfer_overlap: float = 2.0

    def tcu_tflops(self, precision: Precision) -> float:
        """Peak TCU TFLOPS for a given input precision.

        Ampere/Turing tensor cores double throughput for int8 and double
        again for int4, relative to fp16.
        """
        multiplier = {
            Precision.FP16: 1.0,
            Precision.INT8: 2.0,
            Precision.INT4: 4.0,
        }.get(precision)
        if multiplier is None:
            raise ConfigError(f"TCUs do not support precision {precision}")
        return self.tcu_tflops_fp16 * multiplier


@dataclass(frozen=True)
class HostProfile:
    """CPU-side profile: table scans, matrix fills, CPU query operators."""

    name: str
    cores: int
    cpu_gflops: float
    memory_bytes: int
    fill_elem_s: float  # per element table->matrix fill on the CPU
    scan_elem_s: float  # per element scanned by a CPU operator
    hash_row_s: float  # per row per hash pass (CPU engine)
    join_pair_s: float  # per output pair (CPU engine)
    agg_pair_s: float  # per pair in CPU aggregation


# NVIDIA GeForce RTX 3090: Ampere, 328 Tensor Cores, 10496 CUDA cores,
# 24 GB GDDR6X @ 936 GB/s, PCIe 3.0 x16 (~16 GB/s effective).  Peak rates
# follow the paper's measurements: 63 TFLOPS on TCUs, 19 TFLOPS on CUDA
# cores with mixed precision (Section 2.1).
RTX_3090 = DeviceProfile(
    name="RTX 3090",
    cuda_cores=10496,
    tensor_cores=328,
    sm_count=82,
    cuda_tflops=19.0,
    tcu_tflops_fp16=63.0,
    memory_bytes=24 * 1024**3,
    memory_bandwidth=936e9,
    pcie_bandwidth=16e9,
    kernel_launch_s=20e-6,
    hash_row_s=480e-9,
    join_pair_s=5.8e-9,
    agg_pair_s=0.9e-9,
    accum_pair_s=2.0e-12,
    gather_elem_s=2e-9,
    fill_elem_s=8e-9,
)

# NVIDIA GeForce RTX 2080: Turing, 368 Tensor Cores (earlier generation),
# 2944 CUDA cores, 8 GB GDDR6 @ 448 GB/s.  Tensor-core throughput per core
# is much lower than Ampere's, hence 34 TFLOPS despite more cores; vector
# costs scale with the CUDA-core deficit (~1.28x slower, matching the
# paper's YDB generation-over-generation speedups in Figure 14).
RTX_2080 = DeviceProfile(
    name="RTX 2080",
    cuda_cores=2944,
    tensor_cores=368,
    sm_count=46,
    cuda_tflops=10.0,
    tcu_tflops_fp16=34.0,
    memory_bytes=8 * 1024**3,
    memory_bandwidth=448e9,
    pcie_bandwidth=16e9,
    kernel_launch_s=22e-6,
    hash_row_s=480e-9 * 1.28,
    join_pair_s=5.8e-9 * 1.28,
    agg_pair_s=0.9e-9 * 1.28,
    accum_pair_s=2.0e-12 * 1.28,
    gather_elem_s=2e-9 * 1.28,
    fill_elem_s=8e-9 * 1.28,
)

# Intel Core i7-7700K: 4 cores @ 4.2 GHz, 32 GB DDR4.  The CPU engine
# (MonetDB-style) constants were fitted so that MonetDB lands ~5x above
# YDB on the microbenchmarks, as in Figure 7.
I7_7700K = HostProfile(
    name="Core i7-7700K",
    cores=4,
    cpu_gflops=250.0,
    memory_bytes=32 * 1024**3,
    fill_elem_s=10e-9,
    scan_elem_s=2e-9,
    hash_row_s=1.0e-6,
    join_pair_s=36e-9,
    agg_pair_s=6e-9,
)

PROFILES: dict[str, DeviceProfile] = {
    "rtx3090": RTX_3090,
    "rtx2080": RTX_2080,
}


def get_device_profile(name: str) -> DeviceProfile:
    """Look up a device profile by short name (``rtx3090``, ``rtx2080``)."""
    key = name.lower().replace(" ", "").replace("_", "").replace("-", "")
    if key not in PROFILES:
        raise ConfigError(
            f"unknown device profile {name!r}; available: {sorted(PROFILES)}"
        )
    return PROFILES[key]
