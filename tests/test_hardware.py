"""Unit tests for the simulated GPU substrate."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, DeviceMemoryError, PrecisionError
from repro.hardware import (
    I7_7700K,
    RTX_2080,
    RTX_3090,
    get_device_profile,
    run_calibration,
)
from repro.hardware.memory import DeviceMemory
from repro.hardware.pcie import PCIeBus
from repro.tensor.precision import Precision


class TestDeviceMemory:
    def test_allocate_and_free(self):
        memory = DeviceMemory(capacity=1000)
        allocation = memory.allocate(400, "buf")
        assert memory.used == 400
        assert memory.available == 600
        memory.free(allocation)
        assert memory.used == 0

    def test_oom_raises_with_details(self):
        memory = DeviceMemory(capacity=100)
        memory.allocate(80)
        with pytest.raises(DeviceMemoryError) as excinfo:
            memory.allocate(50)
        assert excinfo.value.requested == 50
        assert excinfo.value.available == 20

    def test_peak_tracking(self):
        memory = DeviceMemory(capacity=1000)
        a = memory.allocate(500)
        b = memory.allocate(300)
        memory.free(a)
        memory.free(b)
        assert memory.peak == 800
        assert memory.used == 0

    def test_double_free_rejected(self):
        memory = DeviceMemory(capacity=10)
        allocation = memory.allocate(5)
        memory.free(allocation)
        with pytest.raises(ValueError):
            memory.free(allocation)

    def test_negative_allocation_rejected(self):
        memory = DeviceMemory(capacity=10)
        with pytest.raises(ValueError):
            memory.allocate(-1)

    def test_fits(self):
        memory = DeviceMemory(capacity=100)
        assert memory.fits(100)
        assert not memory.fits(101)

    def test_reset(self):
        memory = DeviceMemory(capacity=100)
        memory.allocate(60)
        memory.reset()
        assert memory.used == 0
        assert memory.peak == 0


class TestPCIe:
    def test_transfer_time_scales_with_bytes(self):
        bus = PCIeBus(bandwidth=16e9)
        t1 = bus.h2d_seconds(16e9)  # 1 second of traffic
        t2 = bus.h2d_seconds(32e9)
        assert t1 == pytest.approx(1.0, rel=0.01)
        assert t2 > t1

    def test_overlap_divides_bandwidth_cost(self):
        bus = PCIeBus(bandwidth=16e9)
        plain = bus.d2h_seconds(1e9)
        overlapped = bus.d2h_seconds(1e9, overlap=2.0)
        assert overlapped < plain

    def test_traffic_counters(self):
        bus = PCIeBus(bandwidth=1e9)
        bus.h2d_seconds(100)
        bus.d2h_seconds(200)
        assert bus.bytes_h2d == 100
        assert bus.bytes_d2h == 200
        bus.reset_counters()
        assert bus.bytes_h2d == 0


class TestProfiles:
    def test_lookup_by_name(self):
        assert get_device_profile("rtx3090") is RTX_3090
        assert get_device_profile("RTX 2080") is RTX_2080

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            get_device_profile("h100")

    def test_tcu_rate_scales_with_precision(self):
        fp16 = RTX_3090.tcu_tflops(Precision.FP16)
        int8 = RTX_3090.tcu_tflops(Precision.INT8)
        int4 = RTX_3090.tcu_tflops(Precision.INT4)
        assert int8 == pytest.approx(2 * fp16)
        assert int4 == pytest.approx(4 * fp16)

    def test_fp32_not_tcu_compatible(self):
        with pytest.raises(ConfigError):
            RTX_3090.tcu_tflops(Precision.FP32)

    def test_paper_peaks(self):
        # Section 2.1: 63 TFLOPS on TCUs, 19 TFLOPS on CUDA cores.
        assert RTX_3090.tcu_tflops_fp16 == 63.0
        assert RTX_3090.cuda_tflops == 19.0
        assert RTX_3090.memory_bytes == 24 * 1024**3


class TestTensorCoreNumerics:
    def test_indicator_matmul_exact(self, device, rng):
        a = rng.integers(0, 2, (50, 30)).astype(float)
        b = rng.integers(0, 2, (30, 40)).astype(float)
        for precision in (Precision.FP16, Precision.INT8, Precision.INT4):
            result = device.tcu.matmul(a, b, precision)
            assert np.array_equal(result, a @ b), precision

    def test_fp16_rounds_large_values(self, device, rng):
        a = rng.integers(-(2**15), 2**15, (20, 64)).astype(float)
        b = rng.integers(-(2**15), 2**15, (64, 20)).astype(float)
        result = device.tcu.matmul(a, b, Precision.FP16)
        reference = a @ b
        rel = np.abs(result - reference).sum() / np.abs(reference).sum()
        assert 0 < rel < 1e-3  # small but nonzero rounding error

    def test_fp16_scaling_handles_2pow31(self, device, rng):
        a = rng.integers(-(2**31), 2**31, (8, 32)).astype(float)
        b = rng.integers(-(2**31), 2**31, (32, 8)).astype(float)
        result = device.tcu.matmul(a, b, Precision.FP16)
        reference = a @ b
        rel = np.abs(result - reference).sum() / np.abs(reference).sum()
        assert rel < 1e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("operand", ["A", "B"])
    def test_fp16_non_finite_operand_is_a_precision_error(
            self, device, operand, stacked, bad):
        """No power-of-two scale brings a NaN or infinity into fp16's
        range: the cast reports it as a PrecisionError."""
        batch = (2,) if stacked else ()
        a = np.ones(batch + (4, 3))
        b = np.ones(batch + (3, 5))
        (a if operand == "A" else b)[..., 1, 2] = bad
        with pytest.raises(PrecisionError, match="NaN or infinite"):
            device.tcu.matmul(a, b, Precision.FP16)

    def test_int_range_enforced(self, device):
        a = np.full((4, 4), 300.0)
        with pytest.raises(PrecisionError):
            device.tcu.matmul(a, a, Precision.INT8)
        with pytest.raises(PrecisionError):
            device.tcu.matmul(np.full((4, 4), 9.0), np.ones((4, 4)),
                              Precision.INT4)

    def test_incompatible_shapes(self, device):
        with pytest.raises(ValueError):
            device.tcu.matmul(np.ones((3, 4)), np.ones((5, 2)))

    def test_matmul_seconds_follow_equation3(self, device):
        m = n = k = 4096
        seconds = device.tcu.matmul_seconds(m, n, k, Precision.FP16)
        expected = 2.0 * m * n * k / (63e12) + RTX_3090.kernel_launch_s
        assert seconds == pytest.approx(expected)

    def test_int8_twice_as_fast_as_fp16(self, device):
        fp16 = device.tcu.matmul_seconds(4096, 4096, 4096, Precision.FP16)
        int8 = device.tcu.matmul_seconds(4096, 4096, 4096, Precision.INT8)
        assert int8 < fp16

    def test_spmm_seconds_counts_tile_pairs(self, device):
        zero = device.tcu.spmm_seconds(0)
        some = device.tcu.spmm_seconds(1000)
        assert some > zero > 0


class TestCudaCores:
    def test_gemm_slower_than_tcu(self, device):
        cuda = device.cuda.matmul_seconds(4096, 4096, 4096)
        tcu = device.tcu.matmul_seconds(4096, 4096, 4096)
        assert cuda > tcu

    def test_figure3_speedup_range(self, device):
        # Paper: TCUs outperform CUDA cores by up to ~5x, >= ~2.8x at 16K.
        for dim in (4096, 8192, 16384):
            ratio = (device.cuda.matmul_seconds(dim, dim, dim)
                     / device.tcu.matmul_seconds(dim, dim, dim))
            assert 2.0 < ratio < 6.0

    def test_join_costs_monotone_in_pairs(self, device):
        a = device.cuda.join_materialize_seconds(1000)
        b = device.cuda.join_materialize_seconds(100000)
        assert b > a

    def test_numerics_match_float32_pipeline(self, device, rng):
        a = rng.normal(size=(16, 8))
        b = rng.normal(size=(8, 12))
        result = device.cuda.matmul(a, b)
        assert np.allclose(result, a @ b, rtol=1e-5, atol=1e-5)


class TestCalibration:
    def test_reports_paper_like_rates(self, device):
        report = run_calibration(device, I7_7700K)
        assert report.pcie_bandwidth == pytest.approx(16e9, rel=0.05)
        assert report.tcu_tflops[Precision.FP16] == pytest.approx(63, rel=0.1)
        assert report.tcu_tflops[Precision.INT4] > (
            report.tcu_tflops[Precision.FP16]
        )

    def test_density_threshold_near_paper_value(self, device):
        # Paper Section 5.2: crossover around 0.04% on the RTX 3090.
        report = run_calibration(device)
        assert 1e-4 < report.density_threshold < 1.5e-3

    def test_device_reset(self, device):
        device.memory.allocate(1024)
        device.h2d_seconds(100)
        device.reset()
        assert device.memory.used == 0
        assert device.pcie.bytes_h2d == 0
