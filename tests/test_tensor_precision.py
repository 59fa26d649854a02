"""Precision lattice, quantization and the Table-1 error structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PrecisionError
from repro.hardware.gpu import GPUDevice
from repro.tensor.matmul import dense_gemm, msplit_gemm
from repro.tensor.precision import (
    FP16_EXACT_INT,
    FP32_EXACT_INT,
    INT32_MAX,
    INTEGER_WINDOW,
    Precision,
    ValueRange,
    accumulator_exact,
    exact_integer_matmul,
    fits_exactly,
    fits_representable,
    fp16_scale_factor,
    in_integer_window,
    product_magnitude_bound,
)
from repro.tensor.quantize import (
    choose_precision,
    observed_range,
    quantize,
)


class TestValueRange:
    def test_magnitude(self):
        assert ValueRange(-5, 3).magnitude == 5
        assert ValueRange(0, 7).magnitude == 7

    def test_empty_range_rejected(self):
        with pytest.raises(PrecisionError):
            ValueRange(3, 1)

    def test_integrality(self):
        assert ValueRange(0, 10).is_integral
        assert not ValueRange(0.5, 1.0).is_integral


class TestFits:
    def test_int4_window(self):
        assert fits_exactly(ValueRange(-8, 7), Precision.INT4)
        assert not fits_exactly(ValueRange(-9, 0), Precision.INT4)
        assert not fits_exactly(ValueRange(0, 8), Precision.INT4)

    def test_int8_window(self):
        assert fits_exactly(ValueRange(-128, 127), Precision.INT8)
        assert not fits_exactly(ValueRange(0, 128), Precision.INT8)

    def test_fp16_exact_integers(self):
        assert fits_exactly(ValueRange(0, FP16_EXACT_INT), Precision.FP16)
        assert not fits_exactly(ValueRange(0, FP16_EXACT_INT + 1),
                                Precision.FP16)
        # Non-integers are never exact in fp16.
        assert not fits_exactly(ValueRange(0.0, 0.5), Precision.FP16)

    def test_fp16_representable_with_rounding(self):
        assert fits_representable(ValueRange(0, 60000), Precision.FP16)
        assert not fits_representable(ValueRange(0, 70000), Precision.FP16)


class TestBounds:
    def test_result_bound_is_m1_m2_n(self):
        # Paper Section 4.2.1: m1 * m2 * n.
        bound = product_magnitude_bound(ValueRange(-3, 2), ValueRange(0, 5), 10)
        assert bound == 3 * 5 * 10

    def test_accumulator_exactness(self):
        small = ValueRange(0, 1)
        assert accumulator_exact(small, small, 1000, Precision.INT8)
        big = ValueRange(0, 127)
        # 127*127*k > 2^31 for k > ~133k.
        assert accumulator_exact(big, big, 1000, Precision.INT8)
        assert not accumulator_exact(big, big, 10**6, Precision.INT8)

    def test_fp16_scale_factor_powers_of_two(self):
        assert fp16_scale_factor(100) == 1.0
        scale = fp16_scale_factor(2**20)
        assert scale == 2.0 ** np.ceil(np.log2(2**20 / FP16_EXACT_INT))
        # Scaling brings the magnitude into the exact window.
        assert 2**20 / scale <= FP16_EXACT_INT


class TestChoosePrecision:
    def test_indicators_get_int4(self):
        choice = choose_precision(ValueRange(0, 1), ValueRange(0, 1), 4096)
        assert choice.precision == Precision.INT4
        assert choice.exact

    def test_medium_ints_get_int8(self):
        choice = choose_precision(ValueRange(0, 100), ValueRange(0, 100), 64)
        assert choice.precision == Precision.INT8
        assert choice.exact

    def test_large_values_get_scaled_fp16(self):
        choice = choose_precision(
            ValueRange(0, 2**20), ValueRange(0, 2**20), 64
        )
        assert choice.precision == Precision.FP16
        assert not choice.exact
        assert choice.scale > 1.0

    def test_require_exact_rejects_lossy(self):
        choice = choose_precision(
            ValueRange(0, 2**20), ValueRange(0, 2**20), 64, require_exact=True
        )
        assert not choice.feasible


class TestQuantize:
    def test_fp16_cast(self):
        out = quantize(np.array([1.0, 2.5]), Precision.FP16)
        assert out.dtype == np.float16

    def test_int8_range_check(self):
        with pytest.raises(PrecisionError):
            quantize(np.array([300.0]), Precision.INT8)

    @pytest.mark.parametrize("precision", list(INTEGER_WINDOW))
    def test_integer_window_edges_and_non_finite(self, precision):
        lo, hi = INTEGER_WINDOW[precision]
        out = quantize(np.array([lo, 0.4, hi]), precision)
        assert out.dtype == np.int8 and out.tolist() == [lo, 0, hi]
        # The range test must not be NaN-blind: ``nan < lo`` is False.
        for bad in (lo - 1, hi + 1, np.nan, np.inf, -np.inf):
            with pytest.raises(PrecisionError):
                quantize(np.array([bad, 3.0]), precision)
            assert not in_integer_window(min(bad, 3.0), max(bad, 3.0),
                                         precision)
        assert in_integer_window(lo, hi, precision)
        assert not fits_exactly(ValueRange(lo - 1, hi), precision)
        assert not fits_exactly(ValueRange(lo, float("inf")), precision)

    def test_observed_range(self):
        r = observed_range(np.array([3.0, -1.0, 2.0]))
        assert (r.lo, r.hi) == (-1.0, 3.0)
        empty = observed_range(np.array([]))
        assert (empty.lo, empty.hi) == (0.0, 0.0)


class TestTable1Structure:
    """The exactness structure behind paper Table 1."""

    def test_zero_one_always_exact(self, device, rng):
        a = rng.integers(0, 2, (64, 2048)).astype(float)
        b = rng.integers(0, 2, (2048, 64)).astype(float)
        result, _ = dense_gemm(device, a, b)
        assert np.array_equal(result, a @ b)

    def test_pm127_exact_at_small_k(self, device, rng):
        a = rng.integers(-128, 128, (32, 512)).astype(float)
        b = rng.integers(-128, 128, (512, 32)).astype(float)
        result, _ = dense_gemm(device, a, b)
        assert np.array_equal(result, a @ b)

    def test_pm2pow15_small_nonzero_error(self, device, rng):
        a = rng.integers(-(2**15), 2**15, (32, 2048)).astype(float)
        b = rng.integers(-(2**15), 2**15, (2048, 32)).astype(float)
        result, _ = dense_gemm(device, a, b)
        reference = a @ b
        wmape = np.abs(result - reference).sum() / np.abs(reference).sum()
        assert 0 < wmape < 1e-3  # paper: ~0.001-0.01%

    def test_error_grows_with_value_range(self, device, rng):
        def wmape_for(limit):
            a = rng.integers(-limit, limit, (32, 1024)).astype(float)
            b = rng.integers(-limit, limit, (1024, 32)).astype(float)
            result, _ = dense_gemm(device, a, b)
            reference = a @ b
            return np.abs(result - reference).sum() / np.abs(reference).sum()

        assert wmape_for(2**7) <= wmape_for(2**15) * 1.001


class TestBlockedGemm:
    def test_matches_unblocked_for_integers(self, device, rng):
        a = rng.integers(-8, 8, (70, 90)).astype(float)
        b = rng.integers(-8, 8, (90, 50)).astype(float)
        blocked, _ = msplit_gemm(device, a, b, Precision.INT4,
                                 memory_budget=20_000)
        assert np.array_equal(blocked, (a @ b).astype(np.int64))

    def test_fp16_blocked_within_error_bound(self, device, rng):
        a = rng.integers(-(2**15), 2**15, (64, 128)).astype(float)
        b = rng.integers(-(2**15), 2**15, (128, 48)).astype(float)
        blocked, _ = msplit_gemm(device, a, b, memory_budget=50_000)
        reference = a @ b
        wmape = np.abs(blocked - reference).sum() / np.abs(reference).sum()
        assert wmape < 1e-3

    def test_blocking_plan_respects_budget(self, device):
        from repro.tensor.matmul import plan_blocked_gemm

        plan = plan_blocked_gemm(device, 4096, 4096, 4096,
                                 memory_budget=1_000_000)
        assert plan.bytes_per_stage * 3 <= 1_000_000
        assert plan.n_stages >= 8

    def test_blocked_slower_than_dense_per_flop(self, device):
        from repro.tensor.matmul import (
            dense_gemm_seconds,
            msplit_gemm_seconds,
        )

        dense = dense_gemm_seconds(device, 8192, 8192, 8192)
        blocked, _ = msplit_gemm_seconds(device, 8192, 8192, 8192,
                                         memory_budget=64 * 1024**2)
        assert blocked > dense


def _int64_product(a, b):
    return np.matmul(a.astype(np.int64), b.astype(np.int64))


def _transposed_view(x):
    """Same values, but a strided view of the transposed layout — what
    ``b_stack.transpose(0, 2, 1)`` hands the backend."""
    return np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)


# (value of every A cell, of every B cell, k, width the rule must pick):
# operands parked on the two windows of ``exact_integer_matmul``.
WINDOW_CASES = [
    pytest.param(127, 127, 1040, np.float32, id="under-2^24"),
    pytest.param(-128, -128, 1024, np.float32, id="at-2^24"),
    pytest.param(127, -127, 1041, np.float64, id="first-past-2^24"),
    pytest.param(127, 127, 133_144, np.float64, id="under-2^31"),
]


@pytest.fixture
def matmul_dtypes(monkeypatch):
    """Operand dtypes of every ``np.matmul`` call made meanwhile."""
    seen: list[np.dtype] = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append(np.result_type(a, b))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


class TestExactIntegerMatmul:
    """One rule for every integer product: float32 while
    ``k * max|a| * max|b| <= 2**24``, float64 past it, int64 out."""

    @pytest.mark.parametrize("a_value, b_value, k, width", WINDOW_CASES)
    @pytest.mark.parametrize("stacked", [False, True], ids=["2d", "3d"])
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["contiguous", "view"])
    def test_all_maximum_operands_on_the_windows(
            self, matmul_dtypes, a_value, b_value, k, width, stacked,
            transposed):
        a = np.full((2, 3, k), float(a_value))
        b = np.full((2, k, 2), float(b_value))
        if transposed:
            a, b = _transposed_view(a), _transposed_view(b)
        if not stacked:
            a, b = a[0], b[0]
        expected = _int64_product(a, b)
        del matmul_dtypes[:]
        got = exact_integer_matmul(a, b)
        assert matmul_dtypes == [np.dtype(width)]
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        bound = k * abs(a_value) * abs(b_value)
        assert (bound <= FP32_EXACT_INT) == (width is np.float32)
        assert bound <= INT32_MAX

    def test_first_bound_past_the_window_needs_float64(self):
        # 1041 * 127 * 127 is odd and above 2**24: float32 cannot hold
        # it, so the float32 run is wrong — the rule, not lucky data,
        # keeps the product exact.
        a = np.full((3, 1041), 127.0, dtype=np.float32)
        b = np.full((1041, 2), 127.0, dtype=np.float32)
        exact = _int64_product(a, b)
        assert not np.array_equal(np.matmul(a, b).astype(np.int64), exact)
        assert np.array_equal(exact_integer_matmul(a, b), exact)

    def test_int4_stays_float32_up_to_k_262144(self, matmul_dtypes):
        for k, width in ((262_144, np.float32), (262_145, np.float64)):
            a = np.full((1, k), -8.0, dtype=np.float32)
            b = np.full((k, 1), -8.0, dtype=np.float32)
            del matmul_dtypes[:]
            assert exact_integer_matmul(a, b).tolist() == [[64 * k]]
            assert matmul_dtypes == [np.dtype(width)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_random_operands_match_int64_product(self, rng, dtype):
        for lo, hi, shape_a, shape_b in (
            (-8, 8, (2, 9, 300), (2, 300, 7)),
            (-128, 128, (5, 40), (40, 11)),
            (-128, 128, (3, 6, 2000), (3, 2000, 4)),
        ):
            a = rng.integers(lo, hi, shape_a).astype(dtype)
            b = _transposed_view(rng.integers(lo, hi, shape_b).astype(dtype))
            got = exact_integer_matmul(a, b)
            assert got.dtype == np.int64
            assert np.array_equal(got, _int64_product(a, b))

    def test_empty_operands(self):
        for shape_a, shape_b, shape in (
            ((0, 5), (5, 3), (0, 3)),
            ((3, 0), (0, 2), (3, 2)),
            ((2, 3, 0), (2, 0, 4), (2, 3, 4)),
        ):
            got = exact_integer_matmul(np.zeros(shape_a), np.zeros(shape_b))
            assert got.dtype == np.int64 and got.shape == shape
            assert not got.any()


class TestSimulatedIntegerUnit:
    """``device.tcu.matmul`` keeps its range and accumulator checks
    around the exact-width product."""

    @pytest.mark.parametrize("precision", list(INTEGER_WINDOW))
    def test_out_of_range_and_non_finite_operands_raise(self, device,
                                                        precision):
        lo, hi = INTEGER_WINDOW[precision]
        good = np.array([[lo, hi], [0.0, 1.0]])
        assert np.array_equal(
            device.tcu.matmul(good, good, precision),
            _int64_product(good, good))
        for bad in (lo - 1, hi + 1, np.nan, np.inf, -np.inf):
            operand = good.copy()
            operand[1, 0] = bad
            with pytest.raises(PrecisionError, match="operand A"):
                device.tcu.matmul(operand, good, precision)
            with pytest.raises(PrecisionError, match="operand B"):
                device.tcu.matmul(good, operand, precision)

    def test_int32_accumulator_overflow_still_raises(self, device):
        # 127 * 127 * 133144 < 2**31 <= 127 * 127 * 133145.
        for k, overflows in ((133_144, False), (133_145, True)):
            a = np.full((1, k), 127.0)
            b = np.full((k, 1), 127.0)
            if overflows:
                with pytest.raises(PrecisionError, match="accumulator"):
                    device.tcu.matmul(a, b, Precision.INT8)
            else:
                product = device.tcu.matmul(a, b, Precision.INT8)
                assert product.tolist() == [[127 * 127 * k]]

    def test_operands_are_quantized_before_the_range_check(self, device):
        a = np.array([[127.4, -0.4]])
        b = np.array([[2.0], [3.0]])
        assert device.tcu.matmul(a, b, Precision.INT8).tolist() == [[254]]


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 256),
    seed=st.integers(0, 99999),
)
def test_property_int4_indicator_products_exact(k, seed):
    """Indicator-matrix products are bit-exact at every TCU precision —
    the invariant behind the paper's 'joins never lose accuracy' claim."""
    device = GPUDevice()
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (17, k)).astype(float)
    b = rng.integers(0, 2, (k, 13)).astype(float)
    expected = a @ b
    for precision in (Precision.INT4, Precision.INT8, Precision.FP16):
        assert np.array_equal(device.tcu.matmul(a, b, precision), expected)
