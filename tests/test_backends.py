"""Tensor execution backends: primitive contracts and differential fuzz.

Three layers of coverage for :mod:`repro.tensor.backend`:

* **per-primitive units** — every backend's matmul (2-D and 3-D
  stacked, fp16-strategy and integer), gather, bincount, nonzero,
  dense-from-COO, masked apply and accumulate-into obey the documented
  equivalence contract against the sim backend (exact for integer /
  index primitives, ``rel=2e-3`` for fp16-strategy products);
* **selection policy** — explicit option > ``REPRO_BACKEND`` env >
  ``sim`` default, :class:`ConfigError` on unknown names, and the
  resolved name isolates :class:`~repro.engine.cache.ProgramCache`
  entries;
* **differential fuzz** — 50+ generated queries (reusing the seeded SSB
  generator) run under the fast backend across the native, hybrid and
  fallback routes, and must match both the sim backend and the
  reference oracle within the TCU tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match
from test_fuzz_queries import QueryGenerator
from test_operand_placement import PLACEMENTS, force_placement, make_side
from test_product_slices import (
    HISTORIES,
    numeric_grids,
    prepared_operands,
    product_plan,
)
from repro.bench.verify import TCU_REL
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions
from repro.engine.tcudb.driver import TCUDriver
from repro.engine.tcudb.patterns import AggregateSpec
from repro.hardware.gpu import GPUDevice
from repro.tensor.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    FastBackend,
    SimBackend,
    backend_policy,
    get_backend,
)
from repro.common.errors import PrecisionError
from repro.tensor.coo import dense_from_coo
from repro.tensor.precision import (
    FP16_EXACT_INT,
    INTEGER_WINDOW,
    Precision,
)

SUM_SPEC = AggregateSpec(func="sum", constant=1.0, factors=[])
FUZZ_SEED = 20250808
N_FUZZ_QUERIES = 60


def execution_backends() -> list:
    """Every non-sim backend."""
    return [FastBackend()]


@pytest.fixture(scope="module")
def device():
    return GPUDevice()


@pytest.fixture(scope="module")
def sim():
    return SimBackend()


# --------------------------------------------------------------------- #
# Per-primitive contracts
# --------------------------------------------------------------------- #

class TestPrimitiveContracts:
    @pytest.mark.parametrize("backend", execution_backends(),
                             ids=lambda b: b.name)
    def test_matmul_2d_fp16_within_envelope(self, backend, sim, device):
        rng = make_rng(7)
        # Magnitudes inside the fp16-exact integer range keep the sim's
        # binary16 rounding small, so both land within rel=2e-3.
        a = rng.integers(0, 2, size=(17, 40)).astype(np.float64)
        b = rng.integers(0, FP16_EXACT_INT, size=(40, 9)).astype(np.float64)
        reference = sim.matmul(device, a, b, Precision.FP16)
        got = backend.matmul(device, a, b, Precision.FP16)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, reference, rtol=TCU_REL)

    @pytest.mark.parametrize("backend", execution_backends(),
                             ids=lambda b: b.name)
    @pytest.mark.parametrize("precision", [Precision.INT8, Precision.INT4])
    def test_matmul_2d_integer_exact(self, backend, sim, device, precision):
        rng = make_rng(11)
        bound = 7 if precision is Precision.INT4 else 90
        a = rng.integers(0, 2, size=(12, 33)).astype(np.float64)
        b = rng.integers(0, bound, size=(33, 6)).astype(np.float64)
        reference = sim.matmul(device, a, b, precision)
        got = backend.matmul(device, a, b, precision)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("precision", list(INTEGER_WINDOW))
    def test_integer_stacks_bit_identical_sim_and_fast(self, sim, device,
                                                       precision,
                                                       monkeypatch):
        """Both backends run ``exact_integer_matmul`` on their own fill
        dtype: the stacked product agrees to the bit, inside the float32
        window (k = 300) and past it (full-range int8 at k = 2100)."""
        lo, hi = INTEGER_WINDOW[precision]
        fast = FastBackend()
        widths = []
        matmul = np.matmul

        def recorded(a, b, **kwargs):
            widths.append(np.result_type(a, b))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        for seed, (n, g1, k, g2) in enumerate(
                [(2, 9, 300, 7), (3, 4, 2100, 5), (1, 1, 17, 1)]):
            rng = make_rng(seed)
            a = rng.integers(lo, hi + 1, size=(n, g1, k))
            b = rng.integers(lo, hi + 1, size=(n, g2, k))
            a[0, 0, 0] = b[0, 0, 0] = lo  # the widest magnitude is present
            reference = sim.matmul(
                device, a.astype(sim.fill_dtype),
                b.astype(sim.fill_dtype).transpose(0, 2, 1), precision)
            got = fast.matmul(
                device, a.astype(fast.fill_dtype),
                b.astype(fast.fill_dtype).transpose(0, 2, 1), precision)
            assert got.dtype == reference.dtype == np.int64
            np.testing.assert_array_equal(got, reference)
            np.testing.assert_array_equal(got, a @ b.transpose(0, 2, 1))
            acc = fast.matmul_into(
                np.zeros(got.shape), device, a.astype(fast.fill_dtype),
                b.astype(fast.fill_dtype).transpose(0, 2, 1), precision)
            np.testing.assert_array_equal(acc, reference)
            expected = (np.float32 if k * lo * lo <= 1 << 24
                        else np.float64)
            assert set(widths) == {np.dtype(expected)}, (precision, k)
            del widths[:]

    def test_sim_integer_checks_survive_the_shared_product(self, sim,
                                                           device):
        ones = np.ones((2, 2))
        for bad in (200.0, np.nan, np.inf):
            with pytest.raises(PrecisionError, match="range"):
                sim.matmul(device, np.full((2, 2), bad), ones,
                           Precision.INT8)
        k = 133_145  # 127 * 127 * k is the first sum past int32
        with pytest.raises(PrecisionError, match="accumulator"):
            sim.matmul(device, np.full((1, k), 127.0),
                       np.full((k, 1), 127.0), Precision.INT8)

    @pytest.mark.parametrize("backend", execution_backends(),
                             ids=lambda b: b.name)
    def test_matmul_3d_stacked_batch(self, backend, sim, device):
        rng = make_rng(13)
        a = rng.integers(0, 2, size=(3, 8, 21)).astype(np.float64)
        b = rng.integers(0, 500, size=(3, 21, 5)).astype(np.float64)
        reference = sim.matmul(device, a, b, Precision.FP16)
        got = backend.matmul(device, a, b, Precision.FP16)
        assert got.shape == reference.shape == (3, 8, 5)
        np.testing.assert_allclose(got, reference, rtol=TCU_REL)

    @pytest.mark.parametrize("backend", execution_backends(),
                             ids=lambda b: b.name)
    def test_matmul_into_accumulates(self, backend, sim, device):
        rng = make_rng(17)
        acc = np.zeros((10, 7))
        expected = np.zeros((10, 7))
        for _ in range(4):  # several chunks, same output shape
            a = rng.integers(0, 2, size=(10, 25)).astype(np.float64)
            b = rng.integers(0, 800, size=(25, 7)).astype(np.float64)
            acc = backend.matmul_into(acc, device, a, b, Precision.FP16)
            expected += sim.matmul(device, a, b, Precision.FP16)
        np.testing.assert_allclose(acc, expected, rtol=TCU_REL)

    def test_fast_matmul_into_reuses_scratch_buffer(self, device):
        backend = FastBackend()
        acc = np.zeros((6, 4))
        a = np.ones((6, 10))
        b = np.ones((10, 4))
        backend.matmul_into(acc, device, a, b, Precision.FP16)
        first = backend._scratch.buffers[(6, 4)]
        backend.matmul_into(acc, device, a, b, Precision.FP16)
        assert backend._scratch.buffers[(6, 4)] is first  # no realloc

    @pytest.mark.parametrize("backend",
                             [SimBackend()] + execution_backends(),
                             ids=lambda b: b.name)
    def test_gather(self, backend):
        array = np.array([10, 20, 30, 40, 50])
        indices = np.array([4, 0, 2, 2])
        np.testing.assert_array_equal(
            backend.gather(array, indices), np.array([50, 10, 30, 30])
        )

    @pytest.mark.parametrize("backend",
                             [SimBackend()] + execution_backends(),
                             ids=lambda b: b.name)
    def test_bincount(self, backend):
        codes = np.array([0, 2, 2, 1, 2])
        np.testing.assert_array_equal(
            backend.bincount(codes, minlength=5),
            np.array([1, 1, 3, 0, 0]),
        )
        weighted = backend.bincount(
            codes, weights=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), minlength=4
        )
        np.testing.assert_array_equal(weighted,
                                      np.array([1.0, 4.0, 10.0, 0.0]))

    @pytest.mark.parametrize("backend",
                             [SimBackend()] + execution_backends(),
                             ids=lambda b: b.name)
    def test_nonzero(self, backend):
        matrix = np.array([[0, 3], [1, 0], [0, 0]])
        rows, cols = backend.nonzero(matrix)
        np.testing.assert_array_equal(rows, np.array([0, 1]))
        np.testing.assert_array_equal(cols, np.array([1, 0]))

    @pytest.mark.parametrize("backend",
                             [SimBackend()] + execution_backends(),
                             ids=lambda b: b.name)
    def test_dense_from_coo_sums_duplicates(self, backend):
        rows = np.array([0, 1, 1, 0])
        cols = np.array([1, 2, 2, 1])
        vals = np.array([2.0, 3.0, 4.0, 5.0])
        dense = backend.dense_from_coo(rows, cols, vals, (2, 3))
        expected = np.array([[0.0, 7.0, 0.0], [0.0, 0.0, 7.0]])
        np.testing.assert_array_equal(np.asarray(dense, dtype=np.float64),
                                      expected)
        empty = backend.dense_from_coo(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([]), (2, 2),
        )
        assert np.asarray(empty).shape == (2, 2)
        assert not np.any(empty)

    @pytest.mark.parametrize("backend",
                             [SimBackend()] + execution_backends(),
                             ids=lambda b: b.name)
    def test_apply_mask(self, backend):
        mask = np.array([True, False, True])
        filtered = backend.apply_mask(
            [np.array([1, 2, 3]), np.array(["a", "b", "c"])], mask
        )
        np.testing.assert_array_equal(filtered[0], np.array([1, 3]))
        np.testing.assert_array_equal(filtered[1], np.array(["a", "c"]))

    def test_fast_fill_is_sgemm_ready(self):
        """The fast backend's operand fill feeds sgemm without copies."""
        dense = FastBackend().dense_from_coo(
            np.array([0, 1]), np.array([1, 0]), np.array([1.5, 2.5]), (2, 2)
        )
        assert dense.dtype == np.float32
        assert dense.flags.c_contiguous


# --------------------------------------------------------------------- #
# The sim backend's fill-time binary16 cast
# --------------------------------------------------------------------- #

def _cast_values(kind: str, rng, size: int) -> np.ndarray:
    """Per-tuple fill values of one magnitude class."""
    if kind == "unit scale":  # cell sums stay inside fp16's exact window
        return rng.integers(-20, 21, size).astype(np.float64)
    if kind in ("2^15", "2^31"):
        edge = 2.0 ** int(kind[2:])
        values = rng.uniform(-edge, edge, size)
        values[0], values[-1] = edge, -edge
        return values
    if kind == "subnormal":  # below binary16's smallest normal, 2**-14
        return rng.choice([2.0 ** -20, -(2.0 ** -24), 3e-8, 6e-5, -1e-6],
                          size)
    assert kind == "zero"
    return np.zeros(size)


def _cast_case(left_kind: str, right_kind: str, single_cell: bool):
    rng = make_rng(39)
    n, m, k = 60, 40, 11
    if single_cell:  # one tuple: a slice with one occupied cell
        left = make_side([2], [7], 4)
    else:
        left = make_side(rng.integers(0, 4, n), rng.integers(0, k, n), 4)
    right = make_side(rng.integers(0, 3, m), rng.integers(0, k, m), 3)
    fills = []
    for placed, kind in ((left, left_kind), (right, right_kind)):
        keys = placed.keys_mapped
        if kind == "2^31 in chunk 0":
            # The chunks' scales differ: chunk 0's would push the other
            # chunks' fractions into binary16's subnormal range.
            values = rng.normal(size=keys.size)
            values[keys < 3] *= 2.0 ** 31
        else:
            values = _cast_values(kind, rng, keys.size)
        fills.append([None, values])
    return (left, fills[0]), (right, fills[1]), k


def _dense_emulator(device, left, right, k, chunk):
    """Every slot's grid as the unit's dense entry computes it: float64
    operands placed by ``dense_from_coo`` and cast inside
    ``TensorCoreUnit.matmul`` — one stacked product, or one product per
    key-domain chunk both sides occupy, added in chunk order."""
    stacks = [np.stack([
        dense_from_coo(placed.row_codes(), placed.keys_mapped,
                       np.ones(placed.keys_mapped.size) if v is None else v,
                       (placed.g, k))
        for v in fills]) for placed, fills in (left, right)]
    a, b = stacks
    if k <= chunk:
        return device.tcu.matmul(a, b.transpose(0, 2, 1), Precision.FP16)
    grids = np.zeros((a.shape[0], a.shape[1], b.shape[1]))
    for k0 in range(0, k, chunk):
        if not all(((placed.keys_mapped >= k0)
                    & (placed.keys_mapped < k0 + chunk)).any()
                   for placed, _ in (left, right)):
            continue
        for grid, mat_a, mat_b in zip(grids, a, b):
            grid += device.tcu.matmul(
                np.ascontiguousarray(mat_a[:, k0:k0 + chunk]),
                np.ascontiguousarray(mat_b[:, k0:k0 + chunk]).T,
                Precision.FP16)
    return grids


@pytest.mark.parametrize("history", HISTORIES)
@pytest.mark.parametrize("chunk", [1 << 20, 3], ids=["whole", "slices"])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("kinds", [
    ("unit scale", "unit scale", False), ("2^15", "unit scale", False),
    ("2^31", "2^15", False), ("subnormal", "2^31", False),
    ("zero", "subnormal", False), ("2^31 in chunk 0", "2^15", False),
    ("2^31", "subnormal", True),
    ("unit scale", "zero", True)], ids=lambda kinds: "-".join(
        map(str, kinds)))
def test_fill_cast_is_the_dense_emulator(kinds, placement, chunk, history,
                                         device, monkeypatch):
    """The sim backend casts each slice's occupied cells at fill time;
    its grids equal, byte for byte (zero signs included), the dense
    emulator's, which casts the whole float64 operand inside the
    product.  Every product reads the fill's cast, none casts again."""
    left, right, k = _cast_case(*kinds)
    force_placement(monkeypatch, placement)
    driver = TCUDriver(device, chunk_rows=chunk, backend="sim")
    plan = product_plan(device, left, right, k, Precision.FP16,
                        Strategy.DENSE)
    structures, sums, _ = prepared_operands(left, right, k, [SUM_SPEC])
    assert all((s.cells is None) == (placement == "addressed")
               for s in structures)
    products = []
    unit_matmul = type(device.tcu).matmul
    monkeypatch.setattr(
        type(device.tcu), "matmul",
        lambda tcu, a, b, precision, scale=None: products.append(
            (a.dtype, b.dtype, scale is not None))
        or unit_matmul(tcu, a, b, precision, scale=scale))
    grids, count_grid, _ = numeric_grids(
        driver, history, *structures, *sums, [SUM_SPEC], plan)
    assert products and set(products) == {
        (np.dtype(np.float32), np.dtype(np.float32), True)}
    monkeypatch.undo()
    expected = _dense_emulator(device, left, right, k, chunk)
    assert grids[0].tobytes() == expected[1].tobytes()
    if count_grid is not None:
        assert count_grid.tobytes() == expected[0].tobytes()


def test_fill_cast_rejects_non_finite_sums():
    with pytest.raises(PrecisionError, match="NaN or infinite"):
        SimBackend().fill_format(Precision.FP16)[1](np.array([1.0, np.nan]))


# --------------------------------------------------------------------- #
# Selection policy + cache isolation
# --------------------------------------------------------------------- #

class TestSelectionPolicy:
    def test_default_is_sim(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_policy(None) == DEFAULT_BACKEND == "sim"
        assert isinstance(get_backend(None), SimBackend)

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert backend_policy(None) == "fast"
        assert isinstance(get_backend(None), FastBackend)

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert backend_policy("sim") == "sim"

    def test_names_are_case_insensitive(self):
        assert backend_policy("  FAST ") == "fast"

    def test_unknown_name_raises(self, monkeypatch):
        with pytest.raises(ConfigError, match="unknown tensor backend"):
            backend_policy("cuda")
        monkeypatch.setenv("REPRO_BACKEND", "nope")
        with pytest.raises(ConfigError, match="unknown tensor backend"):
            backend_policy(None)

    def test_registry_covers_documented_backends(self):
        assert set(BACKENDS) == {"sim", "fast"}

    def test_torch_unavailable_is_config_error(self):
        """There is no torch backend: the name is rejected like a typo."""
        with pytest.raises(ConfigError, match="unknown tensor backend"):
            get_backend("torch")

    def test_cache_key_isolates_backends(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        catalog = ssb_catalog(scale_factor=1, rows_per_sf=200, seed=5)
        by_option = TCUDBEngine(
            catalog, options=TCUDBOptions(backend="fast"))
        defaulted = TCUDBEngine(catalog)
        assert by_option._cache_options_key() != defaulted._cache_options_key()
        # A backend picked up from the environment must isolate the same
        # way — the key records the *resolved* name, never "None".
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        by_env = TCUDBEngine(catalog)
        assert by_env._cache_options_key() == by_option._cache_options_key()


# --------------------------------------------------------------------- #
# Differential fuzz: fast backend vs sim vs oracle, every route
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def fuzz_catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=1500, seed=13)


def test_fuzzed_queries_agree_across_backends(fuzz_catalog):
    """50+ generated queries: the fast backend matches both the sim
    backend and the oracle on the native, hybrid and fallback routes."""
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    oracle = ReferenceEngine(fuzz_catalog)
    engines = {
        name: TCUDBEngine(fuzz_catalog, mode=ExecutionMode.REAL,
                          options=TCUDBOptions(backend=name))
        for name in ("sim", "fast")
    }
    routes: set[str] = set()
    failures: list[str] = []
    for index in range(N_FUZZ_QUERIES):
        sql = generator.generate()
        try:
            expected = oracle.execute(sql)
            sim_run = engines["sim"].execute(sql)
            fast_run = engines["fast"].execute(sql)
            if fast_run.extra.get("fallback_reason"):
                routes.add("fallback")
            elif fast_run.extra.get("executed_by") == "TCU-hybrid":
                routes.add("hybrid")
            else:
                routes.add("native")
            assert_results_match(fast_run, expected, rel=TCU_REL,
                                 context=f"fast vs oracle #{index}: {sql}")
            assert_results_match(fast_run, sim_run, rel=TCU_REL,
                                 context=f"fast vs sim #{index}: {sql}")
            # Simulated seconds model the device, not the host path.
            assert fast_run.seconds == sim_run.seconds, (
                f"simulated seconds changed with the backend: {sql}"
            )
        except AssertionError as error:
            failures.append(f"-- fuzz #{index}\n{sql}\n   {error}")
        except Exception as error:  # engine crash: also a bug
            failures.append(
                f"-- fuzz #{index} raised {type(error).__name__}: "
                f"{error}\n{sql}"
            )
    if failures:
        pytest.fail(
            f"{len(failures)}/{N_FUZZ_QUERIES} fuzzed queries diverged "
            "across backends; reproducing SQL below\n"
            + "\n".join(failures[:10])
        )
    assert routes == {"native", "hybrid", "fallback"}, routes

