"""Key canonicalization: ``unique_inverse`` and the operators built on it.

* the primitive equals ``np.unique(keys, return_inverse=True)`` — values,
  values dtype, 1-D ``intp`` inverse — on every key shape, and picks the
  presence table or the sort from the array alone;
* end to end: Figure 5's matmul and an SSB grouped star give the oracle's
  rows on dense keys (table) and on the same keys x 10^9 (sort), with the
  same ``k``, plan and simulated seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import (
    assert_results_match,
    engine_variants,
    scaled_key_catalog,
)
from repro.datasets.matmul import MATMUL_QUERY, matmul_catalog
from repro.datasets.ssb import ssb_catalog
from repro.engine import ReferenceEngine
from repro.engine.tcudb import ops
from repro.tensor import keys as key_encoding
from repro.tensor.keys import (
    DIRECT_ADDRESS_SLOTS_PER_ROW,
    KEY_TABLE_MAX_SLOTS,
    unique_inverse,
)

pytestmark = pytest.mark.engine_matrix

TCU_REL = 2e-3
INT64 = np.iinfo(np.int64)


@pytest.fixture
def table_calls(monkeypatch):
    """Sizes of the key arrays that took the presence-table path."""
    calls: list[int] = []
    by_table = key_encoding._by_table

    def counted(keys, lo, span):
        calls.append(keys.size)
        return by_table(keys, lo, span)

    monkeypatch.setattr(key_encoding, "_by_table", counted)
    return calls


def assert_equals_np_unique(keys, context=""):
    values, inverse = unique_inverse(keys)
    expected_values, expected_inverse = np.unique(keys, return_inverse=True)
    assert values.dtype == expected_values.dtype, context
    assert np.array_equal(values, expected_values,
                          equal_nan=values.dtype.kind == "f"), context
    assert inverse.dtype == np.intp and inverse.ndim == 1, context
    assert np.array_equal(inverse, expected_inverse.reshape(-1)), context


class TestUniqueInverse:
    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
    ])
    def test_integer_keys_equal_np_unique(self, dtype, table_calls):
        rng = np.random.default_rng(np.dtype(dtype).itemsize * 31
                                    + (np.dtype(dtype).kind == "u"))
        info = np.iinfo(dtype)
        for trial in range(40):
            size = int(rng.integers(1, 400))
            # Dense runs (duplicates, no holes), holey ranges and sparse
            # ones (over the per-key budget), anywhere in the dtype.
            span = int(rng.choice([1, 3, size // 2 + 1, size, 3 * size,
                                   50 * size]))
            span = min(span, int(info.max) - int(info.min))
            lo = int(rng.integers(info.min, int(info.max) - span + 1,
                                  dtype=np.int64))
            keys = rng.integers(lo, lo + span + 1, size=size,
                                dtype=np.int64).astype(dtype)
            before = len(table_calls)
            assert_equals_np_unique(keys, f"{dtype.__name__} trial {trial}")
            spread = int(keys.max()) - int(keys.min()) + 1
            dense = spread <= DIRECT_ADDRESS_SLOTS_PER_ROW * size
            assert (len(table_calls) > before) == dense, (trial, spread, size)

    def test_dtype_extremes_stay_in_the_dtype(self, table_calls):
        for dtype in (np.int8, np.uint8, np.int16):
            info = np.iinfo(dtype)
            keys = np.array([info.max, info.min, info.max, info.min + 1]
                            * 5000, dtype=dtype)
            assert_equals_np_unique(keys, dtype.__name__)
        assert len(table_calls) == 3

    def test_int64_extremes_take_the_sort(self, table_calls):
        # max - min does not fit int64: the span is a Python int.
        keys = np.array([INT64.max, INT64.min, 0, INT64.max], dtype=np.int64)
        assert_equals_np_unique(keys)
        near = np.array([INT64.max, INT64.max - 2, INT64.max], dtype=np.int64)
        assert_equals_np_unique(near)
        low = np.array([INT64.min + 1, INT64.min, INT64.min + 1],
                       dtype=np.int64)
        assert_equals_np_unique(low)
        assert table_calls == [3, 3]

    def test_per_key_budget_at_and_one_past(self, table_calls):
        size = 50
        budget = DIRECT_ADDRESS_SLOTS_PER_ROW * size
        body = np.arange(-9, -9 + size - 2, dtype=np.int64)
        at = np.concatenate([body, [-9, -9 + budget - 1]])
        past = np.concatenate([body, [-9, -9 + budget]])
        assert_equals_np_unique(at)
        assert table_calls == [size]
        assert_equals_np_unique(past)
        assert table_calls == [size]

    def test_absolute_budget_at_and_one_past(self, table_calls):
        size = KEY_TABLE_MAX_SLOTS // DIRECT_ADDRESS_SLOTS_PER_ROW + 8
        rng = np.random.default_rng(5)
        body = rng.integers(7, 7 + KEY_TABLE_MAX_SLOTS, size=size - 2)
        at = np.concatenate([body, [7, 7 + KEY_TABLE_MAX_SLOTS - 1]])
        past = np.concatenate([body, [7, 7 + KEY_TABLE_MAX_SLOTS]])
        assert_equals_np_unique(at)
        assert table_calls == [size]
        assert_equals_np_unique(past)
        assert table_calls == [size]

    def test_other_dtypes_take_the_sort(self, table_calls):
        rng = np.random.default_rng(11)
        ints = rng.integers(0, 20, size=200)
        for keys in (
            ints.astype(np.uint64),
            ints.astype(np.float64) / 4,
            np.array([np.nan, 1.0, np.nan, -0.0, 0.0]),
            ints.astype("U3"),
            np.array(["b", "a", "b", ""]),
            ints % 2 == 0,
        ):
            assert_equals_np_unique(keys, str(keys.dtype))
        assert table_calls == []

    def test_sizes_zero_and_one(self, table_calls):
        for dtype in (np.int64, np.uint8, np.float64, "U1"):
            assert_equals_np_unique(np.array([], dtype=dtype), str(dtype))
        assert table_calls == []
        assert_equals_np_unique(np.array([-5], dtype=np.int32))
        assert_equals_np_unique(np.array(7))  # 0-d
        assert table_calls == [1, 1]

    def test_non_contiguous_and_2d_input(self, table_calls):
        grid = np.random.default_rng(3).integers(-4, 30, size=(12, 9))
        for keys in (grid, grid.T, grid[::2, 1::3], grid.reshape(-1)[::-2],
                     grid.astype(np.float64), np.asfortranarray(grid)):
            assert_equals_np_unique(keys)
        assert len(table_calls) == 5

    def test_inverse_never_aliases_the_input(self):
        keys = np.arange(10, dtype=np.intp)
        _, inverse = unique_inverse(keys)
        assert not np.shares_memory(inverse, keys)


# --------------------------------------------------------------------- #
# End to end: dense keys (presence table) vs the same keys x 10^9 (sort)
# --------------------------------------------------------------------- #

MATRIX_KEYS = {"a": {"row_num", "col_num"}, "b": {"row_num", "col_num"}}
SSB_KEYS = {
    "lineorder": {"lo_custkey", "lo_suppkey", "lo_orderdate"},
    "customer": {"c_custkey"}, "supplier": {"s_suppkey"},
    "ddate": {"d_datekey"},
}
SSB_STAR = (
    "SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue, "
    "COUNT(*) AS n FROM lineorder, customer, supplier, ddate "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_orderdate = d_datekey AND c_region = 'ASIA' "
    "AND s_region = 'ASIA' GROUP BY c_nation, s_nation, d_year"
)


@pytest.fixture
def domain_sizes(monkeypatch):
    """``k`` of every union key domain the operators derive."""
    sizes: list[int] = []
    union_key_domain = ops.union_key_domain

    def recorded(left_keys, right_keys):
        domain = union_key_domain(left_keys, right_keys)
        sizes.append(domain.k)
        return domain

    monkeypatch.setattr(ops, "union_key_domain", recorded)
    return sizes


@pytest.mark.parametrize("name, sql, make_catalog, key_columns, fact", [
    ("matmul", MATMUL_QUERY,
     lambda: matmul_catalog(24, seed=3, value_high=4.0), MATRIX_KEYS, "a"),
    ("ssb_star", SSB_STAR,
     lambda: ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13),
     SSB_KEYS, "lineorder"),
], ids=["figure-5 matmul", "ssb grouped star"])
def test_dense_and_scaled_keys_agree_end_to_end(
        name, sql, make_catalog, key_columns, fact, table_calls,
        domain_sizes, monkeypatch):
    dense = make_catalog()
    observed, tables = {}, {}
    for shape, catalog in (("dense", dense),
                           ("scaled", scaled_key_catalog(dense, key_columns))):
        expected = ReferenceEngine(catalog).execute(sql)
        for variant, engine in engine_variants(catalog, fact,
                                                   monkeypatch):
            del table_calls[:], domain_sizes[:]
            got = engine.execute(sql)
            context = f"{name}, {shape} keys, {variant}"
            assert not got.extra.get("fallback_reason"), context
            assert_results_match(got, expected, rel=TCU_REL, context=context)
            observed[shape, variant] = (
                repr(got.seconds), got.extra["executed_by"],
                got.extra.get("strategy"), got.extra.get("precision"),
                sorted(domain_sizes),
            )
            tables[shape, variant] = len(table_calls)
    for (shape, variant), seen in observed.items():
        # Key shape decides the path, never the plan, ``k`` or the ledger.
        assert seen == observed["dense", variant], (name, shape, variant)
        assert seen[4], (name, variant)
        assert tables["dense", variant] > tables["scaled", variant], variant
