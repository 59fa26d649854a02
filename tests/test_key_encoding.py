"""Key canonicalization: ``unique_inverse`` and the operators built on it.

* the primitive equals ``np.unique(keys, return_inverse=True)`` — values,
  values dtype, 1-D ``intp`` inverse — on every key shape, and picks the
  presence table or the sort from the array alone;
* called on several arrays it equals ``np.unique`` over their
  concatenation, inverse split per array, promotion included;
* an inverse is never a writable alias of its input: dense ``intp`` keys
  from 0 are their own codes, as a read-only view;
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
from repro.bench.verify import TCU_REL
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

INT64 = np.iinfo(np.int64)


@pytest.fixture
def table_calls(monkeypatch):
    """Sizes of the key arrays (summed over a union's arrays) that took
    the presence-table path."""
    calls: list[int] = []
    by_table = key_encoding._by_table

    def counted(arrays, lo, span):
        calls.append(sum(keys.size for keys in arrays))
        return by_table(arrays, lo, span)

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
    assert not (inverse.flags.writeable and np.shares_memory(inverse, keys))


def assert_union_equals_np_unique(*arrays, table: bool):
    """The variadic call against ``np.unique`` of the concatenation, split
    at the array sizes.  Only the presence table's dense-from-0 domain
    returns a (read-only) ``intp`` input as its own codes; no other
    inverse shares memory with any input."""
    values, *inverses = unique_inverse(*arrays)
    expected_values, expected_inverse = np.unique(np.concatenate(arrays),
                                                  return_inverse=True)
    assert values.dtype == expected_values.dtype
    assert np.array_equal(values, expected_values,
                          equal_nan=values.dtype.kind == "f")
    ends = np.cumsum([keys.size for keys in arrays])[:-1]
    expected_inverses = np.split(expected_inverse.reshape(-1), ends)
    assert len(inverses) == len(arrays)
    own_codes = (table and values.size > 0 and values[0] == 0
                 and values[-1] == values.size - 1)
    for keys, inverse, expected in zip(arrays, inverses, expected_inverses):
        assert inverse.dtype == np.intp and inverse.ndim == 1
        assert np.array_equal(inverse, expected)
        if own_codes and keys.dtype == np.intp and keys.size:
            assert np.shares_memory(inverse, keys)
            assert not inverse.flags.writeable
        else:
            assert not any(np.shares_memory(inverse, other)
                           for other in arrays)


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

    def test_inverse_is_never_a_writable_alias(self):
        keys = np.arange(10, dtype=np.intp)[::-1]
        _, inverse = unique_inverse(keys)
        assert np.shares_memory(inverse, keys)
        assert keys.flags.writeable and not inverse.flags.writeable
        with pytest.raises(ValueError):
            inverse[0] = 3
        assert keys[0] == 9
        for other in (keys + 1, keys.astype(np.int32), keys[:-1:2],
                      keys * 10**12):
            _, inverse = unique_inverse(other)
            assert not np.shares_memory(inverse, other), other.dtype


def _union_cases():
    rng = np.random.default_rng(17)
    dense = rng.permutation(np.arange(60)) % 40
    holey = rng.integers(0, 60, 80) * 2
    empty = np.array([], dtype=np.int64)
    size_l, size_r = 30, 20
    budget = DIRECT_ADDRESS_SLOTS_PER_ROW * (size_l + size_r)
    left = np.arange(-9, -9 + size_l, dtype=np.int64)

    def spanning(last):
        return np.concatenate([np.arange(-9, -9 + size_r - 1), [last]])

    # name -> (arrays, presence table expected)
    return {
        "int32 x int64, from 0": (
            (dense.astype(np.int32), dense[::3].astype(np.int64)), True),
        "int8 x uint8 promote to int16": (
            (np.array([-3, 5, 2], np.int8), np.array([255, 0, 4], np.uint8)),
            False),
        "uint32 x int16, from 0": (
            (np.arange(25, dtype=np.uint32), np.arange(-5, 5, dtype=np.int16)),
            True),
        "intp, dense from 0": ((dense, dense[:17]), True),
        "intp, dense from 0, one side inside": ((dense, dense[dense < 8]), True),
        "intp, dense from 5": ((dense + 5, dense[:9] + 5), True),
        "negative lo": ((dense - 30, dense[::2] - 7), True),
        "holes from 0": ((holey, holey[:20] + 2), True),
        "holes, negative lo": ((holey - 101, holey[5:] - 55), True),
        "one side empty": ((dense, empty), True),
        "other side empty": ((empty, dense[:30] - 3), True),
        "both empty": ((empty, empty[:0]), False),
        "empty float side": ((dense, np.array([], np.float64)), False),
        "span at the two-sided budget": ((left, spanning(-9 + budget - 1)),
                                         True),
        "span one past the two-sided budget": (
            (left, spanning(-9 + budget)), False),
        "int64 extremes": ((np.array([INT64.max, 0], np.int64),
                            np.array([INT64.min, INT64.max], np.int64)),
                           False),
        "float": ((dense / 4, dense[:7] / 2), False),
        "float x int": ((dense / 4, dense[:7]), False),
        "uint64": ((dense.astype(np.uint64), dense[:9].astype(np.uint64)),
                   False),
        "uint64 x int64": ((dense.astype(np.uint64), dense[:9]), False),
        "strings": ((dense.astype("U2"), np.array(["7", "x", ""])), False),
        "three arrays": ((dense, dense[:5] + 3, dense[::7] * 2), True),
    }


UNION_CASES = _union_cases()


@pytest.mark.parametrize("name", UNION_CASES)
def test_union_equals_np_unique_of_the_concatenation(name, table_calls):
    arrays, table = UNION_CASES[name]
    assert_union_equals_np_unique(*arrays, table=table)
    assert table_calls == ([sum(keys.size for keys in arrays)] if table
                           else [])


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


@pytest.mark.parametrize("name, sql, make_catalog, key_columns", [
    ("matmul", MATMUL_QUERY,
     lambda: matmul_catalog(24, seed=3, value_high=4.0), MATRIX_KEYS),
    ("ssb_star", SSB_STAR,
     lambda: ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13),
     SSB_KEYS),
], ids=["figure-5 matmul", "ssb grouped star"])
def test_dense_and_scaled_keys_agree_end_to_end(
        name, sql, make_catalog, key_columns, table_calls, domain_sizes):
    dense = make_catalog()
    observed, tables = {}, {}
    for shape, catalog in (("dense", dense),
                           ("scaled", scaled_key_catalog(dense, key_columns))):
        expected = ReferenceEngine(catalog).execute(sql)
        for variant, engine in engine_variants(catalog):
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
