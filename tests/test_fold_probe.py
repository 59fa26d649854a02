"""The fold join's probe and the TCUDB scan's projection.

* the shared probe: its direct-address and sorted strategies agree on
  every key shape, and the selection rule holds at its threshold;
* the fold body: an empty dimension keeps the gathered columns' dtypes;
* ``TableSource`` carries only the columns the query reads;
* end to end: dense SSB keys (direct-address) and sparse surrogate keys
  (sorted) give the oracle's rows at identical simulated cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match, scaled_key_catalog
from repro.common.errors import ExecutionError
from repro.datasets.ssb import ssb_catalog
from repro.engine import ReferenceEngine
from repro.engine.tcudb import DistributedEngine, TCUDBEngine, TCUDBOptions
from repro.engine.tcudb import ops
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tensor.backend import get_backend
from repro.tensor.keys import DIRECT_ADDRESS_SLOTS_PER_ROW

TCU_REL = 2e-3
INT64 = np.iinfo(np.int64)


# --------------------------------------------------------------------- #
# (a) The shared probe
# --------------------------------------------------------------------- #


def reference_probe(dim_keys, fact_keys):
    """The loop the vectorized strategies replace: Python-int equality,
    so no dtype promotion or wrap-around can hide a mismatch."""
    rows_of: dict[int, list[int]] = {}
    for row, key in enumerate(dim_keys.tolist()):
        rows_of.setdefault(key, []).append(row)
    hits = [rows_of.get(key, []) for key in fact_keys.tolist()]
    matched = np.array([bool(rows) for rows in hits], dtype=bool)
    if any(len(rows) > 1 for rows in rows_of.values()):
        return None, matched, np.array([len(rows) for rows in hits])
    return (np.array([rows[0] if rows else -1 for rows in hits], dtype=int),
            matched, None)


def assert_probe_equal(got, expected, context):
    for name, g, e in zip(("dim_rows", "matched", "multiplicity"),
                          got, expected):
        if e is None:
            assert g is None, f"{name} should be None: {context}"
        else:
            assert g is not None and np.array_equal(g, e), (
                f"{name} differs: {context}")


def both_strategies(dim_keys, fact_keys):
    backend = get_backend("sim")
    lo = int(dim_keys.min())
    span = int(dim_keys.max()) - lo + 1
    return (
        ops._probe_direct(backend, dim_keys, fact_keys, lo, span),
        ops._probe_sorted(backend, dim_keys, fact_keys),
    )


KEY_DTYPES = [np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.int8]


class TestProbeStrategies:
    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_direct_equals_sorted(self, seed):
        rng = np.random.default_rng(seed)
        dim_dtype, fact_dtype = rng.choice(KEY_DTYPES, size=2)
        info = np.iinfo(dim_dtype)
        width = int(rng.integers(1, 60))
        lo = int(rng.integers(max(info.min, -500), min(info.max, 500) - width))
        n_dim = int(rng.integers(1, 40))
        dim_keys = rng.integers(lo, lo + width, n_dim).astype(dim_dtype)
        if rng.random() < 0.5:  # unique-key dimension
            dim_keys = rng.permutation(np.unique(dim_keys))
        # Fact keys straddle the dimension range on both sides, as far
        # as the fact dtype can express (negative keys included).
        fact_info = np.iinfo(fact_dtype)
        fact_lo = max(lo - 20, fact_info.min)
        fact_hi = max(min(lo + width + 20, fact_info.max), fact_lo + 1)
        fact_keys = rng.integers(
            fact_lo, fact_hi, int(rng.integers(0, 200))).astype(fact_dtype)
        direct, by_sort = both_strategies(dim_keys, fact_keys)
        expected = reference_probe(dim_keys, fact_keys)
        context = f"seed={seed} dim={dim_keys!r} fact={fact_keys!r}"
        assert_probe_equal(direct, expected, "direct " + context)
        assert_probe_equal(by_sort, expected, "sorted " + context)

    def test_empty_fact_side(self):
        dim_keys = np.array([3, 1, 2], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        for got in both_strategies(dim_keys, empty):
            assert got[0].size == 0 and got[1].size == 0 and got[2] is None

    def test_empty_dimension_matches_nothing(self):
        fact_keys = np.array([1, 2, 3], dtype=np.int64)
        for dim_dtype in (np.int64, np.float64):
            dim_rows, matched, multiplicity = ops.probe_dimension(
                get_backend("sim"), np.array([], dtype=dim_dtype), fact_keys)
            assert np.array_equal(dim_rows, [-1, -1, -1])
            assert not matched.any() and multiplicity is None

    def test_int64_extremes_do_not_overflow(self):
        # max - min exceeds the int64 positive range: the span must be
        # computed in Python ints, and such keys take the sorted probe.
        dim_keys = np.array([INT64.min, 0, INT64.max], dtype=np.int64)
        fact_keys = np.array([INT64.max, INT64.min, 5, 0], dtype=np.int64)
        assert ops._direct_address_range(dim_keys, fact_keys) is None
        got = ops.probe_dimension(get_backend("sim"), dim_keys, fact_keys)
        assert_probe_equal(got, reference_probe(dim_keys, fact_keys),
                           "int64 extremes")

    def test_direct_probe_masks_wrapping_fact_offsets(self):
        # ``fact - lo`` wraps for these fact keys; both must stay
        # unmatched instead of aliasing a slot.
        dim_keys = np.array([INT64.max - 3, INT64.max - 1], dtype=np.int64)
        fact_keys = np.array([INT64.min, INT64.min + 2, INT64.max - 1, -1],
                             dtype=np.int64)
        direct, by_sort = both_strategies(dim_keys, fact_keys)
        expected = reference_probe(dim_keys, fact_keys)
        assert_probe_equal(direct, expected, "direct, wrapping offsets")
        assert_probe_equal(by_sort, expected, "sorted, wrapping offsets")

    def test_selection_rule_at_the_threshold(self):
        fact_keys = np.arange(6, dtype=np.int64)
        budget = DIRECT_ADDRESS_SLOTS_PER_ROW * (2 + fact_keys.size)
        at = np.array([-7, -7 + budget - 1], dtype=np.int64)
        past = np.array([-7, -7 + budget], dtype=np.int64)
        assert ops._direct_address_range(at, fact_keys) == (-7, budget)
        assert ops._direct_address_range(past, fact_keys) is None

    def test_selection_rule_caps_the_table_size(self):
        # Plenty of fact rows for the per-row budget: the absolute cap
        # (a table that stays in a core's private cache) decides.
        fact_keys = np.zeros(ops.DIRECT_ADDRESS_MAX_SLOTS, dtype=np.int64)
        cap = ops.DIRECT_ADDRESS_MAX_SLOTS
        at = np.array([5, 5 + cap - 1], dtype=np.int64)
        past = np.array([5, 5 + cap], dtype=np.int64)
        assert ops._direct_address_range(at, fact_keys) == (5, cap)
        assert ops._direct_address_range(past, fact_keys) is None
        got = ops.probe_dimension(get_backend("sim"), past, past[::-1])
        assert np.array_equal(got[0], [1, 0]) and got[1].all()

    def test_float_and_uint64_keys_take_the_sorted_probe(self):
        ints = np.array([1, 2, 3], dtype=np.int64)
        for other in (ints.astype(np.float64), ints.astype(np.uint64)):
            assert ops._direct_address_range(other, ints) is None
            assert ops._direct_address_range(ints, other) is None
            got = ops.probe_dimension(get_backend("sim"), other, ints)
            assert np.array_equal(got[0], [0, 1, 2]) and got[1].all()


# --------------------------------------------------------------------- #
# (b) Projected scans
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


def scan(catalog, sql, binding, **options):
    engine = TCUDBEngine(catalog, options=TCUDBOptions(**options))
    ctx = engine._context(bind(parse(sql), catalog))
    return ops.TableSource(id=f"scan_{binding}", binding=binding).execute(ctx)


STAR = ("SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder, ddate "
        "WHERE lo_orderdate = d_datekey AND lo_discount BETWEEN 1 AND 3 "
        "GROUP BY d_year")


class TestProjectedScan:
    # Chunk-pruned (sequential and morsel-parallel), unchunked, and — on
    # ddate, which has no filter here — the unfiltered branch.
    @pytest.mark.parametrize("options", [
        {}, {"workers": 2}, {"chunked_execution": False}, {"chunk_rows": 64},
    ])
    def test_only_referenced_columns_are_carried(self, catalog, options):
        fact = scan(catalog, STAR, "lineorder", **options).env
        assert sorted(fact.arrays) == [
            "lineorder.lo_discount", "lineorder.lo_orderdate",
            "lineorder.lo_revenue",
        ]
        discount = fact.lookup("lineorder.lo_discount")
        assert fact.n_rows == discount.size > 0
        assert ((discount >= 1) & (discount <= 3)).all()
        dim = scan(catalog, STAR, "ddate", **options).env
        assert sorted(dim.arrays) == ["ddate.d_datekey", "ddate.d_year"]
        assert dim.n_rows == catalog.get("ddate").num_rows

    def test_projection_keeps_rows_of_a_fully_pruned_scan_typed(self, catalog):
        sql = STAR.replace("BETWEEN 1 AND 3", "> 1000")
        env = scan(catalog, sql, "lineorder").env
        assert env.n_rows == 0
        assert env.lookup("lineorder.lo_revenue").dtype == (
            catalog.get("lineorder").column("lo_revenue").data.dtype)

    def test_select_star_keeps_every_column(self, catalog):
        sql = "SELECT * FROM ddate WHERE d_year = 1994"
        env = scan(catalog, sql, "ddate").env
        assert sorted(env.arrays) == sorted(
            f"ddate.{name.lower()}"
            for name in catalog.get("ddate").column_names)
        assert_results_match(TCUDBEngine(catalog).execute(sql),
                             ReferenceEngine(catalog).execute(sql))

    def test_unreferenced_column_lookup_fails_loudly(self, catalog):
        env = scan(catalog, STAR, "lineorder").env
        with pytest.raises(ExecutionError, match="lo_quantity"):
            env.lookup("lineorder.lo_quantity")


# --------------------------------------------------------------------- #
# Empty dimensions keep the gathered columns' dtypes
# --------------------------------------------------------------------- #


def test_empty_dimension_keeps_float_group_column():
    catalog = Catalog()
    catalog.register(Table.from_dict("f", {
        "k": [1, 2, 2, 3], "b": [1, 1, 2, 2], "v": [1.0, 2.0, 3.0, 4.0],
    }))
    catalog.register(Table.from_dict("d", {
        "k": [1, 2, 3], "rate": [0.5, 1.5, 2.5], "tag": [7, 8, 9],
    }))
    catalog.register(Table.from_dict("e", {"b": [1, 2], "w": [1.0, 1.0]}))
    sql = ("SELECT d.rate, SUM(f.v * e.w) AS total FROM f, d, e "
           "WHERE f.k = d.k AND f.b = e.b AND d.tag > 100 GROUP BY d.rate")
    expected = ReferenceEngine(catalog).execute(sql)
    for fusion in (True, False):
        got = TCUDBEngine(
            catalog, options=TCUDBOptions(fusion=fusion)).execute(sql)
        assert not got.extra.get("fallback_reason")
        got_table, expected_table = got.require_table(), expected.require_table()
        assert got_table.column_names == expected_table.column_names
        assert ([got_table.dtype(name) for name in got_table.column_names]
                == [expected_table.dtype(name)
                    for name in expected_table.column_names])
        assert_results_match(got, expected)
    # The fold itself: the gathered column of the emptied dimension is a
    # zero-length float array, not a fabricated int64 one.
    engine = TCUDBEngine(catalog)
    ctx = engine._context(bind(parse(sql), catalog))
    for binding in ("f", "d"):
        source = ops.TableSource(id=f"scan_{binding}", binding=binding)
        ctx.values[source.id] = source.execute(ctx)
    bound = ctx.bound
    fold = ops.FoldJoin(
        id="fold_d", fact_input="scan_f", dim_input="scan_d",
        dim_binding="d",
        fact_column=bound.join_predicates[0].left,
        dim_column=bound.join_predicates[0].right,
        needed=["d.rate"],
    )
    folded = fold.execute(ctx)
    assert folded.n_rows == 0
    assert folded.gathered["d.rate"].dtype == np.float64


# --------------------------------------------------------------------- #
# (c) Both probe strategies, end to end
# --------------------------------------------------------------------- #

SURROGATE_KEYS = {
    "lineorder": {"lo_custkey", "lo_partkey", "lo_suppkey", "lo_orderdate"},
    "customer": {"c_custkey"}, "supplier": {"s_suppkey"},
    "part": {"p_partkey"}, "ddate": {"d_datekey"},
}


STAR_QUERIES = [
    # two folds (customer, supplier) + the B side
    "SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue "
    "FROM lineorder, customer, supplier, ddate "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_orderdate = d_datekey AND c_region = 'ASIA' "
    "AND s_region = 'ASIA' GROUP BY c_nation, s_nation, d_year",
    # a filtered fold that gathers a group column
    "SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 "
    "FROM lineorder, ddate, part, supplier "
    "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
    "AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12' "
    "AND s_region = 'AMERICA' GROUP BY d_year, p_brand1",
]


@pytest.fixture
def probe_calls(monkeypatch):
    calls = {"direct": 0, "sorted": 0}

    def counting(name, probe):
        def counted(*args):
            calls[name] += 1
            return probe(*args)
        return counted

    monkeypatch.setattr(ops, "_probe_direct",
                        counting("direct", ops._probe_direct))
    monkeypatch.setattr(ops, "_probe_sorted",
                        counting("sorted", ops._probe_sorted))
    return calls


def engine_variants(catalog, monkeypatch):
    yield "fused", TCUDBEngine(catalog)
    yield "unfused", TCUDBEngine(catalog, options=TCUDBOptions(fusion=False))
    yield "workers=2", TCUDBEngine(catalog, options=TCUDBOptions(workers=2))
    monkeypatch.setenv("REPRO_SHARDS", "2")
    yield "REPRO_SHARDS=2", DistributedEngine(
        catalog, fact="lineorder", partition_key="lo_orderkey")
    monkeypatch.delenv("REPRO_SHARDS")


@pytest.mark.parametrize("sql", STAR_QUERIES)
def test_dense_and_sparse_keys_agree_end_to_end(catalog, sql, probe_calls,
                                                monkeypatch):
    sparse = scaled_key_catalog(catalog, SURROGATE_KEYS)
    expected = ReferenceEngine(catalog).execute(sql)
    seconds = {}
    for keys, star in (("dense", catalog), ("sparse", sparse)):
        for variant, engine in engine_variants(star, monkeypatch):
            probe_calls.update(direct=0, sorted=0)
            got = engine.execute(sql)
            context = f"{keys} keys, {variant}: {sql}"
            assert not got.extra.get("fallback_reason"), context
            assert_results_match(got, expected, rel=TCU_REL, context=context)
            # At this scale d_datekey's span (69k) is over the slot
            # budget, so a dense-key star that folds ddate runs the
            # sorted probe beside the direct-address one.
            if keys == "dense":
                assert probe_calls["direct"] > 0, context
            else:
                assert probe_calls["direct"] == 0, context
                assert probe_calls["sorted"] > 0, context
            seconds[keys, variant] = got.seconds
    # The ledger charges operator sizes, never the probe strategy.
    for variant in ("fused", "unfused", "workers=2", "REPRO_SHARDS=2"):
        assert seconds["dense", variant] == seconds["sparse", variant], variant
    assert seconds["dense", "fused"] == seconds["dense", "workers=2"]
