"""The fold join's probe and the TCUDB scan's projection.

* the shared probe: its addressed (presence-first, two-level) and sorted
  strategies return the same survivors as a Python-int dict loop on
  every key shape, and the selection rule holds at its thresholds;
* the fold body: an empty dimension keeps the gathered columns' dtypes;
* ``TableSource`` carries only the columns the query reads;
* end to end: a dimension spanning more than 2**16 slots (addressed) and
  sparse surrogate keys (sorted) give the oracle's rows at identical
  simulated cost, under every engine variant.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import (
    assert_results_match,
    engine_variants,
    scaled_key_catalog,
)
from repro.common.errors import ExecutionError
from repro.datasets.ssb import ssb_catalog
from repro.engine import ReferenceEngine
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.engine.tcudb import ops
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tensor import keys
from repro.tensor.backend import get_backend
from repro.tensor.keys import DIRECT_ADDRESS_SLOTS_PER_ROW, KEY_TABLE_MAX_SLOTS

pytestmark = pytest.mark.engine_matrix

TCU_REL = 2e-3
INT64 = np.iinfo(np.int64)


# --------------------------------------------------------------------- #
# (a) The shared probe
# --------------------------------------------------------------------- #


def reference_probe(dim_keys, fact_keys, want_rows=True):
    """The loop the vectorized strategies replace, under the survivor
    contract: Python-int equality, so no dtype promotion or wrap-around
    can hide a mismatch."""
    rows_of: dict[int, list[int]] = {}
    for row, key in enumerate(dim_keys.tolist()):
        rows_of.setdefault(key, []).append(row)
    hits = [(position, rows_of[key])
            for position, key in enumerate(fact_keys.tolist())
            if key in rows_of]
    keep = np.array([position for position, _ in hits], dtype=np.intp)
    if any(len(rows) > 1 for rows in rows_of.values()):
        return keep, None, np.array([len(rows) for _, rows in hits],
                                    dtype=np.intp)
    if not want_rows:
        return keep, None, None
    return keep, np.array([rows[0] for _, rows in hits], dtype=np.intp), None


def assert_probe_equal(got, expected, context):
    for name, g, e in zip(("keep", "dim_rows", "multiplicity"),
                          got, expected):
        if e is None:
            assert g is None, f"{name} should be None: {context}"
        else:
            assert g is not None and g.dtype == np.intp, (
                f"{name} is not an intp array: {context}")
            assert np.array_equal(g, e), f"{name} differs: {context}"


@pytest.fixture
def probe_calls(monkeypatch):
    """Which strategy ``probe_dimension`` ran, and over how many slots:
    ``{"addressed": [span, ..], "sorted": n}``."""
    calls = {"addressed": [], "sorted": 0}

    def presence_probe(dim_keys, fact_keys):
        table = keys.presence_probe(dim_keys, fact_keys)
        if table is not None:
            calls["addressed"].append(table[0].size - 1)  # less the miss slot
        return table

    def probe_sorted(*args):
        calls["sorted"] += 1
        return by_sort(*args)

    by_sort = ops._probe_sorted
    monkeypatch.setattr(ops, "presence_probe", presence_probe)
    monkeypatch.setattr(ops, "_probe_sorted", probe_sorted)
    return calls


def addressed_probe(probe_calls, dim_keys, fact_keys, want_rows=True,
                    backend="sim"):
    """``probe_dimension`` on keys the address rule accepts."""
    before = len(probe_calls["addressed"]), probe_calls["sorted"]
    got = ops.probe_dimension(get_backend(backend), dim_keys, fact_keys,
                              want_rows)
    after = len(probe_calls["addressed"]), probe_calls["sorted"]
    assert after == (before[0] + 1, before[1]), "not the addressed probe"
    return got


def sorted_probe(dim_keys, fact_keys, want_rows=True):
    """``_probe_sorted`` always resolves rows; a caller that wants none
    ignores them."""
    keep, dim_rows, multiplicity = ops._probe_sorted(
        get_backend("sim"), dim_keys, fact_keys)
    return keep, dim_rows if want_rows else None, multiplicity


KEY_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32]


class TestProbeStrategies:
    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_addressed_equals_sorted_equals_dict(
            self, seed, probe_calls, monkeypatch):
        # Tiny key sets: lift the per-row budget so every case addresses.
        monkeypatch.setattr(keys, "DIRECT_ADDRESS_SLOTS_PER_ROW", 1 << 20)
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
        context = f"seed={seed} dim={dim_keys!r} fact={fact_keys!r}"
        for want_rows in (True, False):
            expected = reference_probe(dim_keys, fact_keys, want_rows)
            for backend in ("sim", "fast"):
                assert_probe_equal(
                    addressed_probe(probe_calls, dim_keys, fact_keys,
                                    want_rows, backend),
                    expected, f"addressed/{backend} {context}")
            assert_probe_equal(sorted_probe(dim_keys, fact_keys, want_rows),
                               expected, "sorted " + context)
        keep = expected[0]
        assert (np.diff(keep) > 0).all(), "keep is not ascending: " + context

    def test_survivor_arrays_align_with_keep(self, probe_calls):
        dim_keys = np.array([40, 10, 30], dtype=np.int32)
        fact_keys = np.array([30, 99, 10, 10, -5, 40], dtype=np.int16)
        keep, dim_rows, multiplicity = addressed_probe(
            probe_calls, dim_keys, fact_keys)
        assert keep.tolist() == [0, 2, 3, 5]
        assert dim_rows.tolist() == [2, 1, 1, 0] and multiplicity is None
        keep, dim_rows, multiplicity = addressed_probe(
            probe_calls, np.array([40, 10, 30, 10], dtype=np.int32), fact_keys)
        assert keep.tolist() == [0, 2, 3, 5]
        assert dim_rows is None and multiplicity.tolist() == [1, 2, 2, 1]

    def test_no_rows_wanted_builds_no_row_table(self, probe_calls,
                                                monkeypatch):
        allocated = []
        empty = np.empty

        def spy(shape, dtype=float, **kwargs):
            allocated.append(np.dtype(dtype).itemsize)
            return empty(shape, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "empty", spy)
        fact_keys = np.array([3, 7, 1, 3, 9], dtype=np.int64)
        unique = np.array([3, 1, 2], dtype=np.int64)
        keep, dim_rows, multiplicity = addressed_probe(
            probe_calls, unique, fact_keys, want_rows=False)
        assert keep.tolist() == [0, 2, 3]
        assert dim_rows is None and multiplicity is None
        assert 8 not in allocated
        # The row table is the one 8-byte allocation of the other form.
        addressed_probe(probe_calls, unique, fact_keys, want_rows=True)
        assert 8 in allocated
        # Duplicate keys: multiplicities come back whatever was wanted.
        keep, dim_rows, multiplicity = addressed_probe(
            probe_calls, np.array([3, 1, 3], dtype=np.int64), fact_keys,
            want_rows=False)
        assert keep.tolist() == [0, 2, 3] and dim_rows is None
        assert multiplicity.tolist() == [2, 1, 2]

    def test_empty_fact_side(self, probe_calls):
        dim_keys = np.array([3, 1, 2], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        for got in (addressed_probe(probe_calls, dim_keys, empty),
                    sorted_probe(dim_keys, empty)):
            assert got[0].size == 0 and got[1].size == 0 and got[2] is None

    def test_empty_dimension_matches_nothing(self):
        fact_keys = np.array([1, 2, 3], dtype=np.int64)
        for dim_dtype in (np.int64, np.float64):
            for want_rows in (True, False):
                keep, dim_rows, multiplicity = ops.probe_dimension(
                    get_backend("sim"), np.array([], dtype=dim_dtype),
                    fact_keys, want_rows)
                assert keep.size == 0 and keep.dtype == np.intp
                assert dim_rows.size == 0 and multiplicity is None

    def test_int64_extremes_do_not_overflow(self, probe_calls):
        # max - min exceeds the int64 positive range: the span must be
        # computed in Python ints, and such keys take the sorted probe.
        dim_keys = np.array([INT64.min, 0, INT64.max], dtype=np.int64)
        fact_keys = np.array([INT64.max, INT64.min, 5, 0], dtype=np.int64)
        assert keys.address_range(dim_keys, fact_keys) is None
        got = ops.probe_dimension(get_backend("sim"), dim_keys, fact_keys,
                                  True)
        assert probe_calls == {"addressed": [], "sorted": 1}
        assert_probe_equal(got, reference_probe(dim_keys, fact_keys),
                           "int64 extremes")

    @pytest.mark.parametrize("dim_keys", [
        np.array([INT64.max - 2, INT64.max], dtype=np.int64),
        np.array([INT64.min, INT64.min + 3], dtype=np.int64),
        np.array([INT64.min + 3, INT64.min, INT64.min], dtype=np.int64),
        np.array([-128, 127, 5], dtype=np.int8),
        np.array([-1, 2], dtype=np.int64),
    ], ids=["top", "bottom", "bottom-duplicates", "int8", "around-zero"])
    def test_wrapping_fact_offsets_land_on_the_miss_slot(
            self, dim_keys, probe_calls, monkeypatch):
        # ``fact - lo`` wraps for some of these fact keys; read as an
        # unsigned offset every one of them must miss, never alias.
        monkeypatch.setattr(keys, "DIRECT_ADDRESS_SLOTS_PER_ROW", 1 << 20)
        fact_keys = np.array(
            [INT64.min, INT64.min + 2, INT64.min + 3, -129, -128, -1, 0, 2, 5,
             127, 128, INT64.max - 2, INT64.max - 1, INT64.max],
            dtype=np.int64)
        expected = reference_probe(dim_keys, fact_keys)
        assert_probe_equal(addressed_probe(probe_calls, dim_keys, fact_keys),
                           expected, "addressed, wrapping offsets")
        assert_probe_equal(sorted_probe(dim_keys, fact_keys), expected,
                           "sorted, wrapping offsets")

    def test_selection_rule_at_the_per_row_budget(self, probe_calls):
        fact_keys = np.arange(6, dtype=np.int64)
        budget = DIRECT_ADDRESS_SLOTS_PER_ROW * (2 + fact_keys.size)
        at = np.array([-7, -7 + budget - 1], dtype=np.int64)
        past = np.array([-7, -7 + budget], dtype=np.int64)
        for dim_keys in (at, past):
            got = ops.probe_dimension(get_backend("sim"), dim_keys, fact_keys,
                                      True)
            assert_probe_equal(got, reference_probe(dim_keys, fact_keys),
                               "per-row budget")
        assert probe_calls == {"addressed": [budget], "sorted": 1}

    def test_selection_rule_at_the_table_cap(self, probe_calls):
        # Plenty of fact rows for the per-row budget: the one absolute
        # cap, shared with unique_inverse and IN-lists, decides.
        cap = KEY_TABLE_MAX_SLOTS
        fact_keys = np.zeros(cap // DIRECT_ADDRESS_SLOTS_PER_ROW,
                             dtype=np.int64)
        fact_keys[:2] = 5, 5 + cap
        at = np.array([5 + cap - 1, 5], dtype=np.int64)
        past = np.array([5 + cap, 5], dtype=np.int64)
        for dim_keys in (at, past):
            keep, dim_rows, _ = ops.probe_dimension(
                get_backend("sim"), dim_keys, fact_keys, True)
            hit = [0] if dim_keys is at else [0, 1]
            assert keep.tolist() == hit
            assert dim_rows.tolist() == [1, 0][:len(hit)]
        assert probe_calls == {"addressed": [cap], "sorted": 1}

    def test_float_and_uint64_keys_take_the_sorted_probe(self, probe_calls):
        ints = np.array([1, 2, 3], dtype=np.int64)
        for other in (ints.astype(np.float64), ints.astype(np.uint64)):
            for dim_keys, fact_keys in ((other, ints), (ints, other)):
                keep, dim_rows, multiplicity = ops.probe_dimension(
                    get_backend("sim"), dim_keys, fact_keys, True)
                assert keep.tolist() == [0, 1, 2]
                assert dim_rows.tolist() == [0, 1, 2] and multiplicity is None
        assert probe_calls == {"addressed": [], "sorted": 4}


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


def fold_catalog(d_columns):
    """A fact ``f``, the folded dimension ``d`` and a B side ``e``."""
    catalog = Catalog()
    catalog.register(Table.from_dict("f", {
        "k": [1, 2, 2, 3], "b": [1, 1, 2, 2], "v": [1.0, 2.0, 3.0, 4.0],
    }))
    catalog.register(Table.from_dict("d", d_columns))
    catalog.register(Table.from_dict("e", {"b": [1, 2], "w": [1.0, 1.0]}))
    return catalog


def fold_of_d(catalog, sql, needed):
    """``(FoldJoin of d into f, context holding both scans)``."""
    ctx = TCUDBEngine(catalog)._context(bind(parse(sql), catalog))
    for binding in ("f", "d"):
        source = ops.TableSource(id=f"scan_{binding}", binding=binding)
        ctx.values[source.id] = source.execute(ctx)
    join = ctx.bound.join_predicates[0]
    return ops.FoldJoin(
        id="fold_d", fact_input="scan_f", dim_input="scan_d",
        dim_binding="d", fact_column=join.left, dim_column=join.right,
        needed=needed,
    ), ctx


def test_empty_dimension_keeps_float_group_column():
    catalog = fold_catalog(
        {"k": [1, 2, 3], "rate": [0.5, 1.5, 2.5], "tag": [7, 8, 9]})
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
    fold, ctx = fold_of_d(catalog, sql, ["d.rate"])
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
    # Q2.1's shape: a filtered fold of the large dimension that gathers
    # a group column, then a fold that gathers nothing
    "SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 "
    "FROM lineorder, ddate, part, supplier "
    "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
    "AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12' "
    "AND s_region = 'AMERICA' GROUP BY d_year, p_brand1",
]


@pytest.fixture(scope="module")
def wide_catalogs():
    """SSB whose ``part`` keys span 80 k slots (26.7 k rows, keys x 3) —
    past the 2**16 cap the one-level probe had, inside the per-row budget
    of even half the fact rows — and the same rows under keys x 10**9."""
    base = ssb_catalog(scale_factor=1, rows_per_sf=40_000, seed=13)
    return {
        "dense": scaled_key_catalog(base, SURROGATE_KEYS, factor=3),
        "sparse": scaled_key_catalog(base, SURROGATE_KEYS),
        "expected": [ReferenceEngine(base).execute(sql)
                     for sql in STAR_QUERIES],
    }


@pytest.mark.parametrize("query", range(len(STAR_QUERIES)))
def test_dense_and_sparse_keys_agree_end_to_end(wide_catalogs, query,
                                                probe_calls, monkeypatch):
    sql, expected = STAR_QUERIES[query], wide_catalogs["expected"][query]
    observed = {}
    for shape in ("dense", "sparse"):
        for variant, engine in engine_variants(
                wide_catalogs[shape], "lineorder", monkeypatch):
            probe_calls.update(addressed=[], sorted=0)
            got = engine.execute(sql)
            context = f"{shape} keys, {variant}: {sql}"
            assert not got.extra.get("fallback_reason"), context
            assert_results_match(got, expected, rel=TCU_REL, context=context)
            if shape == "sparse":
                assert probe_calls["addressed"] == [], context
                assert probe_calls["sorted"] > 0, context
            elif query == 1:  # the part fold, on every shard
                assert max(probe_calls["addressed"]) > 1 << 16, context
                assert probe_calls["sorted"] == 0, context
            else:
                assert probe_calls["addressed"], context
            observed[shape, variant] = (
                repr(got.seconds), got.extra["executed_by"],
                got.extra.get("strategy"), got.extra.get("precision"),
            )
    # The ledger charges operator sizes, never the probe strategy.
    for (shape, variant), seen in observed.items():
        assert seen == observed["sparse", variant], (shape, variant)
    assert observed["dense", "fused/sim"] == observed["dense", "workers=2"]


def test_duplicate_key_dimension_with_gathered_column_falls_back(probe_calls):
    catalog = fold_catalog({"k": [1, 2, 2, 3], "tag": [7, 8, 9, 7]})
    sql = ("SELECT d.tag, SUM(f.v * e.w) AS total FROM f, d, e "
           "WHERE f.k = d.k AND f.b = e.b GROUP BY d.tag")
    fold, ctx = fold_of_d(catalog, sql, ["d.tag"])
    with pytest.raises(ops.FallbackRequired) as raised:
        fold.execute(ctx)
    assert raised.value.kind == "pattern"
    assert len(probe_calls["addressed"]) == 1
    # The engine retries the statement outside the pattern program.
    assert_results_match(TCUDBEngine(catalog).execute(sql),
                         ReferenceEngine(catalog).execute(sql), rel=TCU_REL)
