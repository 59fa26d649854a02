"""Join results are materialized once: run-length pair lists end to end.

* ``PairRuns`` over ``arange`` equals ``physical.equi_join_indices`` —
  the oracle's kernel, which the TCUDB path no longer calls — in pairs
  *and* order, across block edges and under ``head``;
* with the exact-key path forced (tier-1's tables are otherwise small
  enough for the numeric product), 2-way and 3-way joins with
  residuals, LIMIT and ORDER BY equal ``ReferenceEngine`` on every
  engine variant, with the ledger the numeric path charges;
* only what is projected, joined on or filtered is ever expanded, peak
  memory is the output columns plus a quarter column, and every result
  column is a read-only array of its own.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from differential_utils import assert_results_match, engine_variants
from repro.engine import ReferenceEngine
from repro.engine.physical import equi_join_indices
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions
from repro.engine.tcudb import driver, transform
from repro.engine.tcudb.transform import PairRuns, mapped_pair_count
from repro.storage.catalog import Catalog
from repro.storage.table import Table

pytestmark = pytest.mark.engine_matrix


# --------------------------------------------------------------------- #
# The primitive
# --------------------------------------------------------------------- #


def assert_equals_oracle_kernel(left, right, k, context=""):
    left, right = np.asarray(left, np.intp), np.asarray(right, np.intp)
    left_idx, right_idx = equi_join_indices(left, right)
    runs = PairRuns(left, right, k)
    assert runs.n_pairs == left_idx.size == mapped_pair_count(left, right, k)
    limits = {0, 1, left_idx.size // 2, left_idx.size, left_idx.size + 3}
    for limit in [None, *sorted(limits)]:
        pairs = runs if limit is None else runs.head(limit)
        got_left, = pairs.left([np.arange(left.size)])
        got_right, weights = pairs.right(
            [np.arange(right.size), np.arange(right.size) / 4])
        assert got_left.dtype == got_right.dtype == np.intp, context
        assert weights.dtype == np.float64, context
        assert np.array_equal(got_left, left_idx[:limit]), (context, limit)
        assert np.array_equal(got_right, right_idx[:limit]), (context, limit)
        assert np.array_equal(weights, right_idx[:limit] / 4), (context, limit)
        assert pairs.n_pairs == got_left.size, (context, limit)


@pytest.fixture(params=[4, transform.PAIR_BLOCK], ids=["block=4", "block=2^16"])
def block(request, monkeypatch):
    monkeypatch.setattr(transform, "PAIR_BLOCK", request.param)
    return request.param


class TestPairRuns:
    @pytest.mark.parametrize("left, right, k", [
        ([], [], 0),
        ([], [0, 1, 1], 2),
        ([0, 1, 1], [], 2),
        ([0, 0, 1], [2, 3, 3], 4),  # no match
        ([0, 0, 0], [0, 0], 1),  # k = 1: the cross product
        ([2, 0, 2, 1, 0], [0, 2, 2, 1, 0, 2], 3),  # duplicates, both sides
        ([1, 3], [0, 1, 2, 3, 1], 4),  # left keys the right half lacks
    ], ids=["empty", "empty-left", "empty-right", "no-match", "k=1",
            "duplicates", "sparse-left"])
    def test_small_cases(self, left, right, k, block):
        assert_equals_oracle_kernel(left, right, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_zipf_skew(self, seed, block):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 40))
        left = np.minimum(rng.zipf(1.3, rng.integers(0, 60)), k) - 1
        right = np.minimum(rng.zipf(1.3, rng.integers(0, 90)), k) - 1
        assert_equals_oracle_kernel(left, right, k, f"seed {seed}")

    def test_block_edges(self, monkeypatch):
        """One run longer than a block, a run straddling an edge, and a
        pair count that is an exact multiple of the block."""
        monkeypatch.setattr(transform, "PAIR_BLOCK", 8)
        # Runs of 3, 20 (spans three blocks: straddles two edges), 1.
        left, right = [0, 1, 2], [0] * 3 + [1] * 20 + [2]
        assert PairRuns(np.array(left), np.array(right), 3).n_pairs == 24
        assert_equals_oracle_kernel(left, right, 3)
        assert_equals_oracle_kernel([0, 0, 1], [0] * 4 + [1] * 8, 2)  # 16

    def test_a_run_longer_than_the_real_block(self):
        right = np.zeros(transform.PAIR_BLOCK + 5, dtype=np.intp)
        right[7] = 1
        assert_equals_oracle_kernel([1, 0, 0], right, 2)

    def test_wide_domain_sorts_without_radix(self):
        """``k`` past 16 bits: the code cast is uint32 and the order is
        still the stable one."""
        rng = np.random.default_rng(3)
        k = (1 << 16) + 9
        assert_equals_oracle_kernel(rng.integers(0, k, 300) // 7 * 7,
                                    rng.integers(0, k, 500) // 7 * 7, k)


# --------------------------------------------------------------------- #
# End to end, exact-key path forced
# --------------------------------------------------------------------- #


def blocking_catalog(seed: int = 11, n: int = 70, m: int = 110,
                     c: int = 14) -> Catalog:
    """Two entity tables sharing a skewed string key and a small third
    table with duplicate keys (so the 3-way chain fans out twice)."""
    rng = np.random.default_rng(seed)
    artists = np.array([f"artist{i:02d}" for i in range(12)])
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {
        "id": np.arange(n),
        "artist": artists[np.minimum(rng.zipf(1.4, n), 10) - 1],
        "price": rng.integers(1, 500, n) / 4,
        "g": rng.integers(0, 6, n),
    }))
    catalog.register(Table.from_dict("b", {
        "id": np.arange(1000, 1000 + m),
        "artist": artists[np.minimum(rng.zipf(1.4, m), 10) + 1],
        "song": np.array([f"song{i % 37}" for i in range(m)]),
        "g": rng.integers(0, 8, m),
    }))
    catalog.register(Table.from_dict("c", {
        "g": rng.integers(0, 7, c),
        "label": np.array([f"label{i % 5}" for i in range(c)]),
        "w": rng.integers(1, 90, c) / 8,
    }))
    return catalog


TWO_WAY = "FROM a, b WHERE a.artist = b.artist"
THREE_WAY = "FROM a, b, c WHERE a.artist = b.artist AND b.g = c.g"
QUERIES = {
    "2way-all": f"SELECT a.id, a.price, a.g, b.id, b.song, b.g {TWO_WAY}",
    "2way-some": f"SELECT a.price, b.song {TWO_WAY}",
    "2way-one-binding": f"SELECT b.id, b.song {TWO_WAY}",
    "2way-constant": f"SELECT a.id, 2.5, b.id {TWO_WAY}",
    "2way-residual": (f"SELECT a.id, b.id, b.song {TWO_WAY} "
                      "AND (a.id < 20 OR b.id < 1015)"),
    "2way-residual-unprojected": (f"SELECT b.song {TWO_WAY} "
                                  "AND (a.price < 40 OR b.g > 5)"),
    "3way-all": f"SELECT a.id, a.price, b.id, b.song, c.label, c.w {THREE_WAY}",
    "3way-some": f"SELECT a.id, c.w {THREE_WAY}",
    "3way-one-binding": f"SELECT c.label, 0.5 {THREE_WAY}",
    "3way-residual": (f"SELECT a.id, b.song, c.label {THREE_WAY} "
                      "AND (a.id < c.g OR b.id < 1015)"),
    "2way-order-limit": (f"SELECT a.id, b.id, b.song {TWO_WAY} "
                         "ORDER BY b.id DESC, a.id LIMIT 9"),
    "3way-order-limit": (f"SELECT a.id, b.id, c.w {THREE_WAY} "
                         "ORDER BY c.w, a.id DESC, b.id LIMIT 11"),
}


def ledger(result):
    return (repr(result.seconds), result.extra["executed_by"],
            result.extra.get("strategy"), result.extra.get("precision"))


@pytest.fixture
def exact_key_path(monkeypatch):
    """No product is small enough for the numeric path; returns the
    pair lists the exact-key path built."""
    built: list[PairRuns] = []

    class Recorded(PairRuns):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def force():
        monkeypatch.setattr(driver, "NUMERIC_CELL_LIMIT", 0)
        monkeypatch.setattr(driver, "PairRuns", Recorded)
        return built

    return force


def test_forced_exact_key_joins_equal_the_oracle(exact_key_path):
    catalog = blocking_catalog()
    oracle = ReferenceEngine(catalog)
    expected = {name: oracle.execute(sql) for name, sql in QUERIES.items()}
    assert all(result.n_rows > 0 for result in expected.values())
    # The numeric path's ledger: the cost model is blind to which path
    # extracts the pairs.
    numeric = {
        (variant, name): ledger(engine.execute(sql))
        for variant, engine in engine_variants(catalog)
        for name, sql in QUERIES.items()
    }
    built = exact_key_path()
    for variant, engine in engine_variants(catalog):
        for name, sql in QUERIES.items():
            del built[:]
            got = engine.execute(sql)
            context = f"{name}, {variant}"
            assert not got.extra.get("fallback_reason"), context
            assert built, context
            assert_results_match(got, expected[name], context=context)
            assert ledger(got) == numeric[variant, name], context
            if "order-limit" in name:  # a total order: rows in sequence
                assert (got.require_table().rows()
                        == expected[name].require_table().rows()), context
            assert_columns_are_private(got, context)


def test_residuals_run_in_the_last_pair_extraction(exact_key_path):
    catalog = blocking_catalog()
    exact_key_path()
    for name in ("2way-residual", "3way-residual"):
        got = TCUDBEngine(catalog).execute(QUERIES[name])
        extracts = [line for line in
                    got.extra["program_listing"].splitlines()
                    if "NonzeroExtract(" in line]
        assert ["epilogue(" in line for line in extracts] == (
            [False] * (len(extracts) - 1) + [True]), name
        assert_results_match(
            got, ReferenceEngine(catalog).execute(QUERIES[name]),
            context=name)


@pytest.mark.parametrize("limit", [0, 1, 10, 10_000])
@pytest.mark.parametrize("name", ["2way-all", "2way-residual", "3way-all",
                                  "3way-residual"])
def test_limit_truncates_the_pair_list(name, limit, exact_key_path,
                                       monkeypatch):
    """LIMIT without ORDER BY: the same first rows, in order — and no
    column is expanded past them."""
    catalog = blocking_catalog()
    exact_key_path()
    engine = TCUDBEngine(catalog)
    rows = engine.execute(QUERIES[name]).require_table().rows()
    longest = [0]
    for pairs in (transform.PairRuns, transform.PairIndex):
        for side in ("left", "right"):
            def spied(self, columns, inner=getattr(pairs, side)):
                out = inner(self, columns)
                longest[0] = max([longest[0]] + [a.size for a in out])
                return out
            monkeypatch.setattr(pairs, side, spied)
    limited = engine.execute(f"{QUERIES[name]} LIMIT {limit}")
    assert limited.require_table().rows() == rows[:limit]
    assert limited.n_rows == min(limit, len(rows))
    if "residual" not in name and "3way" not in name:
        # (A mask, or an earlier chain step, still sees every pair.)
        assert longest[0] <= limit
    assert_columns_are_private(limited, name)


def test_two_way_limit_equals_the_oracle(exact_key_path):
    catalog = blocking_catalog()
    exact_key_path()
    sql = f"{QUERIES['2way-all']} LIMIT 25"
    assert (TCUDBEngine(catalog).execute(sql).require_table().rows()
            == ReferenceEngine(catalog).execute(sql).require_table().rows())


def test_unused_bindings_are_never_expanded(exact_key_path, monkeypatch):
    """Pair-length gathers, by side and column count: a binding nobody
    projects, joins on or filters by costs none."""
    catalog = blocking_catalog()
    exact_key_path()
    gathers: list[tuple[str, int]] = []
    for side in ("left", "right"):
        def spied(self, columns, side=side, inner=getattr(PairRuns, side)):
            gathers.append((side, len(columns)))
            return inner(self, columns)
        monkeypatch.setattr(PairRuns, side, spied)
    engine = TCUDBEngine(catalog)
    # Only b is projected; a's join key is read at the seed chain, which
    # is the identity.  Both b columns share one pass over the positions.
    engine.execute(QUERIES["2way-one-binding"])
    assert gathers == [("right", 2)]
    # Step 2 joins on b.g (step 1's right side), the projection reads c:
    # a is never laid out over either step's pairs.
    del gathers[:]
    engine.execute(QUERIES["3way-one-binding"])
    assert gathers == [("right", 1), ("right", 1)]
    # A residual expands the columns its predicates read — a.price,
    # b.g — and nothing else of those bindings; then b.song is projected.
    del gathers[:]
    engine.execute(QUERIES["2way-residual-unprojected"])
    assert sorted(gathers) == [("left", 1), ("right", 1), ("right", 1)]


def test_peak_memory_is_the_output_columns(exact_key_path):
    """ROADMAP aim 3's first bounded-memory assertion: C projected
    columns over N pairs peak at (C + 0.25) * 8N traced bytes — the
    result itself plus block-sized and input-sized working state."""
    rng = np.random.default_rng(2)
    n, m, k = 2_000, 20_000, 20
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {
        "id": np.arange(n), "key": rng.integers(0, k, n),
        "price": rng.random(n)}))
    catalog.register(Table.from_dict("b", {
        "id": np.arange(m), "key": rng.integers(0, k, m),
        "score": rng.random(m)}))
    built = exact_key_path()
    engine = TCUDBEngine(catalog, options=TCUDBOptions(backend="fast"))
    sql = "SELECT a.id, a.price, b.id, b.score FROM a, b WHERE a.key = b.key"
    tracemalloc.start()
    try:
        result = engine.execute(sql)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = built[0].n_pairs
    assert result.n_rows == pairs > 1_500_000
    assert peak <= (4 + 0.25) * 8 * pairs, peak / (8 * pairs)
    assert_columns_are_private(result, sql)


def assert_columns_are_private(result, context=""):
    """Every result column is a concrete, frozen array that owns its
    memory: no column aliases another, a catalog column, or a view's
    base (an operator buffer the result would pin)."""
    table = result.require_table()
    columns = [table.column(name).data for name in table.column_names]
    for index, data in enumerate(columns):
        assert type(data) is np.ndarray, context
        assert data.size == result.n_rows, context
        assert not data.flags.writeable, context
        assert data.flags.owndata and data.base is None, context
        assert not any(np.shares_memory(data, other)
                       for other in columns[index + 1:]), context
