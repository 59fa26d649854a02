"""Operand placement: a cell's slot is its address or its rank.

``build_coo_operands`` places a grouped operand's tuples either by
address (``row * k + col``, when the ``g * k`` table fits the
``tensor/keys.py`` budget) or by rank among the distinct cells (one
``unique_inverse``, the only placement before).  Whichever runs, the
operand matrices, their key-domain column slices, ``nnz`` and the tile
coordinates — and therefore plans, simulated seconds and rows — are the
same; a side whose COUNT weights are all one reads its COUNT operand off
the occupancy histogram.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match, engine_variants
from repro.datasets.matmul import MATMUL_QUERY, matmul_catalog
from repro.datasets.ssb import ssb_catalog
from repro.engine import ReferenceEngine
from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions, driver, ops
from repro.engine.tcudb.driver import (
    ColumnSlices,
    CompositeKey,
    PreparedAggSide,
    build_coo_operands,
)
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.tensor.coo import dense_from_coo
from repro.tensor.keys import DIRECT_ADDRESS_SLOTS_PER_ROW, KEY_TABLE_MAX_SLOTS

pytestmark = pytest.mark.engine_matrix

TCU_REL = 2e-3
PLACEMENTS = ("addressed", "ranked")


def force_placement(monkeypatch, placement: str) -> None:
    """A budget every operand fits (addressed) or none does (ranked)."""
    budget = {"addressed": 1 << 62, "ranked": 0}[placement]
    monkeypatch.setattr(driver, "KEY_TABLE_MAX_SLOTS", budget)
    monkeypatch.setattr(driver, "DIRECT_ADDRESS_SLOTS_PER_ROW", budget)


@pytest.fixture
def placements(monkeypatch):
    """Placement of every operand structure built meanwhile."""
    seen: list[str] = []

    def recorded(side, k):
        structure = build_coo_operands(side, k)
        seen.append("addressed" if structure.cells is None else "ranked")
        return structure

    monkeypatch.setattr(ops, "build_coo_operands", recorded)
    monkeypatch.setattr(driver, "build_coo_operands", recorded)
    return seen


def make_side(rows, keys, g: int) -> PreparedAggSide:
    """An agg side of ``g`` group rows (``rows`` None: the one-row side)."""
    group = None if rows is None else CompositeKey(
        labels=[np.arange(g)], codes=np.asarray(rows, dtype=np.int64),
        cardinality=g)
    return PreparedAggSide(
        keys_mapped=np.asarray(keys, dtype=np.int64), group=group)


def _random_side():
    rng = np.random.default_rng(5)
    return rng.integers(0, 7, 200), rng.integers(0, 13, 200), 7, 13


# (rows, keys, g, k)
SIDES = {
    "duplicates+holes": ([0, 0, 1, 1, 1], [2, 2, 0, 3, 3], 2, 4),
    "g=1": (None, [0, 3, 3, 5], 1, 6),
    "one-tuple": ([1], [2], 3, 4),
    "every-cell": ([0, 0, 1, 1], [0, 1, 0, 1], 2, 2),
    "random": _random_side(),
}


@pytest.mark.parametrize("rows, keys, g, k", SIDES.values(), ids=SIDES)
def test_addressed_and_ranked_structures_agree(rows, keys, g, k,
                                               monkeypatch):
    n = len(keys)
    side = make_side(rows, keys, g)
    built = {}
    for placement in PLACEMENTS:
        force_placement(monkeypatch, placement)
        built[placement] = build_coo_operands(side, k)
    addressed, ranked = built["addressed"], built["ranked"]
    assert addressed.cells is None and ranked.cells is not None
    assert addressed.occupancy.size == g * k
    assert ranked.occupancy.size == ranked.nnz == addressed.nnz
    assert np.array_equal(addressed.rows, ranked.rows)
    assert np.array_equal(addressed.cols, ranked.cols)

    rng = np.random.default_rng(n)
    cancelling = rng.normal(size=n)
    # Two tuples of one cell summing to zero: the cell stays occupied.
    if (n > 1 and rows is not None
            and (rows[0], keys[0]) == (rows[1], keys[1])):
        cancelling[1] = -cancelling[0]
    fills = [None, np.ones(n), rng.integers(1, 4, n).astype(np.float64),
             cancelling]
    sums = {p: [built[p].cell_sums(v) for v in fills] for p in PLACEMENTS}
    references = [
        dense_from_coo(side.row_codes(), side.keys_mapped,
                       np.ones(n) if values is None else values, (g, k))
        for values in fills
    ]
    for i, values in enumerate(fills):
        a_sums, r_sums = sums["addressed"][i], sums["ranked"][i]
        assert a_sums.dtype == r_sums.dtype
        assert a_sums.size == g * k and r_sums.size == ranked.nnz
        assert addressed.at_cells(a_sums).tobytes() == r_sums.tobytes()
        assert ranked.at_cells(r_sums) is r_sums
    # The unit COUNT slot is the occupancy histogram: the same numbers
    # as summing that many 1.0s, without the array of ones.
    for p in PLACEMENTS:
        assert sums[p][0] is built[p].occupancy
        assert np.array_equal(sums[p][0], sums[p][1])
    for dtype in (np.float32, np.float64):
        a_stack = addressed.dense_stack(sums["addressed"], dtype=dtype)
        r_stack = ranked.dense_stack(sums["ranked"], dtype=dtype)
        assert a_stack.dtype == r_stack.dtype == dtype
        assert a_stack.shape == r_stack.shape == (len(fills), g, k)
        assert a_stack.tobytes() == r_stack.tobytes()
        assert a_stack.flags.c_contiguous
        for reference, matrix in zip(references, a_stack):
            assert np.array_equal(matrix, reference.astype(dtype))
        # Key-domain chunks are column slices of those matrices; a chunk
        # counts as occupied when a tuple's key falls in it, whatever
        # its cells sum to.
        for chunk in (1, 2, 3, k, k + 1):
            slicers = {p: ColumnSlices(built[p], chunk) for p in PLACEMENTS}
            for c, k0 in enumerate(range(0, k, chunk)):
                in_chunk = (side.keys_mapped >= k0) & (
                    side.keys_mapped < k0 + chunk)
                for p in PLACEMENTS:
                    assert slicers[p].occupied(c) == in_chunk.any()
                    pieces = slicers[p].fills(c, sums[p], dtype)
                    for matrix, piece in zip(a_stack, pieces, strict=True):
                        assert piece.dtype == dtype
                        assert piece.flags.c_contiguous
                        assert np.array_equal(piece,
                                              matrix[:, k0:k0 + chunk])


def test_placement_follows_the_key_table_budget():
    def placement(n_tuples, g, k):
        rows = None if g == 1 else np.arange(n_tuples) % g
        side = make_side(rows, np.arange(n_tuples) % k, g)
        structure = build_coo_operands(side, k)
        return "addressed" if structure.cells is None else "ranked"

    # A few slots per tuple served ...
    per_row = DIRECT_ADDRESS_SLOTS_PER_ROW
    assert placement(5, 1, per_row * 5) == "addressed"
    assert placement(5, 1, per_row * 5 + 1) == "ranked"
    assert placement(6, 3, per_row * 2) == "addressed"
    assert placement(5, 3, per_row * 2) == "ranked"
    # ... and never more than the presence table's cap.
    n = KEY_TABLE_MAX_SLOTS // per_row + 1
    assert placement(n, 1, KEY_TABLE_MAX_SLOTS) == "addressed"
    assert placement(n, 1, KEY_TABLE_MAX_SLOTS + 1) == "ranked"
    assert placement(n, 2, KEY_TABLE_MAX_SLOTS // 2) == "addressed"
    assert placement(n, 2, KEY_TABLE_MAX_SLOTS // 2 + 1) == "ranked"


# --------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------- #

def doubled_dimension(catalog: Catalog, name: str) -> Catalog:
    """The catalog with every row of dimension ``name`` stored twice: its
    join keys repeat, so folding it turns the fact side's COUNT weights
    into multiplicities (2 per surviving row) instead of ones."""
    out = Catalog()
    for table_name in catalog.table_names():
        table = catalog.get(table_name)
        if table_name == name:
            table = Table(name, {
                column_name: Column(
                    np.concatenate([table.column(column_name).data] * 2),
                    table.column(column_name).dtype,
                    table.column(column_name).dictionary)
                for column_name in table.column_names
            })
        out.register(table)
    return out


def ssb_folded_duplicates() -> Catalog:
    return doubled_dimension(
        ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13), "supplier")


SSB_JOINS = ("lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
             "AND lo_orderdate = d_datekey")
QUERIES = {
    "figure-5 matmul": (
        MATMUL_QUERY, lambda: matmul_catalog(48, seed=3, value_high=4.0),
        "a"),
    "ssb year": (
        "SELECT d_year, SUM(lo_revenue) AS revenue, COUNT(*) AS n "
        "FROM lineorder, supplier, ddate WHERE lo_suppkey = s_suppkey "
        "AND lo_orderdate = d_datekey AND s_region = 'ASIA' "
        "GROUP BY d_year",
        ssb_folded_duplicates, "lineorder"),
    "ssb nation x year": (
        "SELECT c_nation, d_year, SUM(lo_revenue) AS revenue "
        f"FROM lineorder, customer, supplier, ddate WHERE {SSB_JOINS} "
        "AND c_region = 'ASIA' GROUP BY c_nation, d_year",
        ssb_folded_duplicates, "lineorder"),
    "ssb city": (
        "SELECT c_city, COUNT(*) AS n, AVG(lo_quantity) AS q, "
        "SUM(lo_extendedprice * lo_discount) AS r "
        "FROM lineorder, customer, supplier WHERE lo_custkey = c_custkey "
        "AND lo_suppkey = s_suppkey AND s_region = 'AMERICA' "
        "GROUP BY c_city",
        ssb_folded_duplicates, "lineorder"),
}


@pytest.mark.parametrize("sql, make_catalog, fact", QUERIES.values(),
                         ids=QUERIES)
def test_placement_never_moves_plan_ledger_or_rows(
        sql, make_catalog, fact, placements, monkeypatch):
    """Default, all-addressed and all-ranked (the only placement there
    used to be) runs agree under every engine variant."""
    catalog = make_catalog()
    expected = ReferenceEngine(catalog).execute(sql)
    assert expected.require_table().num_rows
    observed, placed = {}, {}
    for forced in (None, *PLACEMENTS):
        with monkeypatch.context() as patch:
            if forced is not None:
                force_placement(patch, forced)
            for variant, engine in engine_variants(catalog, fact, patch):
                del placements[:]
                got = engine.execute(sql)
                context = f"{forced or 'default'} placement, {variant}"
                assert not got.extra.get("fallback_reason"), context
                assert_results_match(got, expected, rel=TCU_REL,
                                     context=context)
                observed[forced, variant] = (
                    repr(got.seconds), got.extra["executed_by"],
                    got.extra.get("strategy"), got.extra.get("precision"),
                    got.require_table().num_rows,
                )
                placed[forced, variant] = set(placements)
    for (forced, variant), seen in observed.items():
        assert seen == observed["ranked", variant], (forced, variant)
        if forced is not None:
            assert placed[forced, variant] == {forced}, variant
    assert all(placed[None, variant] for _, variant in observed)


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("options", [
    dict(force_strategy=Strategy.SPARSE),
    dict(force_strategy=Strategy.SPARSE, fusion=False),
    dict(chunk_rows=16),
], ids=["sparse", "sparse-unfused", "chunk_rows=16"])
@pytest.mark.parametrize("name", ["figure-5 half-empty", "ssb nation x year"])
def test_sparse_and_chunked_plans_through_addressed_structures(
        name, options, backend, placements, monkeypatch):
    """The SPARSE tile layout reads an addressed structure's occupied
    cells (some cells hold nothing, one side's COUNT weights are not
    unit), and a ``chunk_rows`` below ``k`` streams unit COUNT fills."""
    if name == "figure-5 half-empty":
        sql = MATMUL_QUERY
        catalog = matmul_catalog(48, seed=4, value_high=4.0, density=0.5)
    else:
        sql, make_catalog, _ = QUERIES[name]
        catalog = make_catalog()
    force_placement(monkeypatch, "addressed")
    engine = TCUDBEngine(catalog,
                         options=TCUDBOptions(backend=backend, **options))
    got = engine.execute(sql)
    assert not got.extra.get("fallback_reason")
    assert got.extra["executed_by"] == "TCU"
    if "force_strategy" in options:
        assert got.extra["strategy"] == "sparse"
    assert placements and set(placements) == {"addressed"}
    assert_results_match(got, ReferenceEngine(catalog).execute(sql),
                         rel=TCU_REL)
