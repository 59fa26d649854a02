"""One product path: key-domain chunks are slices of the prepared operand.

When ``k > chunk_rows`` the driver multiplies column slices of the
operand ``ValueFill`` already built (``ColumnSlices``) instead of
re-selecting each chunk's tuples.  The slices hold the same numbers —
``bincount`` summed every cell in tuple order either way — so the grids
are bit-identical to the re-selecting loop (kept here as the oracle),
on both backends, sequential or pooled, DENSE or BLOCKED, whichever
placement built the structure; rows, simulated seconds, strategy and
precision never see the chunk size; the unfused ``Gemm`` multiplies the
same tiles as the fused one; the exact-key path past the cell limit
reads the same structures; and the loop holds one slice pair.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from differential_utils import assert_results_match, engine_variants
from repro.engine import ReferenceEngine
from repro.engine.base import ExecutionMode
from repro.engine.tcudb import (
    Strategy,
    TCUDBEngine,
    TCUDBOptions,
    driver,
    ops,
)
from repro.engine.tcudb.cost import OperatorGeometry, estimate_dense
from repro.engine.tcudb.driver import TCUDriver, build_coo_operands
from repro.engine.tcudb.patterns import AggregateSpec
from repro.hardware.profiles import I7_7700K
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tensor.coo import dense_from_coo
from repro.tensor.precision import Precision
from test_operand_placement import PLACEMENTS, force_placement, make_side

pytestmark = pytest.mark.engine_matrix

TCU_REL = 2e-3
COUNT = AggregateSpec(func="count", constant=1.0, factors=[])
SUM = AggregateSpec(func="sum", constant=1.0, factors=[])


# --------------------------------------------------------------------- #
# (a) driver level: slices vs the re-selecting chunk loop
# --------------------------------------------------------------------- #

def side(rows, keys, g, *fills):
    """An agg side of ``g`` group rows (``rows`` None: the one-row side)
    and its per-tuple fill values, one entry per grid of the case: the
    COUNT weights (None: every tuple counts once), then one array per
    non-COUNT aggregate."""
    return make_side(rows, keys, g), [
        v if v is None else np.asarray(v, dtype=np.float64) for v in fills]


def _cases():
    rng = np.random.default_rng(22)
    n, m = 300, 120
    random = dict(
        left=side(rng.integers(0, 6, n), rng.integers(0, 41, n), 6,
                  rng.integers(1, 4, n), rng.integers(1, 9, n),
                  rng.normal(size=n)),
        right=side(rng.integers(0, 3, m), rng.integers(0, 41, m), 3,
                   None, rng.integers(1, 5, m), rng.uniform(0.5, 2.0, m)),
        k=41, chunk=8, specs=[SUM, COUNT, SUM], precision=Precision.FP16)
    return {
        # Cells filled twice, on both sides.
        "duplicate cells": dict(
            left=side([0, 0, 1, 1, 1], [2, 2, 0, 5, 5], 2,
                      None, [3, 4, 5, 6, 7]),
            right=side([0, 1, 1, 0], [2, 5, 5, 0], 2, None, [1, 2, 3, 4]),
            k=6, chunk=2, specs=[SUM], precision=Precision.INT8),
        # Chunk [4, 8) holds left tuples only, chunk [8, 12) right only.
        "one-sided chunks": dict(
            left=side([0, 1, 1, 0], [0, 1, 5, 6], 2, None, [2, 3, 4, 5]),
            right=side([0, 0, 1], [0, 1, 9], 2, None, [1, 1, 1]),
            k=12, chunk=4, specs=[SUM, COUNT], precision=Precision.INT8),
        # k = chunk_rows + 1: the last chunk is one column wide.
        "k = chunk + 1": dict(
            left=side([0, 1, 2, 2], [0, 3, 4, 4], 3, None, [1, 2, 3, 4]),
            right=side([1, 0, 1], [4, 4, 0], 2, None, [5, 6, 7]),
            k=5, chunk=4, specs=[SUM], precision=Precision.INT8),
        # Fold multiplicities on the left, a unit one-row right side.
        "weighted COUNT x unit side": dict(
            left=side([0, 1, 1, 2, 0], [0, 2, 2, 3, 6], 3, [2, 1, 3, 2, 2]),
            right=side(None, [0, 2, 3, 3, 6, 6], 1, None),
            k=7, chunk=3, specs=[COUNT], precision=Precision.INT8),
        "fp fills, weighted, three slots": random,
    }


CASES = _cases()


def reselecting_oracle(driver, left, right, k, plan):
    """The chunk loop this PR retired: per key-domain chunk, re-select
    each side's tuples, place them with ``dense_from_coo`` and add the
    products in chunk order.  Returns one grid per slot and how many
    chunks were multiplied."""
    chunk = driver.chunk_rows
    (left, left_fills), (right, right_fills) = left, right
    grids = [np.zeros((left.g, right.g)) for _ in left_fills]

    def placed(agg_side, values, selected, k0, width):
        weights = (np.ones(int(selected.sum())) if values is None
                   else values[selected])
        return driver.backend.dense_from_coo(
            agg_side.row_codes()[selected],
            agg_side.keys_mapped[selected] - k0, weights,
            (agg_side.g, width))

    multiplied = 0
    for k0 in range(0, k, chunk):
        k1 = min(k0 + chunk, k)
        lsel = (left.keys_mapped >= k0) & (left.keys_mapped < k1)
        rsel = (right.keys_mapped >= k0) & (right.keys_mapped < k1)
        if not lsel.any() or not rsel.any():
            continue
        multiplied += 1
        for grid, lvalues, rvalues in zip(grids, left_fills, right_fills):
            mat_a = placed(left, lvalues, lsel, k0, k1 - k0)
            mat_b = placed(right, rvalues, rsel, k0, k1 - k0)
            grid += driver._execute_gemm(mat_a, mat_b.T, plan)
    return grids, multiplied


def product_plan(device, left, right, k, precision, strategy):
    n, m = left[0].keys_mapped.size, right[0].keys_mapped.size
    geometry = OperatorGeometry(
        g1=left[0].g, g2=right[0].g, k=k, nnz_left=n, nnz_right=m,
        n_tuples=n + m, raw_bytes=8.0, result_rows=left[0].g * right[0].g)
    return replace(estimate_dense(device, I7_7700K, geometry, precision),
                   strategy=strategy)


def prepared_operands(left, right, k):
    """What ``ValueFill`` hands the product: each side's structure and
    one array of per-slot sums per grid."""
    structures = [build_coo_operands(placed, k) for placed, _ in (left, right)]
    sums = [[structure.cell_sums(values) for values in fills]
            for structure, (_, fills) in zip(structures, (left, right))]
    return structures, sums


@pytest.mark.parametrize("strategy", [Strategy.DENSE, Strategy.BLOCKED],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("case", CASES)
def test_sliced_grids_equal_the_reselecting_loop(
        case, placement, backend, workers, strategy, device, monkeypatch):
    left, right, k, chunk, specs, precision = CASES[case].values()
    force_placement(monkeypatch, placement)
    driver = TCUDriver(device, ExecutionMode.REAL, chunk_rows=chunk,
                       workers=workers, backend=backend)
    plan = product_plan(device, left, right, k, precision, strategy)
    structures, sums = prepared_operands(left, right, k)
    assert all((s.cells is None) == (placement == "addressed")
               for s in structures)
    grids, count_grid = driver._grids_numeric(*structures, *sums, specs, plan)
    expected, _ = reselecting_oracle(driver, left, right, k, plan)
    value_grids = iter(expected[1:])
    assert np.array_equal(count_grid, expected[0])
    for spec, grid in zip(specs, grids, strict=True):
        if spec.func == "count":
            assert grid is count_grid
        else:
            assert np.array_equal(grid, next(value_grids))
    # ... and the exact product's, which the semantic path computes from
    # the same structures and sums: to the bit at the integer precisions,
    # within binary16 rounding of the operands otherwise.
    exact, exact_count = driver._grids_semantic(*structures, *sums, specs)
    exact_slots = [exact_count] + [
        grid for spec, grid in zip(specs, exact) if spec.func != "count"]

    def dense(placed, values):
        return dense_from_coo(
            placed.row_codes(), placed.keys_mapped,
            np.ones(placed.keys_mapped.size) if values is None else values,
            (placed.g, k))

    for got, product, lvalues, rvalues in zip(
            expected, exact_slots, left[1], right[1], strict=True):
        assert np.allclose(
            product, dense(left[0], lvalues) @ dense(right[0], rvalues).T,
            rtol=1e-12, atol=1e-12)
        if precision.is_integer:
            assert np.array_equal(got, product)
        else:
            assert np.allclose(got, product, rtol=TCU_REL,
                               atol=TCU_REL * np.abs(product).max())


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_chunk_either_side_leaves_empty_is_not_multiplied(
        placement, device, monkeypatch):
    left, right, k, chunk, specs, precision = CASES[
        "one-sided chunks"].values()
    force_placement(monkeypatch, placement)
    driver = TCUDriver(device, ExecutionMode.REAL, chunk_rows=chunk,
                       workers=1, backend="sim")
    plan = product_plan(device, left, right, k, precision, Strategy.DENSE)
    _, multiplied = reselecting_oracle(driver, left, right, k, plan)
    assert multiplied == 1  # of three chunks
    products = []
    accumulate = driver.backend.matmul_into
    monkeypatch.setattr(
        driver.backend, "matmul_into",
        lambda acc, device, a, b, precision: products.append(a.shape)
        or accumulate(acc, device, a, b, precision))
    structures, sums = prepared_operands(left, right, k)
    driver._grids_numeric(*structures, *sums, specs, plan)
    assert products == [(left[0].g, chunk)] * 2  # one chunk, two slots


# --------------------------------------------------------------------- #
# Engine level
# --------------------------------------------------------------------- #

def star_catalog(n=6000, k=5000, seed=17) -> Catalog:
    """A fact table over a ``k``-key dimension (k > 4096: two default
    chunks, the last one narrower) and a small dimension whose keys
    repeat, so folding it weights the fact side's COUNT."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register(Table.from_dict("fact", {
        "fk": rng.integers(0, k, n), "tk": rng.integers(0, 8, n),
        "grp": rng.integers(0, 6, n),
        "v": rng.integers(1, 30, n).astype(np.float64)}))
    catalog.register(Table.from_dict("dim", {
        "id": np.arange(k), "cat": rng.integers(0, 3, k),
        "price": rng.integers(1, 9, k).astype(np.float64)}))
    catalog.register(Table.from_dict("tag", {
        "tid": np.arange(16) % 8, "kind": np.arange(16) % 8 % 3}))
    return catalog


STAR_QUERIES = {
    "two tables": (
        "SELECT grp, cat, SUM(v * price) AS s, COUNT(*) AS n, AVG(v) AS a "
        "FROM fact, dim WHERE fk = id GROUP BY grp, cat"),
    # dim is the product's B side (k 5000); tag folds into the fact side
    # as a multiplicity of two per surviving row: a weighted COUNT.
    "fold multiplicities": (
        "SELECT cat, SUM(v) AS s, COUNT(*) AS n FROM fact, dim, tag "
        "WHERE fk = id AND tk = tid AND kind = 1 GROUP BY cat"),
    # A duplicate-key dimension that contributes a column: the hybrid
    # lowering, a grouped reduce whose inner dimension is the row index.
    "grouped reduce": (
        "SELECT cat, kind, SUM(v) AS s, COUNT(*) AS n FROM fact, dim, tag "
        "WHERE fk = id AND tk = tid AND grp < 3 GROUP BY cat, kind"),
}
UNCHUNKED = 1 << 30


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("sql", STAR_QUERIES.values(), ids=STAR_QUERIES)
def test_chunk_size_never_moves_rows_ledger_or_plan(sql, placement,
                                                    monkeypatch):
    """Every engine variant x chunk_rows {16, 4096}: rows are the
    oracle's, and simulated seconds, strategy and precision are those of
    the same variant multiplying whole operands."""
    catalog = star_catalog()
    expected = ReferenceEngine(catalog).execute(sql)
    assert expected.require_table().num_rows
    force_placement(monkeypatch, placement)
    sliced = []
    inner = TCUDriver._grids_by_slices
    monkeypatch.setattr(
        TCUDriver, "_grids_by_slices",
        lambda self, *args: sliced.append(self.chunk_rows)
        or inner(self, *args))
    observed = {}
    for chunk_rows in (UNCHUNKED, 16, 4096):
        monkeypatch.setenv("REPRO_CHUNK_ROWS", str(chunk_rows))
        for variant, engine in engine_variants(catalog, "fact", monkeypatch):
            del sliced[:]
            got = engine.execute(sql)
            context = f"{placement}, chunk_rows={chunk_rows}, {variant}"
            assert not got.extra.get("fallback_reason"), context
            assert_results_match(got, expected, rel=TCU_REL, context=context)
            # The variant that sets its own chunk size keeps it; a
            # shard's key domain may fit one default chunk.
            wanted = {16 if variant == "chunk_rows=16" else chunk_rows}
            if variant == "REPRO_SHARDS=2" and chunk_rows == 4096:
                assert set(sliced) <= wanted, context
            else:
                assert set(sliced) == wanted - {UNCHUNKED}, context
            observed[chunk_rows, variant] = (
                repr(got.seconds), got.extra["executed_by"],
                got.extra.get("strategy"), got.extra.get("precision"))
    for (chunk_rows, variant), seen in observed.items():
        assert seen == observed[UNCHUNKED, variant], (chunk_rows, variant)


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("chunk_rows", [16, 4096])
@pytest.mark.parametrize("strategy",
                         [Strategy.DENSE, Strategy.SPARSE, Strategy.BLOCKED],
                         ids=lambda s: s.value)
def test_unfused_gemm_multiplies_the_fused_tiles(strategy, chunk_rows,
                                                 backend, monkeypatch):
    """``fusion=False`` is a statement about the cost model: the grids of
    the per-aggregate ``Gemm`` are the ``BatchedGemm``'s, bit for bit."""
    catalog = star_catalog()
    sql = STAR_QUERIES["two tables"]
    produced = []
    inner = TCUDriver._grids_numeric

    def recorded(self, *args):
        grids, count_grid = inner(self, *args)
        produced.append([count_grid, *grids])
        return grids, count_grid

    monkeypatch.setattr(TCUDriver, "_grids_numeric", recorded)
    results = {}
    for fusion in (True, False):
        del produced[:]
        engine = TCUDBEngine(catalog, options=TCUDBOptions(
            fusion=fusion, force_strategy=strategy, chunk_rows=chunk_rows,
            backend=backend))
        results[fusion] = engine.execute(sql)
        assert results[fusion].extra["strategy"] == strategy.value
        listing = results[fusion].extra["program_listing"]
        assert ("BatchedGemm(" in listing) == fusion
        (results[fusion, "grids"],) = produced
    for fused, unfused in zip(results[True, "grids"],
                              results[False, "grids"], strict=True):
        assert np.array_equal(fused, unfused)
    # What fusion=False still changes: one fill pass charged per matmul.
    assert results[False].seconds > results[True].seconds


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("sql", STAR_QUERIES.values(), ids=STAR_QUERIES)
def test_products_past_the_cell_limit_read_the_same_operands(
        sql, placement, monkeypatch):
    """Without a numeric budget the exact-key path joins the occupied
    cells of the same structures: float64 rows, the numeric plan's
    ledger."""
    catalog = star_catalog()
    numeric = TCUDBEngine(catalog).execute(sql)
    force_placement(monkeypatch, placement)
    monkeypatch.setattr(driver, "NUMERIC_CELL_LIMIT", 0)
    taken = []
    inner = TCUDriver._grids_semantic
    monkeypatch.setattr(
        TCUDriver, "_grids_semantic",
        staticmethod(lambda *args: taken.append(1) or inner(*args)))
    got = TCUDBEngine(catalog).execute(sql)
    assert taken and not got.extra.get("fallback_reason")
    assert got.extra["executed_by"] == numeric.extra["executed_by"]
    assert_results_match(got, ReferenceEngine(catalog).execute(sql),
                         rel=1e-9)
    assert repr(got.seconds) == repr(numeric.seconds)


# --------------------------------------------------------------------- #
# (d) bounded memory
# --------------------------------------------------------------------- #

# tracemalloc peaks over BatchedGemm.execute of the product below at the
# parent commit (the re-selecting loop; CPython 3.11, NumPy 2.x): its
# two full-length masks plus one slice pair and the backend's product
# temporaries.  The slice loop measured 0.983 x (sim: the simulator's
# fp16 staging of one slice dominates both) and 0.564 x (fast).
PARENT_PEAK_BYTES = {"sim": 2_586_484, "fast": 2_469_703}


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_chunked_product_holds_one_slice_pair(backend, monkeypatch):
    """A Q3.1-shaped product — g 30 x 5, k 51,597, 100 k fact tuples,
    13 chunks of 4096, both structures ranked: the loop allocates one
    ``(g, chunk)`` slice pair plus a chunk's worth of cell offsets, never
    ``g * k`` cells (12 MB a side here) nor an O(nnz) array per chunk."""
    rng = np.random.default_rng(3)
    n, k = 100_000, 51_597
    catalog = Catalog()
    catalog.register(Table.from_dict("fact", {
        "fk": rng.integers(0, k, n), "grp": rng.integers(0, 30, n),
        "v": rng.integers(1, 50, n).astype(np.float64)}))
    catalog.register(Table.from_dict("dim", {
        "id": np.arange(k), "cat": rng.integers(0, 5, k)}))
    sql = ("SELECT grp, cat, SUM(v) AS s, COUNT(*) AS n FROM fact, dim "
           "WHERE fk = id GROUP BY grp, cat")
    peaks = []
    inner = ops.BatchedGemm.execute

    def measured(self, ctx):
        operands = ctx.value(self.input)
        assert (operands.left.g, operands.right.g, operands.k) == (30, 5, k)
        assert operands.left_structure.cells is not None
        tracemalloc.start()
        try:
            return inner(self, ctx)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(ops.BatchedGemm, "execute", measured)
    engine = TCUDBEngine(catalog, options=TCUDBOptions(
        chunk_rows=4096, workers=1, backend=backend))
    got = engine.execute(sql)
    assert got.extra["executed_by"] == "TCU"
    assert got.extra["strategy"] == "dense"
    assert got.require_table().num_rows == 150
    (peak,) = peaks
    assert peak <= PARENT_PEAK_BYTES[backend]
