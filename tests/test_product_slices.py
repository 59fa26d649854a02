"""One product path: key-domain chunks are slices of the prepared operand.

When ``k > chunk_rows`` the driver multiplies column slices of the
operand ``ValueFill`` already built (``ColumnSlices``) instead of
re-selecting each chunk's tuples.  The slices hold the same numbers —
``bincount`` summed every cell in tuple order either way, or placed its
one tuple — so the grids are bit-identical to the re-selecting loop
(kept here as the oracle), whole or sliced,
on both backends, on a fresh driver or a reused one, whichever placement
built the structure; a plan's strategy prices the product and never
changes it, so DENSE, BLOCKED and SPARSE plans return the same bytes;
rows, simulated seconds, strategy and precision never see the chunk
size; the exact-key path past the cell limit reads the same structures;
and the loop holds one slice pair.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from differential_utils import assert_results_match, engine_variants
from repro.bench.verify import TCU_REL
from repro.engine import ReferenceEngine
from repro.engine.tcudb import (
    Strategy,
    TCUDBEngine,
    TCUDBOptions,
    driver,
    ops,
)
from repro.engine.tcudb.cost import OperatorGeometry, estimate_dense
from repro.engine.tcudb.driver import TCUDriver
from repro.engine.tcudb.patterns import AggregateSpec
from repro.hardware.profiles import I7_7700K
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tensor.coo import dense_from_coo
from repro.tensor.precision import Precision
from test_operand_placement import PLACEMENTS, force_placement, make_side

pytestmark = pytest.mark.engine_matrix

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
        # The left side occupies every cell and each right row holds a
        # tuple: every grid cell is present, so SUM alone skips slot 0.
        "full side, SUM only": dict(
            left=side([0, 0, 0, 1, 1, 1, 1], [0, 1, 2, 0, 1, 2, 2], 2,
                      None, [1, 2, 3, 4, 5, 6, 7]),
            right=side([0, 1, 2, 2], [1, 1, 0, 2], 3, None, [2, 3, 4, 5]),
            k=3, chunk=2, specs=[SUM], precision=Precision.INT8),
        # No two tuples share a cell: an addressed side is placed, not
        # summed (the left one full, in shuffled order, with a -0.0; the
        # right one holey), and its integral slots multiply unquantized.
        "one tuple per cell": dict(
            left=side(*np.divmod(rng.permutation(10), 5), 2, None,
                      [3, -0.0, 7, -4, 1, 0, 9, 2, -6, 5]),
            right=side([0, 2, 1, 2, 0], [4, 0, 1, 3, 0], 3, None,
                       [2, 8, -3, 1, 6]),
            k=5, chunk=2, specs=[SUM, COUNT], precision=Precision.INT8),
    }


CASES = _cases()


def reselecting_oracle(driver, left, right, k, plan):
    """The retired re-selecting chunk loop: per key-domain chunk,
    re-select each side's tuples, place them with ``dense_from_coo``,
    apply the backend's fill format and add the backend's products in
    chunk order.  Returns one grid per slot and how many chunks were
    multiplied."""
    chunk = driver.chunk_rows
    dtype, cast = driver.backend.fill_format(plan.precision)
    (left, left_fills), (right, right_fills) = left, right
    grids = [np.zeros((left.g, right.g)) for _ in left_fills]

    def placed(agg_side, values, selected, k0, width):
        weights = (np.ones(int(selected.sum())) if values is None
                   else values[selected])
        matrix = driver.backend.dense_from_coo(
            agg_side.row_codes()[selected],
            agg_side.keys_mapped[selected] - k0, weights,
            (agg_side.g, width))
        if cast is None:
            return matrix.astype(dtype, copy=False), None
        return cast(matrix)

    multiplied = 0
    for k0 in range(0, k, chunk):
        k1 = min(k0 + chunk, k)
        lsel = (left.keys_mapped >= k0) & (left.keys_mapped < k1)
        rsel = (right.keys_mapped >= k0) & (right.keys_mapped < k1)
        if not lsel.any() or not rsel.any():
            continue
        multiplied += 1
        for grid, lvalues, rvalues in zip(grids, left_fills, right_fills):
            mat_a, scale_a = placed(left, lvalues, lsel, k0, k1 - k0)
            mat_b, scale_b = placed(right, rvalues, rsel, k0, k1 - k0)
            scale = None if cast is None else scale_a * scale_b
            grid += driver.backend.matmul(driver.device, mat_a, mat_b.T,
                                          plan.precision, scale=scale)
    return grids, multiplied


def product_plan(device, left, right, k, precision, strategy):
    n, m = left[0].keys_mapped.size, right[0].keys_mapped.size
    geometry = OperatorGeometry(
        g1=left[0].g, g2=right[0].g, k=k, nnz_left=n, nnz_right=m,
        n_tuples=n + m, raw_bytes=8.0, result_rows=left[0].g * right[0].g)
    return replace(estimate_dense(device, I7_7700K, geometry, precision),
                   strategy=strategy)


def prepared_operands(left, right, k, specs, fill_dtype=np.float64):
    """What ``ValueFill`` hands the product, built as ``ValueFill``
    builds it: each side placed and summed by ``ops._summed_operand`` in
    the backend's ``fill_dtype`` (a unit slot 0 left uncounted), then
    ``driver.product_slots``, which counts slot 0 where it runs and
    leaves both sides' slot 0 None where it does not.  Returns both
    sides' structures, their slot sums and the magnitudes an integer
    product reads: the range test's, None unless every slot is
    integral."""
    left, right = (ops._summed_operand(placed, fills, k, fill_dtype)
                   for placed, fills in (left, right))
    left_sums, right_sums = driver.product_slots(
        left.structure, right.structure, left.sums, right.sums, specs)
    feasibility = ops._agg_feasibility(left.ranges, right.ranges, k)
    return ((left.structure, right.structure), (left_sums, right_sums),
            feasibility.integral_magnitudes)


#: A driver's state when it runs the product: new, or past one run of
#: the same product (the fast backend's scratch buffers already held).
HISTORIES = ("fresh", "reused")


def numeric_grids(driver, history, *args):
    """``driver._grids_numeric(*args)`` on a ``history`` driver.  On a
    reused one, the earlier run's grids come out of the second run
    untouched — no scratch buffer aliases a returned grid — and byte-equal
    to the second run's."""
    if history == "fresh":
        return driver._grids_numeric(*args)
    earlier = driver._grids_numeric(*args)
    before = grid_bytes(earlier)
    again = driver._grids_numeric(*args)
    assert grid_bytes(earlier) == before == grid_bytes(again)
    return again


def grid_bytes(grids):
    values, count_grid, present = grids
    return [None if grid is None else grid.tobytes()
            for grid in (*values, count_grid, present)]


@pytest.mark.parametrize("strategy", [Strategy.DENSE, Strategy.BLOCKED],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("history", HISTORIES)
@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("case", CASES)
def test_sliced_grids_equal_the_reselecting_loop(
        case, placement, backend, history, strategy, device, monkeypatch):
    left, right, k, chunk, specs, precision = CASES[case].values()
    force_placement(monkeypatch, placement)
    driver = TCUDriver(device, chunk_rows=chunk, backend=backend)
    plan = product_plan(device, left, right, k, precision, strategy)
    structures, sums, magnitudes = prepared_operands(
        left, right, k, specs, driver.backend.fill_dtype)
    assert all((s.cells is None) == (placement == "addressed")
               for s in structures)
    grids, count_grid, present = numeric_grids(
        driver, history, *structures, *sums, specs, plan, magnitudes)
    expected, _ = reselecting_oracle(driver, left, right, k, plan)
    value_grids = iter(expected[1:])
    # The COUNT grid is multiplied when read or needed for presence, and
    # absent otherwise — not zero-filled; presence is the oracle's either
    # way.
    if count_grid is None:
        assert present is None and case == "full side, SUM only"
    else:
        assert np.array_equal(count_grid, expected[0])
    if present is None:
        assert (expected[0] > 0).all()
    else:
        assert np.array_equal(present, expected[0] > 0)
    for spec, grid in zip(specs, grids, strict=True):
        if spec.func == "count":
            assert grid is count_grid
        else:
            assert np.array_equal(grid, next(value_grids))
    # ... and the exact product's, which the semantic path computes from
    # the same structures and sums: to the bit at the integer precisions,
    # within binary16 rounding of the operands otherwise.
    exact, exact_count, exact_present = driver._grids_semantic(
        *structures, *sums, specs)
    assert (exact_count is None) == (count_grid is None)
    assert (exact_present is None) == (present is None)
    exact_slots = [exact_count] + [
        grid for spec, grid in zip(specs, exact) if spec.func != "count"]

    def dense(placed, values):
        return dense_from_coo(
            placed.row_codes(), placed.keys_mapped,
            np.ones(placed.keys_mapped.size) if values is None else values,
            (placed.g, k))

    for got, product, lvalues, rvalues in zip(
            expected, exact_slots, left[1], right[1], strict=True):
        if product is None:  # the skipped COUNT slot
            continue
        assert np.allclose(
            product, dense(left[0], lvalues) @ dense(right[0], rvalues).T,
            rtol=1e-12, atol=1e-12)
        if precision.is_integer:
            assert np.array_equal(got, product)
        else:
            assert np.allclose(got, product, rtol=TCU_REL,
                               atol=TCU_REL * np.abs(product).max())


@pytest.mark.parametrize("layout", ["whole", "sliced"])
@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("strategy", [Strategy.BLOCKED, Strategy.SPARSE],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("case", CASES)
def test_every_strategy_multiplies_the_dense_product(
        case, strategy, backend, layout, device):
    """A plan's strategy is its price: BLOCKED and SPARSE plans return
    the DENSE plan's grids byte for byte, whole (``k <= chunk_rows``) or
    in key-domain slices, fp16 fills included; and the DENSE plan's
    value grids, read as float64 (a whole integer product keeps int64),
    are the re-selecting loop's at the same chunk size."""
    left, right, k, chunk, specs, precision = CASES[case].values()
    driver = TCUDriver(device, backend=backend,
                       chunk_rows=chunk if layout == "sliced" else k)
    structures, sums, magnitudes = prepared_operands(
        left, right, k, specs, driver.backend.fill_dtype)
    dense_plan = product_plan(device, left, right, k, precision,
                              Strategy.DENSE)
    dense = driver._grids_numeric(*structures, *sums, specs, dense_plan,
                                  magnitudes)
    got = driver._grids_numeric(
        *structures, *sums, specs,
        product_plan(device, left, right, k, precision, strategy),
        magnitudes)
    assert grid_bytes(got) == grid_bytes(dense)
    expected, _ = reselecting_oracle(driver, left, right, k, dense_plan)
    values = [grid for spec, grid in zip(specs, dense[0])
              if spec.func != "count"]
    assert [grid.astype(np.float64).tobytes() for grid in values] == [
        grid.tobytes() for grid in expected[1:]]


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_chunk_either_side_leaves_empty_is_not_multiplied(
        placement, device, monkeypatch):
    left, right, k, chunk, specs, precision = CASES[
        "one-sided chunks"].values()
    force_placement(monkeypatch, placement)
    driver = TCUDriver(device, chunk_rows=chunk, backend="sim")
    plan = product_plan(device, left, right, k, precision, Strategy.DENSE)
    _, multiplied = reselecting_oracle(driver, left, right, k, plan)
    assert multiplied == 1  # of three chunks
    products = []
    accumulate = driver.backend.matmul_into
    monkeypatch.setattr(
        driver.backend, "matmul_into",
        lambda acc, device, a, b, precision, **scale: products.append(
            a.shape) or accumulate(acc, device, a, b, precision, **scale))
    structures, sums, magnitudes = prepared_operands(left, right, k, specs)
    driver._grids_numeric(*structures, *sums, specs, plan, magnitudes)
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
        for variant, engine in engine_variants(catalog):
            del sliced[:]
            got = engine.execute(sql)
            context = f"{placement}, chunk_rows={chunk_rows}, {variant}"
            assert not got.extra.get("fallback_reason"), context
            assert_results_match(got, expected, rel=TCU_REL, context=context)
            # The variant that sets its own chunk size keeps it.
            wanted = {16 if variant == "chunk_rows=16" else chunk_rows}
            assert set(sliced) == wanted - {UNCHUNKED}, context
            observed[chunk_rows, variant] = (
                repr(got.seconds), got.extra["executed_by"],
                got.extra.get("strategy"), got.extra.get("precision"))
    for (chunk_rows, variant), seen in observed.items():
        assert seen == observed[UNCHUNKED, variant], (chunk_rows, variant)


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
        chunk_rows=4096, backend=backend))
    got = engine.execute(sql)
    assert got.extra["executed_by"] == "TCU"
    assert got.extra["strategy"] == "dense"
    assert got.require_table().num_rows == 150
    (peak,) = peaks
    assert peak <= PARENT_PEAK_BYTES[backend]


# tracemalloc peaks of Figure 5's dim-256 product at the parent commit
# (CPython 3.11, NumPy 2.x), in bytes: ValueFill copied the dense keys
# into codes, concatenated the key union, counted an int64 occupancy
# nothing read and stacked a converted copy of the one SUM operand.
PARENT_FIGURE5_PEAK_BYTES = {
    ("sim", "ValueFill"): 5_846_738, ("sim", "BatchedGemm"): 2_364_531,
    ("fast", "ValueFill"): 5_845_572, ("fast", "BatchedGemm"): 1_840_427,
}
# The bounds, in (256 x 256) float64 operands of 512 KiB: ValueFill holds
# both sides' slot arrays and SUM operands (4) plus the feasibility test's
# integrality pass over one fill column (1); the product reads the SUM
# operands themselves, so it holds the backend's quantized copies and
# product (~2.5).
FIGURE5_PEAK_OPERANDS = {"ValueFill": 6, "BatchedGemm": 3}


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_figure5_operand_path_allocates_no_temporaries(backend, monkeypatch):
    from repro.datasets.matmul import MATMUL_QUERY, matmul_catalog

    dim = 256
    peaks = {}
    for op in (ops.ValueFill, ops.BatchedGemm):
        def measured(self, ctx, _inner=op.execute, _name=op.__name__):
            tracemalloc.start()
            try:
                return _inner(self, ctx)
            finally:
                peaks[_name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        monkeypatch.setattr(op, "execute", measured)
    engine = TCUDBEngine(matmul_catalog(dim, seed=11), options=TCUDBOptions(
        chunk_rows=4096, backend=backend))
    got = engine.execute(MATMUL_QUERY)
    assert got.extra["executed_by"] == "TCU"
    assert got.require_table().num_rows == dim * dim
    operand = dim * dim * 8
    for name, bound in FIGURE5_PEAK_OPERANDS.items():
        assert peaks[name] <= bound * operand, (name, peaks[name])
        assert peaks[name] < PARENT_FIGURE5_PEAK_BYTES[backend, name]
