"""The COUNT slot is multiplied only when something reads it.

Slot 0 of an aggregate product is the COUNT grid.  COUNT and AVG read
it; otherwise it only says which cells hold a tuple, and the driver
skips it when operand occupancy already proves every cell does
(``driver.all_present``): one side occupies every (row, key) cell and
every row of the other holds a tuple.  A one-column group codes only
values that occur; a two-column composite is a cross product, so its
rows are counted.  Every case runs on both backends, DENSE / BLOCKED /
SPARSE plans (priced apart, multiplied by the one backend product) and
the exact-key path, at two chunk sizes, and must equal the Reference
oracle; the fills of ``_build_agg_side`` equal the ones-array formula
they replaced, byte for byte.

The tuple count per slot (``OperandStructure.occupancy``) is the COUNT
operand only.  ``ValueFill`` decides once whether slot 0 runs
(``driver.product_slots``) and counts it then — an aggregate reads
slot 0, or presence needs it — and nothing counts it otherwise:
presence reads a one-byte table, and slot 0's feasibility range is the
largest cell multiplicity, 1 whenever no two tuples share a cell.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from differential_utils import assert_results_match, engine_variants
from repro.bench.verify import TCU_REL
from repro.datasets.matmul import dense_matrix_from_table, matmul_catalog
from repro.engine import ReferenceEngine
from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions, driver, ops
from repro.engine.tcudb.patterns import AggregateSpec, Factor
from repro.sql.binder import BoundColumn
from repro.storage.catalog import Catalog
from repro.storage.table import Table

pytestmark = pytest.mark.engine_matrix


def rule_catalog(g=16, k=64, seed=29) -> Catalog:
    """``fact`` occupies every (grp, fk) cell; ``dim``'s (c1, c2)
    composite misses (1, 1) while its (c1, c3) composite is complete;
    ``tag`` folds a multiplicity of 2 or 3 into every fact row.  Large
    enough that the TCU plan wins on cost."""
    rng = np.random.default_rng(seed)
    grp, fk = np.divmod(np.arange(g * k), k)
    ids = np.arange(k)
    c1, c3 = ids % 2, ids // 2 % 2
    catalog = Catalog()
    catalog.register(Table.from_dict("fact", {
        "fk": fk, "grp": grp, "tk": rng.integers(0, 3, g * k),
        "v": rng.integers(1, 20, g * k).astype(np.float64)}))
    catalog.register(Table.from_dict("dim", {
        "id": ids, "c1": c1, "c2": np.where(c1 == 1, 0, c3), "c3": c3,
        "w": rng.integers(1, 9, k).astype(np.float64)}))
    catalog.register(Table.from_dict("tag", {
        "tid": [0, 0, 1, 1, 1, 2, 2], "kind": [0, 1, 0, 1, 0, 1, 1]}))
    return catalog


JOIN = "FROM fact, dim WHERE fk = id"
FOLD = "FROM fact, dim, tag WHERE fk = id AND tk = tid"

# name -> (SQL, COUNT slot multiplied, every cell proven present)
RULE_QUERIES = {
    # (a) A full fact against a two-column composite that misses (1, 1):
    # presence is unproven, so slot 0 runs and the cells of (1, 1) stay
    # absent.
    "a: composite misses a combination": (
        f"SELECT grp, c1, c2, SUM(v * w) AS s {JOIN} GROUP BY grp, c1, c2",
        True, False),
    "a: composite complete": (
        f"SELECT grp, c1, c3, SUM(v * w) AS s {JOIN} GROUP BY grp, c1, c3",
        False, True),
    "a: one-column group": (
        f"SELECT grp, c1, SUM(v * w) AS s {JOIN} GROUP BY grp, c1",
        False, True),
    # (b) The filter leaves holes in the fact side, and dim grouped on c1
    # is never full: slot 0 runs for presence.
    "b: neither side full": (
        f"SELECT grp, c1, SUM(v * w) AS s {JOIN} AND v > 10 "
        "GROUP BY grp, c1",
        True, False),
    # (c) Presence is proven, but an aggregate reads the COUNT grid.
    "c: COUNT": (
        f"SELECT grp, c1, COUNT(*) AS n {JOIN} GROUP BY grp, c1",
        True, True),
    "c: AVG": (
        f"SELECT grp, c1, AVG(v) AS a {JOIN} GROUP BY grp, c1",
        True, True),
    "c: HAVING COUNT(*)": (
        f"SELECT grp, c1, SUM(v * w) AS s {JOIN} GROUP BY grp, c1 "
        "HAVING COUNT(*) > 1",
        True, True),
    # (d) tag folds multiplicities into the fact side's COUNT weights.
    "d: fold-weighted SUM": (
        f"SELECT grp, c1, SUM(v * w) AS s {FOLD} GROUP BY grp, c1",
        False, True),
    "d: fold-weighted COUNT": (
        f"SELECT grp, c1, COUNT(*) AS n, SUM(v) AS s {FOLD} "
        "GROUP BY grp, c1",
        True, True),
    # The hybrid grouped reduce: its ones-vector side is full, so a
    # one-column group is proven present — with no aggregate, no slot
    # runs at all — and a composite one is counted.
    "reduce: GROUP BY only": (
        f"SELECT grp, c1 {JOIN} GROUP BY grp, c1", False, True),
    "reduce: composite GROUP BY only": (
        f"SELECT grp, c1, c2 {JOIN} GROUP BY grp, c1, c2", True, False),
}
PLANS = ("dense", "blocked", "sparse", "exact-key")


@pytest.fixture
def slots_seen(monkeypatch):
    """``(counted, proven, weighted)`` of every product ``ValueFill``
    prepared: whether slot 0 runs, whether every cell was proven
    present, and whether a side's COUNT weights were folded
    multiplicities.  A unit COUNT slot arrives uncounted (None), and
    leaves None exactly when it does not run."""
    seen = []
    inner = driver.product_slots

    def recorded(left, right, left_sums, right_sums, aggregates):
        out = inner(left, right, left_sums, right_sums, aggregates)
        weighted = any(sums[0] is not None and sums[0].dtype.kind == "f"
                       for sums in (left_sums, right_sums))
        counted = out[0][0] is not None
        assert counted == (out[1][0] is not None)
        seen.append((counted, driver.all_present(left, right), weighted))
        return out

    monkeypatch.setattr(ops, "product_slots", recorded)
    return seen


@pytest.fixture
def occupancy_counted(monkeypatch):
    """The operator (``value_fill`` or ``gemm``) executing each time an
    ``OperandStructure.occupancy`` was counted."""
    counted, running = [], []
    inner = driver.OperandStructure.occupancy.func

    def occupancy(structure):
        counted.append(running[-1] if running else None)
        return inner(structure)

    spy = functools.cached_property(occupancy)
    spy.__set_name__(driver.OperandStructure, "occupancy")
    monkeypatch.setattr(driver.OperandStructure, "occupancy", spy)
    for op in (ops.ValueFill, ops.Gemm):
        def execute(self, ctx, _inner=op.execute, _kind=op.kind):
            running.append(_kind)
            try:
                return _inner(self, ctx)
            finally:
                running.pop()

        monkeypatch.setattr(op, "execute", execute)
    return counted


def plan_options(monkeypatch, plan, **options) -> TCUDBOptions:
    """A forced plan; "exact-key" is a DENSE plan past the cell budget."""
    if plan == "exact-key":
        monkeypatch.setattr(driver, "NUMERIC_CELL_LIMIT", 0)
        plan = "dense"
    return TCUDBOptions(force_strategy=Strategy(plan), **options)


@pytest.mark.parametrize("chunk_rows", [16, None])
@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("name", RULE_QUERIES)
def test_count_slot_runs_only_when_read_or_presence_is_unproven(
        name, plan, backend, chunk_rows, slots_seen, occupancy_counted,
        monkeypatch):
    sql, counted, proven = RULE_QUERIES[name]
    catalog = rule_catalog()
    expected = ReferenceEngine(catalog).execute(sql)
    engine = TCUDBEngine(catalog, options=plan_options(
        monkeypatch, plan, backend=backend, chunk_rows=chunk_rows))
    got = engine.execute(sql)
    assert got.extra["executed_by"] == (
        "TCU-hybrid" if name.startswith("reduce:") else "TCU"
    ), got.extra.get("fallback_reason")
    assert got.extra["strategy"] == ("dense" if plan == "exact-key"
                                     else plan)
    assert slots_seen == [(counted, proven, name.startswith("d:"))]
    assert set(occupancy_counted) == ({"value_fill"} if counted else set())
    assert_results_match(got, expected, rel=TCU_REL, context=name)


@pytest.mark.parametrize("name", ["a: composite misses a combination",
                                  "a: composite complete",
                                  "d: fold-weighted SUM"])
def test_every_engine_variant_agrees(name):
    sql = RULE_QUERIES[name][0]
    catalog = rule_catalog()
    expected = ReferenceEngine(catalog).execute(sql)
    for variant, engine in engine_variants(catalog):
        got = engine.execute(sql)
        assert not got.extra.get("fallback_reason"), variant
        assert_results_match(got, expected, rel=TCU_REL,
                             context=f"{variant}: {name}")


# --------------------------------------------------------------------- #
# (e) Figure 5: one GEMM per product
# --------------------------------------------------------------------- #

MATMUL_SQL = ("SELECT A.col_num, B.row_num, SUM(A.val * B.val) AS res "
              "FROM A, B WHERE A.row_num = B.col_num "
              "GROUP BY A.col_num, B.row_num")


def matmul_product(catalog, dim) -> np.ndarray:
    return (dense_matrix_from_table(catalog.get("a"), dim).T
            @ dense_matrix_from_table(catalog.get("b"), dim).T)


def assert_is_product(result, expected):
    table = result.require_table()
    i, j, res = (table.column(name).data for name in table.column_names)
    assert table.num_rows == expected.size
    got = np.full(expected.shape, np.nan)
    got[i.astype(int), j.astype(int)] = res
    assert np.allclose(got, expected, rtol=TCU_REL, atol=1e-9)


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_figure5_multiplies_a_depth_one_stack(backend, slots_seen,
                                              monkeypatch):
    """One GEMM of the value slot's own placed arrays, in the backend's
    fill dtype (one tuple per cell, integers within 2**24): not a copy
    converted to it."""
    dim = 24
    catalog = matmul_catalog(dim, seed=5)
    engine = TCUDBEngine(catalog, options=TCUDBOptions(backend=backend))
    stacks, slots = [], []
    inner = type(engine.driver.backend).matmul
    monkeypatch.setattr(
        type(engine.driver.backend), "matmul",
        lambda self, device, a, b, precision, **scale: stacks.append(
            (a, b)) or inner(self, device, a, b, precision, **scale))
    recorded = ops.product_slots
    monkeypatch.setattr(ops, "product_slots", lambda *args: slots.append(
        recorded(*args)) or slots[-1])
    got = engine.execute(MATMUL_SQL)
    assert got.extra["executed_by"] == "TCU"
    (a, b), = stacks
    ((_, left_sum), (_, right_sum)), = slots
    fill_dtype = engine.driver.backend.fill_dtype
    assert (a.shape, a.dtype, b.dtype) == ((1, dim, dim), fill_dtype,
                                           fill_dtype)
    assert a.base is left_sum and b.base is right_sum
    assert slots_seen == [(False, True, False)]
    assert_is_product(got, matmul_product(catalog, dim))


@pytest.mark.parametrize("chunk_rows", [16, None])
@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("plan", PLANS)
def test_figure5_never_counts_occupancy(plan, backend, chunk_rows,
                                        occupancy_counted, monkeypatch):
    """Dense keys from 0, one tuple per cell, SUM only: presence, nnz and
    slot 0's range all come from the presence table."""
    dim = 24
    catalog = matmul_catalog(dim, seed=7)
    engine = TCUDBEngine(catalog, options=plan_options(
        monkeypatch, plan, backend=backend, chunk_rows=chunk_rows))
    got = engine.execute(MATMUL_SQL)
    assert got.extra["executed_by"] == "TCU"
    assert occupancy_counted == []
    assert_is_product(got, matmul_product(catalog, dim))


def duplicate_cell_catalog(g=4, k=8, copies=20) -> Catalog:
    """Every (grp, fk) cell of ``fact`` holds ``copies`` tuples whose
    values alternate -1 / +1, so each cell's SUM operand is 0 while its
    COUNT operand is ``copies``: slot 0 alone sets the fact side's
    range."""
    grp, fk = np.divmod(np.arange(g * k * copies) // copies, k)
    catalog = Catalog()
    catalog.register(Table.from_dict("fact", {
        "fk": fk, "grp": grp,
        "v": np.where(np.arange(fk.size) % 2, 1.0, -1.0)}))
    catalog.register(Table.from_dict("dim", {
        "id": np.arange(k), "c1": np.arange(k) % 2,
        "w": np.arange(k) % 3 + 1.0}))
    return catalog


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("plan", PLANS)
def test_duplicate_cells_keep_the_count_slot_range(
        plan, backend, slots_seen, occupancy_counted, monkeypatch):
    """Slot 0 is not multiplied (presence is proven), yet its range — the
    largest multiplicity, 20 — still decides the precision: int8, where
    the SUM operands alone would admit int4."""
    sql = ("SELECT grp, c1, SUM(v * w) AS s FROM fact, dim "
           "WHERE fk = id GROUP BY grp, c1")
    catalog = duplicate_cell_catalog()
    reports = []
    inner = ops.ValueFill._operands

    def operands(self, *args):
        value = inner(self, *args)
        reports.append(value.feasibility)
        return value

    monkeypatch.setattr(ops.ValueFill, "_operands", operands)
    engine = TCUDBEngine(catalog, options=plan_options(
        monkeypatch, plan, backend=backend))
    got = engine.execute(sql)
    assert slots_seen == [(False, True, False)]
    assert occupancy_counted == ["value_fill"]
    (report,) = reports
    assert (report.left_range.lo, report.left_range.hi) == (0.0, 20.0)
    assert got.extra["precision"] == "int8"
    assert_results_match(got, ReferenceEngine(catalog).execute(sql),
                         rel=TCU_REL, context=plan)


# --------------------------------------------------------------------- #
# Fills without ones-arrays
# --------------------------------------------------------------------- #

def column(binding, name):
    return BoundColumn(binding=binding, column=name, dtype=None)


def ones_formula(spec, columns, weights, b_side, side_bindings):
    """The fill formula the term product replaced."""
    n = len(next(iter(columns.values())))
    values = np.full(n, 1.0)
    if not b_side:
        values = values * spec.constant
    if weights is not None:
        values = values * weights
    for factor in spec.factors:
        if factor.column.binding not in side_bindings:
            continue
        array = np.asarray(columns[factor.column.key], dtype=np.float64)
        values = values * (array if factor.power == 1 else 1.0 / array)
    return values


def fill_cases():
    rng = np.random.default_rng(8)
    n = 40
    x = rng.normal(size=n) * 1e3
    y = rng.uniform(-2, 2, n)
    y[:4] = [0.0, -0.0, np.inf, np.nan]
    x[4:7] = [np.nan, -np.inf, 5e-324]
    columns = {"f.x": x, "f.y": y, "d.z": rng.integers(-5, 5, n)}
    weights = rng.integers(1, 4, n)
    fx = Factor(column=column("f", "x"), power=1)
    fy = Factor(column=column("f", "y"), power=1)
    inv_y = Factor(column=column("f", "y"), power=-1)
    dz = Factor(column=column("d", "z"), power=1)

    def spec(constant, *factors):
        return AggregateSpec(func="sum", constant=constant,
                             factors=list(factors))

    return columns, {
        "constant 3, one factor": (spec(3.0, fx), None),
        "constant 1, no factor": (spec(1.0), None),
        "constant -0.5, no factor": (spec(-0.5), None),
        "folded weights": (spec(1.0, fx), weights),
        "folded weights, constant 2": (spec(2.0, fy), weights),
        "folded weights only": (spec(1.0), weights),
        "power -1": (spec(1.0, inv_y), None),
        "two factors and 1/y": (spec(0.25, fx, fy, inv_y), weights),
        "other side's factor": (spec(1.0, dz, fx), None),
    }


FILL_COLUMNS, FILL_CASES = fill_cases()


@pytest.mark.parametrize("b_side", [False, True])
@pytest.mark.parametrize("case", FILL_CASES)
def test_fills_equal_the_ones_array_formula(case, b_side):
    spec, weights = FILL_CASES[case]
    side_bindings = {"d"} if b_side else {"f"}
    n = len(FILL_COLUMNS["f.x"])
    with np.errstate(all="ignore"):  # 1/0 and inf * 0 are cases here
        _, fills = ops._build_agg_side(
            [spec], [], FILL_COLUMNS.__getitem__,
            np.zeros(n, dtype=np.int64), side_bindings=side_bindings,
            weights=weights, b_side=b_side)
        expected = ones_formula(spec, FILL_COLUMNS, weights, b_side,
                                side_bindings)
    got = fills[1]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == expected.tobytes()
