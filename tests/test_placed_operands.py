"""Placed operands: one tuple per addressed cell is written, not summed.

Where no two tuples share an addressed cell, ``ValueFill`` reads a
slot's cell range from the tuples' own extremes, and on ``fast`` places
a slot whose values are integers within 2**24 in float32: one scatter
into a zeroed ``g * k`` array (``OperandStructure.cell_sums`` on a
``placed`` structure).  Any other slot, and every slot on ``sim``, is
float64.  The placed cells, the ranges and every product are the bytes
the ``bincount`` sums gave, and an integer product handed the ranges'
magnitudes multiplies integral operands without re-reading or
quantizing them, to the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions, ops
from repro.engine.tcudb.driver import build_coo_operands
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tensor.backend import FastBackend
from repro.tensor.precision import (
    FP32_EXACT_INT,
    Precision,
    ValueRange,
    exact_integer_matmul,
)
from test_operand_placement import force_placement, make_side

G, K = 3, 4
#: Every cell of a (G, K) side once, in shuffled order.
FULL = np.divmod(np.random.default_rng(8).permutation(G * K), K)
#: Five of the twelve cells.
HOLEY = (np.array([2, 0, 1, 0, 2]), np.array([3, 1, 1, 0, 0]))


def placed_structure(monkeypatch, rows, keys):
    force_placement(monkeypatch, "addressed")
    structure = build_coo_operands(make_side(rows, keys, G), K)
    assert structure.placed
    return structure


def bincount_sums(structure, values):
    return np.bincount(structure.slots,
                       weights=np.asarray(values, dtype=np.float64),
                       minlength=structure.n_slots)


@pytest.mark.parametrize("cells", [FULL, HOLEY], ids=["full", "holey"])
def test_placed_float64_sums_are_the_bincount_sums(cells, monkeypatch):
    """Fractional, negative and huge values, and a -0.0, which
    ``bincount`` adds into +0.0."""
    structure = placed_structure(monkeypatch, *cells)
    values = np.array([-0.0, 2.5000001, -7.25, 1e300, 3.0, -0.0,
                       0.1, -1e-300, 2.0 ** 60 + 2.0 ** 8, 6.0, -0.5,
                       4.0])[:structure.n_tuples]
    placed = structure.cell_sums(values)
    assert placed.dtype == np.float64
    assert placed.tobytes() == bincount_sums(structure, values).tobytes()


@pytest.mark.parametrize("cells", [FULL, HOLEY], ids=["full", "holey"])
def test_placed_float32_sums_are_the_converted_sums(cells, monkeypatch):
    structure = placed_structure(monkeypatch, *cells)
    values = np.array([FP32_EXACT_INT, -FP32_EXACT_INT, -0.0, 7.0, -3.0,
                       0.0, 2.0 ** 23 + 1, 1.0, -1.0, 5.0, 9.0,
                       -2.0 ** 20])[:structure.n_tuples]
    placed = structure.cell_sums(values, np.float32)
    expected = bincount_sums(structure, values).astype(np.float32)
    assert placed.dtype == np.float32
    assert placed.tobytes() == expected.tobytes()


def summed_range(sums, integral):
    """A slot's cell range as read from its ``bincount`` sums."""
    return ValueRange(float(min(sums.min(), 0.0)),
                      float(max(sums.max(), 0.0)), integral=integral)


@pytest.mark.parametrize("fill_dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cells", [FULL, HOLEY], ids=["full", "holey"])
def test_ranges_read_from_tuple_extremes_are_the_summed_ranges(
        cells, fill_dtype, monkeypatch):
    """Positive values with a -0.0 (the range starts at +0.0 whether or
    not a cell is empty), negative fractions, and mixed signs."""
    n = cells[0].size
    rng = np.random.default_rng(4)
    fills = [None,
             np.r_[-0.0, rng.integers(1, 50, n - 1)].astype(np.float64),
             -rng.uniform(0.5, 9.0, n),
             rng.integers(-40, 40, n).astype(np.float64)]
    force_placement(monkeypatch, "addressed")
    side = make_side(*cells, G)
    structure = build_coo_operands(side, K)
    expected = [ValueRange(0.0, 1.0, integral=True)] + [
        summed_range(bincount_sums(structure, values), integral)
        for values, integral in zip(fills[1:], (True, False, True))]
    summed = ops._summed_operand(side, fills, K, fill_dtype)
    assert summed.structure.placed
    assert repr(summed.ranges) == repr(expected)


# k * max|a| * max|b| at 2**24 (float32) and past it (float64).  Past it,
# one cell is 4097 * 4095 + 1 * 2 = 2**24 + 1, which float32 rounds.
AT_WIDTH = (np.full((2, 3, 4), 2048.0), np.full((2, 4, 3), -2048.0),
            (2048.0, 2048.0))
PAST_WIDTH = (np.array([[[4097.0, 1.0], [-3.0, 0.0]]]),
              np.array([[[4095.0, 0.0], [2.0, -7.0]]]), (4097.0, 4095.0))


@pytest.mark.parametrize("operand_dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", [AT_WIDTH, PAST_WIDTH],
                         ids=["at 2^24", "past 2^24"])
def test_handed_magnitudes_multiply_as_the_rint_path(case, operand_dtype):
    a, b, magnitudes = case
    assert a.shape[-1] * magnitudes[0] * magnitudes[1] >= FP32_EXACT_INT
    a, b = a.astype(operand_dtype), b.astype(operand_dtype)
    exact = np.array(a.astype(np.int64).astype(object)
                     @ b.astype(np.int64).astype(object), dtype=np.int64)
    reread = exact_integer_matmul(a, b)
    handed = exact_integer_matmul(a, b, magnitudes, integral=True)
    via_backend = FastBackend().matmul(None, a, b, Precision.INT8,
                                       magnitudes=magnitudes)
    assert handed.dtype == reread.dtype == np.int64
    assert handed.tobytes() == reread.tobytes() == exact.tobytes()
    assert via_backend.tobytes() == exact.tobytes()


FIGURE5_SQL = ("SELECT A.col_num, B.row_num, SUM(A.val * B.val) AS res "
               "FROM A, B WHERE A.row_num = B.col_num "
               "GROUP BY A.col_num, B.row_num")


def figure5_catalog(a: np.ndarray, b: np.ndarray) -> Catalog:
    catalog = Catalog()
    for name, matrix in (("a", a), ("b", b)):
        rows, cols = np.divmod(np.arange(matrix.size), matrix.shape[1])
        catalog.register(Table.from_dict(name, {
            "row_num": rows, "col_num": cols, "val": matrix.ravel()}))
    return catalog


@pytest.mark.parametrize("value", [2.5000001, FP32_EXACT_INT + 1.0],
                         ids=["fractional", "past 2^24"])
def test_forced_int8_on_fast_quantizes_unrounded_values(value, monkeypatch):
    """``force_precision=INT8`` multiplies ``rint`` of the float64 value,
    as the single-slot float64 sums it once multiplied: 3, not the 2 of
    ``rint(float32(2.5000001))``; 2**24 + 1, not ``float32``'s 2**24.
    Such a slot is placed in float64, the other side in float32."""
    dim = 6
    rng = np.random.default_rng(12)
    a = rng.integers(0, 3, (dim, dim)).astype(np.float64)
    b = rng.integers(1, 4, (dim, dim)).astype(np.float64)
    a[2, 4] = value
    placed = []
    product_slots = ops.product_slots
    monkeypatch.setattr(ops, "product_slots", lambda *args: placed.append(
        [sums[1].dtype for sums in args[2:4]]) or product_slots(*args))
    engine = TCUDBEngine(figure5_catalog(a, b), options=TCUDBOptions(
        backend="fast", force_precision=Precision.INT8,
        force_strategy=Strategy.DENSE))
    got = engine.execute(FIGURE5_SQL)
    assert got.extra["executed_by"] == "TCU"
    assert got.extra["precision"] == "int8"
    assert placed == [[np.float64, np.float32]]
    table = got.require_table()
    i, j, res = (table.column(name).data for name in table.column_names)
    cells = np.zeros((dim, dim))
    cells[i.astype(int), j.astype(int)] = res
    exact = (np.rint(a).astype(np.int64).T.astype(object)
             @ np.rint(b).astype(np.int64).T.astype(object))
    assert cells.tobytes() == exact.astype(np.float64).tobytes()
