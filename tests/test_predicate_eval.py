"""The predicate interpreter, against a per-row Python evaluation.

``sql.eval.predicate_mask`` serves WHERE, residual, epilogue and HAVING
evaluation in TCUDB *and* in the Reference oracle, so no differential
suite can see a bug in it.  Here every branch is checked row by row
against plain Python (ints and floats that grow instead of wrapping,
strings compared as strings):

* literal operands broadcast as 0-d arrays — no ``np.full`` of the
  column's length — on either side, after constant folding;
* literal-vs-literal conjuncts keep the mask at the environment's length;
* IN-lists over integer columns read the shared presence table
  (``tensor.keys``); float, mixed and over-budget lists stay ``np.isin``;
* the group-level call sites (``GroupContext.eval_predicate``,
  ``ops.having_mask``) go through the same interpreter.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest

from differential_utils import (
    assert_rows_match,
    canonical_sorted,
    result_rows,
)
from repro.datasets.microbench import microbench_catalog
from repro.engine import ReferenceEngine, physical
from repro.engine.tcudb import TCUDBEngine, ops
from repro.sql import eval as sql_eval
from repro.sql.ast_nodes import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    InList,
    Literal,
    Negation,
)
from repro.sql.binder import bind
from repro.sql.eval import Environment, evaluate_predicate
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.tensor.keys import DIRECT_ADDRESS_SLOTS_PER_ROW

pytestmark = pytest.mark.engine_matrix

N_ROWS = 64
COLORS = ["red", "green", "blue", "teal"]


@pytest.fixture(scope="module")
def catalog():
    rng = np.random.default_rng(20)
    catalog = Catalog()
    catalog.register(Table("t", {
        "a": Column(rng.integers(-40, 40, N_ROWS), DataType.INT64),
        "b": Column(rng.integers(-128, 128, N_ROWS).astype(np.int8),
                    DataType.INT64),
        "x": Column(rng.integers(-8, 8, N_ROWS) / 2.0, DataType.FLOAT64),
        "s": Column.from_values([COLORS[i] for i in
                                 rng.integers(0, len(COLORS), N_ROWS)]),
    }))
    return catalog


_COMPARE = {"=": operator.eq, "<": operator.lt, ">": operator.gt,
            "<=": operator.le, ">=": operator.ge,
            "<>": operator.ne, "!=": operator.ne}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def python_rows(catalog) -> list[dict]:
    table = catalog.get("t")
    columns = {name: table.column(name).values().tolist()
               for name in table.column_names}
    return [{name: values[i] for name, values in columns.items()}
            for i in range(table.num_rows)]


def python_value(expr, row):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[expr.column]
    if isinstance(expr, AggregateCall):
        return row["sum"]
    assert isinstance(expr, BinaryOp)
    return _ARITHMETIC[expr.op](float(python_value(expr.left, row)),
                                float(python_value(expr.right, row)))


def python_truth(predicate, row) -> bool:
    if isinstance(predicate, Comparison):
        return _COMPARE[predicate.op](python_value(predicate.left, row),
                                      python_value(predicate.right, row))
    if isinstance(predicate, Between):
        return (python_value(predicate.low, row)
                <= python_value(predicate.expr, row)
                <= python_value(predicate.high, row))
    if isinstance(predicate, InList):
        return python_value(predicate.expr, row) in [
            literal.value for literal in predicate.values]
    if isinstance(predicate, Negation):
        return not python_truth(predicate.inner, row)
    if isinstance(predicate, Conjunction):
        return all(python_truth(part, row) for part in predicate.parts)
    assert isinstance(predicate, Disjunction)
    return any(python_truth(arm, row) for arm in predicate.arms)


def where(catalog, condition):
    """``(predicate, bound)`` of one WHERE conjunct, straight from the
    parser: unfolded, so ``-5`` reaches the interpreter as ``0 - 5``.
    (A hand-built predicate passes through: the grammar has no negative
    IN-list members.)"""
    select = "SELECT t.a, t.b, t.x, t.s FROM t"
    if not isinstance(condition, str):
        return condition, bind(parse(select), catalog)
    statement = parse(f"{select} WHERE {condition}")
    conjuncts = statement.where  # a top-level AND arrives split
    predicate = (conjuncts[0] if len(conjuncts) == 1
                 else Conjunction(parts=conjuncts))
    return predicate, bind(statement, catalog)


def in_list(column, *values):
    return InList(expr=ColumnRef(table="t", column=column),
                  values=tuple(Literal(value) for value in values))


def assert_mask_matches_python(catalog, condition):
    predicate, bound = where(catalog, condition)
    mask = evaluate_predicate(predicate, Environment.from_table(bound, "t"),
                              bound)
    assert mask.dtype == np.bool_ and mask.shape == (N_ROWS,), condition
    expected = [python_truth(predicate, row) for row in python_rows(catalog)]
    assert mask.tolist() == expected, condition
    return mask


CONDITIONS = [
    # a literal on either side, every comparator
    *[f"t.a {op} 7" for op in _COMPARE],
    *[f"7 {op} t.a" for op in _COMPARE],
    "t.x >= 1.5", "1.5 > t.x", "t.b < 100", "t.b = -128", "t.a < 2.5",
    # folded operands: unary minus is (0 - 5) to the parser
    "t.a > -5", "-5 < t.a", "t.a = 2 + 3", "t.a * 2 > 2 + 3", "t.x <= -0.5",
    # BETWEEN, the empty low > high range included
    "t.a BETWEEN -3 AND 12", "t.a BETWEEN 12 AND -3", "t.x BETWEEN -1 AND 1.5",
    "t.b BETWEEN -200 AND 5", "t.a + 1 BETWEEN 0 AND 2 * 4",
    # string literals, known to the dictionary and not
    "t.s = 'green'", "'green' = t.s", "t.s <> 'blue'", "t.s = 'mauve'",
    "t.s <> 'mauve'", "t.s IN ('red', 'teal')", "t.s IN ('mauve', 'red')",
    "t.s IN ('mauve')", "t.s NOT IN ('red', 'mauve')", "t.s NOT IN ('mauve')",
    # IN-lists over integer columns: the presence table
    "t.a IN (3)", in_list("a", -7, 3, 11, 3), "t.a NOT IN (0, 1, 2)",
    in_list("a", -60, 3, 70), "t.a IN (41, 50)", in_list("b", -128, 127, 0),
    in_list("b", 5, 300, -300), Negation(in_list("b", -1, -2, -3)),
    # ... and the np.isin remainder
    in_list("a", 3, 2.5, -7), in_list("x", 0.5, -2, 3), "t.x NOT IN (1)",
    in_list("a", -1000000, 3, 1000000), "t.a + 1 IN (4, 5)",
    # the connectives
    "NOT t.a > 3", "NOT (t.a > 3 AND t.x < 1)",
    "(t.a > 3 OR t.x < -1) AND t.s <> 'red'",
    "t.a IN (1, 2, 3) OR (t.b < 0 AND NOT t.s = 'teal') OR t.x = 0",
    # literal-vs-literal conjuncts keep the mask's length
    "1 = 1", "1 = 2", "2 + 3 > 4", "3 BETWEEN 1 AND 5", "5 BETWEEN 1 AND 3",
    "(1 = 1 AND t.a > 0) OR 1 = 2",
]


@pytest.mark.parametrize("condition", CONDITIONS, ids=str)
def test_mask_equals_the_per_row_evaluation(catalog, condition):
    assert_mask_matches_python(catalog, condition)


@pytest.mark.parametrize("condition", CONDITIONS, ids=str)
def test_empty_environment_gives_an_empty_mask(catalog, condition):
    predicate, bound = where(catalog, condition)
    empty = Environment.from_table(bound, "t").taken(
        np.array([], dtype=np.intp))
    mask = evaluate_predicate(predicate, empty, bound)
    assert mask.dtype == np.bool_ and mask.shape == (0,)


@pytest.fixture
def full_lengths(monkeypatch):
    """Lengths of every ``np.full`` array the interpreter builds."""
    lengths = []
    full = np.full

    def spy(shape, *args, **kwargs):
        lengths.append(shape)
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(sql_eval.np, "full", spy)
    return lengths


@pytest.mark.parametrize("condition", [
    "t.a < 25", "25 > t.a", "t.a > -5", "t.a = 2 + 3", "t.x BETWEEN -1 AND 1.5",
    "t.s = 'green'", "t.s <> 'mauve'", "t.a IN (1, 2)",
    "t.a > 3 AND NOT t.b BETWEEN 0 - 4 AND 9",
])
def test_a_literal_operand_is_never_a_column(catalog, full_lengths, condition):
    assert_mask_matches_python(catalog, condition)
    assert full_lengths == []


def test_literal_versus_literal_still_fills(catalog, full_lengths):
    mask = assert_mask_matches_python(catalog, "1 = 1")
    assert mask.all() and full_lengths == [N_ROWS, N_ROWS]


def test_scalar_operands_promote_like_full_columns(catalog):
    """The 0-d operand has the dtype ``np.full`` gave the column-length
    one, so int8 against 300 compares as int64, not as a wrapped int8."""
    for condition in ("t.b < 300", "t.b > -300", "t.b <> 256", "t.b = 128.0"):
        mask = assert_mask_matches_python(catalog, condition)
        assert mask.all() or not mask.any(), condition


@pytest.fixture
def isin_calls(monkeypatch):
    calls = []
    isin = np.isin

    def spy(column, values, **kwargs):
        calls.append(np.asarray(values).tolist())
        return isin(column, values, **kwargs)

    monkeypatch.setattr(sql_eval.np, "isin", spy)
    return calls


def test_in_list_reads_the_table_inside_the_budget_only(catalog, isin_calls):
    budget = DIRECT_ADDRESS_SLOTS_PER_ROW * (2 + N_ROWS)
    assert_mask_matches_python(catalog, in_list("a", -9, -9 + budget - 1))
    assert_mask_matches_python(catalog, "t.s NOT IN ('red', 'mauve')")
    assert_mask_matches_python(catalog, in_list("b", -128, 127))
    assert isin_calls == []
    assert_mask_matches_python(catalog, in_list("a", -9, -9 + budget))
    assert_mask_matches_python(catalog, "t.a IN (3, 2.5)")
    assert_mask_matches_python(catalog, "t.x IN (1, 2)")
    assert isin_calls == [[-9, -9 + budget], [3.0, 2.5], [1, 2]]


def test_string_literal_against_an_expression_is_rejected(catalog):
    from repro.common.errors import ExecutionError

    predicate, bound = where(catalog, "t.a + 1 = 'red'")
    with pytest.raises(ExecutionError, match="non-column"):
        evaluate_predicate(predicate, Environment.from_table(bound, "t"),
                           bound)


# --------------------------------------------------------------------- #
# The group-level call sites
# --------------------------------------------------------------------- #

HAVING_QUERIES = [
    "SELECT SUM(A.Val) AS s, B.Val FROM A, B WHERE A.ID = B.ID "
    "GROUP BY B.Val HAVING {}",
]
HAVING_CONDITIONS = [
    "SUM(A.Val) > 18000", "18000 < SUM(A.Val)", "SUM(A.Val) > -5",
    "SUM(A.Val) BETWEEN 15000 AND 2 * 10000", "B.Val IN (1, 3, 5, 40, 77)",
    "B.Val NOT IN (2, 4)", "NOT SUM(A.Val) > 18000 OR B.Val = 3",
    "1 = 1", "SUM(A.Val) > 18000 AND 1 = 2",
]


@pytest.fixture(scope="module")
def grouped():
    """The microbenchmark join, its per-group sums in plain Python."""
    catalog = microbench_catalog(700, 24, seed=3)
    a, b = catalog.get("A"), catalog.get("B")
    b_vals: dict[int, list] = {}
    for key, val in zip(b.column("id").data.tolist(),
                        b.column("val").data.tolist()):
        b_vals.setdefault(key, []).append(val)
    sums: dict = {}
    for key, val in zip(a.column("id").data.tolist(),
                        a.column("val").data.tolist()):
        for group in b_vals.get(key, []):
            sums[group] = sums.get(group, 0) + val
    return catalog, sums


def python_having(condition, sums):
    """Rows ``(s, B.Val)`` surviving HAVING: each group is a row whose
    one aggregate, ``SUM(A.Val)``, is its ``sum`` cell."""
    conjuncts = parse(HAVING_QUERIES[0].format(condition)).having
    return [(total, group) for group, total in sums.items()
            if all(python_truth(conjunct, {"val": group, "sum": total})
                   for conjunct in conjuncts)]


@pytest.mark.parametrize("condition", HAVING_CONDITIONS)
def test_having_call_sites_share_the_interpreter(grouped, condition,
                                                 monkeypatch):
    catalog, sums = grouped
    expected = python_having(condition, sums)
    sql = HAVING_QUERIES[0].format(condition)
    for module, make_engine in ((physical, ReferenceEngine),
                                (ops, TCUDBEngine)):
        calls = []

        def counted(*args, _calls=calls):
            _calls.append(args[1])
            return sql_eval.predicate_mask(*args)

        monkeypatch.setattr(module, "predicate_mask", counted)
        got = make_engine(catalog).execute(sql)
        monkeypatch.undo()
        # Evaluated once per group, not once per joined row.
        assert calls and set(calls) == {len(sums)}, module.__name__
        if make_engine is TCUDBEngine:
            assert got.extra["executed_by"] == "TCU", condition
        assert_rows_match(result_rows(got), canonical_sorted(expected),
                          rel=2e-3, context=f"{module.__name__}: {sql}")
