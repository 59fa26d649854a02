"""Vectorized expression and predicate evaluation.

Engines evaluate scalar expressions over an *environment*: a mapping from
``binding.column`` keys to numpy arrays of equal length (a scan's columns,
or the stitched columns of a join result).  String columns appear as
dictionary codes; literals compared against them are translated through
the owning column's dictionary by the engine before evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ExecutionError
from repro.sql.ast_nodes import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    Expr,
    InList,
    Literal,
    Negation,
    Predicate,
    fold_constants,
)
from repro.sql.binder import BoundQuery
from repro.tensor.keys import presence_probe


class Environment:
    """Column arrays for one operator's input, keyed by binding.column."""

    def __init__(self, arrays: dict[str, np.ndarray], n_rows: int):
        self.arrays = arrays
        self.n_rows = n_rows

    @staticmethod
    def from_table(bound_query: BoundQuery, binding: str) -> "Environment":
        table = bound_query.binding(binding).table
        arrays = {
            f"{binding}.{name.lower()}": table.column(name).data
            for name in table.column_names
        }
        return Environment(arrays, table.num_rows)

    def lookup(self, key: str) -> np.ndarray:
        array = self.arrays.get(key)
        if array is None:
            raise ExecutionError(f"column {key!r} missing from environment")
        return array

    def filtered(self, mask: np.ndarray) -> "Environment":
        return Environment(
            {k: v[mask] for k, v in self.arrays.items()},
            int(np.count_nonzero(mask)),
        )

    def taken(self, indices: np.ndarray) -> "Environment":
        return Environment(
            {k: v[indices] for k, v in self.arrays.items()}, int(indices.size)
        )


def encode_literal(bound_query: BoundQuery, ref: ColumnRef, value):
    """Map a literal to the physical domain of the referenced column."""
    bound = bound_query.resolve(ref)
    column = bound_query.binding(bound.binding).table.column(bound.column)
    return column.encode_literal(value)


def evaluate_expr(
    expr: Expr, env: Environment, bound_query: BoundQuery
) -> np.ndarray:
    """Evaluate a scalar expression to an array of ``env.n_rows`` values."""
    if isinstance(expr, Literal):
        return np.full(env.n_rows, expr.value if not isinstance(expr.value, str)
                       else np.nan)
    if isinstance(expr, ColumnRef):
        bound = bound_query.resolve(expr)
        return env.lookup(bound.key)
    if isinstance(expr, BinaryOp):
        left = evaluate_expr(expr.left, env, bound_query).astype(np.float64)
        right = evaluate_expr(expr.right, env, bound_query).astype(np.float64)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(right != 0, left / np.where(right == 0, 1, right),
                                np.nan)
        if expr.op == "%":
            return np.mod(left, np.where(right == 0, 1, right))
        raise ExecutionError(f"unsupported arithmetic operator {expr.op!r}")
    if isinstance(expr, AggregateCall):
        raise ExecutionError(
            "aggregate calls must be handled by the Aggregate operator"
        )
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


_COMPARATORS = {
    "=": np.equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "<>": np.not_equal,
    "!=": np.not_equal,
}


def predicate_mask(
    predicate: Predicate,
    n_rows: int,
    eval_expr,
    encode,
) -> np.ndarray:
    """Generic predicate interpreter shared by row- and group-level
    evaluation.

    ``eval_expr(expr)`` evaluates a scalar expression to an array of
    ``n_rows`` values; ``encode(ref, value)`` maps a string literal into
    the physical domain of the referenced column's dictionary.
    """

    def operand(expr: Expr, other: Expr) -> np.ndarray:
        literal = fold_constants(expr)
        if isinstance(literal, Literal) and isinstance(literal.value, str):
            if isinstance(other, ColumnRef):
                return np.asarray(encode(other, literal.value))
            raise ExecutionError(
                f"string literal {literal.value!r} compared against non-column"
            )
        # A literal facing a non-literal is a 0-d array of the dtype
        # ``np.full`` would give it: the same promotion, no column built.
        # Literal-vs-literal (``1 = 1``) stays full length, as the mask must.
        if (isinstance(literal, Literal)
                and not isinstance(fold_constants(other), Literal)):
            return np.asarray(literal.value)
        return eval_expr(expr)

    if isinstance(predicate, Comparison):
        left = operand(predicate.left, predicate.right)
        right = operand(predicate.right, predicate.left)
        return _COMPARATORS[predicate.op](left, right)
    if isinstance(predicate, Between):
        value = eval_expr(predicate.expr)
        low = operand(predicate.low, predicate.expr)
        high = operand(predicate.high, predicate.expr)
        return (value >= low) & (value <= high)
    if isinstance(predicate, InList):
        if isinstance(predicate.expr, ColumnRef):
            ref = predicate.expr
            values = [
                encode(ref, literal.value)
                if isinstance(literal.value, str) else literal.value
                for literal in predicate.values
            ]
        else:
            values = [literal.value for literal in predicate.values]
        column = eval_expr(predicate.expr)
        values = np.asarray(values)
        table = presence_probe(values, column)
        if table is None:
            return np.isin(column, values)
        _, _, hits, _ = table
        return hits
    if isinstance(predicate, Negation):
        # No NULLs in the storage layer, so two-valued logic applies and
        # NOT is plain complement.
        return ~predicate_mask(predicate.inner, n_rows, eval_expr, encode)
    if isinstance(predicate, Conjunction):
        mask = np.ones(n_rows, dtype=bool)
        for part in predicate.parts:
            mask &= predicate_mask(part, n_rows, eval_expr, encode)
        return mask
    if isinstance(predicate, Disjunction):
        mask = np.zeros(n_rows, dtype=bool)
        for arm in predicate.arms:
            mask |= predicate_mask(arm, n_rows, eval_expr, encode)
        return mask
    raise ExecutionError(f"unsupported predicate {predicate!r}")


def evaluate_predicate(
    predicate: Predicate, env: Environment, bound_query: BoundQuery
) -> np.ndarray:
    """Evaluate a WHERE conjunct to a boolean mask."""
    return predicate_mask(
        predicate,
        env.n_rows,
        lambda expr: evaluate_expr(expr, env, bound_query),
        lambda ref, value: encode_literal(bound_query, ref, value),
    )


def conjunction_mask(
    predicates: list[Predicate], env: Environment, bound_query: BoundQuery
) -> np.ndarray:
    """AND of all predicates (all-true for an empty list)."""
    mask = np.ones(env.n_rows, dtype=bool)
    for predicate in predicates:
        mask &= evaluate_predicate(predicate, env, bound_query)
    return mask
