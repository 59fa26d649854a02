"""Per-column statistics: the feasibility test's table metadata.

Section 4.2.1: "TCUDB adds metadata to each database table to contain
three values for each column, including (1) the minimum value, (2) the
maximum value, and (3) the number of distinct values."  The optimizer uses
these to pick precisions, bound result magnitudes (m1 * m2 * n), estimate
matrix dimensions/densities and join output cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.column import Column
from repro.storage.types import DataType
from repro.tensor.precision import ValueRange


@dataclass(frozen=True)
class ColumnStats:
    """min / max / #distinct for one column, plus the row count."""

    min_value: float
    max_value: float
    n_distinct: int
    n_rows: int

    @property
    def value_range(self) -> ValueRange:
        return ValueRange(self.min_value, self.max_value)

    @property
    def density_as_key(self) -> float:
        """Density of the indicator matrix keyed on this column: each row
        contributes one nonzero across ``n_distinct`` key columns."""
        return 1.0 / self.n_distinct if self.n_distinct else 0.0


def compute_stats(column: Column) -> ColumnStats:
    """Scan a column and produce its statistics triple."""
    data = column.data
    if data.size == 0:
        return ColumnStats(0.0, 0.0, 0, 0)
    if column.dtype == DataType.STRING:
        # Statistics for strings are over dictionary codes: join planning
        # only needs cardinalities and the code domain bounds.
        distinct = int(np.unique(data).size)
        return ColumnStats(
            float(data.min()), float(data.max()), distinct, int(data.size)
        )
    distinct = int(np.unique(data).size)
    return ColumnStats(
        float(data.min()), float(data.max()), distinct, int(data.size)
    )


#: Selectivity assumed for predicates the statistics cannot price
#: (aggregate comparisons, column-vs-column, arithmetic arguments) —
#: the historical per-conjunct constant.
DEFAULT_SELECTIVITY = 0.5

#: Floor below which a conjunction estimate is not driven (one row may
#: always survive; downstream estimators dislike hard zeros).
MIN_SELECTIVITY = 1e-4


def _literal_value(expr) -> float | None:
    """Numeric value of a constant expression: a plain literal, or
    literal-only arithmetic (``0 - 5`` from unary minus) const-evaluated
    through :func:`~repro.sql.ast_nodes.fold_constants` — belt and
    braces for predicates built without the binder's folding pass."""
    from repro.sql.ast_nodes import BinaryOp, Literal, fold_constants

    if isinstance(expr, BinaryOp):
        expr = fold_constants(expr)
    if isinstance(expr, Literal) and not isinstance(expr.value, str):
        return float(expr.value)
    return None


def _range_fraction(stats: ColumnStats, op: str, value: float) -> float:
    """Fraction of a column's [min, max] span satisfying ``col op value``
    under the classic uniform-distribution assumption."""
    lo, hi = stats.min_value, stats.max_value
    if hi <= lo:
        return 1.0 if _point_satisfies(lo, op, value) else 0.0
    fraction_below = (value - lo) / (hi - lo)
    if op in ("<", "<="):
        s = fraction_below
    else:  # >, >=
        s = 1.0 - fraction_below
    return float(min(max(s, 0.0), 1.0))


def _point_satisfies(point: float, op: str, value: float) -> bool:
    return {
        "<": point < value, "<=": point <= value,
        ">": point > value, ">=": point >= value,
    }[op]


def predicate_selectivity(predicate, stats_of) -> float:
    """Estimated selectivity of one predicate from column statistics.

    ``stats_of(expr)`` returns the :class:`ColumnStats` of a plain
    column-reference expression, or ``None`` when the expression is not a
    column (aggregates, arithmetic) — those conjuncts fall back to the
    historical :data:`DEFAULT_SELECTIVITY`.  Handles the full predicate
    algebra: comparisons, BETWEEN, IN lists, NOT, AND / OR trees.
    """
    from repro.sql.ast_nodes import (
        Between,
        Comparison,
        Conjunction,
        Disjunction,
        InList,
        Negation,
    )

    if isinstance(predicate, Comparison):
        left_stats = stats_of(predicate.left)
        right_stats = stats_of(predicate.right)
        stats, literal = (
            (left_stats, _literal_value(predicate.right))
            if left_stats is not None
            else (right_stats, _literal_value(predicate.left))
        )
        if stats is None or stats.n_rows == 0:
            # Zero-row stats are fabricated (min=max=0.0 over no rows);
            # never drive an estimate from them.
            return DEFAULT_SELECTIVITY
        if predicate.op == "=":
            return 1.0 / max(stats.n_distinct, 1)
        if predicate.op in ("<>", "!="):
            return 1.0 - 1.0 / max(stats.n_distinct, 1)
        if literal is None:  # string / column-vs-column range comparison
            return DEFAULT_SELECTIVITY
        op = predicate.op
        if left_stats is None:  # literal op column: mirror the operator
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        return _range_fraction(stats, op, literal)
    if isinstance(predicate, Between):
        stats = stats_of(predicate.expr)
        low = _literal_value(predicate.low)
        high = _literal_value(predicate.high)
        if stats is None or stats.n_rows == 0 or low is None or high is None:
            return DEFAULT_SELECTIVITY
        below = _range_fraction(stats, "<=", high)
        above = _range_fraction(stats, ">=", low)
        return float(min(max(below + above - 1.0, 0.0), 1.0))
    if isinstance(predicate, InList):
        stats = stats_of(predicate.expr)
        if stats is None or stats.n_rows == 0:
            return DEFAULT_SELECTIVITY
        return float(min(len(predicate.values) / max(stats.n_distinct, 1),
                         1.0))
    if isinstance(predicate, Negation):
        return 1.0 - predicate_selectivity(predicate.inner, stats_of)
    if isinstance(predicate, Conjunction):
        s = 1.0
        for part in predicate.parts:
            s *= predicate_selectivity(part, stats_of)
        return s
    if isinstance(predicate, Disjunction):
        miss = 1.0
        for arm in predicate.arms:
            miss *= 1.0 - predicate_selectivity(arm, stats_of)
        return 1.0 - miss
    return DEFAULT_SELECTIVITY


def _bound_literal(expr, ref, encode) -> float | None:
    """Literal value translated into the compared column's physical
    domain (dictionary codes for strings) when an encoder is supplied.
    Literal-only arithmetic const-evaluates first (see
    :func:`_literal_value`)."""
    from repro.sql.ast_nodes import BinaryOp, Literal, fold_constants

    if isinstance(expr, BinaryOp):
        expr = fold_constants(expr)
    if not isinstance(expr, Literal):
        return None
    if isinstance(expr.value, str):
        if encode is None or ref is None:
            return None
        return float(encode(ref, expr.value))
    return float(expr.value)


def _rounded(stats: ColumnStats, *values) -> bool:
    """Whether a chunk bound or literal is at or beyond +-2**53, where
    the float statistics stop being exact and pruning must decline."""
    return any(value is not None and abs(value) >= 2.0 ** 53
               for value in (stats.min_value, stats.max_value, *values))


def predicate_can_match(predicate, stats_of, encode=None) -> bool:
    """Chunk-level stat pruning: can any row with these min/max
    statistics satisfy the predicate?

    Returns ``False`` only when the statistics *prove* the predicate
    empty over the chunk — the conservative direction, so pruning never
    drops a qualifying row.  ``stats_of(expr)`` resolves a plain
    column-reference expression to the chunk's :class:`ColumnStats`
    (``None`` for anything else); ``encode(ref, value)`` translates
    string literals through the column's dictionary.
    """
    from repro.sql.ast_nodes import (
        Between,
        Comparison,
        Conjunction,
        Disjunction,
        InList,
        Negation,
    )

    if isinstance(predicate, Comparison):
        left_stats = stats_of(predicate.left)
        right_stats = stats_of(predicate.right)
        if left_stats is not None and right_stats is None:
            stats = left_stats
            ref = predicate.left
            value = _bound_literal(predicate.right, ref, encode)
            op = predicate.op
        elif right_stats is not None and left_stats is None:
            stats = right_stats
            ref = predicate.right
            value = _bound_literal(predicate.left, ref, encode)
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                predicate.op, predicate.op
            )
        else:  # column-vs-column or literal-vs-literal: no pruning
            return True
        if stats.n_rows == 0:
            # A zero-row chunk satisfies no predicate; its min/max are
            # fabricated (0.0/0.0), so prune unconditionally.
            return False
        if value is None or _rounded(stats, value):
            return True
        lo, hi = stats.min_value, stats.max_value
        if op == "=":
            return lo <= value <= hi
        if op == "<":
            return lo < value
        if op == "<=":
            return lo <= value
        if op == ">":
            return hi > value
        if op == ">=":
            return hi >= value
        return True  # <> / != prunes nothing from min/max alone
    if isinstance(predicate, Between):
        stats = stats_of(predicate.expr)
        if stats is None:
            return True
        if stats.n_rows == 0:
            return False
        low = _bound_literal(predicate.low, predicate.expr, encode)
        high = _bound_literal(predicate.high, predicate.expr, encode)
        if _rounded(stats, low, high):
            return True
        if low is not None and stats.max_value < low:
            return False
        if high is not None and stats.min_value > high:
            return False
        return True
    if isinstance(predicate, InList):
        stats = stats_of(predicate.expr)
        if stats is None:
            return True
        if stats.n_rows == 0:
            return False
        values = [
            _bound_literal(literal, predicate.expr, encode)
            for literal in predicate.values
        ]
        if any(v is None for v in values) or _rounded(stats, *values):
            return True
        return any(
            stats.min_value <= v <= stats.max_value for v in values
        )
    if isinstance(predicate, Negation):
        # Proving the complement empty needs an "always true" analysis;
        # min/max statistics cannot provide it conservatively.
        return True
    if isinstance(predicate, Conjunction):
        return all(
            predicate_can_match(part, stats_of, encode)
            for part in predicate.parts
        )
    if isinstance(predicate, Disjunction):
        return any(
            predicate_can_match(arm, stats_of, encode)
            for arm in predicate.arms
        )
    return True


def conjunction_can_match(predicates, stats_of, encode=None) -> bool:
    """AND of :func:`predicate_can_match` over a conjunct list."""
    return all(
        predicate_can_match(predicate, stats_of, encode)
        for predicate in predicates
    )


def conjunction_selectivity(predicates, stats_of) -> float:
    """Combined selectivity of a conjunct list (independence assumed),
    floored at :data:`MIN_SELECTIVITY` so estimates never hard-zero."""
    s = 1.0
    for predicate in predicates:
        s *= predicate_selectivity(predicate, stats_of)
    return max(float(s), MIN_SELECTIVITY)


def bound_stats_lookup(bound):
    """A ``stats_of`` callback over a bound query: resolves plain column
    references to their table statistics, ``None`` for anything else."""
    from repro.sql.ast_nodes import ColumnRef

    def stats_of(expr):
        if not isinstance(expr, ColumnRef):
            return None
        try:
            return bound.column_stats(bound.resolve(expr))
        except Exception:
            return None

    return stats_of


def join_output_estimate(
    left: ColumnStats, right: ColumnStats
) -> float:
    """Estimated matching-pair count of an equi-join on two columns.

    Classic uniform-frequency estimate: |L| * |R| / max(d_L, d_R), with the
    key domain overlap assumed total (our generators ensure it).
    """
    d = max(left.n_distinct, right.n_distinct, 1)
    return left.n_rows * right.n_rows / d
