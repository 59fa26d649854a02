"""Per-column statistics: the feasibility test's table metadata.

Section 4.2.1: "TCUDB adds metadata to each database table to contain
three values for each column, including (1) the minimum value, (2) the
maximum value, and (3) the number of distinct values."  The optimizer uses
these to pick precisions, bound result magnitudes (m1 * m2 * n), estimate
matrix dimensions/densities and join output cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.storage.column import Column
from repro.storage.types import DataType


#: Float statistics are exact only inside (-2**53, 2**53).
_EXACT = 2.0 ** 53


class _PruningBounds:
    """Which chunks' min / max can decide a predicate, worked out once
    per statistics object (see :func:`predicate_can_match`)."""

    @cached_property
    def pruning_masks(self):
        """``(nonempty, undecided, decided)`` over the chunks: ``decided``
        where the chunk has rows and both bounds are inside (-2**53,
        2**53) — not NaN — and ``undecided`` where it has rows but not
        such bounds.  Both are ``None`` when every chunk decides."""
        nonempty = np.asarray(self.n_rows) > 0
        decided = (nonempty & (np.abs(self.min_value) < _EXACT)
                   & (np.abs(self.max_value) < _EXACT))
        if decided.all():
            return nonempty, None, None
        return nonempty, nonempty & ~decided, decided


@dataclass(frozen=True)
class ColumnStats(_PruningBounds):
    """min / max / #distinct for one column, plus the row count."""

    min_value: float
    max_value: float
    n_distinct: int
    n_rows: int


@dataclass(frozen=True)
class ChunkStats(_PruningBounds):
    """One column's min / max / row count per chunk, one array element
    per chunk (min and max as float64, as in :class:`ColumnStats`): what
    stat pruning reads, every chunk of a table at once."""

    min_value: np.ndarray
    max_value: np.ndarray
    n_rows: np.ndarray


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


# Whether a chunk with bounds ``lo`` / ``hi`` can hold ``col op v``.
_CAN_HOLD = {
    "=": lambda lo, hi, v: (lo <= v) & (v <= hi),
    "<": lambda lo, hi, v: lo < v,
    "<=": lambda lo, hi, v: lo <= v,
    ">": lambda lo, hi, v: hi > v,
    ">=": lambda lo, hi, v: hi >= v,
}


def _keep(stats, test, *values):
    """Keep-mask over ``stats``' chunks: ``test(lo, hi)`` where the float
    bounds decide, every non-empty chunk where they cannot.

    They cannot decide when ``test`` is ``None``, when a literal is at or
    beyond +-2**53, or — per chunk — when a bound is at or beyond +-2**53
    or NaN (every comparison reads NaN as false, yet the chunk's other
    rows may qualify).  A zero-row chunk is always pruned: its bounds are
    fabricated.
    """
    nonempty, undecided, decided = stats.pruning_masks
    if test is None or not all(abs(v) < _EXACT for v in values):
        return nonempty
    keep = test(stats.min_value, stats.max_value)
    if decided is None:
        return keep
    return undecided | (decided & keep)


def predicate_can_match(predicate, stats_of, encode=None):
    """Chunk-level stat pruning: which chunks can hold a row satisfying
    the predicate?

    Returns a keep-mask over the chunks, ``False`` only where the
    statistics *prove* the predicate empty — the conservative direction,
    so pruning never drops a qualifying row.  ``stats_of(expr)``
    resolves a plain column-reference expression to its statistics
    (``None`` for anything else): :class:`ChunkStats` arrays, one element
    per chunk, or one :class:`ColumnStats` — the one-chunk case, answered
    with a scalar bool.  A predicate the statistics cannot read at all
    answers a plain ``True``.  ``encode(ref, value)`` translates string
    literals through the column's dictionary.
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
            stats, ref, other = left_stats, predicate.left, predicate.right
            op = predicate.op
        elif right_stats is not None and left_stats is None:
            stats, ref, other = right_stats, predicate.right, predicate.left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                predicate.op, predicate.op
            )
        else:  # column-vs-column or literal-vs-literal: no pruning
            return True
        value = _bound_literal(other, ref, encode)
        # <> / != prunes nothing from min/max alone.
        if value is None or op not in _CAN_HOLD:
            return _keep(stats, None)
        return _keep(stats, lambda lo, hi: _CAN_HOLD[op](lo, hi, value),
                     value)
    if isinstance(predicate, Between):
        stats = stats_of(predicate.expr)
        if stats is None:
            return True
        low = _bound_literal(predicate.low, predicate.expr, encode)
        high = _bound_literal(predicate.high, predicate.expr, encode)

        def test(lo, hi):
            keep = True
            if low is not None:
                keep = keep & (hi >= low)
            if high is not None:
                keep = keep & (lo <= high)
            return keep

        return _keep(stats, test,
                     *(bound for bound in (low, high) if bound is not None))
    if isinstance(predicate, InList):
        stats = stats_of(predicate.expr)
        if stats is None:
            return True
        values = [
            _bound_literal(literal, predicate.expr, encode)
            for literal in predicate.values
        ]
        if any(v is None for v in values):
            return _keep(stats, None)
        points = np.array(values, dtype=np.float64)
        return _keep(
            stats,
            lambda lo, hi: (np.less_equal.outer(lo, points)
                            & np.greater_equal.outer(hi, points)).any(axis=-1),
            *values,
        )
    if isinstance(predicate, Negation):
        # Proving the complement empty needs an "always true" analysis;
        # min/max statistics cannot provide it conservatively.
        return True
    if isinstance(predicate, Conjunction):
        return conjunction_can_match(predicate.parts, stats_of, encode)
    if isinstance(predicate, Disjunction):
        keep = False
        for arm in predicate.arms:
            keep = keep | predicate_can_match(arm, stats_of, encode)
        return keep
    return True


def conjunction_can_match(predicates, stats_of, encode=None):
    """AND of :func:`predicate_can_match` over a conjunct list."""
    keep = True
    for predicate in predicates:
        keep = keep & predicate_can_match(predicate, stats_of, encode)
    return keep


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
