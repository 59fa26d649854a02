"""Whole-query shape classification — one lowering strategy among several.

Historically this module was the gatekeeper of TCU execution: a query
either matched one of three shapes or abandoned the TCU entirely.  Since
the TensorProgram refactor it is the *pattern lowering strategy*: the
classifier below recognizes the matmul-encodable core shapes and
:mod:`repro.engine.tcudb.lower` translates them (plus HAVING masks,
residual-predicate masks and hybrid pre-stages) into a DAG of composable
TCU operators (:mod:`repro.engine.tcudb.ops`).

* ``JOIN_2WAY``  — Q1/Q5-style: two tables, one (equi or non-equi) join
  predicate, projection of plain columns, no aggregates.
* ``JOIN_MULTIWAY`` — Q2-style: a chain of equi joins, projection only.
* ``JOIN_AGG``  — Q3/Q4/Figure-5/SSB/PageRank-style: equi joins arranged
  as a star around a fact table, SUM/COUNT/AVG aggregates whose arguments
  decompose into per-table multiplicative factors, optional GROUP BY.

Constructs truly beyond matmul expressiveness (MIN/MAX, additive
aggregate arguments that do not split linearly, disconnected joins)
still reject with a :class:`MatchFailure`, in HAVING too; HAVING and
cross-table residual predicates themselves are *not* rejected — the
lowering pass evaluates them as epilogues of the matched operators.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.sql.ast_nodes import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    Parameter,
    walk_predicate_exprs,
)
from repro.sql.binder import BoundColumn, BoundQuery, JoinPredicate


class PatternKind(enum.Enum):
    JOIN_2WAY = "join_2way"
    JOIN_MULTIWAY = "join_multiway"
    JOIN_AGG = "join_agg"


@dataclass(frozen=True)
class Factor:
    """One multiplicative factor of an aggregate argument."""

    column: BoundColumn
    power: int  # +1 for multiply, -1 for divide


@dataclass
class AggregateSpec:
    """SUM/COUNT/AVG decomposed as constant * product of column factors."""

    func: str  # sum | count | avg
    constant: float
    factors: list[Factor]

    def factors_for(self, binding: str) -> list[Factor]:
        return [f for f in self.factors if f.column.binding == binding]

    @property
    def bindings(self) -> set[str]:
        return {f.column.binding for f in self.factors}


@dataclass
class TCUPattern:
    """A query recognized as TCU-executable."""

    kind: PatternKind
    bound: BoundQuery
    joins: list[JoinPredicate]
    fact: str | None = None  # star center binding (JOIN_AGG)
    aggregates: list[AggregateSpec] = field(default_factory=list)
    # The distinct aggregate calls ``aggregates`` decompose (JOIN_AGG).
    calls: list[AggregateCall] = field(default_factory=list)
    group_by: list[BoundColumn] = field(default_factory=list)
    projected: list[BoundColumn] = field(default_factory=list)


@dataclass
class MatchFailure:
    """Why a query was rejected for TCU execution.

    ``kind`` classifies the rejection for the fallback-rate surfaces:
    ``pattern`` (expressiveness), ``cost`` (optimizer preferred the
    conventional plan) or ``feasibility`` (data-range test failed).
    """

    reason: str
    kind: str = "pattern"


def match_pattern(bound: BoundQuery) -> TCUPattern | MatchFailure:
    """Classify a bound query into a TCU pattern or explain the rejection.

    Residual predicates are deliberately *not* inspected, and HAVING only
    for its aggregate calls: the lowering pass attaches both as
    epilogues of the matched core shape's operators.
    """
    if len(bound.tables) < 2:
        return MatchFailure("single-table query: nothing to encode as a join")
    if not bound.join_predicates:
        return MatchFailure("no join predicate between the tables")
    if bound.has_aggregates:
        return _match_join_agg(bound)
    return _match_join_project(bound)


def collect_aggregates(
    bound: BoundQuery,
    specs_of: Callable[[AggregateCall], list[AggregateSpec] | MatchFailure],
) -> tuple[list[AggregateCall], list[AggregateSpec]] | MatchFailure:
    """The distinct aggregate calls of the select items, then of HAVING
    (:func:`~repro.engine.physical.aggregate_calls` order), and the
    specs ``specs_of`` makes of each call.

    Everything around the calls is evaluated per group by
    :class:`~repro.engine.physical.StreamGroupEval`, so an output may be
    arithmetic over calls, literals, GROUP BY columns and computed GROUP
    BY expressions.  MIN/MAX, unknown aggregates, other columns, string
    literals and anything else (a select-list parameter) are rejected,
    HAVING's rejections prefixed ``HAVING: ``.  String literals and
    parameter-only operands of HAVING are not checked: the predicate
    interpreter encodes the former, the latter fold to literals once
    values bind.
    """
    group_keys = {c.key for c in bound.group_by}
    computed = set(bound.group_exprs.values())
    calls: list[AggregateCall] = []
    specs: list[AggregateSpec] = []

    def visit(expr: Expr) -> MatchFailure | None:
        # Depth first, left operand first, on an explicit stack: a
        # recursive closure would be a reference cycle.
        pending = [expr]
        while pending:
            node = pending.pop()
            if node in computed:
                continue
            if isinstance(node, BinaryOp):
                pending += [node.right, node.left]
            elif isinstance(node, Literal):
                if isinstance(node.value, str):
                    return MatchFailure("string literals in aggregate outputs")
            elif isinstance(node, ColumnRef):
                column = bound.resolve(node)
                if column.key not in group_keys:
                    return MatchFailure(
                        f"column {column.key} in SELECT is not a GROUP BY key"
                    )
            elif isinstance(node, AggregateCall):
                if node.func in ("min", "max"):
                    # Matrix multiply-accumulate cannot express MIN/MAX
                    # (Section 3.4).
                    return MatchFailure(
                        f"{node.func.upper()} is beyond TCU expressiveness"
                    )
                if node.func not in ("sum", "count", "avg"):
                    return MatchFailure(f"unsupported aggregate {node.func!r}")
                if node not in calls:
                    call_specs = specs_of(node)
                    if isinstance(call_specs, MatchFailure):
                        return call_specs
                    calls.append(node)
                    specs.extend(call_specs)
            else:
                return MatchFailure(f"unsupported select expression {node}")
        return None

    for item in bound.select_items:
        failure = visit(item.expr)
        if failure is not None:
            return failure
    for predicate in bound.having:
        for expr in walk_predicate_exprs(predicate):
            if ((isinstance(expr, Literal) and isinstance(expr.value, str))
                    or is_parameter_constant(expr)):
                continue
            failure = visit(expr)
            if failure is not None:
                return MatchFailure(f"HAVING: {failure.reason}")
    return calls, specs


def sum_parts(call: AggregateCall) -> tuple[AggregateCall, AggregateCall] | None:
    """``(SUM(x), SUM(y))`` for a ``SUM(x ± y)`` call, else None.

    SUM is linear, so the star lowering multiplies the two parts (e.g.
    SSB's ``lo_revenue - lo_supplycost``) instead of falling back, and
    the harvest combines them with the argument's operator.
    """
    argument = call.argument
    if (call.func == "sum" and isinstance(argument, BinaryOp)
            and argument.op in ("+", "-")):
        return (AggregateCall(func="sum", argument=argument.left),
                AggregateCall(func="sum", argument=argument.right))
    return None


# -- join-only patterns ---------------------------------------------------------- #


def is_parameter_constant(expr: Expr) -> bool:
    """True for expressions that are constant *up to parameters*: every
    leaf is a literal or an unbound :class:`Parameter`, with at least one
    parameter present.  They fold to plain literals once values bind, so
    template lowering treats them like literal operands (HAVING skips
    them; specialization substitutes the folded literal)."""
    saw_parameter = False
    for node in expr.walk():
        if isinstance(node, Parameter):
            saw_parameter = True
        elif not isinstance(node, (Literal, BinaryOp)):
            return False
    return saw_parameter


def constant_value(expr: Expr) -> float | None:
    """Fold a literal-only expression to a constant (None if impossible)."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return None
        return float(expr.value)
    if isinstance(expr, BinaryOp):
        left = constant_value(expr.left)
        right = constant_value(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right if right != 0 else None
        if expr.op == "%":
            return left % right if right != 0 else None
    return None


def _match_join_project(bound: BoundQuery) -> TCUPattern | MatchFailure:
    if bound.group_by:
        return MatchFailure("GROUP BY without aggregates is not supported")
    projected: list[BoundColumn | float] = []
    for item in bound.select_items:
        if isinstance(item.expr, ColumnRef):
            projected.append(bound.resolve(item.expr))
            continue
        constant = constant_value(item.expr)
        if constant is None:
            return MatchFailure(
                f"projection {item.expr} is not a plain column or constant; "
                "TCU join patterns project columns only"
            )
        projected.append(constant)
    joins = list(bound.join_predicates)
    if len(bound.tables) == 2:
        if len(joins) != 1:
            return MatchFailure(
                "two-way joins must have exactly one join predicate"
            )
        return TCUPattern(
            kind=PatternKind.JOIN_2WAY, bound=bound, joins=joins,
            projected=projected,
        )
    # Multi-way: the planner's left-deep order must chain all tables with
    # equi predicates (Section 3.2 assumes the conventional join order).
    non_equi = [j for j in joins if not j.is_equi]
    if non_equi:
        return MatchFailure("multi-way non-equi joins are not supported")
    if len(joins) != len(bound.tables) - 1:
        return MatchFailure(
            "multi-way join must form a tree (n-1 predicates for n tables)"
        )
    return TCUPattern(
        kind=PatternKind.JOIN_MULTIWAY, bound=bound, joins=joins,
        projected=projected,
    )


# -- aggregation patterns ----------------------------------------------------------- #


def _match_join_agg(bound: BoundQuery) -> TCUPattern | MatchFailure:
    if bound.group_exprs:
        # Computed GROUP BY keys live on no table side of the star; the
        # hybrid pipeline groups on the projected expression instead.
        return MatchFailure(
            "GROUP BY expressions are beyond the star pattern"
        )
    joins = list(bound.join_predicates)
    non_equi = [j for j in joins if not j.is_equi]
    if non_equi:
        return MatchFailure("aggregation over non-equi joins is not supported")
    fact = _find_star_center(bound, joins)
    if fact is None:
        return MatchFailure(
            "join graph is not a star/chain reducible to one fact table"
        )
    collected = collect_aggregates(
        bound, lambda call: _product_specs(call, bound))
    if isinstance(collected, MatchFailure):
        return collected
    calls, aggregates = collected
    return TCUPattern(
        kind=PatternKind.JOIN_AGG,
        bound=bound,
        joins=joins,
        fact=fact,
        aggregates=aggregates,
        calls=calls,
        group_by=list(bound.group_by),
    )


def _find_star_center(
    bound: BoundQuery, joins: list[JoinPredicate]
) -> str | None:
    """A binding that participates in every join predicate."""
    if len(joins) != len(bound.tables) - 1:
        return None
    candidates = {t.binding for t in bound.tables}
    for join in joins:
        candidates &= {join.left.binding, join.right.binding}
    if candidates:
        # Prefer the first FROM table if it qualifies (paper's join order).
        first = bound.tables[0].binding
        return first if first in candidates else sorted(candidates)[0]
    return None


def _product_specs(
    call: AggregateCall, bound: BoundQuery
) -> list[AggregateSpec] | MatchFailure:
    """The product specs of one call: one, or one per linear SUM part."""
    parts = sum_parts(call)
    if parts is None:
        spec = _decompose_aggregate(call, bound)
        return spec if isinstance(spec, MatchFailure) else [spec]
    specs: list[AggregateSpec] = []
    for part in parts:
        part_specs = _product_specs(part, bound)
        if isinstance(part_specs, MatchFailure):
            return part_specs
        specs.extend(part_specs)
    return specs


def _decompose_aggregate(
    call: AggregateCall, bound: BoundQuery
) -> AggregateSpec | MatchFailure:
    if call.argument is None:  # COUNT(*)
        return AggregateSpec(func="count", constant=1.0, factors=[])
    decomposed = _decompose_product(call.argument, bound)
    if decomposed is None:
        return MatchFailure(
            f"aggregate argument {call.argument} is not a product of "
            "column factors (additive arguments are beyond TCU patterns)"
        )
    constant, factors = decomposed
    if call.func == "count":
        return AggregateSpec(func="count", constant=1.0, factors=[])
    return AggregateSpec(func=call.func, constant=constant, factors=factors)


def _decompose_product(
    expr: Expr, bound: BoundQuery, power: int = 1
) -> tuple[float, list[Factor]] | None:
    """Flatten an expression into (constant, [column^power factors])."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return None
        value = float(expr.value)
        if value == 0 and power < 0:
            return None
        return (value**power if power > 0 else value**power), []
    if isinstance(expr, ColumnRef):
        return 1.0, [Factor(column=bound.resolve(expr), power=power)]
    if isinstance(expr, BinaryOp):
        if expr.op == "*":
            left = _decompose_product(expr.left, bound, power)
            right = _decompose_product(expr.right, bound, power)
        elif expr.op == "/":
            left = _decompose_product(expr.left, bound, power)
            right = _decompose_product(expr.right, bound, -power)
        else:
            return None
        if left is None or right is None:
            return None
        return left[0] * right[0], left[1] + right[1]
    return None
