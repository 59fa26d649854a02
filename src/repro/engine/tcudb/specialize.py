"""Parameter specialization of cached TensorPrograms.

A program lowered from a *deferred-bound* template (see
:mod:`repro.sql.prepared`) is structurally complete — operator DAG,
join order, aggregate decomposition, fusion — but a handful of operator
payloads still carry :class:`~repro.sql.ast_nodes.Parameter` nodes
inside predicate or argument expressions.  This pass stamps a cached
template with one execution's parameter values by *copying* exactly the
operators that carry expressions, leaving everything else shared:

* ``NonzeroExtract`` / ``GridAggregate`` / ``ValueFill`` — residual
  and HAVING epilogue predicates substituted and re-folded;
  parameter-only HAVING operands (skipped at template lowering) fold to
  the literals the per-group evaluator reads.
* ``GridAggregate`` / ``Decode`` — aggregate calls and select items go
  through the same substitute+fold, so the finals a lifted
  ``SUM(b * ?)`` keys are found under the substituted HAVING's call.
* ``PhysicalStage`` — the hybrid pre-stage replans its logical tree
  from the execution bound (pure structural work, microseconds), so
  scan filters and residuals inside the tree are literal.

Everything literal-dependent that the *cost model* owns needs no work
here: ``Gemm.execute`` re-runs the Figure 6 strategy decision per
execution against the execution bound's statistics, so a cached
program's density/precision choices always reflect the current
parameter values (the "re-check cheaply" half of the compile-once
contract).

Thread-safety: the input program is never mutated — specialization
builds a fresh operator list (sharing parameter-free operators), so any
number of sessions may specialize one cached template concurrently.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.tcudb import ops
from repro.engine.tcudb.program import TensorProgram
from repro.sql.ast_nodes import (
    Expr,
    Parameter,
    Predicate,
    SelectItem,
    fold_constants,
    walk_predicate_exprs,
)
from repro.sql.binder import BoundQuery, substitute_parameters
from repro.sql.planner import plan_relation


def _expr_has_parameter(expr: Expr) -> bool:
    return any(isinstance(node, Parameter) for node in expr.walk())


def _predicate_has_parameter(predicate: Predicate) -> bool:
    return any(
        _expr_has_parameter(expr)
        for expr in walk_predicate_exprs(predicate)
    )


def _substitute_expr(expr: Expr, values: dict[str, object]) -> Expr:
    return fold_constants(substitute_parameters(expr, values))


def _substitute_predicates(
    predicates: list[Predicate], values: dict[str, object]
) -> list[Predicate]:
    from repro.sql.binder import _substitute_predicate

    return [_substitute_predicate(p, values) for p in predicates]


def _replace(op: ops.TensorOp, **changes) -> ops.TensorOp:
    """dataclasses.replace that preserves the out-of-band consumer_id
    annotation (set after construction, dropped by replace())."""
    clone = replace(op, **changes)
    if hasattr(op, "consumer_id"):
        clone.consumer_id = op.consumer_id
    return clone


def _specialize_op(
    op: ops.TensorOp, exec_bound: BoundQuery, values: dict[str, object]
) -> ops.TensorOp:
    if isinstance(op, ops.PhysicalStage):
        return _replace(op, tree=plan_relation(exec_bound))
    if isinstance(op, ops.ValueFill):
        needs_args = any(
            argument is not None and _expr_has_parameter(argument)
            for argument in op.arguments
        )
        needs_epilogue = any(
            map(_predicate_has_parameter, op.epilogue_predicates)
        )
        if not (needs_args or needs_epilogue):
            return op
        return _replace(
            op,
            arguments=[
                None if argument is None
                else _substitute_expr(argument, values)
                for argument in op.arguments
            ],
            epilogue_predicates=_substitute_predicates(
                op.epilogue_predicates, values
            ),
        )
    if isinstance(op, ops.GridAggregate):
        if not (any(map(_expr_has_parameter, op.calls))
                or any(map(_predicate_has_parameter,
                           op.epilogue_predicates))):
            return op
        return _replace(
            op,
            calls=[_substitute_expr(call, values) for call in op.calls],
            epilogue_predicates=_substitute_predicates(
                op.epilogue_predicates, values
            ),
        )
    if isinstance(op, ops.Decode):
        if not any(_expr_has_parameter(item.expr) for item in op.items):
            return op
        # The output keeps the template's name.
        return _replace(op, items=[
            SelectItem(_substitute_expr(item.expr, values),
                       alias=item.output_name)
            for item in op.items
        ])
    if isinstance(op, ops.NonzeroExtract):
        if not any(map(_predicate_has_parameter, op.epilogue_predicates)):
            return op
        return _replace(
            op,
            epilogue_predicates=_substitute_predicates(
                op.epilogue_predicates, values
            ),
        )
    # TableSource reads its filters from the execution bound at run
    # time; Gemm/IndicatorBuild/FoldJoin carry only column references —
    # nothing to substitute.
    return op


def specialize_program(
    program: TensorProgram,
    exec_bound: BoundQuery,
    values: dict[str, object],
) -> TensorProgram:
    """A copy of ``program`` with parameter values stamped in.

    With no parameter values the template *is* the execution program
    and is returned as-is (zero-copy fast path for literal-only cached
    statements).
    """
    if not values:
        return program
    specialized = [
        _specialize_op(op, exec_bound, values) for op in program.ops
    ]
    if all(new is old for new, old in zip(specialized, program.ops)):
        return program
    return TensorProgram(
        ops=specialized,
        strategy=program.strategy,
        hybrid=program.hybrid,
        notes=list(program.notes),
    )
