"""Lowering pass: bound query -> :class:`TensorProgram`.

Translates the planner's logical algebra into a DAG of composable TCU
operators.  Two strategies, tried in order:

1. **Pattern lowering** — the classifier in
   :mod:`repro.engine.tcudb.patterns` recognizes a matmul-encodable core
   shape (JOIN_2WAY / JOIN_MULTIWAY / JOIN_AGG) and this pass emits the
   operator chain for it.  Unlike the historical whole-query matcher,
   HAVING and cross-table residual predicates run natively as epilogues
   of the operator that already evaluates them: HAVING in the
   ``GridAggregate`` harvest, residuals in the operand fill
   (``ValueFill[star]``, JOIN_AGG) or in the last pair extraction
   (``NonzeroExtract``, JOIN_2WAY / multiway).

2. **Hybrid lowering** — when the pattern core cannot express the query
   (non-star join graphs, non-product aggregate arguments,
   duplicate-key dimensions, residuals touching every dimension) but
   the *aggregation* is still matmul-shaped (SUM/COUNT/AVG), the
   conventional ``PhysicalStage`` executes the relational prefix and
   the TCU runs the Lemma-3.1 grouped reduce over the materialized
   relation.  Partially-expressible queries run hybrid rather than
   all-or-nothing.

Queries beyond both strategies return a :class:`MatchFailure` whose
``kind`` feeds the fallback-rate reporting surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.tcudb import ops
from repro.engine.tcudb.fuse import fuse_program
from repro.engine.tcudb.patterns import (
    AggregateSpec,
    MatchFailure,
    PatternKind,
    TCUPattern,
    collect_aggregates,
    match_pattern,
)
from repro.engine.tcudb.program import TensorProgram
from repro.sql.ast_nodes import AggregateCall, ColumnRef, walk_predicate_exprs
from repro.sql.binder import BoundQuery, JoinPredicate
from repro.sql.planner import plan_relation


@dataclass
class LoweredQuery:
    """A query lowered onto the TCU operator pipeline."""

    program: TensorProgram
    pattern: TCUPattern | None = None
    hybrid: bool = False


def lower_query(bound: BoundQuery) -> LoweredQuery | MatchFailure:
    """Lower a bound query, preferring the full pattern pipeline; the
    rewrite pass (:mod:`repro.engine.tcudb.fuse`) runs on every lowered
    program."""
    pattern = match_pattern(bound)
    if isinstance(pattern, TCUPattern):
        lowered = _lower_pattern(bound, pattern)
        if isinstance(lowered, LoweredQuery):
            return _fused(lowered)
        pattern_failure = lowered
    else:
        pattern_failure = pattern
    hybrid = lower_hybrid(bound)
    if isinstance(hybrid, LoweredQuery):
        return hybrid
    # Report the primary (pattern) rejection: it names the construct
    # beyond matmul expressiveness.
    return pattern_failure


def _fused(lowered: LoweredQuery) -> LoweredQuery:
    return LoweredQuery(
        program=fuse_program(lowered.program),
        pattern=lowered.pattern,
        hybrid=lowered.hybrid,
    )


# --------------------------------------------------------------------------- #
# Pattern lowering
# --------------------------------------------------------------------------- #


def _lower_pattern(
    bound: BoundQuery, pattern: TCUPattern
) -> LoweredQuery | MatchFailure:
    if pattern.kind == PatternKind.JOIN_AGG:
        return _lower_join_agg(bound, pattern)
    return _lower_join_chain(bound, pattern)


def _residual_bindings(bound: BoundQuery) -> set[str]:
    bindings: set[str] = set()
    for predicate in bound.residuals:
        for expr in walk_predicate_exprs(predicate):
            for node in expr.walk():
                if isinstance(node, ColumnRef):
                    bindings.add(bound.resolve(node).binding)
    return bindings


def _residual_columns(bound: BoundQuery, binding: str) -> list[str]:
    """Columns of one binding referenced by residual predicates."""
    needed: set[str] = set()
    for predicate in bound.residuals:
        for expr in walk_predicate_exprs(predicate):
            for node in expr.walk():
                if isinstance(node, ColumnRef):
                    column = bound.resolve(node)
                    if column.binding == binding:
                        needed.add(column.key)
    return sorted(needed)


# -- join-only chains (JOIN_2WAY / JOIN_MULTIWAY) ---------------------------- #


def _lower_join_chain(
    bound: BoundQuery, pattern: TCUPattern
) -> LoweredQuery | MatchFailure:
    if bound.having:
        return MatchFailure(
            "HAVING requires aggregation (no aggregates in the select list)"
        )
    program_ops: list[ops.TensorOp] = []
    scans: dict[str, str] = {}

    def scan(binding: str) -> str:
        if binding not in scans:
            op = ops.TableSource(id=f"scan_{binding}", binding=binding)
            program_ops.append(op)
            scans[binding] = op.id
        return scans[binding]

    if pattern.kind == PatternKind.JOIN_2WAY:
        predicate = pattern.joins[0]
        first = predicate.left.binding
        steps = [(predicate, predicate.right.binding, "two_way")]
    else:
        first = bound.tables[0].binding
        remaining = list(pattern.joins)
        joined = {first}
        steps = []
        for table in bound.tables[1:]:
            binding = table.binding
            predicate = _pick_chain_predicate(remaining, joined, binding)
            if predicate is None:
                return MatchFailure("join chain is disconnected")
            remaining.remove(predicate)
            steps.append((predicate, binding, "chain_step"))
            joined.add(binding)
    start = ops.ChainStart(id="chain_0", input=scan(first), binding=first)
    program_ops.append(start)
    chain_id = start.id
    for index, (predicate, binding, profile) in enumerate(steps, start=1):
        build = ops.IndicatorBuild(
            id=f"indicator_{index}",
            chain_input=chain_id,
            right_input=scan(binding),
            predicate=predicate,
            right_binding=binding,
            profile=profile,
        )
        label = ("TCUJoin (2-way natural join)" if profile == "two_way"
                 else f"TCU multi-way join step {index}")
        gemm = ops.Gemm(id=f"gemm_{index}", input=build.id, label=label)
        build.consumer_id = gemm.id
        extract = ops.NonzeroExtract(id=f"pairs_{index}", input=gemm.id)
        program_ops.extend([build, gemm, extract])
        chain_id = extract.id
    # Residuals mask the pairs inside the last extraction kernel.
    extract.epilogue_predicates = list(bound.residuals)
    program_ops.append(
        ops.Decode(
            id="decode", input=chain_id, role="project",
            items=list(bound.select_items),
            projected=list(pattern.projected),
        )
    )
    strategy = ("pattern:join_2way" if pattern.kind == PatternKind.JOIN_2WAY
                else "pattern:join_multiway")
    return LoweredQuery(
        program=TensorProgram(ops=program_ops, strategy=strategy),
        pattern=pattern,
    )


def _pick_chain_predicate(predicates, joined, binding):
    for predicate in predicates:
        bindings = {predicate.left.binding, predicate.right.binding}
        if binding in bindings and bindings - {binding} <= joined:
            return predicate
    return None


# -- star aggregation (JOIN_AGG) --------------------------------------------- #


def _lower_join_agg(
    bound: BoundQuery, pattern: TCUPattern
) -> LoweredQuery | MatchFailure:
    fact = pattern.fact
    dims = [t.binding for t in bound.tables if t.binding != fact]
    residual_bindings = _residual_bindings(bound)
    b_side = _choose_b_side(pattern, dims, residual_bindings)
    if isinstance(b_side, MatchFailure):
        return b_side
    program_ops: list[ops.TensorOp] = []
    scan_fact = ops.TableSource(id=f"scan_{fact}", binding=fact)
    program_ops.append(scan_fact)
    fact_id = scan_fact.id
    for dim in dims:
        if dim == b_side:
            continue
        predicate = _join_for(pattern, fact, dim)
        if predicate is None:
            return MatchFailure(f"no join between {fact} and {dim}")
        fact_col = (predicate.left if predicate.left.binding == fact
                    else predicate.right)
        dim_col = (predicate.left if predicate.left.binding == dim
                   else predicate.right)
        needed = sorted(
            set(_dim_needed_columns(pattern, dim))
            | set(_residual_columns(bound, dim))
        )
        scan_dim = ops.TableSource(id=f"scan_{dim}", binding=dim)
        fold = ops.FoldJoin(
            id=f"fold_{dim}", fact_input=fact_id, dim_input=scan_dim.id,
            dim_binding=dim, fact_column=fact_col, dim_column=dim_col,
            needed=needed,
        )
        program_ops.extend([scan_dim, fold])
        fact_id = fold.id
    b_predicate = _join_for(pattern, fact, b_side)
    if b_predicate is None:
        return MatchFailure(f"no join between {fact} and {b_side}")
    fact_col = (b_predicate.left if b_predicate.left.binding == fact
                else b_predicate.right)
    b_col = (b_predicate.left if b_predicate.left.binding == b_side
             else b_predicate.right)
    scan_b = ops.TableSource(id=f"scan_{b_side}", binding=b_side)
    # Residuals mask the folded fact side inside the operand fill.
    fill = ops.ValueFill(
        id="value_fill", left_input=fact_id, right_input=scan_b.id,
        mode="star", specs=pattern.aggregates, group_by=pattern.group_by,
        pattern=pattern, b_side=b_side, fact_column=fact_col, b_column=b_col,
        epilogue_predicates=list(bound.residuals),
    )
    gemm = ops.Gemm(id="gemm_agg", input=fill.id,
                    label="TCU Join+GroupBy+Aggregation")
    fill.consumer_id = gemm.id
    program_ops.extend([scan_b, fill, gemm])
    program_ops.extend(
        _aggregate_tail(bound, gemm.id, pattern.calls, split_sums=True))
    return LoweredQuery(
        program=TensorProgram(ops=program_ops, strategy="pattern:join_agg"),
        pattern=pattern,
    )


def _choose_b_side(
    pattern: TCUPattern, dims: list[str], residual_bindings: set[str]
) -> str | MatchFailure:
    """The dimension joined on the B (right) side of the aggregate GEMM.

    Residual predicates mask the folded fact side *before* the B join,
    so the B dimension must not be referenced by any residual.  Among
    the eligible dimensions the historical heuristic applies: prefer a
    GROUP BY dimension, else the last dimension in FROM order.
    """
    candidates = [d for d in dims if d not in residual_bindings]
    if not candidates:
        return MatchFailure(
            "residual predicates reference every dimension; no B side "
            "remains for the aggregate product"
        )
    for column in pattern.group_by:
        if column.binding in candidates:
            return column.binding
    return candidates[-1]


def _join_for(
    pattern: TCUPattern, fact: str, dim: str
) -> JoinPredicate | None:
    for predicate in pattern.joins:
        bindings = {predicate.left.binding, predicate.right.binding}
        if bindings == {fact, dim}:
            return predicate
    return None


def _dim_needed_columns(pattern: TCUPattern, dim: str) -> list[str]:
    needed = [c.key for c in pattern.group_by if c.binding == dim]
    for spec in pattern.aggregates:
        needed.extend(f.column.key for f in spec.factors_for(dim))
    return sorted(set(needed))


def _aggregate_tail(bound: BoundQuery, gemm_id: str,
                    calls: list[AggregateCall],
                    split_sums: bool = False) -> list[ops.TensorOp]:
    """The harvest of an aggregate product with HAVING in its result
    hook, then the select items evaluated per group."""
    harvest = ops.GridAggregate(id="grid_agg", input=gemm_id,
                                calls=list(calls), split_sums=split_sums,
                                epilogue_predicates=list(bound.having))
    return [harvest,
            ops.Decode(id="decode", input=harvest.id, role="aggregate",
                       items=list(bound.select_items))]


# --------------------------------------------------------------------------- #
# Hybrid lowering (PhysicalStage + grouped reduce)
# --------------------------------------------------------------------------- #


def lower_hybrid(bound: BoundQuery) -> LoweredQuery | MatchFailure:
    """Lower the aggregation core onto the TCU over a conventional
    pre-stage (Lemma 3.1 grouped reduce).

    The pre-stage pulls chunk batches through the plan prefix, so the
    program runs in every execution mode (ANALYTIC bounded by the
    stage's row budget)."""
    if not (bound.has_aggregates or bound.group_by):
        return MatchFailure(
            "no aggregation core: hybrid lowering accelerates "
            "grouped reduction only"
        )
    collected = collect_aggregates(
        bound,
        lambda call: [AggregateSpec(func=call.func, constant=1.0,
                                    factors=[])],
    )
    if isinstance(collected, MatchFailure):
        return collected
    calls, specs = collected
    stage = ops.PhysicalStage(id="prestage", tree=plan_relation(bound))
    fill = ops.ValueFill(
        id="value_fill", left_input=stage.id, right_input=None,
        mode="reduce", specs=specs, group_by=list(bound.group_by),
        arguments=[call.argument for call in calls],
    )
    gemm = ops.Gemm(id="gemm_reduce", input=fill.id,
                    label="TCU grouped reduce (Lemma 3.1)")
    fill.consumer_id = gemm.id
    program_ops = [stage, fill, gemm, *_aggregate_tail(bound, gemm.id, calls)]
    return _fused(LoweredQuery(
        program=TensorProgram(ops=program_ops,
                              strategy="hybrid:grouped_reduce", hybrid=True),
        hybrid=True,
    ))


__all__ = ["LoweredQuery", "lower_hybrid", "lower_query"]
