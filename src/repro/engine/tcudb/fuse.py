"""Fusion pass: an optimizing rewrite over the TensorProgram DAG.

Runs between lowering and execution, taking a
:class:`~repro.engine.tcudb.program.TensorProgram` and returning a
semantically equivalent but cheaper one.  Both TQP ("Query Processing on
Tensor Computation Runtimes", He et al.) and the TCU-reduction line of
work show that tensor-runtime engines win by batching many small tensor
ops into few large ones — the rewrites below do exactly that, and every
rewrite is recorded in the program listing (``fused_from=[...]``) and
the program notes so executed programs stay inspectable.

Rewrite rules, applied in order:

``fold-chain``
    A run of back-to-back ``FoldJoin`` steps (each feeding the next's
    fact side, with no other consumers in between) collapses into one
    :class:`~repro.engine.tcudb.ops.FoldJoinChain`: every step probes
    the original fact rows against its own key domain, survivorship
    accumulates in one combined mask, and each needed dimension column
    is gathered once on the final survivors instead of being gathered
    early and refiltered by every later step.  The cost model charges a
    single fold step for the run (the exact sum of the sequential
    per-step estimates), and the fuzz chain-join corpus stays
    bit-identical.

``batched-gemm``
    A ``Gemm`` consuming a ``ValueFill`` whose product needs two or more
    grids (the per-aggregate fan-out of a JOIN_AGG or grouped reduce) is
    rewritten to a :class:`~repro.engine.tcudb.ops.BatchedGemm`: the
    ``ValueFill`` builds each side's indicator structure once (rows and
    group codes shared, per-aggregate values stacked into an
    ``(n_agg, g, k)`` operand) and the driver issues a single stacked
    matmul, priced as one operand fill plus ``n_agg`` MMA passes.

Fusion never rewrites semantics: every rule preserves the operator's
payload contract, and the fused programs are property-tested against the
oracle over the fuzz corpus (``tests/test_fusion.py``).  HAVING and
residual predicates need no rule: the lowering already places them in
the operator that evaluates them (:mod:`repro.engine.tcudb.lower`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.tcudb import ops
from repro.engine.tcudb.program import TensorProgram


def _grid_count(fill: ops.ValueFill) -> int:
    """Grids the product must produce: the COUNT/indicator grid plus one
    value grid per non-COUNT aggregate."""
    value_specs = sum(1 for spec in fill.specs if spec.func != "count")
    return value_specs + 1


def fuse_program(program: TensorProgram) -> TensorProgram:
    """Apply the rewrite rules; returns a new, equivalent program.

    The input program is not mutated."""
    by_id = {op.id: op for op in program.ops}
    rewritten: dict[str, ops.TensorOp] = {}
    dropped: set[str] = set()  # folds absorbed into a FoldJoinChain
    notes: list[str] = []

    # -- rule: fold-chain -------------------------------------------------- #
    consumers: dict[str, list[str]] = {}
    for op in program.ops:
        for input_id in op.input_ids():
            consumers.setdefault(input_id, []).append(op.id)
    fold_ids = {op.id for op in program.ops if type(op) is ops.FoldJoin}
    fused_folds: set[str] = set()
    for op in program.ops:
        if type(op) is not ops.FoldJoin or op.id in fused_folds:
            continue
        if op.fact_input in fold_ids:
            continue  # not the head of a run
        run = [op]
        while True:
            run_consumers = consumers.get(run[-1].id, [])
            if len(run_consumers) != 1:
                break
            successor = by_id.get(run_consumers[0])
            if (type(successor) is not ops.FoldJoin
                    or successor.fact_input != run[-1].id):
                break
            run.append(successor)
        fused_folds.update(fold.id for fold in run)
        if len(run) < 2:
            continue
        # The chain takes the LAST fold's id and program slot (every dim
        # scan of the run precedes it), so downstream consumers keep
        # their wiring; the earlier folds of the run are dropped.
        rewritten[run[-1].id] = ops.FoldJoinChain(
            id=run[-1].id,
            fact_input=run[0].fact_input,
            steps=[
                ops.FoldStep(
                    dim_input=fold.dim_input,
                    dim_binding=fold.dim_binding,
                    fact_column=fold.fact_column,
                    dim_column=fold.dim_column,
                    needed=fold.needed,
                )
                for fold in run
            ],
        )
        dropped.update(fold.id for fold in run[:-1])
        notes.append(
            f"fusion: fold-chain collapsed {len(run)} chained-join steps "
            f"({', '.join(fold.dim_binding for fold in run)}) into one "
            "gather pass"
        )

    # -- rule: batched-gemm ------------------------------------------------ #
    for op in program.ops:
        if type(op) is not ops.Gemm:
            continue
        producer = by_id.get(op.input)
        if not isinstance(producer, ops.ValueFill):
            continue
        n_grids = _grid_count(producer)
        if n_grids < 2:
            continue
        fused_from = [f"{op.id}[count]"] + [
            f"{op.id}[{spec.func}#{i}]"
            for i, spec in enumerate(producer.specs) if spec.func != "count"
        ]
        shared_fill = replace(producer, shared=True)
        # consumer_id is annotated outside the dataclass fields (codegen
        # uses it to look up the consumer Gemm's plan); carry it over.
        if hasattr(producer, "consumer_id"):
            shared_fill.consumer_id = producer.consumer_id
        rewritten[producer.id] = shared_fill
        rewritten[op.id] = ops.BatchedGemm(
            id=op.id, input=op.input, label=op.label,
            n_grids=n_grids, fused_from=fused_from,
        )
        notes.append(
            f"fusion: batched-gemm collapsed {n_grids} per-aggregate "
            f"products of {op.id} into one stacked GEMM"
        )

    if not rewritten and not dropped:
        return program

    return TensorProgram(
        ops=[rewritten.get(op.id, op) for op in program.ops
             if op.id not in dropped],
        strategy=program.strategy,
        hybrid=program.hybrid,
        notes=list(program.notes) + notes,
    )


__all__ = ["fuse_program"]
