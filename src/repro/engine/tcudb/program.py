"""The TensorProgram IR: a DAG of composable TCU operators.

A :class:`TensorProgram` is what the lowering pass
(:mod:`repro.engine.tcudb.lower`) produces from a bound query and what
the engine executes: a topologically ordered list of operators from
:mod:`repro.engine.tcudb.ops`, each reading its inputs from the shared
:class:`ProgramContext` value store.  The program records, per operator,
the optimizer decision (for ``Gemm`` nodes) and the simulated seconds
charged, so an executed query remains fully inspectable:

* ``program.describe()``        — the operator DAG, one line per node;
* ``emit_tensor_program(...)``  — the per-operator CUDA C source
  (:mod:`repro.engine.tcudb.codegen`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.common.errors import ExecutionError
from repro.common.timing import STAGE_FILL, STAGE_MEMCPY, TimingBreakdown
from repro.engine.base import ExecutionMode
from repro.engine.tcudb.codegen import (
    GeneratedProgram,
    OpEmission,
    emit_tensor_program,
)
from repro.engine.tcudb.ops import OutputValue, TensorOp


@dataclass
class OperatorCost:
    """Simulated seconds one operator charged, by stage."""

    op_id: str
    kind: str
    stage: str
    seconds: float


class ProgramContext:
    """Shared execution state of one TensorProgram run."""

    def __init__(self, bound, device, host, mode: ExecutionMode, options,
                 optimizer, driver, cancel_token=None):
        self.bound = bound
        self.device = device
        self.host = host
        self.mode = mode
        self.options = options
        self.optimizer = optimizer
        self.driver = driver
        self.cancel_token = cancel_token
        self.breakdown = TimingBreakdown()
        self.values: dict[str, object] = {}
        self.decisions: dict[str, object] = {}
        self.op_costs: list[OperatorCost] = []

    # -- value store ---------------------------------------------------- #

    def value(self, op_id: str):
        if op_id not in self.values:
            raise ExecutionError(f"operator input {op_id!r} not yet computed")
        return self.values[op_id]

    # -- charging ------------------------------------------------------- #

    def charge(self, op: TensorOp, stage: str, seconds: float) -> None:
        self.breakdown.add(stage, seconds)
        self.op_costs.append(
            OperatorCost(op_id=op.id, kind=op.kind, stage=stage,
                         seconds=seconds)
        )

    def charge_plan(self, op: TensorOp, plan, op_stage: str) -> None:
        """Charge one Gemm plan: transform fill/memcpy, compute, result."""
        self.charge(op, STAGE_FILL, plan.transform.fill_seconds)
        self.charge(op, STAGE_MEMCPY, plan.transform.memcpy_seconds)
        self.charge(op, op_stage, plan.compute_seconds)
        self.charge(op, STAGE_MEMCPY, plan.result_seconds)

    def record_decision(self, op_id: str, decision) -> None:
        self.decisions[op_id] = decision

    # -- settings the driver resolved once, at engine construction ------- #

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk of the morsel-driven operators."""
        return self.driver.chunk_rows

    @property
    def backend(self):
        """The active :class:`~repro.tensor.backend.TensorBackend` —
        operators route gather/bincount/nonzero/mask primitives through
        it so one selection covers the whole program."""
        return self.driver.backend

    def referenced_columns(self, binding: str) -> int:
        return max(
            len({c.column for c in self.bound.resolution.values()
                 if c.binding == binding}),
            1,
        )


@dataclass
class TensorProgram:
    """A topologically ordered DAG of TCU operators."""

    ops: list[TensorOp]
    strategy: str  # lowering strategy, e.g. "pattern:join_agg"
    hybrid: bool = False
    notes: list[str] = field(default_factory=list)

    def run(self, ctx: ProgramContext) -> OutputValue:
        """Execute every operator in order; returns the final payload."""
        result = None
        for op in self.ops:
            if ctx.cancel_token is not None:
                ctx.cancel_token.raise_if_cancelled()
            result = op.execute(ctx)
            ctx.values[op.id] = result
        if not isinstance(result, OutputValue):
            raise ExecutionError(
                f"program did not end in a Decode operator "
                f"(got {type(result).__name__})"
            )
        return result

    # -- inspection ------------------------------------------------------ #

    def describe(self) -> str:
        lines = [f"TensorProgram[{self.strategy}]"
                 + (" (hybrid)" if self.hybrid else "")]
        for op in self.ops:
            inputs = ", ".join(op.input_ids())
            suffix = f"  <- {inputs}" if inputs else ""
            lines.append(f"  {op.describe()}{suffix}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)

    def generated_code(self, decisions: dict,
                       priced: dict[str, OpEmission]) -> GeneratedProgram:
        """Assemble the per-operator CUDA sections of a finished run from
        what :meth:`code_facts` kept of it."""
        late = SimpleNamespace(decisions=decisions, values={})
        emissions = [priced.get(op.id) or op.emission(late)
                     for op in self.ops]
        return emit_tensor_program(
            self.strategy, [e for e in emissions if e is not None], decisions)

    def code_facts(self, ctx: ProgramContext) -> tuple[dict, dict]:
        """:meth:`generated_code`'s arguments, small enough to hold after
        the run: the decisions, and the emissions of the operators that
        recorded one (they read operand dims out of ``ctx.values``; any
        other emission depends on its operator alone and can wait)."""
        return ctx.decisions, {op.id: op.emission(ctx) for op in self.ops
                               if op.id in ctx.decisions}


__all__ = ["OperatorCost", "ProgramContext", "TensorProgram"]
