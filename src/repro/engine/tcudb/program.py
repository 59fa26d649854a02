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
        # The emission of each operator that recorded a decision, taken
        # when it ran: it reads operand dims its input value had then.
        self.emissions: dict[str, OpEmission] = {}
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

    def record_decision(self, op: TensorOp, decision) -> None:
        self.decisions[op.id] = decision
        self.emissions[op.id] = op.emission(self)

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
    # Per operator, the values the run drops once it has executed
    # (:func:`_releases`), derived from ``ops`` once per program.
    releases: list[tuple[str, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.releases = _releases(self.ops)

    def run(self, ctx: ProgramContext) -> OutputValue:
        """Execute every operator in order; returns the final payload.
        A value leaves ``ctx.values`` as soon as its last reader has
        executed, so only the final payload is there at the end."""
        result = None
        for op, released in zip(self.ops, self.releases, strict=True):
            if ctx.cancel_token is not None:
                ctx.cancel_token.raise_if_cancelled()
            result = op.execute(ctx)
            ctx.values[op.id] = result
            for value_id in released:
                del ctx.values[value_id]
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
        what its context kept, small enough to hold after the run: the
        decisions, and the emissions the deciding operators took as they
        ran (:meth:`ProgramContext.record_decision`).  Any other emission
        depends on its operator alone and renders here."""
        late = SimpleNamespace(decisions=decisions, values={})
        emissions = [priced.get(op.id) or op.emission(late)
                     for op in self.ops]
        return emit_tensor_program(
            self.strategy, [e for e in emissions if e is not None], decisions)


def _releases(ops: list[TensorOp]) -> list[tuple[str, ...]]:
    """Per operator, the ids of the values no later operator reads: the
    inputs it reads last, and its own output if nothing reads it — but
    never the final operator's, the run's result."""
    last: dict[str, int] = {}
    for position, op in enumerate(ops):
        last[op.id] = position
        for value_id in op.input_ids():
            last[value_id] = position
    releases: list[list[str]] = [[] for _ in ops]
    for value_id, position in last.items():
        if value_id != ops[-1].id:
            releases[position].append(value_id)
    return [tuple(ids) for ids in releases]


__all__ = ["OperatorCost", "ProgramContext", "TensorProgram"]
