"""TCUDB: the paper's primary contribution.

Query compiler (pattern + hybrid lowering onto the TensorProgram IR),
query optimizer (Figure 6, run per operator), code generator (CUDA C
emission per operator) and program driver (TCU operator library).
"""

from repro.engine.tcudb.codegen import (
    GeneratedProgram,
    OpEmission,
    emit_tensor_program,
)
from repro.engine.tcudb.cost import (
    OperatorGeometry,
    PlanCost,
    Strategy,
    estimate_blocked,
    estimate_cpu_baseline,
    estimate_dense,
    estimate_gpu_baseline,
    estimate_sparse,
)
from repro.engine.tcudb.driver import (
    CompositeKey,
    OperandStructure,
    PreparedAggSide,
    PreparedJoin,
    TCUDriver,
    build_coo_operands,
)
from repro.engine.tcudb.engine import TCUDBEngine, TCUDBOptions
from repro.engine.tcudb.fuse import fuse_program
from repro.engine.tcudb.feasibility import (
    FeasibilityReport,
    run_feasibility_test,
)
from repro.engine.tcudb.lower import LoweredQuery, lower_hybrid, lower_query
from repro.engine.tcudb.ops import BatchedGemm, FallbackRequired
from repro.engine.tcudb.program import (
    OperatorCost,
    ProgramContext,
    TensorProgram,
)
from repro.engine.tcudb.optimizer import OptimizerDecision, TCUOptimizer
from repro.engine.tcudb.patterns import (
    AggregateSpec,
    MatchFailure,
    PatternKind,
    TCUPattern,
    match_pattern,
)
from repro.engine.tcudb.transform import (
    KeyDomain,
    SideMatrix,
    TransformCost,
    best_transform_cost,
    comparison_matrix,
    cpu_transform_cost,
    gpu_transform_cost,
    grouped_matrix,
    tuple_matrix,
    union_key_domain,
)

__all__ = [
    "AggregateSpec",
    "BatchedGemm",
    "CompositeKey",
    "FallbackRequired",
    "FeasibilityReport",
    "GeneratedProgram",
    "KeyDomain",
    "LoweredQuery",
    "MatchFailure",
    "OpEmission",
    "OperandStructure",
    "OperatorCost",
    "OperatorGeometry",
    "OptimizerDecision",
    "PatternKind",
    "PlanCost",
    "PreparedAggSide",
    "PreparedJoin",
    "ProgramContext",
    "SideMatrix",
    "Strategy",
    "TCUDBEngine",
    "TCUDBOptions",
    "TCUDriver",
    "TCUOptimizer",
    "TCUPattern",
    "TensorProgram",
    "TransformCost",
    "best_transform_cost",
    "build_coo_operands",
    "comparison_matrix",
    "cpu_transform_cost",
    "emit_tensor_program",
    "estimate_blocked",
    "estimate_cpu_baseline",
    "estimate_dense",
    "estimate_gpu_baseline",
    "estimate_sparse",
    "fuse_program",
    "gpu_transform_cost",
    "grouped_matrix",
    "lower_hybrid",
    "lower_query",
    "match_pattern",
    "run_feasibility_test",
    "tuple_matrix",
    "union_key_domain",
]
