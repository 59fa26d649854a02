"""Code generator: emits the CUDA C program for a selected TCU plan.

TCUDB rewrites (parts of) a query into C code that invokes NVIDIA's WMMA
or cuBLAS APIs and compiles it dynamically (Section 4.1).  On the
simulator the generated source is not compiled — the program driver
executes the equivalent steps — but emitting it keeps the architecture
faithful and makes plans inspectable: every query result carries its
generated program in ``extra["generated_code"]``.

:func:`emit_tensor_program` writes one section **per operator** of a
:class:`~repro.engine.tcudb.program.TensorProgram`, assembled from the
:class:`OpEmission` each operator contributes, so generated programs
mirror the operator DAG that actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.tcudb.cost import PlanCost, Strategy
from repro.tensor.precision import Precision

_WMMA_TYPES = {
    Precision.FP16: ("half", "float"),
    Precision.INT8: ("signed char", "int"),
    Precision.INT4: ("wmma::experimental::precision::s4", "int"),
}

_HEADER = """\
// Generated by TCUDB code generator — do not edit.
#include <cuda_runtime.h>
#include <mma.h>
#include <cublas_v2.h>
using namespace nvcuda;
"""


@dataclass(frozen=True)
class GeneratedProgram:
    """The C source and the step list the driver executes."""

    source: str
    steps: tuple[str, ...]

    def __str__(self) -> str:
        return self.source


def _compute_snippet(plan: PlanCost, m: int, n: int, k: int,
                     n_matmuls: int) -> list[str]:
    in_type, acc_type = _WMMA_TYPES[plan.precision]
    lines: list[str] = []
    if plan.strategy == Strategy.DENSE:
        lines.append("  // Dense TCUJoin: one WMMA GEMM per product")
        for i in range(n_matmuls):
            lines.append(
                "  wmma_optimized_gemm<<<deviceProp.multiProcessorCount, "
                "THREADS_PER_BLOCK, SHMEM_SZ>>>"
                f"(d_At_{i}, d_Bt_{i}, d_Ct_{i}, d_Ct_{i}, "
                f"{m}, {n}, {k}, 1.0f, 0.0f);"
            )
    elif plan.strategy == Strategy.BLOCKED:
        lines.extend([
            f"  // MSplitGEMM: {plan.n_blocks} pipelined stages over "
            "double-buffered streams",
            "  for (int s = 0; s < N_STAGES; ++s) {",
            "    cudaMemcpyAsync(buf[s % 2].A, h_At + offA(s), stage_bytes, "
            "cudaMemcpyHostToDevice, streams[s % 2]);",
            "    cudaMemcpyAsync(buf[s % 2].B, h_Bt + offB(s), stage_bytes, "
            "cudaMemcpyHostToDevice, streams[s % 2]);",
            "    wmma_optimized_gemm<<<grid, block, SHMEM_SZ, streams[s % 2]>>>"
            "(buf[s % 2].A, buf[s % 2].B, d_Ct + offC(s), d_Ct + offC(s), "
            "BLK_M, BLK_N, BLK_K, 1.0f, 1.0f);",
            "  }",
        ])
    else:  # SPARSE
        lines.extend([
            "  // TCU-SpMM: CSR -> 16x16 tiles, skip all-zero tiles",
            "  csr_to_tiles<<<grid, block>>>(d_csrA, d_tilesA, &n_tilesA);",
            "  csr_to_tiles<<<grid, block>>>(d_csrB, d_tilesB, &n_tilesB);",
            "  tcu_spmm_kernel<<<n_tile_pairs / WARPS_PER_BLOCK, "
            "THREADS_PER_BLOCK>>>(d_tilesA, d_tilesB, d_Ct);",
        ])
    lines.append(f"  // accumulate in {acc_type}, inputs {in_type}")
    return lines


@dataclass(frozen=True)
class OpEmission:
    """One operator's contribution to the generated program.

    ``transform`` operators (IndicatorBuild/ValueFill) emit the
    CPU-vs-GPU transformation sequence of the plan their *consumer* Gemm
    selected (``consumer_id`` names that Gemm; the plan is only known
    after the optimizer ran).  ``gemm`` operators emit the compute
    snippet for their own plan.  Everything else carries literal
    ``lines``.
    """

    kind: str
    label: str
    lines: tuple[str, ...] | list[str] = ()
    plan: PlanCost | None = None
    dims: tuple[int, int, int] = (0, 0, 0)
    n_matmuls: int = 1
    consumer_id: str | None = None
    transform: bool = False


def _batched_compute_snippet(plan: PlanCost, m: int, n: int, k: int,
                             n_matmuls: int) -> list[str]:
    """Fused BatchedGemm kernel section: one shared indicator fill, a
    stacked operand, and a single batched GEMM launch."""
    in_type, acc_type = _WMMA_TYPES[plan.precision]
    lines = [
        "  // fused BatchedGemm: shared indicator structure, "
        f"{n_matmuls} stacked MMA passes",
        "  build_shared_structure_kernel<<<grid, block>>>"
        "(d_raw, d_cells, d_inverse, &nnz);",
        f"  fill_stacked_values_kernel<<<grid, block>>>"
        f"(d_inverse, d_values, d_A_stack, {n_matmuls} /*n_agg*/);",
    ]
    if plan.strategy == Strategy.SPARSE:
        lines.append(
            "  tcu_spmm_batched_kernel<<<n_tile_pairs / WARPS_PER_BLOCK, "
            f"THREADS_PER_BLOCK>>>(d_tilesA_stack, d_tilesB_stack, "
            f"d_C_stack, {n_matmuls});"
        )
    else:
        lines.append(
            "  wmma_batched_gemm<<<deviceProp.multiProcessorCount, "
            "THREADS_PER_BLOCK, SHMEM_SZ>>>"
            f"(d_A_stack, d_Bt_stack, d_C_stack, {m}, {n}, {k}, "
            f"{n_matmuls} /*n_agg*/);"
        )
    lines.append(f"  // accumulate in {acc_type}, inputs {in_type}")
    return lines


def _transform_lines(plan: PlanCost) -> list[str]:
    in_type, _ = _WMMA_TYPES[plan.precision]
    if plan.transform.on_gpu:
        return [
            "  // GPU-assisted transformation: ship raw columns, "
            "scatter on device",
            "  cudaMemcpy(d_raw, h_cols, raw_bytes, cudaMemcpyHostToDevice);",
            f"  cudaMemset(d_mat, 0, G * K * sizeof({in_type}));",
            "  fill_matrix_kernel<<<grid, block>>>(d_raw, d_mat, n_tuples);",
        ]
    return [
        "  // CPU transformation: fill the matrix in host memory, then copy",
        "  fill_matrix_host(h_mat, table, n_tuples);",
        f"  cudaMemcpy(d_mat, h_mat, G * K * sizeof({in_type}), "
        "cudaMemcpyHostToDevice);",
    ]


def emit_tensor_program(
    strategy: str,
    emissions: list[OpEmission],
    decisions: dict,
) -> GeneratedProgram:
    """Assemble one C program from per-operator emissions.

    ``decisions`` maps Gemm op ids to their :class:`OptimizerDecision`
    (as recorded in the program context), letting transform operators
    look up the plan their consumer selected.
    """
    lines = [_HEADER, f"// tensor program: {strategy}",
             "extern \"C\" void tcudb_run_query() {"]
    steps: list[str] = []
    for emission in emissions:
        lines.append(f"  // ---- op: {emission.label} ----")
        plan = emission.plan
        if plan is None and emission.consumer_id is not None:
            decision = decisions.get(emission.consumer_id)
            plan = decision.plan if decision is not None else None
        if emission.transform and plan is not None:
            lines.extend(_transform_lines(plan))
            steps.append(
                "transform:" + ("gpu" if plan.transform.on_gpu else "cpu")
            )
        elif emission.kind == "batched_gemm" and plan is not None:
            m, n, k = emission.dims
            lines.extend(
                _batched_compute_snippet(plan, m, n, k, emission.n_matmuls)
            )
            steps.append(
                f"compute:batched:{plan.strategy.value}x{emission.n_matmuls}"
            )
        elif emission.kind == "gemm" and plan is not None:
            m, n, k = emission.dims
            lines.extend(
                _compute_snippet(plan, m, n, k, emission.n_matmuls)
            )
            steps.append(f"compute:{plan.strategy.value}x{emission.n_matmuls}")
        else:
            lines.extend(emission.lines)
            steps.append(f"{emission.kind}:{emission.label}")
    lines.append("  cudaDeviceSynchronize();")
    lines.append("}")
    return GeneratedProgram(source="\n".join(lines), steps=tuple(steps))
