"""Ablation experiments for the design decisions DESIGN.md calls out.

1. Fused Join+GroupBy+Aggregation vs join-then-aggregate.
2. The density-threshold plan switch (dense GEMM vs TCU-SpMM vs fallback).
3. Adaptive mixed precision (int4/int8/fp16 end-to-end cost).
4. CPU vs GPU-assisted table->matrix transformation.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    annotate_tcu_point,
    geomean,
    timed_execute,
)
from repro.bench.scale import ScaleProfile
from repro.bench.verify import OracleVerifier
from repro.datasets.microbench import (
    QUERY_Q1,
    QUERY_Q3,
    microbench_catalog,
)
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions
from repro.hardware.gpu import GPUDevice
from repro.tensor.precision import Precision

# Multi-aggregate SSB-style star reports: the JOIN_AGG shapes whose
# per-aggregate GEMM fan-out the fusion pass collapses into one
# BatchedGemm (shared indicator structure + stacked matmul).
FUSION_QUERIES = {
    "flight1_report": """
        SELECT d_year,
               SUM(lo_extendedprice * lo_discount) AS revenue,
               SUM(lo_quantity) AS qty, SUM(lo_revenue) AS rev,
               SUM(lo_supplycost) AS cost, COUNT(*) AS orders,
               AVG(lo_discount) AS avg_disc,
               AVG(lo_extendedprice) AS avg_price,
               AVG(lo_quantity) AS avg_qty
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey
        GROUP BY d_year;""",
    "profit_report": """
        SELECT d_year, c_nation,
               SUM(lo_revenue - lo_supplycost) AS profit,
               COUNT(*) AS orders, AVG(lo_revenue) AS avg_rev,
               SUM(lo_quantity) AS qty, AVG(lo_supplycost) AS avg_cost
        FROM lineorder, customer, ddate
        WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey
        GROUP BY d_year, c_nation;""",
    "supplier_report": """
        SELECT s_nation, SUM(lo_revenue) AS rev,
               SUM(lo_supplycost) AS cost,
               AVG(lo_quantity) AS q, COUNT(*) AS n,
               SUM(lo_extendedprice * lo_discount) AS disc_rev,
               AVG(lo_extendedprice) AS avg_price,
               SUM(lo_quantity * lo_supplycost) AS qcost
        FROM lineorder, supplier, ddate
        WHERE lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
        GROUP BY s_nation;""",
}


def run_ablation_fusion(
    rows: int | None = None, seed: int = 45, *,
    profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """TensorProgram fusion on vs off over multi-aggregate SSB stars.

    Both variants run in REAL mode with the dense strategy pinned, so
    the measurement isolates the fusion pass: fusion=off prices the
    per-aggregate operator fan-out (one operand fill per grid) and runs
    its epilogues as separate passes, fusion=on prices the rewritten
    program (shared indicator structure, one stacked GEMM, ``n_agg`` MMA
    passes).  Each point records simulated seconds *and* measured host
    wall-clock (``host_seconds``) — the simulated ledger shows the
    modeled one-fill-vs-n-rebuilds gap; on the host both variants
    multiply the same prepared operands, so the clock shows what the
    fold-chain and epilogue rewrites save.  Left to its own devices the
    optimizer would reject the unfused plans outright (the per-aggregate
    rebuild cost loses to the conventional plan), which is the
    cost-model view of the same story.
    """
    if rows is None:
        rows = profile.fusion_rows if profile else 20_000
    reps = profile.fusion_reps if profile else 3
    result = ExperimentResult(
        "ablation_fusion",
        "TensorProgram fusion: BatchedGemm + epilogues vs unfused "
        "per-aggregate operator DAG (REAL mode, multi-aggregate stars)",
    )
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=rows, seed=seed)
    device = GPUDevice()
    speedups = []
    for query_id, sql in FUSION_QUERIES.items():
        variants = {
            "fusion=on": TCUDBOptions(force_strategy=Strategy.DENSE),
            "fusion=off": TCUDBOptions(force_strategy=Strategy.DENSE,
                                       fusion=False),
        }
        points = {}
        for label, options in variants.items():
            engine = TCUDBEngine(catalog, device=device,
                                 mode=ExecutionMode.REAL, options=options)
            run, host_seconds = timed_execute(engine, sql, repeats=reps)
            point = result.add(query_id, label, run.seconds,
                               breakdown=run.breakdown)
            annotate_tcu_point(point, run)
            point.host_seconds = host_seconds
            points[label] = point
            if verifier is not None:
                verifier.verify_query(point, "TCUDB", catalog, sql,
                                      device=device, options=options)
        on, off = points["fusion=on"], points["fusion=off"]
        on.normalized = 1.0
        off.normalized = off.seconds / on.seconds
        speedups.append(off.host_seconds / on.host_seconds)
    host_geomean = geomean(speedups)
    result.notes.append(
        f"rows_per_sf={rows}; normalized column = simulated slowdown of "
        "the unfused program; host wall-clock geomean speedup "
        f"(fusion on vs off) = {host_geomean:.2f}x"
    )
    return result


def run_ablation_fused_agg(
    sizes: list[int] | None = None, n_distinct: int | None = None,
    seed: int = 41, *, profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """Fused single-matmul Q3 vs 'TCU join, then GPU group-by'.

    The unfused variant pays the Q1 join (pairs materialized) plus the
    conventional group-by aggregation over the pairs — the structure
    YDB uses and TCUDB's Lemma-3.1 encoding eliminates.
    """
    sizes = sizes or list(profile.ablation_sizes if profile
                          else (4096, 8192, 16384, 32768))
    if n_distinct is None:
        n_distinct = profile.micro_distinct if profile else 32
    result = ExperimentResult(
        "ablation_fused_agg",
        "Q3: fused TCU Join+GroupBy+Agg vs TCU join + GPU aggregation",
    )
    for size in sizes:
        catalog = microbench_catalog(size, n_distinct, seed)
        device = GPUDevice()
        tcu = TCUDBEngine(catalog, device=device,
                          mode=ExecutionMode.ANALYTIC)
        fused = tcu.execute(QUERY_Q3)
        join_only = tcu.execute(QUERY_Q1)
        pairs = join_only.n_rows
        groupby_seconds = device.cuda.groupby_seconds(pairs, n_distinct)
        unfused_seconds = join_only.seconds + groupby_seconds
        config = f"{size},{n_distinct}"
        fused_point = result.add(config, "fused (1 matmul)", fused.seconds)
        annotate_tcu_point(fused_point, fused)
        unfused_point = result.add(config, "join + group-by",
                                   unfused_seconds)
        fused_point.normalized = 1.0
        unfused_point.normalized = unfused_seconds / fused.seconds
        if verifier is not None:
            verifier.verify_query(fused_point, "TCUDB", catalog, QUERY_Q3,
                                  device=device)
            # The unfused time composes the measured Q1 join with a
            # modeled group-by; verifying the Q1 replay covers the
            # measured half of the composition.
            verifier.verify_query(unfused_point, "TCUDB", catalog,
                                  QUERY_Q1, device=device)
    result.notes.append("normalized column = slowdown of the unfused plan")
    return result


def run_ablation_density_switch(
    distincts: list[int] | None = None, n_records: int | None = None,
    seed: int = 42, *, profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """Dense vs sparse vs optimizer-chosen plan across matrix densities."""
    distincts = distincts or list(profile.ablation_distincts if profile
                                  else (32, 256, 1024, 4096, 16384))
    if n_records is None:
        n_records = profile.fig8_records if profile else 4096
    result = ExperimentResult(
        "ablation_density_switch",
        "Q1 plan choice across input densities (1/#distinct)",
    )
    for k in distincts:
        catalog = microbench_catalog(n_records, k, seed)
        device = GPUDevice()
        variants = {
            "forced dense": TCUDBOptions(force_strategy=Strategy.DENSE),
            "forced sparse": TCUDBOptions(force_strategy=Strategy.SPARSE),
            "optimizer": TCUDBOptions(),
        }
        for label, options in variants.items():
            engine = TCUDBEngine(catalog, device=device,
                                 mode=ExecutionMode.ANALYTIC, options=options)
            run = engine.execute(QUERY_Q1)
            note = run.extra.get("strategy", "")
            if run.extra.get("fallback_reason"):
                note = "fallback"
            point = result.add(f"{n_records},{k}", label, run.seconds,
                               note=note)
            annotate_tcu_point(point, run)
            point.normalized = run.seconds
            if verifier is not None:
                verifier.verify_query(point, "TCUDB", catalog, QUERY_Q1,
                                      device=device, options=options)
    result.notes.append(
        "normalized column = simulated seconds; the optimizer should track "
        "the cheaper variant on both sides of the density threshold"
    )
    return result


def run_ablation_precision(
    sizes: list[int] | None = None, n_distinct: int = 256, seed: int = 43,
    *, profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """End-to-end cost of forcing each TCU precision on an exact
    (indicator) workload: compact types move less data and multiply
    faster, at zero accuracy cost for 0/1 matrices."""
    sizes = sizes or list(profile.ablation_sizes if profile
                          else (4096, 16384))
    result = ExperimentResult(
        "ablation_precision", "Q1 end-to-end cost by forced precision"
    )
    for size in sizes:
        catalog = microbench_catalog(size, n_distinct, seed)
        device = GPUDevice()
        for precision in (Precision.INT4, Precision.INT8, Precision.FP16):
            options = TCUDBOptions(force_strategy=Strategy.DENSE,
                                   force_precision=precision)
            engine = TCUDBEngine(catalog, device=device,
                                 mode=ExecutionMode.ANALYTIC, options=options)
            run = engine.execute(QUERY_Q1)
            point = result.add(f"{size},{n_distinct}", precision.value,
                               run.seconds)
            annotate_tcu_point(point, run)
            point.normalized = run.seconds
            if verifier is not None:
                verifier.verify_query(point, "TCUDB", catalog, QUERY_Q1,
                                      device=device, options=options)
    result.notes.append("normalized column = simulated seconds")
    return result


def run_ablation_transform_location(
    sizes: list[int] | None = None, n_distinct: int | None = None,
    seed: int = 44, *, profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """GPU-assisted vs forced-CPU table->matrix transformation
    (Equations 1 vs 2)."""
    sizes = sizes or list(profile.ablation_sizes if profile
                          else (4096, 32768))
    if n_distinct is None:
        n_distinct = profile.micro_distinct if profile else 32
    result = ExperimentResult(
        "ablation_transform_location",
        "Q3 transformation location: optimizer (GPU allowed) vs CPU-only",
    )
    for size in sizes:
        catalog = microbench_catalog(size, n_distinct, seed)
        device = GPUDevice()
        for label, options in (
            ("gpu-allowed", TCUDBOptions()),
            ("cpu-only", TCUDBOptions(force_cpu_transform=True)),
        ):
            engine = TCUDBEngine(catalog, device=device,
                                 mode=ExecutionMode.ANALYTIC, options=options)
            run = engine.execute(QUERY_Q3)
            point = result.add(f"{size},{n_distinct}", label, run.seconds,
                               breakdown=run.breakdown)
            annotate_tcu_point(point, run)
            point.normalized = run.seconds
            if verifier is not None:
                verifier.verify_query(point, "TCUDB", catalog, QUERY_Q3,
                                      device=device, options=options)
    result.notes.append("normalized column = simulated seconds")
    return result
