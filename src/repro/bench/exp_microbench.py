"""Microbenchmark experiments: Figures 3, 7, 8 and 14."""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult, annotate_tcu_point
from repro.bench.scale import ScaleProfile
from repro.bench.verify import OracleVerifier, skip
from repro.datasets.microbench import (
    QUERY_Q1,
    QUERY_Q3,
    QUERY_Q4,
    microbench_catalog,
)
from repro.engine.base import ExecutionMode
from repro.engine.monetdb import MonetDBEngine
from repro.engine.tcudb import Strategy, TCUDBEngine, TCUDBOptions
from repro.engine.ydb import YDBEngine
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import RTX_2080, RTX_3090
from repro.tensor.precision import Precision

QUERIES = {"q1": QUERY_Q1, "q3": QUERY_Q3, "q4": QUERY_Q4}

# Paper values (normalized execution time per figure).
PAPER_FIG3 = {
    "CUDA cores": {1024: 1.00, 2048: 3.64, 4096: 27.1, 8192: 181.3,
                   16384: 1545.2},
    "TCUs": {1024: 0.21, 2048: 1.21, 4096: 8.02, 8192: 55.5, 16384: 547.6},
}

PAPER_FIG7 = {
    "q1": {
        "MonetDB": {4096: 4.90, 8192: 22.05, 16384: 65.88, 32768: 258.41},
        "YDB": {4096: 1.00, 8192: 3.08, 16384: 12.86, 32768: 52.68},
        "TCUDB": {4096: 0.05, 8192: 0.12, 16384: 0.41, 32768: 1.73},
    },
    "q3": {
        "MonetDB": {4096: 0.14, 8192: 23.15, 16384: 88.18, 32768: 354.41},
        "YDB": {4096: 1.00, 8192: 3.60, 16384: 14.57, 32768: 58.55},
        "TCUDB": {4096: 0.04, 8192: 0.09, 16384: 0.32, 32768: 1.37},
    },
    "q4": {
        "MonetDB": {4096: 5.63, 8192: 22.47, 16384: 76.89, 32768: 303.24},
        "YDB": {4096: 1.00, 8192: 3.00, 16384: 13.01, 32768: 52.87},
        "TCUDB": {4096: 0.08, 8192: 0.19, 16384: 0.71, 32768: 2.78},
    },
}

PAPER_FIG8 = {
    "q1": {
        "MonetDB": {32: 4.90, 64: 3.29, 128: 2.42, 256: 1.96, 512: 1.46,
                    1024: 0.71, 2048: 0.50, 4096: 0.41},
        "YDB": {32: 1.00, 64: 0.90, 128: 0.62, 256: 0.61, 512: 0.60,
                1024: 0.54, 2048: 0.53, 4096: 0.53},
        "TCUDB": {32: 0.05, 64: 0.06, 128: 0.08, 256: 0.11, 512: 0.15,
                  1024: 0.21, 2048: 0.34, 4096: 0.60},
    },
    "q3": {
        "MonetDB": {32: 6.07, 64: 3.92, 128: 2.41, 256: 2.06, 512: 1.59,
                    1024: 0.82, 2048: 0.56, 4096: 0.73},
        "YDB": {32: 1.00, 64: 0.66, 128: 0.53, 256: 0.50, 512: 0.46,
                1024: 0.45, 2048: 0.44, 4096: 0.44},
        "TCUDB": {32: 0.04, 64: 0.04, 128: 0.05, 256: 0.08, 512: 0.10,
                  1024: 0.14, 2048: 0.23, 4096: 0.41},
    },
    "q4": {
        "MonetDB": {32: 5.63, 64: 3.50, 128: 2.08, 256: 1.88, 512: 1.07,
                    1024: 0.74, 2048: 0.47, 4096: 0.38},
        "YDB": {32: 1.00, 64: 0.74, 128: 0.60, 256: 0.53, 512: 0.46,
                1024: 0.44, 2048: 0.42, 4096: 0.42},
        "TCUDB": {32: 0.08, 64: 0.08, 128: 0.10, 256: 0.13, 512: 0.16,
                  1024: 0.24, 2048: 0.38, 4096: 0.68},
    },
}

PAPER_FIG14 = {
    "q1": {"YDB": {4096: 1.10, 8192: 1.20, 16384: 1.14, 32768: 2.04},
           "TCUDB": {4096: 1.52, 8192: 1.93, 16384: 1.88, 32768: 1.75}},
    "q3": {"YDB": {4096: 1.08, 8192: 1.12, 16384: 1.05, 32768: 1.68},
           "TCUDB": {4096: 1.43, 8192: 1.90, 16384: 1.87, 32768: 1.75}},
    "q4": {"YDB": {4096: 1.04, 8192: 1.19, 16384: 1.06, 32768: 1.71},
           "TCUDB": {4096: 1.66, 8192: 2.32, 16384: 2.58, 32768: 2.42}},
}


def run_fig3(
    dims: list[int] | None = None,
    *,
    profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """Figure 3: square GEMM on CUDA cores vs TCUs."""
    dims = dims or list(profile.fig3_dims if profile
                        else (1024, 2048, 4096, 8192, 16384))
    device = GPUDevice(RTX_3090)
    result = ExperimentResult(
        "fig3", "Matrix multiplication: CUDA cores vs TCUs (relative time)"
    )
    rng = np.random.default_rng(3)
    for dim in dims:
        cuda_point = result.add(
            str(dim), "CUDA cores",
            device.cuda.matmul_seconds(dim, dim, dim),
            paper_value=PAPER_FIG3["CUDA cores"].get(dim),
        )
        tcu_point = result.add(
            str(dim), "TCUs",
            device.tcu.matmul_seconds(dim, dim, dim),
            paper_value=PAPER_FIG3["TCUs"].get(dim),
        )
        if verifier is not None and verifier.enabled:
            # No SQL behind these points: check the numerics of the unit
            # being timed on a sampled block with the full reduction dim.
            sample = 16
            a = rng.random((sample, dim))
            b = rng.random((dim, sample))
            exact = a @ b
            cuda_err = float(np.max(np.abs(device.cuda.matmul(a, b) - exact)
                                    / np.abs(exact)))
            # CUDA cores compute in fp32 (fp32 accumulate), the TCUs in
            # fp16 with an fp32 accumulator; bound each at its precision.
            verifier.verify_check(
                cuda_point, cuda_err < 1e-4, "numeric",
                f"fp32 matmul rel err {cuda_err:.2e}",
            )
            tcu_err = float(np.max(np.abs(device.tcu.matmul(a, b) - exact)
                                   / np.abs(exact)))
            verifier.verify_check(
                tcu_point, tcu_err < 1e-2, "numeric",
                f"fp16 matmul rel err {tcu_err:.2e}",
            )
        elif verifier is not None:
            # Record why the points are unchecked, like the SQL paths do.
            skip(cuda_point, "unverified (profile)")
            skip(tcu_point, "unverified (profile)")
    result.normalize(str(dims[0]), "CUDA cores")
    return result


def _engines_for(catalog, device=None):
    device = device if device is not None else GPUDevice(RTX_3090)
    mode = ExecutionMode.ANALYTIC
    return {
        "MonetDB": MonetDBEngine(catalog, mode=mode),
        "YDB": YDBEngine(catalog, device=device, mode=mode),
        "TCUDB": TCUDBEngine(catalog, device=device, mode=mode),
    }


def run_fig7(query: str, sizes: list[int] | None = None,
             n_distinct: int | None = None, seed: int = 7, *,
             profile: ScaleProfile | None = None,
             verifier: OracleVerifier | None = None) -> ExperimentResult:
    """Figure 7: Q1/Q3/Q4 vs record count at 32 distinct values."""
    sizes = sizes or list(profile.micro_sizes if profile
                          else (4096, 8192, 16384, 32768))
    if n_distinct is None:
        n_distinct = profile.micro_distinct if profile else 32
    sql = QUERIES[query]
    result = ExperimentResult(
        f"fig7{'abc'[list(QUERIES).index(query)]}",
        f"Microbenchmark {query.upper()} vs #records (K={n_distinct})",
    )
    paper = PAPER_FIG7[query]
    for size in sizes:
        catalog = microbench_catalog(size, n_distinct, seed)
        engines = _engines_for(catalog)
        for name, engine in engines.items():
            run = engine.execute(sql)
            point = result.add(
                f"{size},{n_distinct}", name, run.seconds,
                paper_value=paper[name].get(size),
                breakdown=run.breakdown,
            )
            if name == "TCUDB":
                annotate_tcu_point(point, run)
            if verifier is not None:
                verifier.verify_query(point, name, catalog, sql,
                                      device=engines["YDB"].device)
    result.normalize(f"{sizes[0]},{n_distinct}", "YDB")
    return result


def run_fig8(query: str, distincts: list[int] | None = None,
             n_records: int | None = None, seed: int = 8, *,
             profile: ScaleProfile | None = None,
             verifier: OracleVerifier | None = None) -> ExperimentResult:
    """Figure 8: Q1/Q3/Q4 vs #distinct values at 4096 records."""
    distincts = distincts or list(profile.fig8_distincts if profile
                                  else (32, 64, 128, 256, 512, 1024, 2048,
                                        4096))
    if n_records is None:
        n_records = profile.fig8_records if profile else 4096
    sql = QUERIES[query]
    result = ExperimentResult(
        f"fig8{'abc'[list(QUERIES).index(query)]}",
        f"Microbenchmark {query.upper()} vs #distinct (n={n_records})",
    )
    paper = PAPER_FIG8[query]
    for k in distincts:
        catalog = microbench_catalog(n_records, k, seed)
        engines = _engines_for(catalog)
        # The paper's Figure 8 profiles the dense TCU join operator across
        # densities (the optimizer's sparse/hash switch is what the series
        # motivates); force the dense plan and note what the optimizer
        # would have chosen instead.
        device = engines["YDB"].device
        # fp16 matches the paper's measured operator; the adaptive
        # optimizer would pick int4 for indicator matrices (see the
        # precision ablation).
        forced = TCUDBOptions(force_strategy=Strategy.DENSE,
                              force_precision=Precision.FP16)
        engines["TCUDB"] = TCUDBEngine(
            catalog, device=device, mode=ExecutionMode.ANALYTIC,
            options=forced,
        )
        chooser = TCUDBEngine(catalog, device=device,
                              mode=ExecutionMode.ANALYTIC)
        for name, engine in engines.items():
            run = engine.execute(sql)
            note = ""
            if name == "TCUDB":
                choice = chooser.execute(sql)
                chosen = choice.extra.get("strategy", "")
                if choice.extra.get("fallback_reason"):
                    chosen = "fallback"
                if chosen and chosen != "dense":
                    note = f"optimizer: {chosen}"
            point = result.add(
                f"{n_records},{k}", name, run.seconds,
                paper_value=paper[name].get(k),
                breakdown=run.breakdown, note=note,
            )
            if name == "TCUDB":
                annotate_tcu_point(point, run)
            if verifier is not None:
                verifier.verify_query(
                    point, name, catalog, sql, device=device,
                    options=forced if name == "TCUDB" else None,
                )
    result.normalize(f"{n_records},{distincts[0]}", "YDB")
    return result


def run_fig14(sizes: list[int] | None = None, n_distinct: int | None = None,
              seed: int = 14, *, profile: ScaleProfile | None = None,
              verifier: OracleVerifier | None = None) -> ExperimentResult:
    """Figure 14: RTX 3090 over RTX 2080 speedup per query/engine."""
    sizes = sizes or list(profile.micro_sizes if profile
                          else (4096, 8192, 16384, 32768))
    if n_distinct is None:
        n_distinct = profile.micro_distinct if profile else 32
    result = ExperimentResult(
        "fig14", "Generation-over-generation speedup (RTX 3090 / RTX 2080)",
        unit="ratio",
    )
    for query, sql in QUERIES.items():
        for size in sizes:
            catalog = microbench_catalog(size, n_distinct, seed)
            times: dict[str, dict[str, float]] = {}
            for gpu_name, gpu in (("3090", RTX_3090), ("2080", RTX_2080)):
                device = GPUDevice(gpu)
                engines = _engines_for(catalog, device)
                times[gpu_name] = {}
                for name in ("YDB", "TCUDB"):
                    times[gpu_name][name] = engines[name].execute(sql).seconds
            for name in ("YDB", "TCUDB"):
                speedup = times["2080"][name] / times["3090"][name]
                point = result.add(
                    f"{query.upper()} {size},{n_distinct}", name, speedup,
                    paper_value=PAPER_FIG14[query][name].get(size),
                )
                point.normalized = speedup  # already a ratio
                if verifier is not None:
                    # Results are device-independent; verifying the 3090
                    # replay covers both legs of the ratio.
                    verifier.verify_query(point, name, catalog, sql,
                                          device=GPUDevice(RTX_3090))
    return result
