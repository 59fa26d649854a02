"""Case-study experiments: Figures 10-13 and Table 1."""

from __future__ import annotations

import numpy as np

from repro.bench.harness import (
    ExperimentResult,
    annotate_tcu_point,
    timed_execute,
)
from repro.bench.scale import ScaleProfile
from repro.bench.verify import OracleVerifier
from repro.datasets.em import beer_catalog, itunes_catalog
from repro.datasets.graphs import graph_catalog, reduced_road_graph
from repro.datasets.matmul import MATMUL_QUERY, matmul_catalog
from repro.engine.base import ExecutionMode
from repro.engine.magiq import MAGiQEngine
from repro.engine.monetdb import MonetDBEngine
from repro.engine.tcudb import TCUDBEngine
from repro.engine.tcudb.cost import OperatorGeometry
from repro.engine.tcudb.feasibility import run_feasibility_test
from repro.engine.tcudb.optimizer import TCUOptimizer
from repro.engine.ydb import YDBEngine
from repro.hardware.calibration import run_calibration
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import I7_7700K
from repro.storage.table import Table
from repro.tensor.precision import ValueRange
from repro.workloads.em_blocking import (
    BEER_ATTRIBUTES,
    ITUNES_ATTRIBUTES,
    beer_blocking_query,
    itunes_blocking_query,
)
from repro.workloads.matmul_query import mape
from repro.workloads.pagerank import PR_Q1, PR_Q2, PR_Q3

# -- Figure 10: the matmul query ------------------------------------------- #

PAPER_FIG10 = {
    "YDB": {4096: 1.00, 8192: 3.97, 16384: 10.73, 32768: 66.32},
    "TCUDB": {4096: 0.13, 8192: 0.53, 16384: 2.02, 32768: 8.37},
}


def project_matmul_ydb(device: GPUDevice, dim: int) -> float:
    """Cost-model projection of YDB on Figure 5's query at paper scale.

    Mirrors the executor's charges: column loads, the fused
    probe-accumulate join (dim**3 pairs) and the group-by over the
    dim**2 result grid.
    """
    records = dim * dim
    pairs = records * dim
    seconds = device.h2d_seconds(2 * records * 3 * 8.0)
    seconds += device.cuda.accumulate_join_seconds(2 * records, pairs)
    seconds += device.cuda.groupby_seconds(records, records)
    seconds += device.d2h_seconds(records * 3 * 8.0, overlap=True)
    return seconds


def project_matmul_tcudb(device: GPUDevice, dim: int) -> float:
    """Optimizer-driven projection of TCUDB on the same configuration."""
    records = dim * dim
    geometry = OperatorGeometry(
        g1=dim, g2=dim, k=dim,
        nnz_left=records, nnz_right=records,
        n_tuples=2 * records,
        raw_bytes=2 * records * 3 * 8.0,
        result_rows=records,
        n_matmuls=2,
        needs_nonzero=True,
        fill_scale=4.0,
    )
    host = I7_7700K
    optimizer = TCUOptimizer(device, host, run_calibration(device, host))
    feasibility = run_feasibility_test(
        ValueRange(0.0, 1.0), ValueRange(0.0, 1.0), dim
    )
    decision = optimizer.decide(geometry, feasibility, pairs=records * dim,
                                grouped=True)
    assert decision.plan is not None
    return decision.plan.total


def run_fig10(
    engine_dims: list[int] | None = None,
    projected_dims: list[int] | None = None,
    seed: int = 10,
    *,
    profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """Figure 10: matmul query, engine-measured small dims plus
    cost-model projections at the paper's dims (4096**2..32768**2 records
    cannot be materialized in a Python process; docs/benchmarking.md §
    Known divergences documents the projection methodology and its
    validation at overlapping dims)."""
    engine_dims = engine_dims or list(
        profile.fig10_engine_dims if profile else (256, 512, 1024))
    projected_dims = projected_dims or list(
        profile.fig10_projected_dims if profile else (4096, 8192, 16384,
                                                      32768))
    device = GPUDevice()
    result = ExperimentResult(
        "fig10", "Matrix-multiplication query (normalized to YDB @ 4096)"
    )
    measured: dict[str, dict[int, float]] = {"YDB": {}, "TCUDB": {}}
    for dim in engine_dims:
        catalog = matmul_catalog(dim, seed)
        engines = {
            "YDB": YDBEngine(catalog, device=device,
                             mode=ExecutionMode.ANALYTIC),
            "TCUDB": TCUDBEngine(catalog, device=device,
                                 mode=ExecutionMode.ANALYTIC),
        }
        for name, engine in engines.items():
            run, host_seconds = timed_execute(engine, MATMUL_QUERY)
            measured[name][dim] = run.seconds
            point = result.add(f"{dim} (engine)", name, run.seconds)
            point.host_seconds = host_seconds
            if name == "TCUDB":
                annotate_tcu_point(point, run)
            if verifier is not None:
                verifier.verify_query(point, name, catalog, MATMUL_QUERY,
                                      device=device)
    # The projections reuse the executor's own cost charges; validate them
    # against the engine-measured runs at the largest overlapping dim.
    probe_dim = engine_dims[-1]
    projectors = {"YDB": project_matmul_ydb, "TCUDB": project_matmul_tcudb}
    model_ok: dict[str, tuple[bool, str]] = {}
    for name, projector in projectors.items():
        projected = projector(device, probe_dim)
        ratio = projected / measured[name][probe_dim]
        model_ok[name] = (
            1 / 3 < ratio < 3,
            f"model/engine = {ratio:.2f} @ dim {probe_dim}",
        )
    for dim in projected_dims:
        ydb_point = result.add(
            str(dim), "YDB", project_matmul_ydb(device, dim),
            paper_value=PAPER_FIG10["YDB"].get(dim))
        tcu_point = result.add(
            str(dim), "TCUDB", project_matmul_tcudb(device, dim),
            paper_value=PAPER_FIG10["TCUDB"].get(dim),
            note="blocked" if dim >= 32768 else "")
        if verifier is not None:
            for point, name in ((ydb_point, "YDB"), (tcu_point, "TCUDB")):
                ok, note = model_ok[name]
                verifier.verify_check(point, ok, "model", note)
    result.normalize(str(projected_dims[0]), "YDB")
    result.notes.append(
        "engine rows are measured end-to-end on materialized tables; "
        "paper-dim rows are cost-model projections (validated against "
        "engine runs at the overlapping small dims)"
    )
    return result


# -- Table 1: precision ------------------------------------------------------ #

PAPER_TABLE1 = {
    "0/1": {2048: 0.0, 4096: 0.0, 8192: 0.0, 16384: 0.0, 32768: 0.0},
    "+-2^7": {2048: 0.0, 4096: 0.0, 8192: 0.00076, 16384: 0.00076,
              32768: 0.00076},
    "+-2^15": {2048: 0.00114, 4096: 0.00450, 8192: 0.00908, 16384: 0.00908,
               32768: 0.00908},
    "+-2^31": {2048: 0.00122, 4096: 0.00451, 8192: 0.00909, 16384: 0.00909,
               32768: 0.00909},
}

TABLE1_RANGES = {
    "0/1": (0, 2),
    "+-2^7": (-(2**7), 2**7),
    "+-2^15": (-(2**15), 2**15),
    "+-2^31": (-(2**31), 2**31),
}


def run_table1(
    dims: list[int] | None = None,
    sample: int | None = None,
    seed: int = 1,
    *,
    profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """Table 1: MAPE of fp16 TCU matmul vs float64 over value ranges.

    The error depends on the reduction length (the full dim is used); the
    output is sampled over ``sample x sample`` cells to bound runtime.
    """
    dims = dims or list(profile.table1_dims if profile
                        else (2048, 4096, 8192, 16384, 32768))
    if sample is None:
        sample = profile.table1_sample if profile else 128
    device = GPUDevice()
    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        "table1", "MAPE (%) of fp16 matmul queries by value range",
        unit="percent",
    )
    for label, (lo, hi) in TABLE1_RANGES.items():
        for dim in dims:
            a = rng.integers(lo, hi, size=(sample, dim)).astype(np.float64)
            b = rng.integers(lo, hi, size=(dim, sample)).astype(np.float64)
            product = device.tcu.matmul(a, b)
            error = mape(product, a @ b) * 100.0
            point = result.add(
                f"{label} dim={dim}", "TCUDB fp16", error,
                paper_value=PAPER_TABLE1[label].get(dim),
            )
            point.normalized = error  # already a percentage
            if verifier is not None:
                # The point *is* an accuracy measurement; check the
                # paper's invariants: 0/1 indicators are exact, every
                # other range stays well under 0.1% MAPE.
                if label == "0/1":
                    ok = error == 0.0
                    note = f"indicator MAPE {error:.2e}% (must be 0)"
                else:
                    ok = np.isfinite(error) and 0.0 <= error < 0.1
                    note = f"MAPE {error:.4f}% (bound 0.1%)"
                verifier.verify_check(point, bool(ok), "numeric", note)
    result.notes.append(
        f"errors measured on a {sample}x{sample} sampled output block with "
        "the full reduction length; values are percentages"
    )
    return result


# -- Figure 11: entity-matching blocking -------------------------------------- #

PAPER_FIG11 = {
    "beer": {"abv": (3.06, 1.00, 0.03), "style": (2.37, 1.00, 0.40),
             "factory": (3.08, 1.00, 0.60), "beer_name": (2.49, 1.00, 0.75)},
    "itunes": {"price": (2.81, 1.00, 0.003), "genre": (7.71, 1.00, 0.26),
               "time": (2.34, 1.00, 0.06), "artist": (3.46, 1.00, 0.08),
               "copyright": (1.16, 1.00, 0.30), "album": (1.49, 1.00, 0.42)},
    "itunes_scaled": {"price": (2.46, 1.00, 0.005), "genre": (1.67, 1.00, 0.14),
                      "time": (2.20, 1.00, 0.096), "artist": (1.33, 1.00, 0.13),
                      "copyright": (1.09, 1.00, 0.13),
                      "album": (1.72, 1.00, 0.15)},
}


def run_fig11(dataset: str, seed: int = 11, *,
              profile: ScaleProfile | None = None,
              verifier: OracleVerifier | None = None) -> ExperimentResult:
    """Figure 11: EM blocking queries per attribute, normalized to YDB."""
    if dataset == "beer":
        catalog = beer_catalog(seed)
        attributes = BEER_ATTRIBUTES
        query_for = beer_blocking_query
    elif dataset in ("itunes", "itunes_scaled"):
        catalog = itunes_catalog(seed, scaled=dataset == "itunes_scaled")
        attributes = ITUNES_ATTRIBUTES
        query_for = itunes_blocking_query
    else:
        raise KeyError(f"unknown EM dataset {dataset!r}")
    device = GPUDevice()
    engines = {
        "MonetDB": MonetDBEngine(catalog, mode=ExecutionMode.ANALYTIC),
        "YDB": YDBEngine(catalog, device=device, mode=ExecutionMode.ANALYTIC),
        "TCUDB": TCUDBEngine(catalog, device=device,
                             mode=ExecutionMode.ANALYTIC),
    }
    result = ExperimentResult(
        f"fig11_{dataset}",
        f"EM blocking on {dataset} (normalized to YDB per attribute)",
    )
    paper = PAPER_FIG11[dataset]
    for attribute in attributes:
        sql = query_for(attribute)
        runs = {}
        host_seconds = {}
        for name, engine in engines.items():
            runs[name], host_seconds[name] = timed_execute(engine, sql)
        baseline = runs["YDB"].seconds
        refs = paper.get(attribute)
        for i, name in enumerate(("MonetDB", "YDB", "TCUDB")):
            run = runs[name]
            note = ""
            if name == "TCUDB":
                note = run.extra.get("strategy", "")
                if run.extra.get("fallback_reason"):
                    note = "fallback"
            point = result.add(
                attribute, name, run.seconds,
                paper_value=refs[i] if refs else None,
                breakdown=run.breakdown, note=note,
            )
            point.host_seconds = host_seconds[name]
            if name == "TCUDB":
                annotate_tcu_point(point, run)
            point.normalized = run.seconds / baseline
            if verifier is not None:
                verifier.verify_query(point, name, catalog, sql,
                                      device=device)
    return result


# -- Figures 12 & 13: PageRank ------------------------------------------------- #

PAPER_FIG12 = {
    "q1": {"YDB": {1024: 1.00, 2048: 1.34, 3072: 1.98, 4096: 3.23, 8192: 5.26},
           "TCUDB": {1024: 0.23, 2048: 0.41, 3072: 0.44, 4096: 0.48,
                     8192: 0.68}},
    "q2": {"YDB": {1024: 1.00, 2048: 1.34, 3072: 1.74, 4096: 2.12, 8192: 4.17},
           "TCUDB": {1024: 0.24, 2048: 0.48, 3072: 1.25, 4096: 1.36,
                     8192: 1.96}},
    "q3": {"YDB": {1024: 1.00, 2048: 1.44, 3072: 1.95, 4096: 2.41, 8192: 4.70},
           "TCUDB": {1024: 0.24, 2048: 0.53, 3072: 0.85, 4096: 0.94,
                     8192: 1.45}},
}

PAPER_FIG13 = {
    "MonetDB": {1024: 1.00, 2048: 1.10, 4096: 1.39, 8192: 3.24, 16384: 3.41,
                32768: 6.60},
    "YDB": {1024: 0.49, 2048: 0.71, 4096: 1.18, 8192: 2.31},
    "MAGiQ": {1024: 0.25, 2048: 0.38, 4096: 0.69, 8192: 1.15, 16384: 2.21,
              32768: 4.33},
    "TCUDB": {1024: 0.12, 2048: 0.26, 4096: 0.46, 8192: 0.71, 16384: 1.47,
              32768: 1.58},
}

PR_QUERIES = {"q1": PR_Q1, "q2": PR_Q2, "q3": PR_Q3}


def _pagerank_catalog(n_nodes: int, seed: int):
    """Graph catalog with OUTDEGREE and PAGERANK side tables prebuilt."""
    graph = reduced_road_graph(n_nodes, seed)
    catalog = graph_catalog(graph)
    degrees = np.bincount(graph.src, minlength=graph.n_nodes)
    with_edges = np.nonzero(degrees)[0]
    catalog.register(Table.from_dict("outdegree", {
        "id": with_edges,
        "degree": degrees[with_edges].astype(float),
    }))
    catalog.register(Table.from_dict("pagerank", {
        "id": with_edges,
        "rank": np.full(with_edges.size, 1.0 / max(graph.n_nodes, 1)),
    }))
    return graph, catalog


def run_fig12(query: str, sizes: list[int] | None = None,
              seed: int = 12, *, profile: ScaleProfile | None = None,
              verifier: OracleVerifier | None = None) -> ExperimentResult:
    """Figure 12: PR Q1/Q2/Q3 on YDB vs TCUDB across graph sizes."""
    sizes = sizes or list(profile.fig12_sizes if profile
                          else (1024, 2048, 3072, 4096, 8192))
    sql = PR_QUERIES[query]
    result = ExperimentResult(
        f"fig12{'abc'[list(PR_QUERIES).index(query)]}",
        f"PageRank {query.upper()} (normalized to YDB @ 1K)",
    )
    paper = PAPER_FIG12[query]
    for size in sizes:
        graph, catalog = _pagerank_catalog(size, seed)
        device = GPUDevice()
        params = {"alpha": 0.85, "num_node": graph.n_nodes}
        engines = {
            "YDB": YDBEngine(catalog, device=device),
            "TCUDB": TCUDBEngine(catalog, device=device),
        }
        for name, engine in engines.items():
            run, host_seconds = timed_execute(engine, sql, params=params)
            note = ""
            if name == "TCUDB":
                note = run.extra.get("strategy", "")
                if run.extra.get("fallback_reason"):
                    note = "fallback"
            point = result.add(f"{size}", name, run.seconds,
                               paper_value=paper[name].get(size),
                               breakdown=run.breakdown, note=note)
            point.host_seconds = host_seconds
            if name == "TCUDB":
                annotate_tcu_point(point, run)
            if verifier is not None:
                verifier.verify_query(point, name, catalog, sql,
                                      params=params, device=device)
    result.normalize(str(sizes[0]), "YDB")
    return result


def _core_seconds(run, engine_name: str) -> float:
    """The 'core join and aggregation' latency Figure 13 reports."""
    stages = run.breakdown.stages
    if engine_name == "MonetDB":
        return stages.get("cpu_processing", run.seconds)
    if engine_name == "YDB":
        return sum(
            seconds for stage, seconds in stages.items()
            if stage in ("join", "groupby_aggregation", "aggregation")
        )
    # TCUDB: matrix fill + the fused TCU operator.
    return sum(
        seconds for stage, seconds in stages.items()
        if stage.startswith("tcu_") or stage == "fill_matrices"
    )


def _magiq_core_check(magiq: MAGiQEngine, graph) -> tuple[bool, str]:
    """Verify one PR Q3 core step of the GraphBLAS program against an
    independent NumPy computation of the same update."""
    n = graph.n_nodes
    degrees = np.bincount(graph.src, minlength=n).astype(float)
    ranks = np.full(n, 1.0 / n)
    contribution = magiq.grb.ewise_div(ranks, degrees).value
    spread = magiq.grb.vxm(contribution, magiq.adjacency).value
    updated = magiq.grb.apply_scalar(spread, 0.85, 0.15 / n).value
    safe = np.where(degrees > 0, ranks / np.maximum(degrees, 1.0), 0.0)
    expected = np.zeros(n)
    np.add.at(expected, graph.dst, safe[graph.src])
    expected = 0.85 * expected + 0.15 / n
    error = float(np.max(np.abs(updated - expected)))
    return error < 1e-9, f"graphblas vs numpy max abs err {error:.2e}"


def run_fig13(sizes: list[int] | None = None, seed: int = 13,
              ydb_max_nodes: int = 8192, *,
              profile: ScaleProfile | None = None,
              verifier: OracleVerifier | None = None) -> ExperimentResult:
    """Figure 13: PR Q3 core latency on MonetDB/YDB/MAGiQ/TCUDB."""
    sizes = sizes or list(profile.fig13_sizes if profile
                          else (1024, 2048, 4096, 8192, 16384, 32768))
    result = ExperimentResult(
        "fig13", "PageRank Q3 core join+aggregation (normalized to "
                 "MonetDB @ 1K)",
    )
    for size in sizes:
        graph, catalog = _pagerank_catalog(size, seed)
        device = GPUDevice()
        params = {"alpha": 0.85, "num_node": graph.n_nodes}
        monet = MonetDBEngine(catalog, mode=ExecutionMode.ANALYTIC)
        run, host_seconds = timed_execute(monet, PR_Q3, params=params)
        point = result.add(str(size), "MonetDB",
                           _core_seconds(run, "MonetDB"),
                           paper_value=PAPER_FIG13["MonetDB"].get(size))
        point.host_seconds = host_seconds
        if verifier is not None:
            verifier.verify_query(point, "MonetDB", catalog, PR_Q3,
                                  params=params)
        if size <= ydb_max_nodes:
            # The released YDB only supports graphs up to 8,192 nodes
            # (Section 5.5); we reproduce the cap.
            ydb = YDBEngine(catalog, device=device,
                            mode=ExecutionMode.ANALYTIC)
            run, host_seconds = timed_execute(ydb, PR_Q3, params=params)
            point = result.add(str(size), "YDB", _core_seconds(run, "YDB"),
                               paper_value=PAPER_FIG13["YDB"].get(size))
            point.host_seconds = host_seconds
            if verifier is not None:
                verifier.verify_query(point, "YDB", catalog, PR_Q3,
                                      params=params, device=device)
        magiq = MAGiQEngine(device)
        magiq.load_graph(graph.src, graph.dst, graph.n_nodes)
        point = result.add(str(size), "MAGiQ", magiq.pr_q3_core_seconds(),
                           paper_value=PAPER_FIG13["MAGiQ"].get(size))
        if verifier is not None:
            # MAGiQ executes GraphBLAS, not SQL; verify its core update
            # numerically against an independent NumPy computation.
            ok, note = _magiq_core_check(magiq, graph)
            verifier.verify_check(point, ok, "numeric", note)
        tcu = TCUDBEngine(catalog, device=device, mode=ExecutionMode.ANALYTIC)
        run, host_seconds = timed_execute(tcu, PR_Q3, params=params)
        point = result.add(str(size), "TCUDB", _core_seconds(run, "TCUDB"),
                           paper_value=PAPER_FIG13["TCUDB"].get(size),
                           note=run.extra.get("strategy", ""))
        point.host_seconds = host_seconds
        annotate_tcu_point(point, run)
        if verifier is not None:
            verifier.verify_query(point, "TCUDB", catalog, PR_Q3,
                                  params=params, device=device)
    result.normalize(str(sizes[0]), "MonetDB")
    result.notes.append("YDB capped at 8,192 nodes as in the paper")
    return result
