"""Figure 9: Star Schema Benchmark at scale factors 1-8."""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, annotate_tcu_point
from repro.bench.scale import ScaleProfile
from repro.bench.verify import OracleVerifier
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import ExecutionMode
from repro.engine.monetdb import MonetDBEngine
from repro.engine.tcudb import TCUDBEngine
from repro.engine.ydb import YDBEngine
from repro.hardware.gpu import GPUDevice
from repro.workloads.ssb_queries import (
    FLIGHT_REPRESENTATIVES,
    SSB_QUERIES,
)

# Paper Figure 9: normalized to YDB per query, per scale factor.
PAPER_FIG9 = {
    1: {"Q1.1": (3.42, 1.00, 0.74), "Q2.1": (4.31, 1.00, 0.71),
        "Q3.1": (2.36, 1.00, 0.42), "Q4.1": (2.82, 1.00, 0.27)},
    2: {"Q1.1": (3.32, 1.00, 0.54), "Q2.1": (3.89, 1.00, 1.00),
        "Q3.1": (6.42, 1.00, 1.09), "Q4.1": (2.75, 1.00, 0.30)},
    4: {"Q1.1": (2.58, 1.00, 0.44), "Q2.1": (3.66, 1.00, 0.89),
        "Q3.1": (6.08, 1.00, 1.00), "Q4.1": (2.74, 1.00, 0.28)},
    8: {"Q1.1": (2.53, 1.00, 0.42), "Q2.1": (3.52, 1.00, 0.77),
        "Q3.1": (5.99, 1.00, 0.96), "Q4.1": (2.58, 1.00, 0.25)},
}


def run_fig9(
    scale_factor: int,
    queries: tuple[str, ...] = FLIGHT_REPRESENTATIVES,
    rows_per_sf: int | None = None,
    seed: int = 9,
    *,
    profile: ScaleProfile | None = None,
    verifier: OracleVerifier | None = None,
) -> ExperimentResult:
    """One panel of Figure 9 (one scale factor, the four flight heads).

    Pass ``queries=tuple(SSB_QUERIES)`` to run the full 13-query suite
    (all are supported, per Section 5.3).
    """
    if rows_per_sf is None:
        rows_per_sf = profile.ssb_rows_per_sf if profile else 20_000
    catalog = ssb_catalog(scale_factor=scale_factor, rows_per_sf=rows_per_sf,
                          seed=seed)
    device = GPUDevice()
    engines = {
        "MonetDB": MonetDBEngine(catalog, mode=ExecutionMode.ANALYTIC),
        "YDB": YDBEngine(catalog, device=device, mode=ExecutionMode.ANALYTIC),
        "TCUDB": TCUDBEngine(catalog, device=device,
                             mode=ExecutionMode.ANALYTIC),
    }
    result = ExperimentResult(
        f"fig9_sf{scale_factor}",
        f"SSB at scale factor {scale_factor} (normalized to YDB per query)",
    )
    paper = PAPER_FIG9.get(scale_factor, {})
    for query_id in queries:
        runs = {name: engine.execute(SSB_QUERIES[query_id])
                for name, engine in engines.items()}
        baseline = runs["YDB"].seconds
        refs = paper.get(query_id)
        for i, name in enumerate(("MonetDB", "YDB", "TCUDB")):
            run = runs[name]
            point = result.add(
                query_id, name, run.seconds,
                paper_value=refs[i] if refs else None,
                breakdown=run.breakdown,
            )
            if name == "TCUDB":
                annotate_tcu_point(point, run)
            point.normalized = run.seconds / baseline
            if verifier is not None:
                verifier.verify_query(point, name, catalog,
                                      SSB_QUERIES[query_id], device=device)
    result.notes.append(
        f"rows_per_sf={rows_per_sf} (full dbgen would be 6,000,000; "
        "relative results are row-count invariant in analytic mode)"
    )
    return result
