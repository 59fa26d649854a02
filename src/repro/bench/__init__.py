"""Experiment harness: one runner per paper table/figure plus ablations,
scale profiles, per-point oracle verification and machine-readable
reports (see docs/benchmarking.md)."""

from repro.bench.exp_ablations import (
    run_ablation_density_switch,
    run_ablation_fused_agg,
    run_ablation_fusion,
    run_ablation_precision,
    run_ablation_transform_location,
)
from repro.bench.exp_casestudies import (
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_table1,
)
from repro.bench.exp_chaos import run_chaos
from repro.bench.exp_microbench import run_fig3, run_fig7, run_fig8, run_fig14
from repro.bench.exp_ssb import run_fig9
from repro.bench.exp_tables import run_table4, run_tables23
from repro.bench.harness import (
    ExperimentResult,
    SeriesPoint,
    geometric_mean_ratio,
)
from repro.bench.report import BenchReport
from repro.bench.scale import PROFILES, ScaleProfile, get_profile
from repro.bench.verify import OracleVerifier

__all__ = [
    "PROFILES",
    "BenchReport",
    "ExperimentResult",
    "OracleVerifier",
    "ScaleProfile",
    "SeriesPoint",
    "geometric_mean_ratio",
    "get_profile",
    "run_ablation_density_switch",
    "run_ablation_fused_agg",
    "run_ablation_fusion",
    "run_ablation_precision",
    "run_ablation_transform_location",
    "run_chaos",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig3",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table1",
    "run_table4",
    "run_tables23",
]
