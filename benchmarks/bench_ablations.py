"""Ablations of TCUDB's design decisions (DESIGN.md section)."""

from repro.bench import (
    run_ablation_density_switch,
    run_ablation_fused_agg,
    run_ablation_precision,
    run_ablation_transform_location,
)
from repro.datasets.microbench import QUERY_Q3, microbench_catalog
from repro.engine.base import ExecutionMode
from repro.engine.tcudb import TCUDBEngine


def test_ablation_fused_agg(print_series, benchmark, bench_profile,
                            verifier):
    result = run_ablation_fused_agg(profile=bench_profile, verifier=verifier)
    print_series(result)
    for config in result.configs():
        assert result.find(config, "join + group-by").normalized > 1.0
    catalog = microbench_catalog(8192, 32, seed=41)
    engine = TCUDBEngine(catalog, mode=ExecutionMode.ANALYTIC)
    benchmark(lambda: engine.execute(QUERY_Q3))


def test_ablation_density_switch(print_series, benchmark, bench_profile,
                                 verifier):
    result = run_ablation_density_switch(profile=bench_profile,
                                         verifier=verifier)
    print_series(result)
    for config in result.configs():
        chosen = result.find(config, "optimizer").seconds
        dense = result.find(config, "forced dense").seconds
        sparse = result.find(config, "forced sparse").seconds
        # Figure 6 switches on a *density threshold*, not on a full cost
        # comparison of both kernels, so mid-density points may leave a
        # little performance on the table; the heuristic must stay within
        # 1.5x of the best variant and be exact at the extremes.
        assert chosen <= min(dense, sparse) * 1.5, config
    extremes = (result.configs()[0], result.configs()[-1])
    for config in extremes:
        chosen = result.find(config, "optimizer").seconds
        dense = result.find(config, "forced dense").seconds
        sparse = result.find(config, "forced sparse").seconds
        assert chosen <= min(dense, sparse) * 1.05, config
    benchmark(lambda: run_ablation_density_switch(distincts=[32]))


def test_ablation_precision(print_series, benchmark, bench_profile,
                            verifier):
    result = run_ablation_precision(profile=bench_profile, verifier=verifier)
    print_series(result)
    for config in result.configs():
        assert (result.find(config, "int4").seconds
                <= result.find(config, "fp16").seconds)
    benchmark(lambda: run_ablation_precision(sizes=[4096]))


def test_ablation_transform_location(print_series, benchmark, bench_profile,
                                     verifier):
    result = run_ablation_transform_location(profile=bench_profile,
                                             verifier=verifier)
    print_series(result)
    for config in result.configs():
        assert (result.find(config, "gpu-allowed").seconds
                <= result.find(config, "cpu-only").seconds)
    benchmark(lambda: run_ablation_transform_location(sizes=[4096]))
