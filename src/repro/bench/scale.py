"""Scale profiles: one knob that sizes every experiment.

The paper's figures sweep configurations that are far too large for a CI
runner (32K-record joins, 32K-node graphs, 32768-dim GEMMs).  A
:class:`ScaleProfile` bundles the per-experiment size parameters so the
whole suite can run at three calibrated scales:

* ``smoke``  — CI-sized inputs (< 2 minutes end-to-end) with *per-point
  oracle verification* enabled: every benchmarked query is replayed in
  REAL mode and compared against :class:`~repro.engine.reference.ReferenceEngine`.
* ``paper``  — the configurations of the published figures.  Verified
  through *sampled streaming replay* (``verify_policy="stream"``): full
  REAL-mode replay would materialize billions of join pairs at these
  sizes, so every SQL point replays on a deterministically chunk-sampled
  catalog through the streaming oracle — engine and oracle see identical
  samples, keeping the check a true differential one.
* ``stress`` — larger-than-paper sweeps for the cost models (analytic
  mode keeps them cheap to *time*); verified the same sampled way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ScaleProfile:
    """Per-experiment size parameters for one benchmark scale."""

    name: str
    description: str
    #: replay every benchmarked query through the Reference oracle
    verify: bool
    #: how SQL points are replayed: "full" replays the exact benchmark
    #: catalogs; "stream" replays through the *streaming* oracle on
    #: deterministically chunk-sampled catalogs when a table exceeds
    #: ``verify_sample_rows`` (both the engine and the oracle see the
    #: same sample, so the comparison stays a true differential check) —
    #: what lets the paper/stress profiles report ``verified`` points
    #: instead of skipping.
    verify_policy: str = "full"
    #: per-table row budget for "stream" replay sampling
    verify_sample_rows: int = 2048
    #: disjoint stride-phased samples per "stream"-verified point; every
    #: stratum must match the oracle, and the worst cross-stratum cell
    #: deviation is recorded per point as a disagreement bound
    verify_strata: int = 1

    # Figure 3: square GEMM dims.
    fig3_dims: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)
    # Figures 7/14: microbenchmark record counts (at micro_distinct keys).
    micro_sizes: tuple[int, ...] = (4096, 8192, 16384, 32768)
    micro_distinct: int = 32
    # Figure 8: distinct-value sweep at micro_records records.
    fig8_distincts: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048,
                                       4096)
    fig8_records: int = 4096
    # Figure 9: SSB scale factors and generator rows per SF.
    ssb_scale_factors: tuple[int, ...] = (1, 2, 4, 8)
    ssb_rows_per_sf: int = 20_000
    # Figure 10: engine-measured dims and cost-model-projected dims.
    fig10_engine_dims: tuple[int, ...] = (256, 512, 1024)
    fig10_projected_dims: tuple[int, ...] = (4096, 8192, 16384, 32768)
    # Table 1: reduction dims and sampled output block edge.
    table1_dims: tuple[int, ...] = (2048, 4096, 8192, 16384, 32768)
    table1_sample: int = 96
    # Figure 11: which EM datasets run.
    em_datasets: tuple[str, ...] = ("beer", "itunes", "itunes_scaled")
    # Figure 12/13: graph node counts.
    fig12_sizes: tuple[int, ...] = (1024, 2048, 3072, 4096, 8192)
    fig13_sizes: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384, 32768)
    # Ablations.
    ablation_sizes: tuple[int, ...] = (4096, 8192, 16384, 32768)
    ablation_distincts: tuple[int, ...] = (32, 256, 1024, 4096, 16384)
    # Fusion ablation: SSB generator rows and host-timing repeats for the
    # fusion=on vs fusion=off series (REAL mode; large enough that the
    # per-aggregate redundancy dominates the fixed query overhead).
    fusion_rows: int = 20_000
    fusion_reps: int = 3
    # Chaos experiment: injected fault rates (probability per shard
    # execution) swept against success rate and availability, SSB
    # generator rows, shard count, queries per point and repeats per
    # query (REAL mode; every point's answer oracle-verified).
    chaos_fault_rates: tuple[float, ...] = (0.0, 0.1, 0.3)
    chaos_rows: int = 12_000
    chaos_shards: int = 2
    chaos_queries: int = 6
    chaos_reps: int = 2

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


#: The published-figure configurations.
PAPER = ScaleProfile(
    name="paper",
    description="the configurations the paper's figures report",
    verify=True,
    verify_policy="stream",
    verify_strata=3,
)

#: CI-sized inputs; every point oracle-verified.
SMOKE = ScaleProfile(
    name="smoke",
    description="CI-sized inputs with per-point oracle verification",
    verify=True,
    fig3_dims=(256, 512),
    micro_sizes=(1024, 2048),
    micro_distinct=16,
    fig8_distincts=(16, 64, 256),
    fig8_records=1024,
    ssb_scale_factors=(1,),
    ssb_rows_per_sf=3_000,
    fig10_engine_dims=(64, 128),
    fig10_projected_dims=(4096, 8192),
    table1_dims=(1024, 2048),
    table1_sample=24,
    em_datasets=("beer",),
    fig12_sizes=(256, 512),
    fig13_sizes=(256, 1024),
    ablation_sizes=(1024, 2048),
    # extremes must sit clearly on either side of the density threshold
    ablation_distincts=(16, 16384),
    fusion_rows=20_000,
    fusion_reps=3,
    chaos_fault_rates=(0.0, 0.2),
    chaos_rows=6_000,
    chaos_shards=2,
    chaos_queries=4,
    chaos_reps=2,
)

#: Beyond-paper sweeps for the cost models (analytic-only).
STRESS = ScaleProfile(
    name="stress",
    description="beyond-paper sweeps exercising the cost models",
    verify=True,
    verify_policy="stream",
    verify_strata=3,
    fig3_dims=(4096, 8192, 16384, 32768),
    micro_sizes=(16384, 32768, 65536, 131072),
    fig8_distincts=(512, 2048, 8192, 32768),
    fig8_records=16384,
    ssb_scale_factors=(1, 4, 8, 16),
    ssb_rows_per_sf=40_000,
    fig10_engine_dims=(512, 1024),
    fig10_projected_dims=(8192, 16384, 32768, 65536),
    table1_dims=(8192, 32768),
    table1_sample=64,
    fig12_sizes=(4096, 8192, 16384),
    fig13_sizes=(8192, 16384, 32768, 65536),
    ablation_sizes=(16384, 65536),
    ablation_distincts=(64, 1024, 32768),
    fusion_rows=60_000,
    fusion_reps=3,
)

PROFILES: dict[str, ScaleProfile] = {
    profile.name: profile for profile in (SMOKE, PAPER, STRESS)
}


def get_profile(name: str) -> ScaleProfile:
    """Look up a profile by (case-insensitive) name."""
    try:
        return PROFILES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from None


__all__ = ["PAPER", "PROFILES", "SMOKE", "STRESS", "ScaleProfile",
           "get_profile"]
