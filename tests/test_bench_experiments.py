"""Experiment harness: shapes, crossovers and headline claims.

These integration tests run scaled-down configurations and assert the
qualitative results the paper reports — who wins, where plans switch —
without depending on exact constants.
"""

import pytest

from repro.bench import (
    ExperimentResult,
    OracleVerifier,
    geometric_mean_ratio,
    run_ablation_density_switch,
    run_ablation_fused_agg,
    run_ablation_precision,
    run_ablation_transform_location,
    run_chaos,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_table1,
    run_table4,
    run_tables23,
)


class TestHarness:
    def test_normalization_and_lookup(self):
        result = ExperimentResult("x", "t")
        result.add("a", "E1", 2.0)
        result.add("a", "E2", 1.0)
        result.normalize("a", "E2")
        assert result.find("a", "E1").normalized == 2.0
        with pytest.raises(KeyError):
            result.find("zz", "E1")

    def test_to_text_renders(self):
        result = ExperimentResult("x", "title")
        result.add("c1", "E", 0.001, paper_value=1.0)
        result.normalize("c1", "E")
        text = result.to_text()
        assert "title" in text and "E" in text

    def test_geometric_mean_ratio(self):
        result = ExperimentResult("x", "t")
        p = result.add("a", "E", 2.0, paper_value=1.0)
        p.normalized = 2.0
        assert geometric_mean_ratio(result) == pytest.approx(2.0)


class TestFig3:
    def test_tcu_beats_cuda_at_every_dim(self):
        result = run_fig3(dims=[1024, 4096])
        for dim in ("1024", "4096"):
            cuda = result.find(dim, "CUDA cores").seconds
            tcu = result.find(dim, "TCUs").seconds
            assert tcu < cuda


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7("q1", sizes=[4096, 8192])

    def test_engine_ordering(self, result):
        for config in result.configs():
            tcudb = result.find(config, "TCUDB").normalized
            ydb = result.find(config, "YDB").normalized
            monet = result.find(config, "MonetDB").normalized
            assert tcudb < ydb < monet

    def test_speedup_grows_with_records(self, result):
        small = (result.find("4096,32", "YDB").seconds
                 / result.find("4096,32", "TCUDB").seconds)
        large = (result.find("8192,32", "YDB").seconds
                 / result.find("8192,32", "TCUDB").seconds)
        assert large > small

    def test_within_3x_of_paper(self, result):
        ratio = geometric_mean_ratio(result)
        assert ratio is not None
        assert 1 / 3 < ratio < 3


class TestFig8:
    def test_crossover_at_high_distinct(self):
        result = run_fig8("q1", distincts=[32, 4096])
        low = result.find("4096,32", "TCUDB").normalized
        high = result.find("4096,4096", "TCUDB").normalized
        assert high > 4 * low  # dense-plan cost rises with the domain
        ydb_high = result.find("4096,4096", "YDB").normalized
        assert high > 0.8 * ydb_high  # near/right of the crossover


class TestFig9:
    def test_tcudb_competitive_on_ssb(self):
        result = run_fig9(scale_factor=1, rows_per_sf=30_000)
        for query_id in ("Q1.1", "Q2.1", "Q4.1"):
            assert result.find(query_id, "TCUDB").normalized < 1.0
        for query_id in ("Q1.1", "Q2.1", "Q3.1", "Q4.1"):
            assert result.find(query_id, "MonetDB").normalized > 1.0

    def test_q31_is_tcudbs_worst_flight(self):
        result = run_fig9(scale_factor=1, rows_per_sf=30_000)
        values = {
            q: result.find(q, "TCUDB").normalized
            for q in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")
        }
        assert max(values, key=values.get) == "Q3.1"


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10(engine_dims=[128, 256],
                         projected_dims=[4096, 8192, 16384, 32768])

    def test_tcudb_wins_at_every_dim(self, result):
        for dim in ("4096", "8192", "16384", "32768"):
            assert (result.find(dim, "TCUDB").normalized
                    < result.find(dim, "YDB").normalized)

    def test_blocked_at_32768(self, result):
        assert result.find("32768", "TCUDB").note == "blocked"

    def test_within_3x_of_paper(self, result):
        ratio = geometric_mean_ratio(result)
        assert ratio is not None and 1 / 3 < ratio < 3


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(dims=[2048, 8192], sample=48)

    def test_zero_one_exact(self, result):
        for dim in (2048, 8192):
            assert result.find(f"0/1 dim={dim}", "TCUDB fp16").seconds == 0.0

    def test_error_grows_with_range(self, result):
        small = result.find("+-2^7 dim=8192", "TCUDB fp16").seconds
        large = result.find("+-2^15 dim=8192", "TCUDB fp16").seconds
        assert small <= large
        assert large < 0.1  # paper: below 0.01%; ours stays below 0.1%

    def test_2pow31_not_catastrophic(self, result):
        value = result.find("+-2^31 dim=2048", "TCUDB fp16").seconds
        assert value < 0.1


class TestFig11:
    def test_tcudb_wins_all_beer_attributes(self):
        result = run_fig11("beer")
        for attribute in ("abv", "style", "factory", "beer_name"):
            assert result.find(attribute, "TCUDB").normalized < 1.0

    def test_biggest_win_on_lowest_cardinality(self):
        result = run_fig11("beer")
        speedups = {
            a: 1.0 / result.find(a, "TCUDB").normalized
            for a in ("abv", "style", "factory", "beer_name")
        }
        # Low-cardinality attributes (abv: 20, style: 71 distinct) see the
        # largest blocking speedups; high-cardinality ones the smallest.
        assert speedups["abv"] > speedups["factory"]
        assert speedups["abv"] > speedups["beer_name"]
        assert speedups["style"] > speedups["beer_name"]

    def test_high_cardinality_uses_spmm_on_scaled_itunes(self):
        result = run_fig11("itunes_scaled")
        notes = {p.config: p.note for p in result.points
                 if p.engine == "TCUDB"}
        assert notes["album"] in ("sparse", "fallback")
        assert result.find("price", "TCUDB").normalized < 0.15


class TestFig12And13:
    def test_fig12_dense_to_sparse_switch(self):
        result = run_fig12("q1", sizes=[1024, 8192])
        small_note = result.find("1024", "TCUDB").note
        large_note = result.find("8192", "TCUDB").note
        assert small_note == "dense"
        assert large_note == "sparse"

    def test_fig12_tcudb_wins(self):
        result = run_fig12("q1", sizes=[1024, 4096])
        for config in ("1024", "4096"):
            assert (result.find(config, "TCUDB").seconds
                    < result.find(config, "YDB").seconds)

    def test_fig13_orderings(self):
        result = run_fig13(sizes=[1024, 4096, 16384])
        # TCUDB fastest, MAGiQ between TCUDB and MonetDB (paper Fig. 13);
        # our model preserves this for the small/mid sizes and keeps
        # TCUDB below MonetDB everywhere.
        for size in ("1024", "4096"):
            tcudb = result.find(size, "TCUDB").normalized
            magiq = result.find(size, "MAGiQ").normalized
            monet = result.find(size, "MonetDB").normalized
            assert tcudb < magiq < monet
        assert (result.find("16384", "TCUDB").normalized
                < result.find("16384", "MonetDB").normalized)
        # YDB absent beyond its 8K cap.
        with pytest.raises(KeyError):
            result.find("16384", "YDB")


class TestFig14:
    def test_tcudb_scales_better_across_generations(self):
        result = run_fig14(sizes=[16384, 32768])
        for query in ("Q1", "Q3", "Q4"):
            for size in (16384, 32768):
                config = f"{query} {size},32"
                assert result.find(config, "TCUDB").seconds > 1.0
                assert result.find(config, "YDB").seconds > 1.0
        # The paper's headline claim holds for Q1 (whose runtime is
        # dominated by device-side compaction/GEMM): TCU-heavy execution
        # gains more from the new generation than vector-heavy execution.
        # Q3/Q4 diverge in our model because the compact grouped
        # construction keeps their device-side work tiny (docs/benchmarking.md
        # § Known divergences).
        for size in (16384, 32768):
            config = f"Q1 {size},32"
            assert (result.find(config, "TCUDB").seconds
                    > result.find(config, "YDB").seconds)


class TestShapeTables:
    def test_tables23_distincts_exact(self):
        result = run_tables23()
        for point in result.points:
            assert point.seconds == point.paper_value

    def test_table4_edges_close(self):
        result = run_table4(sizes=[1024, 4096])
        for point in result.points:
            assert point.seconds == pytest.approx(point.paper_value, rel=0.4)


class TestAblations:
    def test_fused_agg_wins(self):
        result = run_ablation_fused_agg(sizes=[4096])
        assert result.find("4096,32", "join + group-by").normalized > 1.0

    def test_density_switch_tracks_best(self):
        result = run_ablation_density_switch(distincts=[32, 16384])
        for config in ("4096,32", "4096,16384"):
            chosen = result.find(config, "optimizer").seconds
            dense = result.find(config, "forced dense").seconds
            sparse = result.find(config, "forced sparse").seconds
            assert chosen <= min(dense, sparse) * 1.05

    def test_compact_precision_cheaper(self):
        result = run_ablation_precision(sizes=[16384])
        int4 = result.find("16384,256", "int4").seconds
        fp16 = result.find("16384,256", "fp16").seconds
        assert int4 < fp16

    def test_transform_location_matters(self):
        result = run_ablation_transform_location(sizes=[32768])
        auto = result.find("32768,32", "gpu-allowed").seconds
        cpu = result.find("32768,32", "cpu-only").seconds
        assert auto <= cpu


class TestChaos:
    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos(rows=1000, verifier=OracleVerifier(enabled=True))

    def test_every_rate_recovers_exactly(self, result):
        for rate in (0.0, 0.1, 0.3):
            for series in ("success-rate", "availability"):
                point = result.find(f"fault_rate={rate}", series)
                assert point.seconds == 1.0
                assert point.verified is True

    def test_points_are_deterministic_only(self, result):
        # Host latency is a note, never a gated point.
        assert result.engines() == ["success-rate", "availability"]
        for rate in (0.0, 0.1, 0.3):
            assert any(note.startswith(f"fault_rate={rate}:")
                       and "host p99" in note for note in result.notes)

