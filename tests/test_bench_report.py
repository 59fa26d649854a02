"""The oracle-verified benchmark subsystem: profiles, report
serialization, the regression gate and per-point verification."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentResult, SeriesPoint
from repro.bench.regress import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SLOWDOWN,
    EXIT_STALE_BASELINE,
    compare_reports,
)
from repro.bench.report import SCHEMA_VERSION, BenchReport, report_date
from repro.bench.scale import PROFILES, get_profile
from repro.bench.verify import OracleVerifier, rows_match
from repro.engine import create_engine
from repro.workloads.ssb_queries import SSB_QUERIES

ROOT = Path(__file__).resolve().parent.parent


def _toy_experiment(experiment_id="exp1", seconds=(1.0, 2.0),
                    verified=True, unit="seconds") -> ExperimentResult:
    result = ExperimentResult(experiment_id, f"title of {experiment_id}",
                              unit=unit)
    for index, value in enumerate(seconds):
        point = result.add(f"c{index}", "TCUDB", value, paper_value=1.0,
                           note="n")
        point.normalized = value
        point.verified = verified
        point.verify_kind = "oracle"
    result.notes.append("a note")
    return result


def _toy_report(**kwargs) -> BenchReport:
    return BenchReport(profile="smoke",
                       experiments=[_toy_experiment()], **kwargs)


class TestScaleProfiles:
    def test_registry(self):
        assert set(PROFILES) == {"smoke", "paper", "stress"}
        assert get_profile("SMOKE").name == "smoke"
        with pytest.raises(KeyError):
            get_profile("nope")

    def test_smoke_is_strictly_smaller_than_paper(self):
        smoke, paper = get_profile("smoke"), get_profile("paper")
        assert max(smoke.micro_sizes) < max(paper.micro_sizes)
        assert smoke.ssb_rows_per_sf < paper.ssb_rows_per_sf
        assert max(smoke.fig13_sizes) < max(paper.fig13_sizes)
        # Both profiles verify since the chunked-storage refactor; smoke
        # replays the exact catalogs, paper replays sampled + streaming.
        assert smoke.verify and smoke.verify_policy == "full"
        assert paper.verify and paper.verify_policy == "stream"

    def test_profile_to_dict_roundtrips_json(self):
        data = get_profile("smoke").to_dict()
        assert json.loads(json.dumps(data)) == data


class TestBenchReportSerialization:
    def test_round_trip(self, tmp_path):
        report = _toy_report(wall_seconds=1.5)
        path = tmp_path / "bench.json"
        report.write(str(path))
        loaded = BenchReport.load(str(path))
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.profile == report.profile
        assert loaded.wall_seconds == 1.5
        assert loaded.generated_at == report.generated_at
        assert loaded.environment == report.environment
        # the full dict (points, notes, verification, fidelity) survives
        assert loaded.to_dict() == report.to_dict()

    def test_point_fields_preserved(self):
        report = _toy_report()
        point = BenchReport.from_dict(
            report.to_dict()).experiments[0].points[0]
        assert isinstance(point, SeriesPoint)
        assert point.verified is True
        assert point.verify_kind == "oracle"
        assert point.paper_value == 1.0
        assert point.note == "n"

    def test_unknown_experiment_keys_are_ignored(self):
        # Committed baselines may carry keys of retired fields; they
        # load, still gate, and the key is not re-emitted.
        data = _toy_report().to_dict()
        data["experiments"][0]["retired_flag"] = True
        loaded = BenchReport.from_dict(data)
        assert "retired_flag" not in loaded.experiments[0].to_dict()
        assert compare_reports(loaded, _toy_report()).verdict == "pass"

    def test_committed_baseline_loads_and_gates(self):
        # The newest committed baseline predates the removal of the
        # per-point host timing: its retired keys load, are not
        # re-emitted, and the baseline still gates against itself.
        path = sorted(ROOT.glob("BENCH_smoke_*.json"))[-1]
        baseline = BenchReport.from_dict(json.loads(path.read_text()))
        fields = {f.name for f in dataclasses.fields(SeriesPoint)}
        for experiment in baseline.experiments:
            for point in experiment.points:
                assert set(point.to_dict()) == fields
        verdict = compare_reports(baseline, baseline)
        assert verdict.verdict == "pass"
        assert verdict.geomean_ratio == 1.0

    def test_newer_schema_rejected(self):
        data = _toy_report().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            BenchReport.from_dict(data)

    def test_summary_counts_and_fidelity(self):
        report = _toy_report()
        summary = report.summary()
        assert summary["points"] == 2
        assert summary["verified"] == 2
        assert summary["mismatched"] == 0
        # normalized/paper ratios are 1.0 and 2.0 -> geomean sqrt(2)
        assert summary["fidelity_geomean"] == pytest.approx(2 ** 0.5)

    def test_default_filename_embeds_profile_and_date(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        report = BenchReport(profile="smoke")
        assert report.default_filename() == "BENCH_smoke_1970-01-01.json"

    def test_report_date_honors_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
        assert report_date() == "2000-01-01"
        monkeypatch.delenv("SOURCE_DATE_EPOCH")
        assert report_date() >= "2025-01-01"


class TestRegressionGate:
    def test_identical_reports_pass(self):
        verdict = compare_reports(_toy_report(), _toy_report())
        assert verdict.verdict == "pass"
        assert verdict.exit_status == EXIT_OK
        assert verdict.geomean_ratio == pytest.approx(1.0)

    def test_twenty_percent_slowdown_fails(self):
        baseline = _toy_report()
        current = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment(seconds=(1.2, 2.4))],
        )
        verdict = compare_reports(current, baseline, max_slowdown=0.10)
        assert verdict.verdict == "slowdown"
        assert verdict.exit_status == EXIT_SLOWDOWN
        assert verdict.geomean_ratio == pytest.approx(1.2)
        assert "SLOWDOWN" in verdict.render()

    def test_slowdown_within_tolerance_passes(self):
        baseline = _toy_report()
        current = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment(seconds=(1.05, 2.1))],
        )
        assert compare_reports(current, baseline,
                               max_slowdown=0.10).verdict == "pass"

    def test_oracle_mismatch_fails_even_when_fast(self):
        baseline = _toy_report()
        current = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment(seconds=(0.5, 1.0),
                                         verified=False)],
        )
        verdict = compare_reports(current, baseline)
        assert verdict.verdict == "mismatch"
        assert verdict.exit_status == EXIT_MISMATCH
        assert verdict.mismatches

    def test_non_time_units_excluded_from_geomean(self):
        baseline = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment("mape", unit="percent")],
        )
        current = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment("mape", seconds=(10.0, 20.0),
                                         unit="percent")],
        )
        verdict = compare_reports(current, baseline, max_slowdown=0.10)
        # a 10x MAPE change is not a slowdown, but it is reported
        assert verdict.verdict == "pass"
        assert verdict.geomean_ratio is None
        assert any("mape" in w for w in verdict.warnings)

    def test_missing_overlap_fails_closed(self):
        # A baseline that gates nothing must not report "pass": a profile
        # resize or experiment rename would otherwise disable the gate.
        current = BenchReport(profile="smoke",
                              experiments=[_toy_experiment("a")])
        baseline = BenchReport(profile="smoke",
                               experiments=[_toy_experiment("b")])
        verdict = compare_reports(current, baseline)
        assert verdict.verdict == "stale-baseline"
        assert verdict.exit_status == EXIT_STALE_BASELINE
        assert any("no points matched" in w for w in verdict.warnings)
        assert any("stale baseline" in w for w in verdict.warnings)

    def test_zero_second_point_excluded_not_treated_as_speedup(self):
        baseline = _toy_report()
        # one point breaks to 0.0s while the other regresses 20%: the
        # zero must not drag the geomean below the gate threshold
        current = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment(seconds=(0.0, 2.4))],
        )
        verdict = compare_reports(current, baseline, max_slowdown=0.10)
        assert verdict.verdict == "slowdown"
        assert verdict.geomean_ratio == pytest.approx(1.2)
        assert any("non-positive current seconds" in w
                   for w in verdict.warnings)

    def test_schema_version_skew_refused_as_stale(self):
        current, baseline = _toy_report(), _toy_report()
        baseline.schema_version = 0
        verdict = compare_reports(current, baseline)
        assert verdict.verdict == "stale-baseline"
        assert verdict.exit_status == EXIT_STALE_BASELINE
        assert verdict.geomean_ratio is None
        assert not verdict.deltas
        assert any("schema version differs" in w for w in verdict.warnings)

    def test_empty_experiments_filter_errors(self, capsys):
        from repro.bench.run import EXIT_EMPTY_FILTER, main
        status = main(["--profile", "smoke", "--experiments", "nope"])
        assert status == EXIT_EMPTY_FILTER
        err = capsys.readouterr().err
        assert "matched no experiments" in err
        assert "fig3" in err  # the available keys are listed

    def test_no_time_points_at_all_still_passes(self):
        # Nothing to gate on either side (all non-time units): not stale.
        current = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment("mape", unit="percent")],
        )
        baseline = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment("mape", unit="percent")],
        )
        assert compare_reports(current, baseline).verdict == "pass"

    def test_unit_change_skips_point_with_warning(self):
        baseline = BenchReport(
            profile="smoke",
            experiments=[_toy_experiment("exp", unit="ratio"),
                         _toy_experiment("other")],
        )
        current = BenchReport(
            profile="smoke",
            # same keys, but "exp" now reports seconds 10x the baseline's
            # raw ratio values — must be skipped, not treated as slowdown
            experiments=[_toy_experiment("exp", seconds=(10.0, 20.0)),
                         _toy_experiment("other")],
        )
        verdict = compare_reports(current, baseline, max_slowdown=0.10)
        assert verdict.verdict == "pass"
        assert any("unit changed" in w for w in verdict.warnings)
        # only the unchanged experiment's points enter the geomean
        assert all(d.experiment_id == "other" for d in verdict.deltas)


class TestRowsMatch:
    def test_match_and_tolerance(self):
        assert rows_match([(1, "x", 1.0)], [(1, "x", 1.0 + 1e-12)]) is None
        assert rows_match([(1.0,)], [(1.001,)], rel=2e-3) is None

    def test_mismatch_messages(self):
        assert "row count" in rows_match([(1,)], [(1,), (2,)])
        assert "width" in rows_match([(1,)], [(1, 2)])
        assert "!=" in rows_match([(1.0,)], [(2.0,)])
        assert "!=" in rows_match([("a",)], [("b",)])


class TestOracleVerification:
    def test_smoke_ssb_flight_matches_oracle(self):
        """One SSB figure at smoke scale: every benchmarked point must
        replay to exactly the oracle's rows."""
        from repro.bench.exp_ssb import run_fig9

        profile = get_profile("smoke")
        verifier = OracleVerifier(enabled=True)
        result = run_fig9(1, queries=("Q1.1", "Q2.1"), profile=profile,
                          verifier=verifier)
        summary = result.verification_summary()
        assert summary["mismatched"] == 0
        assert summary["unchecked"] == 0
        assert summary["verified"] == len(result.points) == 6
        for point in result.points:
            assert point.verified is True
            assert point.verify_kind == "oracle"

    def test_verifier_caches_oracle_runs(self):
        from repro.datasets.ssb import ssb_catalog

        catalog = ssb_catalog(scale_factor=1, rows_per_sf=1_000, seed=9)
        verifier = OracleVerifier(enabled=True)
        result = ExperimentResult("x", "t")
        sql = SSB_QUERIES["Q1.1"]
        for engine in ("MonetDB", "YDB"):
            point = result.add("Q1.1", engine, 1.0)
            verifier.verify_query(point, engine, catalog, sql)
        assert len(verifier._oracle_cache) == 1
        assert verifier.checked == 2

    def test_disabled_verifier_records_skip(self):
        result = ExperimentResult("x", "t")
        point = result.add("c", "TCUDB", 1.0)
        OracleVerifier(enabled=False).verify_query(
            point, "TCUDB", None, "SELECT 1")
        assert point.verified is None
        assert "unverified" in point.verify_note
        assert result.verification_summary()["unchecked"] == 1

    def test_wrong_engine_result_is_flagged(self):
        """A doctored engine replay must be caught, not rewarded."""
        from repro.datasets.microbench import microbench_catalog

        catalog = microbench_catalog(256, 8, seed=5)
        sql = "SELECT SUM(A.Val) as s, B.Val FROM A, B " \
              "WHERE A.ID = B.ID GROUP BY B.Val;"
        oracle = create_engine("reference", catalog)
        rows = oracle.execute(sql).require_table().rows()
        from repro.bench.verify import canonical_sorted

        doctored = [(r[0] * 1.5, *r[1:]) for r in rows]
        error = rows_match(canonical_sorted(doctored),
                           canonical_sorted(rows), rel=2e-3)
        assert error is not None


class TestRunnerCli:
    def test_run_writes_json_and_passes_gate(self, tmp_path, monkeypatch):
        from repro.bench import run as bench_run

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
        out = tmp_path / "bench.json"
        status = bench_run.main([
            "--profile", "smoke", "--experiments", "tables2_3,table4",
            "--json", str(out), "--quiet",
        ])
        assert status == 0
        report = BenchReport.load(str(out))
        assert report.profile == "smoke"
        assert report.generated_at.startswith("2000-01-01")
        assert report.verification_summary()["mismatched"] == 0
        assert report.verification_summary()["unchecked"] == 0

        # gate the run against its own report: pass
        status = bench_run.main([
            "--profile", "smoke", "--experiments", "tables2_3,table4",
            "--quiet", "--baseline", str(out),
        ])
        assert status == 0

    def test_regress_cli_exit_codes(self, tmp_path):
        from repro.bench import regress

        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        _toy_report().write(str(current))
        BenchReport(
            profile="smoke",
            experiments=[_toy_experiment(seconds=(0.5, 1.0))],
        ).write(str(baseline))
        # current is 2x slower than baseline
        assert regress.main([str(current), str(baseline)]) == EXIT_SLOWDOWN
        # swapped: current is faster, passes
        assert regress.main([str(baseline), str(current)]) == EXIT_OK


class TestEnvironmentFingerprint:
    def test_contains_toolchain_versions(self):
        import numpy
        import platform

        env = BenchReport(profile="smoke").environment
        assert env["numpy"] == numpy.__version__
        assert env["python"] == platform.python_version()
        assert "platform" in env

