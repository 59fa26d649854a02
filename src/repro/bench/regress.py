"""Performance-regression gate: diff two BenchReport JSON files::

    python -m repro.bench.regress current.json baseline.json \\
        [--max-slowdown 0.10]

Points are matched by (experiment_id, config, engine).  The gate fails
(non-zero exit) when

* any current point carries ``verified: false`` (oracle mismatch),
* the geometric mean of current/baseline simulated seconds over matched
  time-unit points exceeds ``1 + max_slowdown``, or
* the current report has time-unit points but *none* of them matched the
  baseline (a stale baseline — e.g. after a profile resize or an
  experiment rename).  Without this the gate would silently stop gating;
  regenerate and commit a fresh ``BENCH_<profile>_*.json`` instead.

Non-time experiments (``unit`` of percent/count/ratio — Table 1 MAPE,
dataset shapes, Figure 14 speedups) are excluded from the slowdown
geomean but large value drifts are reported as warnings.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.bench.harness import geomean
from repro.bench.report import BenchReport

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SLOWDOWN = 2
EXIT_STALE_BASELINE = 3

#: Single points may jitter; only name-and-shame offenders beyond this.
POINT_REPORT_THRESHOLD = 1.05


@dataclass
class PointDelta:
    """One matched point across the two reports."""

    experiment_id: str
    config: str
    engine: str
    current_seconds: float
    baseline_seconds: float
    unit: str = "seconds"

    @property
    def ratio(self) -> float:
        if self.baseline_seconds <= 0:
            return 1.0
        return self.current_seconds / self.baseline_seconds


@dataclass
class RegressionVerdict:
    """Outcome of comparing a current report against a baseline."""

    verdict: str  # "pass" | "slowdown" | "mismatch" | "stale-baseline"
    geomean_ratio: float | None
    max_slowdown: float
    deltas: list[PointDelta] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def exit_status(self) -> int:
        if self.verdict == "mismatch":
            return EXIT_MISMATCH
        if self.verdict == "slowdown":
            return EXIT_SLOWDOWN
        if self.verdict == "stale-baseline":
            return EXIT_STALE_BASELINE
        return EXIT_OK

    def render(self) -> str:
        lines = [
            f"regression gate: {self.verdict.upper()} "
            f"({len(self.deltas)} matched time points, "
            f"tolerance {self.max_slowdown:.0%})"
        ]
        if self.geomean_ratio is not None:
            lines.append(
                f"geomean current/baseline: {self.geomean_ratio:.4f}"
            )
        offenders = sorted(
            (d for d in self.deltas if d.ratio > POINT_REPORT_THRESHOLD),
            key=lambda d: d.ratio, reverse=True,
        )
        for delta in offenders[:10]:
            lines.append(
                f"  slower: {delta.experiment_id} {delta.config} / "
                f"{delta.engine}: x{delta.ratio:.3f}"
            )
        lines.extend(f"  MISMATCH: {line}" for line in self.mismatches)
        lines.extend(f"  warning: {line}" for line in self.warnings)
        return "\n".join(lines)


def _as_report(report) -> BenchReport:
    if isinstance(report, BenchReport):
        return report
    return BenchReport.from_dict(report)


def compare_reports(
    current,
    baseline,
    max_slowdown: float = 0.10,
) -> RegressionVerdict:
    """Diff two reports (BenchReport instances or raw dicts)."""
    current = _as_report(current)
    baseline = _as_report(baseline)
    warnings: list[str] = []
    if current.schema_version != baseline.schema_version:
        # Refuse to compare across schema versions: field meanings may
        # have changed, so any ratio would be noise.  Fail closed.
        warnings.append(
            f"schema version differs: current "
            f"v{current.schema_version}, baseline "
            f"v{baseline.schema_version}; regenerate the baseline"
        )
        mismatches = current.mismatches()
        return RegressionVerdict(
            verdict="mismatch" if mismatches else "stale-baseline",
            geomean_ratio=None,
            max_slowdown=max_slowdown,
            mismatches=mismatches,
            warnings=warnings,
        )
    if current.profile != baseline.profile:
        warnings.append(
            f"profile mismatch: current={current.profile!r} "
            f"baseline={baseline.profile!r}; ratios are not comparable"
        )

    baseline_points: dict[tuple, tuple[float, str]] = {}
    for experiment in baseline.experiments:
        for point in experiment.points:
            key = (experiment.experiment_id, point.config, point.engine)
            baseline_points[key] = (point.seconds, experiment.unit)

    deltas: list[PointDelta] = []
    drift: list[str] = []
    matched = 0
    for experiment in current.experiments:
        for point in experiment.points:
            key = (experiment.experiment_id, point.config, point.engine)
            if key not in baseline_points:
                continue
            matched += 1
            base_seconds, base_unit = baseline_points[key]
            if base_unit != experiment.unit:
                warnings.append(
                    f"{experiment.experiment_id} {point.config} / "
                    f"{point.engine}: unit changed "
                    f"{base_unit!r} -> {experiment.unit!r}; point skipped"
                )
                continue
            delta = PointDelta(
                experiment_id=experiment.experiment_id,
                config=point.config,
                engine=point.engine,
                current_seconds=point.seconds,
                baseline_seconds=base_seconds,
                unit=experiment.unit,
            )
            if experiment.unit == "seconds" and base_seconds > 0:
                if point.seconds is None or point.seconds <= 0:
                    # A timed path that now reports nothing is broken,
                    # not infinitely fast; keep it out of the geomean
                    # (where log-clamping would read it as a speedup
                    # large enough to mask real slowdowns).
                    warnings.append(
                        f"{experiment.experiment_id} {point.config} / "
                        f"{point.engine}: non-positive current seconds "
                        f"({point.seconds!r}); excluded from geomean"
                    )
                    continue
                deltas.append(delta)
            elif base_seconds > 0 and not (
                1 / (1 + max_slowdown) <= delta.ratio <= 1 + max_slowdown
            ):
                drift.append(
                    f"{experiment.experiment_id} {point.config} / "
                    f"{point.engine} [{experiment.unit}]: "
                    f"{base_seconds:.6g} -> {point.seconds:.6g}"
                )
    if matched == 0:
        warnings.append("no points matched between the two reports")
    warnings.extend(drift)

    current_has_time_points = any(
        experiment.unit == "seconds" and experiment.points
        for experiment in current.experiments
    )

    mismatches = current.mismatches()
    geomean_ratio = geomean(d.ratio for d in deltas)

    if mismatches:
        verdict = "mismatch"
    elif geomean_ratio is not None and geomean_ratio > 1 + max_slowdown:
        verdict = "slowdown"
    elif current_has_time_points and not deltas:
        # Fail closed: a baseline that gates nothing is no gate at all.
        warnings.append(
            "stale baseline: current report has time points but none "
            "matched; regenerate the committed BENCH_<profile>_*.json"
        )
        verdict = "stale-baseline"
    else:
        verdict = "pass"
    return RegressionVerdict(
        verdict=verdict,
        geomean_ratio=geomean_ratio,
        max_slowdown=max_slowdown,
        deltas=deltas,
        mismatches=mismatches,
        warnings=warnings,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Diff two benchmark reports and gate on regressions.",
    )
    parser.add_argument("current", help="freshly generated BENCH json")
    parser.add_argument("baseline", help="baseline BENCH json")
    parser.add_argument("--max-slowdown", type=float, default=0.10,
                        help="geomean slowdown tolerance (default 0.10)")
    args = parser.parse_args(argv)
    verdict = compare_reports(
        BenchReport.load(args.current),
        BenchReport.load(args.baseline),
        max_slowdown=args.max_slowdown,
    )
    print(verdict.render())
    return verdict.exit_status


if __name__ == "__main__":
    sys.exit(main())
