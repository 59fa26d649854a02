"""Single benchmark entry point::

    python -m repro.bench.run --profile smoke --json bench.json \\
        [--baseline prev.json] [--experiments fig7,fig9] [--no-verify]

Runs every experiment at the chosen :class:`ScaleProfile`, oracle-verifies
each point (full replay on smoke, sampled streaming replay on
paper/stress), writes a schema-versioned JSON report, and — when given a
baseline report — applies the regression gate from
``repro.bench.regress``.  Exit status: 0 clean, 1 oracle mismatch,
2 performance regression, 3 stale baseline (no comparable points),
4 ``--experiments`` filter matched nothing, 5 ``--require-verified``
found unchecked points.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable, Iterator

from repro.bench.exp_ablations import (
    run_ablation_density_switch,
    run_ablation_fused_agg,
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
from repro.bench.harness import ExperimentResult, geometric_mean_ratio
from repro.bench.regress import EXIT_MISMATCH, compare_reports
from repro.bench.report import BenchReport
from repro.bench.scale import PROFILES, ScaleProfile, get_profile
from repro.bench.verify import OracleVerifier

ExperimentThunk = Callable[[], ExperimentResult]

#: A typo'd --experiments filter must not look like a clean run.
EXIT_EMPTY_FILTER = 4

#: ``--require-verified`` found unchecked (or mismatched) points.
EXIT_UNVERIFIED = 5


def iter_experiments(
    profile: ScaleProfile,
    verifier: OracleVerifier | None = None,
) -> Iterator[tuple[str, ExperimentThunk]]:
    """Every experiment of the suite, keyed for ``--experiments`` filters.

    This registry is the single source of truth for "the whole suite",
    so a new ``exp_*`` runner only needs to be added here.
    """
    kwargs = {"profile": profile, "verifier": verifier}
    yield "fig3", lambda: run_fig3(**kwargs)
    for query in ("q1", "q3", "q4"):
        yield f"fig7:{query}", (
            lambda query=query: run_fig7(query, **kwargs))
    for query in ("q1", "q3", "q4"):
        yield f"fig8:{query}", (
            lambda query=query: run_fig8(query, **kwargs))
    for sf in profile.ssb_scale_factors:
        yield f"fig9:sf{sf}", (lambda sf=sf: run_fig9(sf, **kwargs))
    yield "fig10", lambda: run_fig10(**kwargs)
    yield "table1", lambda: run_table1(**kwargs)
    for dataset in profile.em_datasets:
        yield f"fig11:{dataset}", (
            lambda dataset=dataset: run_fig11(dataset, **kwargs))
    for query in ("q1", "q2", "q3"):
        yield f"fig12:{query}", (
            lambda query=query: run_fig12(query, **kwargs))
    yield "fig13", lambda: run_fig13(**kwargs)
    yield "fig14", lambda: run_fig14(**kwargs)
    yield "tables2_3", lambda: run_tables23(**kwargs)
    yield "table4", lambda: run_table4(**kwargs)
    yield "ablation:fused_agg", lambda: run_ablation_fused_agg(**kwargs)
    yield "ablation:density_switch", (
        lambda: run_ablation_density_switch(**kwargs))
    yield "ablation:precision", lambda: run_ablation_precision(**kwargs)
    yield "ablation:transform_location", (
        lambda: run_ablation_transform_location(**kwargs))
    yield "chaos", lambda: run_chaos(**kwargs)


def run_suite(
    profile: ScaleProfile,
    verifier: OracleVerifier | None = None,
    only: list[str] | None = None,
    echo: Callable[[str], None] | None = None,
) -> BenchReport:
    """Run (a filtered subset of) the suite and collect a report."""
    start = time.perf_counter()
    experiments: list[ExperimentResult] = []
    for key, thunk in iter_experiments(profile, verifier):
        if only and not any(token in key for token in only):
            continue
        if echo:
            echo(f"[{profile.name}] running {key} ...")
        experiments.append(thunk())
    report = BenchReport(profile=profile.name, experiments=experiments)
    report.wall_seconds = round(time.perf_counter() - start, 3)
    return report


def _print_report(report: BenchReport, verbose: bool) -> None:
    if verbose:
        for experiment in report.experiments:
            print()
            print(experiment.to_text())
            ratio = geometric_mean_ratio(experiment)
            if ratio is not None:
                print(f"fidelity (geo-mean ours/paper): {ratio:.2f}")
    summary = report.summary()
    fidelity = summary["fidelity_geomean"]
    print()
    print(f"profile={report.profile} experiments={summary['experiments']} "
          f"points={summary['points']} wall={report.wall_seconds}s")
    print(f"verification: {summary['verified']} ok, "
          f"{summary['mismatched']} mismatched, "
          f"{summary['unchecked']} unchecked")
    if fidelity is not None:
        print(f"fidelity geomean (ours/paper): {fidelity:.3f}")
    fallback = report.fallback_summary()
    if fallback["tcu_points"]:
        print(
            f"tcu path: {fallback['tcu_points']} points, "
            f"{fallback['hybrid']} hybrid, "
            f"{fallback['fallbacks']} fallbacks "
            f"(fallback_rate {fallback['fallback_rate']:.3f})"
        )
        for reason, count in sorted(fallback["reasons"].items()):
            print(f"  fallback x{count}: {reason}")
    for line in report.mismatches():
        print(f"MISMATCH: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.run",
        description="Run the oracle-verified benchmark suite.",
    )
    parser.add_argument("--profile", default="smoke",
                        choices=sorted(PROFILES),
                        help="scale profile (default: smoke)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the BenchReport JSON here")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="prior report to gate regressions against")
    parser.add_argument("--max-slowdown", type=float, default=0.10,
                        help="geomean slowdown tolerance vs baseline "
                             "(default: 0.10 = 10%%)")
    parser.add_argument("--experiments", default=None,
                        help="comma-separated substring filter, e.g. "
                             "'fig7,fig9'")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip oracle verification even on profiles "
                             "that enable it")
    parser.add_argument("--verify", action="store_true",
                        help="force oracle verification on profiles that "
                             "disable it (may be very slow)")
    parser.add_argument("--require-verified", action="store_true",
                        help="exit non-zero unless every point reports "
                             "verified (the bench-paper-sample CI gate)")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the run summary")
    args = parser.parse_args(argv)

    profile = get_profile(args.profile)
    verify = (profile.verify or args.verify) and not args.no_verify
    verifier = OracleVerifier(
        enabled=verify,
        policy=getattr(profile, "verify_policy", "full") or "full",
        sample_rows=getattr(profile, "verify_sample_rows", 2048),
        strata=getattr(profile, "verify_strata", 1),
    )
    only = ([token.strip() for token in args.experiments.split(",")
             if token.strip()] if args.experiments else None)
    if only:
        keys = [key for key, _ in iter_experiments(profile)]
        if not any(token in key for key in keys for token in only):
            print(
                f"error: --experiments {args.experiments!r} matched no "
                f"experiments; available keys: {', '.join(keys)}",
                file=sys.stderr,
            )
            return EXIT_EMPTY_FILTER
    echo = None if args.quiet else print
    report = run_suite(profile, verifier, only=only, echo=echo)

    if args.json:
        path = report.write(args.json)
        print(f"wrote {path}")
    _print_report(report, verbose=not args.quiet)

    status = 0
    if report.verification_summary()["mismatched"]:
        print("FAIL: oracle mismatches detected")
        status = EXIT_MISMATCH
    if args.require_verified:
        summary = report.verification_summary()
        if summary["unchecked"] or summary["mismatched"]:
            print(
                f"FAIL: --require-verified: {summary['unchecked']} "
                f"unchecked, {summary['mismatched']} mismatched points"
            )
            status = status or EXIT_UNVERIFIED
    if args.baseline:
        baseline = BenchReport.load(args.baseline)
        verdict = compare_reports(report, baseline,
                                  max_slowdown=args.max_slowdown)
        print()
        print(verdict.render())
        status = status or verdict.exit_status
    return status


if __name__ == "__main__":
    sys.exit(main())
