"""Experiment harness: runs engines over configurations and formats the
normalized series the paper's figures report.

Every experiment produces an :class:`ExperimentResult`: a list of
(configuration, engine) points with simulated seconds, the normalized
value (paper-style: divided by a designated baseline point), the stage
breakdown, and — where the paper publishes numbers — the reference value
for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.timing import TimingBreakdown


@dataclass
class SeriesPoint:
    """One bar of a paper figure."""

    config: str  # x-axis label, e.g. "4096,32"
    engine: str  # series label, e.g. "TCUDB"
    seconds: float  # simulated seconds
    normalized: float | None = None  # seconds / baseline
    paper_value: float | None = None  # the published normalized number
    breakdown: dict[str, float] = field(default_factory=dict)
    note: str = ""
    # Oracle verification outcome (repro.bench.verify): True/False once
    # checked, None when the profile skipped verification.
    verified: bool | None = None
    verify_kind: str = ""  # "oracle" | "numeric" | "shape" | "model"
    verify_note: str = ""
    # TCU-path bookkeeping (repro.bench.harness.annotate_tcu_point):
    # why a TCUDB point left the TCU path, and how it was classified
    # ("pattern" | "cost" | "feasibility"); empty when native.
    fallback_reason: str = ""
    fallback_kind: str = ""
    executed_by: str = ""  # "TCU" | "TCU-hybrid" | "YDB-fallback"
    # Measured host wall-clock of the engine call (interpreter-level),
    # alongside the machine-independent simulated ``seconds``.  The
    # regression gate keeps using simulated seconds; host_seconds makes
    # real interpreter-level speedups (e.g. the fusion pass) visible in
    # reports.  None when the experiment did not measure it.
    host_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "engine": self.engine,
            "seconds": self.seconds,
            "normalized": self.normalized,
            "paper_value": self.paper_value,
            "breakdown": dict(self.breakdown),
            "note": self.note,
            "verified": self.verified,
            "verify_kind": self.verify_kind,
            "verify_note": self.verify_note,
            "fallback_reason": self.fallback_reason,
            "fallback_kind": self.fallback_kind,
            "executed_by": self.executed_by,
            "host_seconds": self.host_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SeriesPoint":
        return cls(
            config=data["config"],
            engine=data["engine"],
            seconds=data["seconds"],
            normalized=data.get("normalized"),
            paper_value=data.get("paper_value"),
            breakdown=dict(data.get("breakdown") or {}),
            note=data.get("note", ""),
            verified=data.get("verified"),
            verify_kind=data.get("verify_kind", ""),
            verify_note=data.get("verify_note", ""),
            fallback_reason=data.get("fallback_reason", ""),
            fallback_kind=data.get("fallback_kind", ""),
            executed_by=data.get("executed_by", ""),
            host_seconds=data.get("host_seconds"),
        )


@dataclass
class ExperimentResult:
    """All points of one figure/table plus bookkeeping."""

    experiment_id: str  # e.g. "fig7a"
    title: str
    points: list[SeriesPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # What ``seconds`` measures: "seconds" (simulated time, eligible for
    # the perf-regression gate), "percent" (error rates), "count"
    # (dataset shapes) or "ratio" (speedup factors).
    unit: str = "seconds"

    def add(
        self,
        config: str,
        engine: str,
        seconds: float,
        paper_value: float | None = None,
        breakdown: TimingBreakdown | None = None,
        note: str = "",
    ) -> SeriesPoint:
        point = SeriesPoint(
            config=config, engine=engine, seconds=seconds,
            paper_value=paper_value,
            breakdown=breakdown.stages if breakdown else {},
            note=note,
        )
        self.points.append(point)
        return point

    def normalize(self, baseline_config: str, baseline_engine: str) -> None:
        """Divide every point by one baseline point (paper-style)."""
        baseline = self.find(baseline_config, baseline_engine)
        if baseline.seconds <= 0:
            raise ValueError("baseline time must be positive")
        for point in self.points:
            point.normalized = point.seconds / baseline.seconds

    def find(self, config: str, engine: str) -> SeriesPoint:
        for point in self.points:
            if point.config == config and point.engine == engine:
                return point
        raise KeyError(f"no point ({config!r}, {engine!r})")

    def engines(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.engine not in seen:
                seen.append(point.engine)
        return seen

    def configs(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.config not in seen:
                seen.append(point.config)
        return seen

    # -- TCU fallback bookkeeping ------------------------------------------ #

    def fallback_summary(self) -> dict:
        """Per-experiment TCU-path coverage: how many TCUDB points left
        the TCU path, the rate, and the reasons (``fallback_rate`` is
        None when the experiment ran no annotated TCUDB points)."""
        tcu_points = [p for p in self.points if p.executed_by]
        fallbacks = [p for p in tcu_points
                     if p.executed_by == "YDB-fallback"]
        reasons: dict[str, int] = {}
        for point in fallbacks:
            key = f"{point.fallback_kind or 'unknown'}: " \
                  f"{point.fallback_reason or 'unknown'}"
            reasons[key] = reasons.get(key, 0) + 1
        return {
            "tcu_points": len(tcu_points),
            "fallbacks": len(fallbacks),
            "hybrid": sum(1 for p in tcu_points
                          if p.executed_by == "TCU-hybrid"),
            "fallback_rate": (len(fallbacks) / len(tcu_points)
                              if tcu_points else None),
            "reasons": reasons,
        }

    # -- host-vs-simulated drift ------------------------------------------- #

    def host_drift_ratios(self) -> list[float]:
        """``host_seconds / seconds`` per measured time point — the one
        eligibility rule both the per-experiment and run-level drift
        summaries aggregate from."""
        if self.unit != "seconds":
            return []
        return [
            point.host_seconds / point.seconds
            for point in self.points
            if point.host_seconds and point.seconds > 0
        ]

    def host_drift_summary(self) -> dict:
        """Wall-clock vs simulated-time drift for this experiment.

        Geomean of ``host_seconds / seconds`` over time points that
        measured wall-clock.  The *trend* of this ratio across reports is
        what matters: a jump means an interpreter-level regression the
        simulated gate cannot see.  ``None`` when nothing was measured
        (or the experiment's unit is not seconds).
        """
        ratios = self.host_drift_ratios()
        return {
            "points": len(ratios),
            "host_over_sim_geomean": geomean(ratios),
        }

    # -- verification bookkeeping ------------------------------------------ #

    def verification_summary(self) -> dict[str, int]:
        """Counts of verified / mismatched / unchecked points."""
        summary = {"verified": 0, "mismatched": 0, "unchecked": 0}
        for point in self.points:
            if point.verified is True:
                summary["verified"] += 1
            elif point.verified is False:
                summary["mismatched"] += 1
            else:
                summary["unchecked"] += 1
        return summary

    def mismatches(self) -> list[SeriesPoint]:
        return [p for p in self.points if p.verified is False]

    # -- serialization ----------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "unit": self.unit,
            "points": [point.to_dict() for point in self.points],
            "notes": list(self.notes),
            "fidelity_geomean": geometric_mean_ratio(self),
            "verification": self.verification_summary(),
            "fallback": self.fallback_summary(),
            "host_drift": self.host_drift_summary(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        return cls(
            experiment_id=data["experiment_id"],
            title=data.get("title", ""),
            points=[SeriesPoint.from_dict(p) for p in data.get("points", [])],
            notes=list(data.get("notes", [])),
            unit=data.get("unit", "seconds"),
        )

    # -- rendering --------------------------------------------------------- #

    def to_text(self) -> str:
        """Fixed-width table: rows = configs, columns = engines, cells =
        normalized (paper) or seconds."""
        engines = self.engines()
        configs = self.configs()
        headers = ["config"] + [
            f"{e} [ours|paper]" for e in engines
        ]
        rows: list[list[str]] = []
        for config in configs:
            row = [config]
            for engine in engines:
                try:
                    point = self.find(config, engine)
                except KeyError:
                    row.append("-")
                    continue
                if point.normalized is not None:
                    cell = f"{point.normalized:.3g}"
                else:
                    cell = f"{point.seconds * 1e3:.3g}ms"
                if point.paper_value is not None:
                    cell += f" | {point.paper_value:.3g}"
                if point.note:
                    cell += f" ({point.note})"
                if point.verified is False:
                    cell += " !MISMATCH"
                row.append(cell)
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(c.ljust(w) for c, w in zip(row, widths))
            for row in rows
        )
        lines.extend(f"note: {n}" for n in self.notes)
        summary = self.verification_summary()
        if summary["verified"] or summary["mismatched"]:
            lines.append(
                "verification: {verified} ok, {mismatched} mismatched, "
                "{unchecked} unchecked".format(**summary)
            )
        return "\n".join(lines)


def geomean(values) -> float | None:
    """Geometric mean, or ``None`` for an empty input.  Non-positive
    values are clamped to 1e-12 so one zero cannot NaN a whole gate."""
    import math

    values = list(values)
    if not values:
        return None
    return math.exp(
        sum(math.log(max(v, 1e-12)) for v in values) / len(values)
    )


def geometric_mean_ratio(result: ExperimentResult) -> float | None:
    """Geometric mean of ours/paper across points that have both — the
    headline fidelity metric the runner prints per experiment."""
    return geomean(
        point.normalized / point.paper_value
        for point in result.points
        if point.normalized and point.paper_value
    )


def timed_execute(engine, sql: str, repeats: int = 1,
                  params: dict | None = None):
    """Run ``engine.execute(sql)`` and measure host wall-clock.

    Returns ``(result, host_seconds)`` with ``host_seconds`` the minimum
    over ``repeats`` runs (minimum, not mean: scheduling noise only ever
    adds time).  Attach via ``point.host_seconds``.
    """
    import time

    result = None
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = engine.execute(sql, params=params)
        best = min(best, time.perf_counter() - start)
    return result, best


def annotate_tcu_point(point: SeriesPoint, run) -> SeriesPoint:
    """Record how a TCUDB query executed on its series point.

    Feeds the per-experiment ``fallback_summary`` and the run-level
    ``fallback_rate`` in ``BENCH_<profile>_*.json``, so the bench gate
    can show the operator pipeline shrinking fallbacks over time.
    """
    extra = getattr(run, "extra", None) or {}
    reason = extra.get("fallback_reason") or ""
    point.fallback_reason = str(reason)
    point.fallback_kind = str(extra.get("fallback_kind") or "")
    point.executed_by = str(
        extra.get("executed_by") or ("YDB-fallback" if reason else "TCU")
    )
    if reason and not point.note:
        point.note = "fallback"
    elif point.executed_by == "TCU-hybrid" and not point.note:
        point.note = "hybrid"
    return point
