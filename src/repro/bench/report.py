"""Machine-readable benchmark reports (``BENCH_<profile>_<date>.json``).

A :class:`BenchReport` bundles every experiment of one benchmark run —
per-point simulated seconds, normalized values, stage breakdowns,
verification status — plus the scale profile, an environment fingerprint
and the per-experiment fidelity geomeans, under a versioned schema that
``repro.bench.regress`` diffs to gate CI on performance regressions and
oracle mismatches.

Timestamps honor ``SOURCE_DATE_EPOCH`` (the reproducible-builds
convention) so regenerating a report does not dirty the tree.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.bench.harness import ExperimentResult, geomean

#: Bump when the JSON layout changes incompatibly; ``regress`` refuses
#: to compare reports whose schema versions differ (verdict
#: ``stale-baseline``) and ``from_dict`` rejects versions newer than
#: this module supports.
SCHEMA_VERSION = 1


def report_datetime() -> datetime:
    """Now, unless ``SOURCE_DATE_EPOCH`` pins a reproducible instant."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return datetime.now(tz=timezone.utc)


def report_date() -> str:
    """ISO date for report headers and default filenames."""
    return report_datetime().date().isoformat()


def environment_fingerprint() -> dict:
    """Where a report was produced (for apples-to-apples regression
    diffs; simulated seconds are machine-independent, wall time is not)."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas_info(numpy),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": os.path.basename(sys.executable),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "backend": _active_backend(),
    }


def _active_backend() -> str:
    """The tensor execution backend the environment policy resolves to
    (``REPRO_BACKEND`` or the ``sim`` default) — host wall-clock numbers
    are only comparable between reports produced by the same backend."""
    from repro.common.errors import ConfigError
    from repro.tensor.backend import backend_policy

    try:
        return backend_policy(None)
    except ConfigError as exc:  # malformed REPRO_BACKEND: record, not crash
        return f"invalid ({exc})"


def _blas_info(numpy) -> str | None:
    """NumPy's linked BLAS (``name version``), or None when the config
    introspection API is unavailable — the fast backend's speedups are a
    property of this library, so reports must say which one ran."""
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        name = blas.get("name") or "unknown"
        version = blas.get("version")
        return f"{name} {version}" if version else name
    except Exception:
        return None


@dataclass
class BenchReport:
    """One benchmark run: every experiment plus run-level metadata."""

    profile: str
    experiments: list[ExperimentResult] = field(default_factory=list)
    generated_at: str = ""
    environment: dict = field(default_factory=dict)
    wall_seconds: float | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.generated_at:
            self.generated_at = report_datetime().isoformat(
                timespec="seconds"
            )
        if not self.environment:
            self.environment = environment_fingerprint()

    # -- aggregation ---------------------------------------------------- #

    def points(self):
        for experiment in self.experiments:
            yield from experiment.points

    def verification_summary(self) -> dict[str, int]:
        summary = {"verified": 0, "mismatched": 0, "unchecked": 0}
        for experiment in self.experiments:
            for key, count in experiment.verification_summary().items():
                summary[key] += count
        return summary

    def mismatches(self) -> list[str]:
        out = []
        for experiment in self.experiments:
            out.extend(
                f"{experiment.experiment_id}: {p.config} / {p.engine}: "
                f"{p.verify_note or 'mismatch'}"
                for p in experiment.mismatches()
            )
        return out

    def fidelity_geomean(self) -> float | None:
        """Geomean of ours/paper over every comparable point of the run."""
        return geomean(
            point.normalized / point.paper_value
            for point in self.points()
            if point.normalized and point.paper_value
        )

    def fallback_summary(self) -> dict:
        """Run-level TCU-path coverage: how many annotated TCUDB points
        across all experiments left the TCU path, and why.

        ``fallback_rate`` is the headline number the bench gate watches
        shrink as the operator pipeline covers more query shapes; it is
        None when the run had no annotated TCUDB points.
        """
        summary = {"tcu_points": 0, "fallbacks": 0, "hybrid": 0,
                   "fallback_rate": None, "reasons": {}}
        for experiment in self.experiments:
            per = experiment.fallback_summary()
            summary["tcu_points"] += per["tcu_points"]
            summary["fallbacks"] += per["fallbacks"]
            summary["hybrid"] += per["hybrid"]
            for reason, count in per["reasons"].items():
                summary["reasons"][reason] = (
                    summary["reasons"].get(reason, 0) + count
                )
        if summary["tcu_points"]:
            summary["fallback_rate"] = (
                summary["fallbacks"] / summary["tcu_points"]
            )
        return summary

    def summary(self) -> dict:
        fallback = self.fallback_summary()
        return {
            "experiments": len(self.experiments),
            "points": sum(1 for _ in self.points()),
            "fidelity_geomean": self.fidelity_geomean(),
            "fallback_rate": fallback["fallback_rate"],
            "tcu_points": fallback["tcu_points"],
            "tcu_fallbacks": fallback["fallbacks"],
            "tcu_hybrid": fallback["hybrid"],
            **self.verification_summary(),
        }

    # -- serialization --------------------------------------------------- #

    def default_filename(self) -> str:
        return f"BENCH_{self.profile}_{self.generated_at[:10]}.json"

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "profile": self.profile,
            "generated_at": self.generated_at,
            "environment": dict(self.environment),
            "wall_seconds": self.wall_seconds,
            "summary": self.summary(),
            "fallback": self.fallback_summary(),
            "experiments": [e.to_dict() for e in self.experiments],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def write(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        version = int(data.get("schema_version", 0))
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"report schema v{version} is newer than supported "
                f"v{SCHEMA_VERSION}"
            )
        return cls(
            profile=data.get("profile", "unknown"),
            experiments=[
                ExperimentResult.from_dict(e)
                for e in data.get("experiments", [])
            ],
            generated_at=data.get("generated_at", ""),
            environment=dict(data.get("environment") or {}),
            wall_seconds=data.get("wall_seconds"),
            schema_version=version or SCHEMA_VERSION,
        )

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


__all__ = [
    "SCHEMA_VERSION",
    "BenchReport",
    "environment_fingerprint",
    "report_date",
    "report_datetime",
]
