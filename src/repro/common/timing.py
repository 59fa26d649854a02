"""Timing breakdowns for simulated query execution.

The paper's figures report stacked execution-time breakdowns per engine
(e.g. "Fill Matrices", "GPU Memory Copy", "HashJoin", "Join+GroupBy+
Aggregation").  :class:`TimingBreakdown` accumulates simulated seconds per
named stage and supports the normalization used throughout Section 5
(dividing every series by a baseline total).
"""

from __future__ import annotations

from collections.abc import Mapping

# Canonical stage names used across engines.  Engines may add their own,
# but sticking to these keeps figure legends consistent with the paper.
STAGE_FILL = "fill_matrices"
STAGE_MEMCPY = "gpu_memcpy"
STAGE_JOIN = "join"
STAGE_GROUPBY = "groupby_aggregation"
STAGE_AGGREGATION = "aggregation"
STAGE_CPU = "cpu_processing"
STAGE_OTHER = "other"


class TimingBreakdown:
    """Accumulates simulated execution time per named stage.

    Stages are kept in insertion order so that stacked-bar output matches
    the order in which an engine performed its phases.
    """

    def __init__(self, stages: Mapping[str, float] | None = None):
        self._stages: dict[str, float] = {}
        if stages:
            for name, seconds in stages.items():
                self.add(name, seconds)

    def add(self, stage: str, seconds: float) -> None:
        """Charge ``seconds`` of simulated time to ``stage``."""
        if seconds < 0:
            raise ValueError(f"negative time for stage {stage!r}: {seconds}")
        self._stages[stage] = self._stages.get(stage, 0.0) + float(seconds)

    def get(self, stage: str) -> float:
        return self._stages.get(stage, 0.0)

    @property
    def total(self) -> float:
        return sum(self._stages.values())

    @property
    def stages(self) -> dict[str, float]:
        """A copy of the per-stage times, in insertion order."""
        return dict(self._stages)

    def scaled(self, factor: float) -> "TimingBreakdown":
        """Return a new breakdown with all stages multiplied by ``factor``."""
        return TimingBreakdown(
            {name: seconds * factor for name, seconds in self._stages.items()}
        )

    def normalized(self, baseline_total: float) -> dict[str, float]:
        """Per-stage times divided by a baseline total (paper-style)."""
        if baseline_total <= 0:
            raise ValueError("baseline total must be positive")
        return {n: s / baseline_total for n, s in self._stages.items()}

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={s:.3g}s" for n, s in self._stages.items())
        return f"TimingBreakdown({parts}, total={self.total:.3g}s)"
