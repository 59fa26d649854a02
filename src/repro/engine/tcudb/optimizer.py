"""The TCUDB query optimizer — Figure 6's decision workflow.

For a matched subquery the optimizer runs, in order:

1. **Data-range test** (Section 4.2.1): pick the most compact TCU
   precision or bail out.
2. **Working-set test** (Section 4.2.3): dense matrices beyond device
   memory divert to the blocked MSplitGEMM plan.
3. **Matrix-density test** (Section 4.2.4): inputs sparser than the
   calibrated threshold divert to TCU-SpMM.
4. **Cost comparison** (Section 4.2.2): the winning TCU plan must beat
   the estimated conventional GPU/CPU plan, else TCUDB falls back.

The adaptive mixed-precision step evaluates every feasible precision and
keeps the cheapest end-to-end plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.tcudb.cost import (
    OperatorGeometry,
    PlanCost,
    Strategy,
    candidate_precisions,
    estimate_blocked,
    estimate_cpu_baseline,
    estimate_dense,
    estimate_gpu_baseline,
    estimate_sparse,
)
from repro.engine.tcudb.feasibility import FeasibilityReport
from repro.hardware.calibration import CalibrationReport
from repro.hardware.gpu import GPUDevice
from repro.hardware.profiles import HostProfile


@dataclass
class OptimizerDecision:
    """Outcome of the Figure-6 workflow for one operator."""

    use_tcu: bool
    plan: PlanCost | None
    feasibility: FeasibilityReport | None
    gpu_baseline_seconds: float
    cpu_baseline_seconds: float
    reason: str
    trace: list[str] = field(default_factory=list)

    @property
    def strategy(self) -> Strategy | None:
        return self.plan.strategy if self.plan else None

    def explain(self) -> str:
        lines = list(self.trace)
        lines.append(f"decision: {self.reason}")
        return "\n".join(lines)


class TCUOptimizer:
    """Prices TCU plans against baselines for one device/host pair."""

    def __init__(
        self,
        device: GPUDevice,
        host: HostProfile,
        calibration: CalibrationReport,
        allow_gpu_transform: bool = True,
        force_strategy: Strategy | None = None,
        force_precision=None,
    ):
        self.device = device
        self.host = host
        self.calibration = calibration
        self.allow_gpu_transform = allow_gpu_transform
        self.force_strategy = force_strategy
        self.force_precision = force_precision

    def decide(
        self,
        geometry: OperatorGeometry,
        feasibility: FeasibilityReport,
        pairs: int,
        grouped: bool,
        tile_pairs: float | None = None,
        op_label: str | None = None,
    ) -> OptimizerDecision:
        """Run the Figure-6 workflow for one operator's product.

        ``op_label`` names the TensorProgram operator being priced, so
        per-operator decisions stay attributable in the trace.
        """
        trace: list[str] = []
        if op_label:
            trace.append(f"operator: {op_label}")
        if geometry.n_matmuls > 1:
            trace.append(
                f"operand build: 1 fill pass(es) for {geometry.n_matmuls} "
                "matmuls (fused: shared indicator structure)"
            )
        gpu_s = estimate_gpu_baseline(self.device, geometry, pairs, grouped)
        cpu_s = estimate_cpu_baseline(self.host, geometry, pairs, grouped)
        if not feasibility.feasible:
            return OptimizerDecision(
                use_tcu=False, plan=None, feasibility=feasibility,
                gpu_baseline_seconds=gpu_s, cpu_baseline_seconds=cpu_s,
                reason=f"range test failed: {feasibility.reason}",
                trace=trace,
            )
        assert feasibility.choice is not None
        base_precision = feasibility.choice.precision
        trace.append(
            f"range test: ranges {feasibility.left_range} x "
            f"{feasibility.right_range}, most compact type "
            f"{base_precision.value}"
        )
        best: PlanCost | None = None
        precisions = (
            [self.force_precision] if self.force_precision is not None
            else candidate_precisions(base_precision)
        )
        for precision in precisions:
            plan = self._plan_for_precision(geometry, precision, tile_pairs,
                                            trace)
            if best is None or plan.total < best.total:
                best = plan
        assert best is not None
        trace.append(
            f"best TCU plan: {best.strategy.value}/{best.precision.value} "
            f"= {best.total * 1e3:.3f} ms "
            f"(DT {best.transform.fill_seconds * 1e3:.3f}, "
            f"DM {best.transform.memcpy_seconds * 1e3:.3f}, "
            f"CT {best.compute_seconds * 1e3:.3f})"
        )
        baseline = min(gpu_s, cpu_s)
        trace.append(
            f"baselines: GPU {gpu_s * 1e3:.3f} ms, CPU {cpu_s * 1e3:.3f} ms"
        )
        if best.total >= baseline:
            return OptimizerDecision(
                use_tcu=False, plan=best, feasibility=feasibility,
                gpu_baseline_seconds=gpu_s, cpu_baseline_seconds=cpu_s,
                reason=(
                    f"TCU plan ({best.total * 1e3:.3f} ms) does not beat the "
                    f"conventional plan ({baseline * 1e3:.3f} ms)"
                ),
                trace=trace,
            )
        return OptimizerDecision(
            use_tcu=True, plan=best, feasibility=feasibility,
            gpu_baseline_seconds=gpu_s, cpu_baseline_seconds=cpu_s,
            reason=(
                f"TCU {best.strategy.value} plan at {best.precision.value} "
                f"wins ({best.total * 1e3:.3f} ms vs {baseline * 1e3:.3f} ms)"
            ),
            trace=trace,
        )

    # ------------------------------------------------------------------ #

    def _plan_for_precision(
        self,
        geometry: OperatorGeometry,
        precision,
        tile_pairs: float | None,
        trace: list[str],
    ) -> PlanCost:
        if self.force_strategy is not None:
            return self._forced_plan(geometry, precision, tile_pairs, trace)
        working_set = geometry.working_set_bytes(precision)
        budget = self.device.memory.available * 0.9
        if working_set + geometry.raw_bytes > budget:
            trace.append(
                f"working-set test [{precision.value}]: "
                f"{working_set / 1024**3:.2f} GiB exceeds device memory -> "
                "blocked MSplitGEMM"
            )
            return estimate_blocked(self.device, self.host, geometry, precision)
        threshold = self.calibration.density_threshold
        if geometry.min_density < threshold:
            trace.append(
                f"density test [{precision.value}]: min density "
                f"{geometry.min_density:.2e} below threshold "
                f"{threshold:.2e} -> TCU-SpMM"
            )
            return estimate_sparse(
                self.device, self.host, geometry, precision, tile_pairs,
                allow_gpu_transform=self.allow_gpu_transform,
            )
        if geometry.min_density < threshold * 2:
            # Near the threshold the heuristic is unreliable; Section
            # 4.2.4 says TCUDB estimates the TCU-SpMM plan's cost against
            # the dense plan, so price both and keep the cheaper.
            dense = estimate_dense(
                self.device, self.host, geometry, precision,
                allow_gpu_transform=self.allow_gpu_transform,
            )
            sparse = estimate_sparse(
                self.device, self.host, geometry, precision, tile_pairs,
                allow_gpu_transform=self.allow_gpu_transform,
            )
            winner = sparse if sparse.total < dense.total else dense
            trace.append(
                f"density test [{precision.value}]: density "
                f"{geometry.min_density:.2e} near threshold -> cost "
                f"comparison picks {winner.strategy.value}"
            )
            return winner
        trace.append(
            f"density test [{precision.value}]: density "
            f"{geometry.min_density:.2e} -> dense GEMM"
        )
        return estimate_dense(
            self.device, self.host, geometry, precision,
            allow_gpu_transform=self.allow_gpu_transform,
        )

    def _forced_plan(self, geometry, precision, tile_pairs, trace) -> PlanCost:
        """Bypass the working-set/density tests (ablation benchmarks)."""
        trace.append(f"strategy forced to {self.force_strategy.value}")
        if self.force_strategy == Strategy.BLOCKED:
            return estimate_blocked(self.device, self.host, geometry,
                                    precision)
        if self.force_strategy == Strategy.SPARSE:
            return estimate_sparse(
                self.device, self.host, geometry, precision, tile_pairs,
                allow_gpu_transform=self.allow_gpu_transform,
            )
        return estimate_dense(
            self.device, self.host, geometry, precision,
            allow_gpu_transform=self.allow_gpu_transform,
        )
