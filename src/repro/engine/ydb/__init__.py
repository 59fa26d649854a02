"""YDB: the baseline GPU warehouse engine (Yuan et al., VLDB'13 style).

Operators run as CUDA kernels on the simulated device — hash joins
materialize pairs in a vectorized, pairwise fashion and group-by
aggregation is a separate pass, exactly the structure whose cost TCUDB's
single fused matmul collapses (Section 2.3).
"""

from __future__ import annotations

from repro.engine.base import ExecutionMode
from repro.engine.cost_models import GPUCostModel
from repro.engine.reference import ReferenceEngine
from repro.hardware.gpu import GPUDevice
from repro.storage.catalog import Catalog


class YDBEngine(ReferenceEngine):
    """GPU-accelerated warehouse-style query engine: the Reference walk,
    priced by :class:`~repro.engine.cost_models.GPUCostModel`."""

    name = "YDB"

    def __init__(
        self,
        catalog: Catalog,
        device: GPUDevice | None = None,
        mode: ExecutionMode = ExecutionMode.REAL,
        materialize_limit: int = 4_000_000,
    ):
        super().__init__(catalog, pair_limit=None)
        self.mode = mode
        self.materialize_limit = materialize_limit
        self.device = device if device is not None else GPUDevice()
        self.cost_model = GPUCostModel(self.device)


__all__ = ["YDBEngine"]
