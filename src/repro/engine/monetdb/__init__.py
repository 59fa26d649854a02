"""MonetDB: the baseline CPU columnar engine.

Per the paper's methodology (Section 5.1), only physical-plan execution
time is modeled ("--timer=performance"), not client/parse overheads.
"""

from __future__ import annotations

from repro.engine.base import ExecutionMode
from repro.engine.cost_models import CPUCostModel
from repro.engine.reference import ReferenceEngine
from repro.hardware.profiles import I7_7700K, HostProfile
from repro.storage.catalog import Catalog


class MonetDBEngine(ReferenceEngine):
    """CPU columnar engine used as the non-GPU reference design: the
    Reference walk, priced by
    :class:`~repro.engine.cost_models.CPUCostModel`."""

    name = "MonetDB"

    def __init__(
        self,
        catalog: Catalog,
        host: HostProfile | None = None,
        mode: ExecutionMode = ExecutionMode.REAL,
        materialize_limit: int = 4_000_000,
    ):
        super().__init__(catalog, pair_limit=None)
        self.mode = mode
        self.materialize_limit = materialize_limit
        self.host = host if host is not None else I7_7700K
        self.cost_model = CPUCostModel(self.host)


__all__ = ["MonetDBEngine"]
