"""Query engines: TCUDB, the paper's baselines, and the Reference oracle.

Every engine shares the ``Engine.execute(sql)`` facade.  The registry
maps a case-insensitive name to the engine class so benchmarks, tests
and tools can instantiate engines uniformly::

    from repro.engine import create_engine
    engine = create_engine("reference", catalog)
"""

from repro.engine.base import Engine, ExecutionMode, QueryResult
from repro.engine.monetdb import MonetDBEngine
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb.engine import TCUDBEngine
from repro.engine.ydb import YDBEngine
from repro.storage.catalog import Catalog

ENGINE_REGISTRY: dict[str, type[Engine]] = {
    "tcudb": TCUDBEngine,
    "ydb": YDBEngine,
    "monetdb": MonetDBEngine,
    "reference": ReferenceEngine,
}


def available_engines() -> list[str]:
    """Registered engine names, sorted."""
    return sorted(ENGINE_REGISTRY)


def create_engine(name: str, catalog: Catalog, **kwargs) -> Engine:
    """Instantiate a registered engine by name."""
    engine_cls = ENGINE_REGISTRY.get(name.lower())
    if engine_cls is None:
        raise KeyError(
            f"unknown engine {name!r}; available: {available_engines()}"
        )
    return engine_cls(catalog, **kwargs)


__all__ = [
    "ENGINE_REGISTRY",
    "Engine",
    "ExecutionMode",
    "MonetDBEngine",
    "QueryResult",
    "ReferenceEngine",
    "TCUDBEngine",
    "YDBEngine",
    "available_engines",
    "create_engine",
]
