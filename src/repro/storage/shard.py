"""Sharded catalogs: row partitions of the fact table across N shards.

TQP ("Query Processing on Tensor Computation Runtimes") scales a tensor
query processor across devices by *data parallelism*: the fact table is
row-partitioned per device, dimension tables are replicated, every
device runs the same program on its partition, and aggregation grids
merge with an allreduce.  A :class:`ShardedCatalog` is that layout for
our engine: one shard-local :class:`~repro.storage.catalog.Catalog` per
shard, each registering

* its **fact partition** — a new :class:`~repro.storage.table.Table`
  built by ``take`` over the base fact (its own uid, its own lazily
  chunked views, so per-chunk min/max statistics and chunk pruning stay
  shard-local), and
* the **same dimension Table objects** as every other shard — broadcast
  is zero-copy sharing, which also guarantees identical string
  dictionaries (and therefore identical physical codes) on every shard.

Partitioning policies:

* ``hash``        — a splitmix64-style integer mix of the partition key
  column's physical values, mod N.  Deterministic across runs and
  independent of row order; co-locates equal keys.
* ``round_robin`` — row index mod N.  Key-oblivious, perfectly
  balanced.

Both policies preserve the *relative* row order of the base table
inside every shard (partition indices are ascending), so a
``cluster_by`` sort order survives sharding and shard-local chunk
pruning keeps paying.

:func:`shards_policy` mirrors :func:`repro.engine.parallel.workers_policy`:
an explicit override wins, then the ``REPRO_SHARDS`` environment knob,
then 1 (single shard).  CI pins ``REPRO_SHARDS`` to run the ordinary
suites through the distributed engine.

Both policies are *pure functions of the base table*: re-partitioning
the same catalog always yields bit-identical shard assignments.  The
distributed engine's fault tolerance leans on this (docs/operations.md)
— a failed shard can be retried or re-executed from the shared catalog
alone, with no partition state to reconcile, and whole-query degradation to the unsharded base catalog is
always exact because the shards partition it losslessly.
"""

from __future__ import annotations

import os

import numpy as np

from repro.common.errors import ConfigError, SchemaError, UnknownTableError
from repro.storage.catalog import Catalog
from repro.storage.types import DataType

#: Hard ceiling on the shard count: the simulated cluster fans out on
#: one host, so beyond this the per-shard dispatch overhead dominates.
MAX_SHARDS = 64

PARTITION_POLICIES = ("hash", "round_robin")


def shards_policy(override: int | None = None) -> int:
    """The effective shard count: an explicit override, the
    ``REPRO_SHARDS`` environment knob, or 1 (single shard)."""
    if override is not None:
        if override <= 0:
            raise ConfigError(f"shard count must be positive, got {override}")
        return min(int(override), MAX_SHARDS)
    env = os.environ.get("REPRO_SHARDS")
    if env:
        try:
            return shards_policy(int(env))
        except ValueError:
            raise ConfigError(
                f"REPRO_SHARDS must be a positive integer, got {env!r}"
            ) from None
    return 1


def _hash_mix(data: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a column's physical values.

    Operates on the integer *bits* so float key columns shard
    deterministically too; equal values always land on equal shards.
    """
    if data.dtype.kind == "f":
        bits = np.ascontiguousarray(data, dtype=np.float64).view(np.uint64)
    else:
        bits = np.asarray(data).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (bits + np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


class ShardedCatalog:
    """N shard-local catalogs over one base catalog.

    Built once (e.g. at server start) and shared read-only by every
    distributed engine: the shard tables are immutable and the base
    catalog stays usable as the single-node / merge-stage view.
    """

    def __init__(
        self,
        base: Catalog,
        fact: str,
        policy: str,
        key: str | None,
        n_shards: int,
        shard_catalogs: list[Catalog],
        assignment: np.ndarray,
    ):
        self.base = base
        self.fact = fact
        self.policy = policy
        self.key = key
        self.n_shards = n_shards
        self.shard_catalogs = shard_catalogs
        #: shard index per base-fact row (tests and rebalancing tools).
        self.assignment = assignment

    # -- construction ---------------------------------------------------- #

    @staticmethod
    def partition(
        catalog: Catalog,
        shards: int | None = None,
        fact: str | None = None,
        policy: str = "hash",
        key: str | None = None,
    ) -> "ShardedCatalog":
        """Row-partition ``fact`` (default: the largest table) across
        ``shards`` shard catalogs; all other tables replicate."""
        n = shards_policy(shards)
        if policy not in PARTITION_POLICIES:
            raise ConfigError(
                f"unknown partition policy {policy!r}; "
                f"available: {PARTITION_POLICIES}"
            )
        names = catalog.table_names()
        if not names:
            raise SchemaError("cannot shard an empty catalog")
        if fact is None:
            fact = max(names, key=lambda name: catalog.get(name).num_rows)
        elif not catalog.has(fact):
            raise UnknownTableError(fact)
        fact_table = catalog.get(fact)
        if policy == "hash":
            if key is None:
                key = fact_table.column_names[0]
            elif not fact_table.has_column(key):
                raise SchemaError(
                    f"partition key {key!r} not in fact table {fact!r}"
                )
            mixed = _hash_mix(fact_table.column(key).data)
            assignment = (mixed % np.uint64(max(n, 1))).astype(np.int64)
        else:
            key = None
            assignment = np.arange(fact_table.num_rows, dtype=np.int64) % n

        shard_catalogs: list[Catalog] = []
        for s in range(n):
            shard = Catalog()
            # Ascending indices: base row order is preserved inside the
            # shard, so chunk-level clustering survives partitioning.
            indices = np.flatnonzero(assignment == s)
            partitioned = fact_table.take(indices)
            if fact_table.sort_key is not None:
                partitioned.sort_key = fact_table.sort_key
            shard.register(partitioned)
            for name in names:
                if name != fact.lower():
                    # Dimension broadcast = zero-copy sharing of the base
                    # Table object (same uid, same dictionaries).
                    shard.register(catalog.get(name))
            shard_catalogs.append(shard)
        return ShardedCatalog(
            base=catalog, fact=fact.lower(), policy=policy, key=key,
            n_shards=n, shard_catalogs=shard_catalogs,
            assignment=assignment,
        )

    # -- accessors -------------------------------------------------------- #

    def shard(self, index: int) -> Catalog:
        return self.shard_catalogs[index]

    def shard_rows(self) -> list[int]:
        """Fact rows per shard (monitoring / balance tests)."""
        return [
            catalog.get(self.fact).num_rows for catalog in self.shard_catalogs
        ]

    def is_partitioned(self, binding_tables: list[str]) -> bool:
        """Whether a query touching these tables sees the partition.

        A query that never reads the fact table sees identical rows on
        every shard — running it per shard would *duplicate* results, so
        the distributed engine must route it to a single node.
        """
        return any(name.lower() == self.fact for name in binding_tables)

    def fact_dtype(self, column: str) -> DataType:
        return self.base.get(self.fact).dtype(column)

    def __repr__(self) -> str:
        rows = self.shard_rows()
        return (
            f"ShardedCatalog(fact={self.fact!r}, policy={self.policy!r}, "
            f"key={self.key!r}, shards={self.n_shards}, rows={rows})"
        )


__all__ = [
    "MAX_SHARDS",
    "PARTITION_POLICIES",
    "ShardedCatalog",
    "shards_policy",
]
