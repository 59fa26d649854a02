"""Shard-equivalence suite for the distributed engine.

The load-bearing test is the differential fuzz sweep: the seeded SSB
query generator (shared with ``test_fuzz_queries``) emits 50+ queries
and every one must produce the same row multiset on the distributed
engine (2 and 4 shards, both partition policies), the single-node TCUDB
engine and the Reference oracle.  Unit classes pin the individual
contracts: partitioning (cover/disjoint, balance, determinism),
dimension broadcast (zero-copy Table sharing), merge determinism
(ascending-shard fold, bit-identical repeats), empty-shard identity
partials, single-node routing, the allreduce ledger term, and program
cache namespacing across coordinator/shard/single-node engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match
from test_fuzz_queries import FUZZ_SEED, QueryGenerator
from repro.common.errors import ConfigError, SchemaError
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.engine.base import ExecutionMode
from repro.engine.cache import ProgramCache
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import (
    STAGE_SHARD_MERGE,
    DistributedEngine,
    TCUDBEngine,
    TCUDBOptions,
)
from repro.storage.catalog import Catalog
from repro.storage.shard import MAX_SHARDS, ShardedCatalog, shards_policy
from repro.storage.table import Table

TCU_REL = 2e-3
N_FUZZ_QUERIES = 50

FACT_KW = {"fact": "lineorder", "partition_key": "lo_orderkey"}


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


@pytest.fixture(scope="module")
def oracle(catalog):
    return ReferenceEngine(catalog)


@pytest.fixture(scope="module")
def single_node(catalog):
    return TCUDBEngine(catalog, mode=ExecutionMode.REAL)


def dist_engine(catalog, shards, policy="hash", **kwargs):
    return DistributedEngine(
        catalog, shards=shards, partition_policy=policy,
        mode=ExecutionMode.REAL, **FACT_KW, **kwargs,
    )


# --------------------------------------------------------------------- #
# Partitioning units
# --------------------------------------------------------------------- #

class TestPartitioning:
    @pytest.mark.parametrize("policy", ["hash", "round_robin"])
    def test_shards_cover_fact_exactly_once(self, catalog, policy):
        sharded = ShardedCatalog.partition(
            catalog, shards=4, fact="lineorder", policy=policy,
            key="lo_orderkey" if policy == "hash" else None,
        )
        base = catalog.get("lineorder")
        assert sum(sharded.shard_rows()) == base.num_rows
        # Every base row appears on exactly the shard the assignment
        # names, with base-relative order preserved inside the shard.
        for s in range(4):
            indices = np.flatnonzero(sharded.assignment == s)
            shard_keys = sharded.shard(s).get("lineorder")
            got = shard_keys.column("lo_orderkey").data
            expected = base.column("lo_orderkey").data[indices]
            assert np.array_equal(got, expected)

    def test_round_robin_is_balanced(self, catalog):
        sharded = ShardedCatalog.partition(
            catalog, shards=4, fact="lineorder", policy="round_robin",
        )
        rows = sharded.shard_rows()
        assert max(rows) - min(rows) <= 1

    def test_hash_is_deterministic_and_key_colocated(self, catalog):
        first = ShardedCatalog.partition(
            catalog, shards=4, fact="lineorder", policy="hash",
            key="lo_custkey",
        )
        second = ShardedCatalog.partition(
            catalog, shards=4, fact="lineorder", policy="hash",
            key="lo_custkey",
        )
        assert np.array_equal(first.assignment, second.assignment)
        # Equal keys land on equal shards (co-location contract).
        keys = catalog.get("lineorder").column("lo_custkey").data
        for value in np.unique(keys)[:20]:
            shards = np.unique(first.assignment[keys == value])
            assert shards.size == 1

    def test_policy_and_key_validation(self, catalog):
        with pytest.raises(ConfigError):
            ShardedCatalog.partition(catalog, shards=2, policy="range")
        with pytest.raises(SchemaError):
            ShardedCatalog.partition(
                catalog, shards=2, fact="lineorder", key="no_such_column",
            )
        with pytest.raises(ConfigError):
            shards_policy(0)

    def test_shards_policy_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert shards_policy(None) == 1
        assert shards_policy(3) == 3
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert shards_policy(None) == 2
        assert shards_policy(5) == 5  # explicit override wins
        assert shards_policy(10_000) == MAX_SHARDS
        monkeypatch.setenv("REPRO_SHARDS", "zebra")
        with pytest.raises(ConfigError):
            shards_policy(None)


class TestDimensionBroadcast:
    def test_dimensions_are_shared_objects(self, catalog):
        sharded = ShardedCatalog.partition(
            catalog, shards=3, fact="lineorder",
        )
        for dim in ("customer", "supplier", "part", "ddate"):
            base = catalog.get(dim)
            for s in range(3):
                # Zero-copy broadcast: the same Table object, hence the
                # same string dictionaries and physical codes.
                assert sharded.shard(s).get(dim) is base

    def test_fact_partition_shares_dictionaries(self, catalog):
        sharded = ShardedCatalog.partition(
            catalog, shards=2, fact="customer",
        )
        base = catalog.get("customer")
        for s in range(2):
            part = sharded.shard(s).get("customer")
            assert part is not base
            for name in part.column_names:
                dictionary = part.column(name).dictionary
                if dictionary is not None:
                    # take() must keep the dictionary object, so shard
                    # result codes concatenate without re-encoding.
                    assert dictionary is base.column(name).dictionary


# --------------------------------------------------------------------- #
# Merge semantics units
# --------------------------------------------------------------------- #

GRID_SQL = """
    SELECT d_year, SUM(lo_revenue) AS rev, COUNT(*) AS n
    FROM lineorder, ddate WHERE lo_orderdate = d_datekey
    GROUP BY d_year ORDER BY d_year;"""
MINMAX_SQL = """
    SELECT d_year, MIN(lo_revenue) AS lo, MAX(lo_revenue) AS hi,
           AVG(lo_quantity) AS qty
    FROM lineorder, ddate WHERE lo_orderdate = d_datekey
    GROUP BY d_year ORDER BY d_year;"""


class TestMergeDeterminism:
    @pytest.mark.parametrize("sql", [GRID_SQL, MINMAX_SQL],
                             ids=["grid", "partials"])
    @pytest.mark.parametrize("policy", ["hash", "round_robin"])
    def test_repeat_runs_bit_identical(self, catalog, sql, policy):
        engine = dist_engine(catalog, shards=3, policy=policy)
        first = engine.execute(sql).require_table()
        second = engine.execute(sql).require_table()
        assert first.column_names == second.column_names
        for name in first.column_names:
            assert np.array_equal(first.column(name).data,
                                  second.column(name).data)

    def test_matches_oracle_and_single_node(self, catalog, oracle,
                                            single_node):
        expected = oracle.execute(GRID_SQL)
        unsharded = single_node.execute(GRID_SQL)
        for shards in (2, 4):
            got = dist_engine(catalog, shards=shards).execute(GRID_SQL)
            assert_results_match(got, expected, rel=TCU_REL,
                                 context=f"dist({shards}) vs oracle")
            assert_results_match(got, unsharded, rel=TCU_REL,
                                 context=f"dist({shards}) vs single-node")

    def test_allreduce_cost_in_ledger_and_listing(self, catalog):
        result = dist_engine(catalog, shards=2).execute(GRID_SQL)
        assert result.extra["distributed"]["route"] == "grid-allreduce"
        assert STAGE_SHARD_MERGE in result.breakdown.stages
        ops = result.extra["operator_costs"]
        assert any(op.op_id == "allreduce" for op in ops)
        assert "allreduce merge" in result.extra["program_listing"]

    def test_single_node_routes(self, catalog, oracle):
        engine = dist_engine(catalog, shards=4)
        # Dimension-only query: replicated tables, fan-out would
        # multiply rows.
        dims = engine.execute(
            "SELECT COUNT(*) AS n FROM ddate;"
        ).extra["distributed"]
        assert dims["route"] == "single-node"
        assert "does not read the partitioned fact" in dims["reason"]
        # Non-aggregate queries, with or without LIMIT: nothing to
        # merge, so the coordinator answers them.
        for sql in ("SELECT lo_orderkey FROM lineorder "
                    "ORDER BY lo_orderkey LIMIT 5;",
                    "SELECT lo_orderkey, lo_revenue FROM lineorder "
                    "WHERE lo_discount > 7 "
                    "ORDER BY lo_revenue DESC, lo_orderkey;"):
            got = engine.execute(sql)
            info = got.extra["distributed"]
            assert info["route"] == "single-node"
            assert info["reason"] == "non-aggregate query"
            assert_results_match(got, oracle.execute(sql), rel=TCU_REL,
                                 context=sql)


class TestEmptyShards:
    @pytest.fixture()
    def tiny(self):
        cat = Catalog()
        cat.register(Table.from_dict("facts", {
            "k": [1, 2, 3],
            "v": [10.0, 20.0, 30.0],
            "neg": [-5.0, -7.0, -9.0],
        }))
        cat.register(Table.from_dict("dim", {
            "k": [1, 2, 3, 4],
            "label": ["a", "b", "a", "b"],
        }))
        return cat

    @pytest.mark.parametrize("sql", [
        "SELECT label, SUM(v) AS s, MIN(neg) AS m, COUNT(*) AS n "
        "FROM facts, dim WHERE facts.k = dim.k "
        "GROUP BY label ORDER BY label;",
        # Ungrouped: every empty shard reports a COUNT=0 row.
        "SELECT SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(neg) AS hi, "
        "COUNT(*) AS n FROM facts;",
        "SELECT label, COUNT(v) AS c, MAX(v) AS hi "
        "FROM facts, dim WHERE facts.k = dim.k "
        "GROUP BY label ORDER BY label;",
        # HAVING reads an aggregate the select list does not.
        "SELECT label, SUM(v) AS s FROM facts, dim "
        "WHERE facts.k = dim.k GROUP BY label "
        "HAVING MIN(neg) < -8 ORDER BY label;",
    ])
    @pytest.mark.parametrize("policy", ["hash", "round_robin"])
    def test_zero_row_shards_contribute_identity(self, tiny, policy, sql):
        # 8 shards over a 3-row fact: most shards hold zero rows.  They
        # must contribute identity partials — no fabricated groups, no
        # zero corrupting a MIN over positive or a MAX over negative
        # values.
        expected = ReferenceEngine(tiny).execute(sql)
        engine = DistributedEngine(
            tiny, shards=8, fact="facts", partition_policy=policy,
            partition_key="k" if policy == "hash" else None,
            mode=ExecutionMode.REAL,
        )
        assert min(engine.sharded.shard_rows()) == 0
        got = engine.execute(sql)
        assert got.extra["distributed"]["route"] == "partial-rows"
        assert_results_match(got, expected, rel=TCU_REL,
                             context=f"empty shards ({policy})")

    def test_all_shards_empty_after_filter(self, tiny):
        sql = ("SELECT label, SUM(v) AS s FROM facts, dim "
               "WHERE facts.k = dim.k AND v > 1000 "
               "GROUP BY label;")
        engine = DistributedEngine(
            tiny, shards=4, fact="facts", partition_key="k",
            mode=ExecutionMode.REAL,
        )
        expected = ReferenceEngine(tiny).execute(sql)
        got = engine.execute(sql)
        assert got.require_table().num_rows == 0
        assert_results_match(got, expected, rel=TCU_REL,
                             context="globally empty aggregate")

    def test_global_aggregate_over_empty_selection(self, tiny):
        # Ungrouped COUNT over an empty selection must still produce
        # its single identity row, like the single-node engine does.
        sql = "SELECT COUNT(*) AS n FROM facts WHERE v > 1000;"
        engine = DistributedEngine(
            tiny, shards=4, fact="facts", partition_key="k",
            mode=ExecutionMode.REAL,
        )
        assert_results_match(
            engine.execute(sql), ReferenceEngine(tiny).execute(sql),
            rel=TCU_REL, context="empty ungrouped count",
        )


class TestCacheNamespacing:
    def test_shard_and_node_entries_coexist(self, catalog):
        # One server-wide cache shared by a single-node engine and a
        # distributed engine on the SAME SQL: the per-shard fingerprint
        # namespaces must keep entries from evicting each other, and
        # both engines must stay correct.
        cache = ProgramCache()
        node = TCUDBEngine(catalog, mode=ExecutionMode.REAL,
                           options=TCUDBOptions(), program_cache=cache)
        dist = dist_engine(catalog, shards=2, program_cache=cache)
        expected = ReferenceEngine(catalog).execute(GRID_SQL)
        for _ in range(2):
            assert_results_match(node.execute(GRID_SQL), expected,
                                 rel=TCU_REL, context="cached node")
            assert_results_match(dist.execute(GRID_SQL), expected,
                                 rel=TCU_REL, context="cached dist")
        stats = cache.stats()
        # Second round hits for every engine — nothing was evicted or
        # invalidated by a namespace collision.
        assert stats["evictions"] == 0
        assert stats["invalidations"] == 0
        assert stats["hits"] >= 2

    def test_distinct_parameter_bindings_do_not_collide(self, catalog,
                                                        oracle):
        # The distributed program cache keys on the substituted literals,
        # so two bindings of one prepared template must not reuse each
        # other's shard plans.
        cache = ProgramCache()
        dist = dist_engine(catalog, shards=2, program_cache=cache)
        template = ("SELECT d_year, SUM(lo_revenue) AS rev "
                    "FROM lineorder, ddate "
                    "WHERE lo_orderdate = d_datekey AND lo_discount >= ? "
                    "GROUP BY d_year;")
        prepared = dist.prepare(template)
        for value in (2, 8, 2):
            got = dist.execute_prepared(prepared, [value])
            expected = oracle.execute(template.replace("?", str(value)))
            assert_results_match(got, expected, rel=TCU_REL,
                                 context=f"dist prepared ?={value}")


# --------------------------------------------------------------------- #
# Differential fuzz: sharded == unsharded == oracle
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def fuzz_queries():
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    return [generator.generate() for _ in range(N_FUZZ_QUERIES)]


@pytest.fixture(scope="module")
def oracle_rows(catalog, fuzz_queries):
    reference = create_engine("reference", catalog)
    return [reference.execute(sql) for sql in fuzz_queries]


@pytest.mark.parametrize("policy", ["hash", "round_robin"])
@pytest.mark.parametrize("shards", [2, 4])
def test_fuzz_sharded_equals_unsharded_equals_oracle(
    catalog, single_node, fuzz_queries, oracle_rows, shards, policy,
):
    engine = dist_engine(catalog, shards=shards, policy=policy)
    failures: list[str] = []
    routes: dict[str, int] = {}
    for index, (sql, expected) in enumerate(zip(fuzz_queries, oracle_rows)):
        try:
            got = engine.execute(sql)
            info = got.extra.get("distributed")
            route = info["route"] if info else "single-node"
            routes[route] = routes.get(route, 0) + 1
            assert_results_match(
                got, expected, rel=TCU_REL,
                context=f"fuzz #{index} dist({shards},{policy}): {sql}",
            )
            assert_results_match(
                got, single_node.execute(sql), rel=TCU_REL,
                context=f"fuzz #{index} vs unsharded: {sql}",
            )
        except AssertionError as error:
            failures.append(f"-- fuzz #{index}\n{sql}\n   {error}")
        except Exception as error:  # engine crash: also a divergence
            failures.append(
                f"-- fuzz #{index} raised {type(error).__name__}: "
                f"{error}\n{sql}"
            )
    assert not failures, (
        f"{len(failures)}/{len(fuzz_queries)} fuzzed queries diverged at "
        f"shards={shards} policy={policy}; reproducing SQL below\n"
        + "\n".join(failures[:10])
    )
    # The sweep must exercise the distributed merge, not just the
    # single-node escape hatch.
    distributed_runs = sum(count for route, count in routes.items()
                           if route != "single-node")
    assert distributed_runs >= 10, routes
