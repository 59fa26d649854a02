"""Seeded property-based fuzzing: TCUDB-with-fallback vs the oracle.

A small random query generator over the SSB schema emits ~200 queries —
single-table and star-join shapes, **chain joins** (dimension-to-
dimension links that break the star, exercising multiway lowering and
the hybrid pre-stage), **non-equi join predicates** (<, <=, >, >=
between tables, the comparison-matrix encoding), random filters
(comparisons, BETWEEN, IN / NOT IN lists, NOT-wrapped conjuncts,
single-table ORs and **cross-table ORs** that exercise the residual
epilogues), SUM/COUNT/AVG/MIN/MAX aggregates with arithmetic
arguments, GROUP BY, HAVING (including negated HAVING), ORDER BY and
LIMIT.  Every query runs through TCUDB (native, hybrid or fallback) and
ReferenceEngine; mismatches fail with the reproducing SQL in the
message, and per-shape path assertions pin which execution paths each
new shape must reach.

The RNG is fixed through :func:`repro.common.rng.make_rng`, so a failure
reproduces by seed + query index alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match, column_dtypes
from repro.bench.verify import TCU_REL
from repro.common.rng import make_rng
from repro.datasets.ssb import REGIONS, ssb_catalog
from repro.engine import create_engine

FUZZ_SEED = 20220612
N_QUERIES = 200

# -- SSB schema description for the generator ------------------------------- #

FACT_NUMERIC = {
    "lo_quantity": (1, 50),
    "lo_discount": (0, 10),
    "lo_extendedprice": (900, 100_000),
    "lo_revenue": (900, 100_000),
    "lo_supplycost": (500, 60_000),
}

# dimension table -> (fact fk column, dimension key column)
DIM_JOINS = {
    "ddate": ("lo_orderdate", "d_datekey"),
    "customer": ("lo_custkey", "c_custkey"),
    "supplier": ("lo_suppkey", "s_suppkey"),
    "part": ("lo_partkey", "p_partkey"),
}


def _nations() -> list[str]:
    return [
        f"{region.replace(' ', '')[:7]}_N{i}"
        for region in REGIONS
        for i in range(5)
    ]


def _cities() -> list[str]:
    return [f"{nation}_C{j}" for nation in _nations() for j in range(10)]


DIM_STRING_COLS = {
    "customer": {
        "c_region": REGIONS,
        "c_nation": _nations(),
        "c_city": _cities(),
    },
    "supplier": {
        "s_region": REGIONS,
        "s_nation": _nations(),
        "s_city": _cities(),
    },
    "part": {
        "p_mfgr": [f"MFGR#{m}" for m in range(1, 6)],
        "p_category": [f"MFGR#{m}{c}" for m in range(1, 6)
                       for c in range(1, 6)],
    },
}

DIM_NUMERIC_COLS = {
    "ddate": {
        "d_year": (1992, 1998),
        "d_month": (1, 12),
        "d_weeknuminyear": (1, 52),
    },
}

# numeric columns usable as aggregate arguments, per table
TABLE_NUMERIC = {
    "lineorder": FACT_NUMERIC,
    "ddate": DIM_NUMERIC_COLS["ddate"],
    "customer": {"c_custkey": (1, 300)},
    "supplier": {"s_suppkey": (1, 40)},
    "part": {"p_partkey": (1, 1000)},
}

# group-by candidates per dimension (strings and small ints)
DIM_GROUP_COLS = {
    "ddate": ["d_year", "d_month", "d_yearmonth"],
    "customer": ["c_region", "c_nation"],
    "supplier": ["s_region", "s_nation"],
    "part": ["p_mfgr", "p_category"],
}

AGG_FUNCS = ["sum", "count", "avg", "min", "max"]


class QueryGenerator:
    """Draws random-but-valid SQL over the SSB schema.

    ``last_shape`` records which structural shape the most recent
    ``generate()`` call drew ("single" | "star" | "chain" | "nonequi"),
    so the fuzz loop can assert per-shape execution paths.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.last_shape = ""

    def _choice(self, options):
        return options[int(self.rng.integers(0, len(options)))]

    # -- filters --------------------------------------------------------- #

    def _numeric_predicate(self, column: str, lo: int, hi: int) -> str:
        kind = self._choice(["cmp", "cmp", "between", "in", "eq"])
        if kind == "between":
            a = int(self.rng.integers(lo, hi + 1))
            b = int(self.rng.integers(lo, hi + 1))
            return f"{column} BETWEEN {min(a, b)} AND {max(a, b)}"
        if kind == "in":
            count = int(self.rng.integers(2, 5))
            values = sorted(
                {int(self.rng.integers(lo, hi + 1)) for _ in range(count)}
            )
            negated = "NOT " if self.rng.random() < 0.3 else ""
            return f"{column} {negated}IN ({', '.join(map(str, values))})"
        value = int(self.rng.integers(lo, hi + 1))
        op = "=" if kind == "eq" else self._choice(["<", "<=", ">", ">="])
        return f"{column} {op} {value}"

    def _string_predicate(self, column: str, pool: list[str]) -> str:
        if self.rng.random() < 0.4:
            count = int(self.rng.integers(2, 4))
            values = sorted({self._choice(pool) for _ in range(count)})
            quoted = ", ".join(f"'{v}'" for v in values)
            negated = "NOT " if self.rng.random() < 0.25 else ""
            return f"{column} {negated}IN ({quoted})"
        return f"{column} = '{self._choice(pool)}'"

    def _table_predicate(self, table: str) -> str | None:
        if table == "lineorder":
            column = self._choice(sorted(FACT_NUMERIC))
            lo, hi = FACT_NUMERIC[column]
            return self._numeric_predicate(column, lo, hi)
        if table in DIM_STRING_COLS and (
            table not in DIM_NUMERIC_COLS or self.rng.random() < 0.7
        ):
            column = self._choice(sorted(DIM_STRING_COLS[table]))
            return self._string_predicate(column,
                                          DIM_STRING_COLS[table][column])
        if table in DIM_NUMERIC_COLS:
            column = self._choice(sorted(DIM_NUMERIC_COLS[table]))
            lo, hi = DIM_NUMERIC_COLS[table][column]
            return self._numeric_predicate(column, lo, hi)
        return None

    def _filters(self, tables: list[str]) -> list[str]:
        conjuncts: list[str] = []
        for _ in range(int(self.rng.integers(0, 3))):
            table = self._choice(tables)
            predicate = self._table_predicate(table)
            if predicate is None:
                continue
            roll = self.rng.random()
            if roll < 0.2:
                # Wrap two same-table predicates in an OR group.
                other = self._table_predicate(table)
                if other is not None and other != predicate:
                    predicate = f"({predicate} OR {other})"
            elif roll < 0.45 and len(tables) >= 2:
                # Cross-table OR: a residual conjunct exercising the
                # residual epilogue (in the operand fill or the pair
                # extraction).
                others = [t for t in tables if t != table]
                other = self._table_predicate(self._choice(others))
                if other is not None:
                    predicate = f"({predicate} OR {other})"
            if self.rng.random() < 0.15:
                predicate = f"NOT ({predicate})"
            conjuncts.append(predicate)
        return conjuncts

    # -- aggregates ------------------------------------------------------ #

    def _agg_argument(self, columns: list[str]) -> str:
        shape = self._choice(["col", "col", "product", "difference", "scale"])
        first = self._choice(columns)
        if shape == "product":
            return f"{first} * {self._choice(columns)}"
        if shape == "difference":
            return f"{first} - {self._choice(columns)}"
        if shape == "scale":
            return f"{first} * {int(self.rng.integers(2, 10))}"
        return first

    def _aggregate_item(self, index: int, columns: list[str]) -> str:
        func = self._choice(AGG_FUNCS)
        if func == "count" and self.rng.random() < 0.5:
            return f"COUNT(*) AS a{index}"
        return f"{func.upper()}({self._agg_argument(columns)}) AS a{index}"

    # -- query shapes ---------------------------------------------------- #

    def generate(self) -> str:
        roll = self.rng.random()
        if roll < 0.10:
            self.last_shape = "chain"
            return self._chain_join()
        if roll < 0.20:
            self.last_shape = "nonequi"
            return self._nonequi_join()
        if roll < 0.48:
            self.last_shape = "single"
            return self._single_table()
        self.last_shape = "star"
        return self._star_join(n_dims=int(self.rng.integers(1, 4)))

    def _chain_join(self) -> str:
        """Joins that chain through a dimension instead of fanning out
        of the fact table — beyond the star pattern (multiway lowering
        for projections, hybrid pre-stage for aggregates)."""
        aggregate = self.rng.random() < 0.6
        if self.rng.random() < 0.5:
            tables = ["lineorder", "customer", "supplier"]
            joins = ["lo_custkey = c_custkey", "c_city = s_city"]
            group_tables = ["customer", "supplier"]
        else:
            tables = ["customer", "supplier"]
            joins = [f"c_{self._choice(['city', 'nation'])} = "
                     f"s_{self._choice(['city', 'nation'])}"]
            # Mismatched levels (city vs nation) produce empty joins;
            # regenerate as the matching pair.
            left, right = joins[0].split(" = ")
            if left[2:] != right[2:]:
                level = left[2:]
                joins = [f"c_{level} = s_{level}"]
            group_tables = ["customer", "supplier"]
        return self._assemble(
            tables=tables, joins=joins, group_tables=group_tables,
            aggregate=aggregate,
        )

    def _nonequi_join(self) -> str:
        """A <, <=, >, >= join predicate between two dimensions: the
        Section-3.4 comparison-matrix encoding (JOIN_2WAY) for
        projections, hybrid for aggregates."""
        op = self._choice(["<", "<=", ">", ">="])
        aggregate = self.rng.random() < 0.5
        return self._assemble(
            tables=["customer", "supplier"],
            joins=[f"c_custkey {op} s_suppkey"],
            group_tables=["customer"],
            aggregate=aggregate,
        )

    def _single_table(self) -> str:
        if self.rng.random() < 0.6:
            return self._assemble(
                tables=["lineorder"], joins=[], group_tables=[],
                aggregate=self.rng.random() < 0.75,
            )
        table = self._choice(sorted(DIM_JOINS))
        return self._assemble(
            tables=[table], joins=[], group_tables=[table],
            aggregate=self.rng.random() < 0.75,
        )

    def _star_join(self, n_dims: int) -> str:
        dims = list(self.rng.choice(sorted(DIM_JOINS), size=n_dims,
                                    replace=False))
        joins = [
            f"{DIM_JOINS[dim][0]} = {DIM_JOINS[dim][1]}" for dim in dims
        ]
        return self._assemble(
            tables=["lineorder"] + dims, joins=joins, group_tables=dims,
            aggregate=self.rng.random() < 0.8,
        )

    def _assemble(self, tables: list[str], joins: list[str],
                  group_tables: list[str], aggregate: bool) -> str:
        # Aggregate arguments come from the fact table in star shapes,
        # or from the single table's own numeric columns.
        agg_source = "lineorder" if "lineorder" in tables else tables[0]
        numeric_cols = sorted(TABLE_NUMERIC[agg_source])
        group_cols: list[str] = []
        if aggregate and group_tables and self.rng.random() < 0.8:
            n_keys = int(self.rng.integers(1, 3))
            candidates = sorted({
                self._choice(DIM_GROUP_COLS[table])
                for table in (self._choice(group_tables)
                              for _ in range(n_keys))
                if table in DIM_GROUP_COLS
            })
            group_cols = candidates
        items: list[str] = []
        if aggregate:
            items.extend(f"{col} AS g{i}" for i, col in enumerate(group_cols))
            for i in range(int(self.rng.integers(1, 3))):
                items.append(self._aggregate_item(i, numeric_cols))
        else:
            if "lineorder" in tables:
                items.append("lo_orderkey AS g0")
                column = self._choice(sorted(FACT_NUMERIC))
                if self.rng.random() < 0.4:
                    items.append(
                        f"{column} * 2 + 1 AS a0"
                    )
                else:
                    items.append(f"{column} AS a0")
            else:
                table = tables[0]
                items.append(f"{self._choice(DIM_GROUP_COLS[table])} AS g0")
        conjuncts = joins + self._filters(tables)
        sql = f"SELECT {', '.join(items)} FROM {', '.join(tables)}"
        if conjuncts:
            sql += " WHERE " + " AND ".join(conjuncts)
        if group_cols:
            sql += " GROUP BY " + ", ".join(group_cols)
        if aggregate and self.rng.random() < 0.3:
            if self.rng.random() < 0.5:
                having = f"COUNT(*) > {int(self.rng.integers(1, 40))}"
            elif self.rng.random() < 0.6:
                column = self._choice(numeric_cols)
                _, hi = TABLE_NUMERIC[agg_source][column]
                threshold = int(self.rng.integers(1, hi * 40))
                having = f"SUM({column}) > {threshold}"
            else:
                column = self._choice(numeric_cols)
                lo, hi = TABLE_NUMERIC[agg_source][column]
                threshold = int(self.rng.integers(lo, hi + 1))
                having = f"AVG({column}) > {threshold}"
            if self.rng.random() < 0.2:
                having = f"NOT ({having})"
            sql += f" HAVING {having}"
        if self.rng.random() < 0.5:
            aliases = [item.split(" AS ")[-1] for item in items]
            directions = [
                f"{alias} {self._choice(['ASC', 'DESC'])}"
                for alias in aliases
            ]
            # Order over every output column => total order up to full-row
            # duplicates, so LIMIT selects a well-defined row multiset.
            sql += " ORDER BY " + ", ".join(directions)
            if self.rng.random() < 0.5:
                sql += f" LIMIT {int(self.rng.integers(1, 40))}"
        return sql + ";"


@pytest.fixture(scope="module")
def fuzz_engines():
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)
    return {
        name: create_engine(name, catalog)
        for name in ("reference", "tcudb")
    }


def test_fuzzed_queries_match_oracle(fuzz_engines):
    """~200 random queries: TCUDB (native, hybrid or fallback) equals the
    oracle, and every structural shape reaches its expected paths."""
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    native = hybrid = fallback = 0
    shape_counts: dict[str, int] = {}
    shape_paths: dict[str, set] = {}
    failures: list[str] = []
    for index in range(N_QUERIES):
        sql = generator.generate()
        shape = generator.last_shape
        shape_counts[shape] = shape_counts.get(shape, 0) + 1
        try:
            oracle = fuzz_engines["reference"].execute(sql)
            tcu = fuzz_engines["tcudb"].execute(sql)
            if tcu.extra.get("fallback_reason"):
                fallback += 1
                path = "fallback"
            elif tcu.extra.get("executed_by") == "TCU-hybrid":
                hybrid += 1
                path = "hybrid"
            else:
                native += 1
                path = "native"
            shape_paths.setdefault(shape, set()).add(path)
            assert_results_match(
                tcu, oracle, rel=TCU_REL,
                context=f"fuzz #{index}: {sql}",
            )
            assert column_dtypes(tcu) == column_dtypes(oracle), (
                f"fuzz #{index}: column dtypes differ"
            )
        except AssertionError as error:
            failures.append(f"-- fuzz #{index}\n{sql}\n   {error}")
        except Exception as error:  # engine crash: also a bug
            failures.append(
                f"-- fuzz #{index} raised {type(error).__name__}: {error}\n"
                f"{sql}"
            )
    if failures:
        pytest.fail(
            f"{len(failures)}/{N_QUERIES} fuzzed queries diverged from the "
            "oracle; reproducing SQL below\n" + "\n".join(failures[:10])
        )
    # The generator must exercise all three TCU execution paths.
    assert native >= 20, f"only {native} fuzzed queries ran natively"
    assert hybrid >= 10, f"only {hybrid} fuzzed queries ran hybrid"
    assert fallback >= 20, f"only {fallback} fuzzed queries fell back"
    # The new shapes must occur and reach their expected paths: chain
    # aggregates run through the hybrid pre-stage, non-equi projections
    # through the native comparison-matrix join.
    assert shape_counts.get("chain", 0) >= 8, shape_counts
    assert shape_counts.get("nonequi", 0) >= 8, shape_counts
    assert "hybrid" in shape_paths.get("chain", set()), shape_paths
    assert "native" in shape_paths.get("nonequi", set()), shape_paths


def test_fuzzer_is_deterministic():
    """Same seed => same query text (reproducibility contract)."""
    first = QueryGenerator(make_rng(FUZZ_SEED))
    second = QueryGenerator(make_rng(FUZZ_SEED))
    for _ in range(25):
        assert first.generate() == second.generate()
