"""The four workloads: tables, statement text, set-up, request stream, oracle.

Statement text is copied here on purpose (not imported from
``repro.workloads`` or ``repro.bench``): the benchmark's names and
inputs must not move when the library's example queries do.  Table
generators *are* the library's; ``tables_checksum`` makes a generator
change visible in every result record.

Tables come from the fixed ``DATA_SEED``; ``--seed`` drives the request
stream (statement order, parameter rotation, the never-repeated
literals).  Runs with different seeds must measure the same work: the
entity-matching output sizes alone move 2-10x with the data seed (Zipf
head), which would measure the generator instead of the engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.bench.verify import ABS_TOL, TCU_REL, result_rows, rows_match
from repro.datasets.em import itunes_catalog
from repro.datasets.matmul import matmul_catalog
from repro.datasets.ssb import ssb_catalog
from repro.engine.base import QueryResult
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb.engine import TCUDBEngine, TCUDBOptions
from repro.serve.server import QueryServer
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.storage.types import DataType

DATA_SEED = 20220612

Tables = dict[str, dict[str, np.ndarray]]  # table name -> column -> values


@dataclass(frozen=True)
class Request:
    """One operation of the request stream.

    ``stmt`` is the statement id quiet latency is tracked under;
    ``variant`` tells apart the parameter sets / literals of one id, so
    each distinct (stmt, variant) is checked against the oracle.
    """

    stmt: str
    sql: str
    variant: str = ""
    params: tuple | None = None
    catalog: str = "main"


def catalog_tables(catalog: Catalog, head: dict[str, int] | None = None) -> Tables:
    """Decoded column arrays of every table (``head`` truncates tables)."""
    tables: Tables = {}
    for name in catalog.table_names():
        columns = catalog.get(name).to_dict()
        if head and name in head:
            columns = {c: v[: head[name]] for c, v in columns.items()}
        tables[name] = columns
    return tables


def tables_checksum(inputs: dict[str, Tables]) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for key in sorted(inputs):
        for table in sorted(inputs[key]):
            for column, values in inputs[key][table].items():
                digest.update(f"{key}/{table}/{column}".encode())
                if values.dtype == object:
                    digest.update("\0".join(values).encode())
                else:
                    digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def load_catalog(tables: Tables) -> Catalog:
    """The program's own load path: ``Table.from_dict`` + ``register``."""
    catalog = Catalog()
    for name, columns in tables.items():
        catalog.register(Table.from_dict(name, columns))
    return catalog


class Workload:
    """Static description of one workload; ``open`` builds a runner."""

    name = ""
    setups = 4  # fresh set-ups per run; setup_s is their quiet floor

    def __init__(self, quick: bool = False):
        self.quick = quick
        if quick:
            self.setups = 2
        self.inputs = self.generate()  # catalog key -> tables
        self.requests = self.statements()

    def generate(self) -> dict[str, Tables]:
        raise NotImplementedError

    def statements(self) -> list[Request]:
        """One request per statement id (also the set-up's first pass)."""
        raise NotImplementedError

    def open(self, catalogs: dict[str, Catalog]) -> "Runner":
        return Runner(catalogs, self.backends())

    def backends(self) -> dict[str, str]:
        """Tensor backend of each catalog's engine."""
        return {key: "fast" for key in self.inputs}

    def rounds(self, seed: int):
        """Endless seeded stream of rounds; a round runs every id once."""
        rng = np.random.default_rng(seed)
        while True:
            yield [self.requests[i] for i in rng.permutation(len(self.requests))]

    def mismatch(self, runner: "Runner", request: Request,
                 result: QueryResult) -> str | None:
        """None when ``result`` equals the ReferenceEngine replay."""
        expected = runner.oracle(request.catalog).execute(
            request.sql, params=request.params)
        return rows_match(result_rows(result), result_rows(expected),
                          rel=TCU_REL)


class Runner:
    """One set-up: catalogs loaded, one one-shot engine per catalog."""

    def __init__(self, catalogs: dict[str, Catalog], backends: dict[str, str]):
        self.catalogs = catalogs
        self.engines = {
            key: TCUDBEngine(catalog,
                             options=TCUDBOptions(backend=backends[key]))
            for key, catalog in catalogs.items()
        }

    def execute(self, request: Request) -> QueryResult:
        return self.engines[request.catalog].execute(request.sql)

    def oracle(self, key: str) -> ReferenceEngine:
        return ReferenceEngine(self.catalogs[key])

    def layer_counters(self) -> dict[str, float]:
        """Cumulative counters owned by layers only this runner has."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# ssb_star
# --------------------------------------------------------------------- #

SSB_SQL = {
    "Q1.1": """SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_year = 1993
          AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25""",
    "Q1.2": """SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
          AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35""",
    "Q1.3": """SELECT SUM(lo_extendedprice * lo_discount) AS revenue
        FROM lineorder, ddate
        WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6
          AND d_year = 1994 AND lo_discount BETWEEN 5 AND 7
          AND lo_quantity BETWEEN 26 AND 35""",
    "Q2.1": """SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12'
          AND s_region = 'AMERICA'
        GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1""",
    "Q2.2": """SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey
          AND p_brand1 IN ('MFGR#2221', 'MFGR#2222', 'MFGR#2223',
                           'MFGR#2224', 'MFGR#2225', 'MFGR#2226',
                           'MFGR#2227', 'MFGR#2228')
          AND s_region = 'ASIA'
        GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1""",
    "Q2.3": """SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
        FROM lineorder, ddate, part, supplier
        WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
          AND lo_suppkey = s_suppkey AND p_brand1 = 'MFGR#2239'
          AND s_region = 'EUROPE'
        GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1""",
    "Q3.1": """SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey AND c_region = 'ASIA'
          AND s_region = 'ASIA' AND d_year BETWEEN 1992 AND 1997
        GROUP BY c_nation, s_nation, d_year
        ORDER BY d_year ASC, revenue DESC""",
    "Q3.2": """SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey AND c_nation = 'AMERICA_N3'
          AND s_nation = 'AMERICA_N3' AND d_year BETWEEN 1992 AND 1997
        GROUP BY c_city, s_city, d_year
        ORDER BY d_year ASC, revenue DESC""",
    "Q3.3": """SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND s_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND d_year BETWEEN 1992 AND 1997
        GROUP BY c_city, s_city, d_year
        ORDER BY d_year ASC, revenue DESC""",
    "Q3.4": """SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        FROM lineorder, customer, supplier, ddate
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_orderdate = d_datekey
          AND c_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND s_city IN ('AMERICA_N1_C1', 'AMERICA_N1_C5')
          AND d_yearmonth = 'Dec1997'
        GROUP BY c_city, s_city, d_year
        ORDER BY d_year ASC, revenue DESC""",
    "Q4.1": """SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
          AND c_region = 'AMERICA' AND s_region = 'AMERICA'
          AND p_mfgr IN ('MFGR#1', 'MFGR#2')
        GROUP BY d_year, c_nation ORDER BY d_year, c_nation""",
    "Q4.2": """SELECT d_year, s_nation, p_category,
               SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
          AND c_region = 'AMERICA' AND s_region = 'AMERICA'
          AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
        GROUP BY d_year, s_nation, p_category
        ORDER BY d_year, s_nation, p_category""",
    "Q4.3": """SELECT d_year, s_city, p_brand1,
               SUM(lo_revenue - lo_supplycost) AS profit
        FROM lineorder, ddate, customer, supplier, part
        WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
          AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
          AND s_nation = 'AMERICA_N3' AND d_year IN (1997, 1998)
          AND p_category = 'MFGR#14'
        GROUP BY d_year, s_city, p_brand1
        ORDER BY d_year, s_city, p_brand1""",
}


class SsbStar(Workload):
    name = "ssb_star"
    setups = 2

    def generate(self):
        rows = 6_000 if self.quick else 600_000
        return {"main": catalog_tables(
            ssb_catalog(rows_per_sf=rows, seed=DATA_SEED))}

    def statements(self):
        return [Request(stmt, sql) for stmt, sql in SSB_SQL.items()]


# --------------------------------------------------------------------- #
# matmul_query
# --------------------------------------------------------------------- #

# Figure 5: matrix multiplication in SQL over (row_num, col_num, val).
MATMUL_SQL = """SELECT A.col_num, B.row_num, SUM(A.val * B.val) AS res
    FROM A, B WHERE A.row_num = B.col_num
    GROUP BY A.col_num, B.row_num"""


def _dense(columns: dict[str, np.ndarray], dim: int) -> np.ndarray:
    dense = np.zeros((dim, dim))
    dense[columns["row_num"].astype(int), columns["col_num"].astype(int)] = (
        columns["val"])
    return dense


class MatmulQuery(Workload):
    name = "matmul_query"

    def shapes(self) -> dict[str, tuple[int, str]]:
        if self.quick:
            return {"dense384": (24, "fast"), "dense512": (32, "fast"),
                    "dense640": (40, "fast"), "sim256": (16, "sim")}
        return {"dense384": (384, "fast"), "dense512": (512, "fast"),
                "dense640": (640, "fast"), "sim256": (256, "sim")}

    def generate(self):
        return {
            stmt: catalog_tables(matmul_catalog(dim, seed=DATA_SEED + dim))
            for stmt, (dim, _backend) in self.shapes().items()
        }

    def statements(self):
        return [Request(stmt, MATMUL_SQL, catalog=stmt)
                for stmt in self.shapes()]

    def backends(self):
        return {stmt: backend for stmt, (_dim, backend) in self.shapes().items()}

    def mismatch(self, runner, request, result):
        # The ReferenceEngine replay of this join materializes dim**3
        # pairs (57M-262M: minutes and gigabytes), so the oracle here is
        # the float64 product itself: C[i][j] = sum_k A[k][i] * B[j][k].
        dim = self.shapes()[request.stmt][0]
        tables = self.inputs[request.catalog]
        expected = _dense(tables["a"], dim).T @ _dense(tables["b"], dim).T
        table = result.require_table()
        i, j, res = (table.column(name).data for name in table.column_names)
        if table.num_rows != dim * dim:
            return f"row count {table.num_rows} != {dim * dim}"
        got = np.full((dim, dim), np.nan)
        got[i, j] = res
        if not np.allclose(got, expected, rtol=TCU_REL, atol=ABS_TOL):
            worst = np.nanmax(np.abs(got - expected))
            return f"matrix product differs (max abs error {worst})"
        return None


# --------------------------------------------------------------------- #
# em_blocking
# --------------------------------------------------------------------- #

# `price` is left out: its 25M-row output measures the page allocator.
EM_ATTRIBUTES = ("genre", "time", "artist", "copyright", "album")


def _blocking_sql(attribute: str) -> str:
    return f"""SELECT TABLE_A.ID, TABLE_A.SONG, TABLE_B.ID, TABLE_B.SONG
        FROM TABLE_A, TABLE_B
        WHERE TABLE_A.{attribute} = TABLE_B.{attribute}"""


def _comparable_columns(table) -> list[np.ndarray]:
    """Integer arrays that order and compare like the logical values:
    string codes are re-ranked through the sorted dictionary, so two
    engines need not share code assignment."""
    arrays = []
    for name in table.column_names:
        column = table.column(name)
        data = column.data
        if column.dtype == DataType.STRING:
            values = column.dictionary.decode(np.arange(len(column.dictionary)))
            rank = np.empty(len(values), dtype=np.int64)
            rank[np.argsort(values.astype(str), kind="stable")] = np.arange(
                len(values))
            data = rank[data]
        arrays.append(data)
    return arrays


def columns_mismatch(got, expected) -> str | None:
    """Column-wise multiset comparison for multi-million-row join
    outputs (exact ints/strings; no Python tuples)."""
    if got.num_rows != expected.num_rows:
        return f"row count {got.num_rows} != {expected.num_rows}"
    if got.num_columns != expected.num_columns:
        return f"width {got.num_columns} != {expected.num_columns}"
    got_columns = _comparable_columns(got)
    expected_columns = _comparable_columns(expected)
    got_order = np.lexsort(got_columns[::-1])
    expected_order = np.lexsort(expected_columns[::-1])
    for index, (g, e) in enumerate(zip(got_columns, expected_columns)):
        if not np.array_equal(g[got_order], e[expected_order]):
            return f"column {index} differs"
    return None


class EmBlocking(Workload):
    name = "em_blocking"

    def generate(self):
        head = {"table_a": 250, "table_b": 2_000} if self.quick else None
        return {"main": catalog_tables(itunes_catalog(seed=1), head)}

    def statements(self):
        return [Request(attribute, _blocking_sql(attribute))
                for attribute in EM_ATTRIBUTES]

    def mismatch(self, runner, request, result):
        expected = runner.oracle(request.catalog).execute(request.sql)
        return columns_mismatch(result.require_table(),
                                expected.require_table())


# --------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------- #

PREPARED = {
    "prep.0": ("select d.d_year, sum(lo.lo_revenue) "
               "from lineorder as lo, ddate as d "
               "where lo.lo_orderdate = d.d_datekey and d.d_year >= ? "
               "group by d.d_year order by d.d_year",
               [(1992,), (1994,), (1996,), (1998,)]),
    "prep.1": ("select d.d_year, sum(lo.lo_extendedprice * lo.lo_discount) "
               "from lineorder as lo, ddate as d "
               "where lo.lo_orderdate = d.d_datekey "
               "and lo.lo_discount between ? and ? and lo.lo_quantity < ? "
               "group by d.d_year",
               [(1, 3, 25), (2, 5, 35), (4, 6, 45)]),
    "prep.2": ("select c.c_nation, sum(lo.lo_revenue) "
               "from lineorder as lo, customer as c "
               "where lo.lo_custkey = c.c_custkey and c.c_region = ? "
               "group by c.c_nation order by c.c_nation",
               [("ASIA",), ("AMERICA",), ("EUROPE",)]),
    "prep.3": ("select d.d_year, count(*) from lineorder as lo, ddate as d "
               "where lo.lo_orderdate = d.d_datekey group by d.d_year "
               "having sum(lo.lo_revenue) > ? order by d.d_year",
               [(1_000_000,), (2_500_000_000,)]),
    "prep.4": ("select s.s_nation, sum(lo.lo_supplycost) "
               "from lineorder as lo, supplier as s "
               "where lo.lo_suppkey = s.s_suppkey and lo.lo_quantity > ? "
               "group by s.s_nation order by s.s_nation",
               [(10,), (25,), (40,)]),
}

# Raw SQL re-sent verbatim: re-prepared on every call, then a cache hit.
HIT_SQL = {f"hit.{i}": SSB_SQL[stmt] for i, stmt in
           enumerate(("Q1.1", "Q2.1", "Q3.1", "Q3.2", "Q4.1"))}

# `{v}` takes a literal no earlier request used: lower + fuse + put.
MISS_SQL = {
    "miss.0": "select d.d_year, sum(lo.lo_revenue) "
              "from lineorder as lo, ddate as d "
              "where lo.lo_orderdate = d.d_datekey "
              "and lo.lo_extendedprice > {v} "
              "group by d.d_year order by d.d_year",
    "miss.1": "select sum(lo.lo_extendedprice * lo.lo_discount) as revenue "
              "from lineorder as lo, ddate as d "
              "where lo.lo_orderdate = d.d_datekey and d.d_year = 1993 "
              "and lo.lo_extendedprice < {v}",
    "miss.2": "select c.c_nation, sum(lo.lo_revenue) "
              "from lineorder as lo, customer as c "
              "where lo.lo_custkey = c.c_custkey and c.c_region = 'ASIA' "
              "and lo.lo_extendedprice > {v} "
              "group by c.c_nation order by c.c_nation",
    "miss.3": "select s.s_nation, count(*) "
              "from lineorder as lo, supplier as s "
              "where lo.lo_suppkey = s.s_suppkey and lo.lo_supplycost > {v} "
              "group by s.s_nation order by s.s_nation",
    "miss.4": "select d.d_year, p.p_mfgr, sum(lo.lo_revenue) "
              "from lineorder as lo, ddate as d, part as p "
              "where lo.lo_orderdate = d.d_datekey "
              "and lo.lo_partkey = p.p_partkey "
              "and lo.lo_extendedprice > {v} "
              "group by d.d_year, p.p_mfgr order by d.d_year, p.p_mfgr",
}
MISS_FIRST_LITERAL = 2_000  # set-up's first pass uses 1_000 + template index


class ServeRunner(Runner):
    """A ``QueryServer`` with its default engine configuration, one
    ``Session``, the five templates prepared."""

    def __init__(self, catalogs: dict[str, Catalog]):
        self.catalogs = catalogs
        self.server = QueryServer(catalogs["main"], max_concurrent=2)
        self.session = self.server.session()
        self.prepared = {stmt: self.session.prepare(sql)
                         for stmt, (sql, _params) in PREPARED.items()}

    def execute(self, request):
        statement = self.prepared.get(request.stmt, request.sql)
        return self.session.execute(statement, params=request.params)

    def layer_counters(self):
        cache = self.server.cache_stats()
        served = self.server.stats
        return {
            "cache.hits": cache["hits"], "cache.misses": cache["misses"],
            "cache.evictions": cache["evictions"],
            "serve.rejected": served["rejected"],
            "serve.retried": served["retried"],
            "serve.degraded": served["degraded"],
        }

    def close(self):
        self.server.close()


class ServeMixed(Workload):
    name = "serve_mixed"
    setups = 6
    repeats = 20  # requests per statement id in one round

    def generate(self):
        return {"main": catalog_tables(
            ssb_catalog(rows_per_sf=5_000, seed=DATA_SEED))}

    def statements(self):
        requests = [Request(stmt, sql, variant="0", params=params[0])
                    for stmt, (sql, params) in PREPARED.items()]
        requests += [Request(stmt, sql) for stmt, sql in HIT_SQL.items()]
        requests += [
            Request(stmt, sql.format(v=1_000 + index), variant="first")
            for index, (stmt, sql) in enumerate(MISS_SQL.items())
        ]
        return requests

    def open(self, catalogs):
        return ServeRunner(catalogs)

    def rounds(self, seed):
        rng = np.random.default_rng(seed)
        rotation = {stmt: int(rng.integers(len(params)))
                    for stmt, (_sql, params) in PREPARED.items()}
        literal = MISS_FIRST_LITERAL + int(rng.integers(1_000))
        repeats = 2 if self.quick else self.repeats
        while True:
            batch = []
            for request in self.requests:
                for _ in range(repeats):
                    if request.stmt in PREPARED:
                        params = PREPARED[request.stmt][1]
                        index = rotation[request.stmt] % len(params)
                        rotation[request.stmt] += 1
                        batch.append(Request(request.stmt, request.sql,
                                             variant=str(index),
                                             params=params[index]))
                    elif request.stmt in MISS_SQL:
                        batch.append(Request(
                            request.stmt,
                            MISS_SQL[request.stmt].format(v=literal),
                            variant=str(literal)))
                        literal += 1
                    else:
                        batch.append(request)
            yield [batch[i] for i in rng.permutation(len(batch))]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SsbStar, MatmulQuery, EmBlocking, ServeMixed)
}
