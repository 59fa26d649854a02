"""Baseline engines (YDB / MonetDB): correctness and analytic fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.microbench import microbench_catalog
from repro.engine.base import ExecutionMode
from repro.engine.monetdb import MonetDBEngine
from repro.engine.physical import (
    combine_group_codes,
    equi_join_count,
    equi_join_indices,
    nonequi_join_count,
    nonequi_join_indices,
)
from repro.engine.ydb import YDBEngine
from repro.storage import Catalog, Table


class TestJoinKernels:
    def test_equi_join_indices_match_brute_force(self, rng):
        left = rng.integers(0, 10, 50)
        right = rng.integers(0, 10, 60)
        li, ri = equi_join_indices(left, right)
        got = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j) for i in range(50) for j in range(60)
            if left[i] == right[j]
        )
        assert got == expected

    def test_equi_join_count_matches_indices(self, rng):
        left = rng.integers(0, 5, 40)
        right = rng.integers(0, 5, 40)
        li, _ = equi_join_indices(left, right)
        assert equi_join_count(left, right) == li.size

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "!="])
    def test_nonequi_counts_and_indices(self, rng, op):
        import operator

        ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge, "!=": operator.ne}
        left = rng.integers(0, 8, 30)
        right = rng.integers(0, 8, 25)
        expected = sorted(
            (i, j) for i in range(30) for j in range(25)
            if ops[op](left[i], right[j])
        )
        assert nonequi_join_count(left, right, op) == len(expected)
        li, ri = nonequi_join_indices(left, right, op)
        assert sorted(zip(li.tolist(), ri.tolist())) == expected

    def test_combine_group_codes_distinguishes_tuples(self, rng):
        a = rng.integers(0, 4, 100)
        b = rng.integers(0, 3, 100)
        combined = combine_group_codes([a, b])
        seen = {}
        for i in range(100):
            key = (a[i], b[i])
            if key in seen:
                assert combined[i] == seen[key]
            else:
                for other, code in seen.items():
                    assert combined[i] != code or other == key
                seen[key] = combined[i]


class TestYDBQueries:
    def test_join_results(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID"
        )
        rows = sorted(result.require_table().rows())
        assert rows == sorted([
            (10.0, "x"), (10.0, "y"), (20.0, "z"), (5.0, "z"),
        ])

    def test_group_by_aggregates(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT SUM(a.val) s, COUNT(*) c, AVG(a.val) m, b.val "
            "FROM a, b WHERE a.id = b.id GROUP BY b.val"
        )
        data = {r[3]: r[:3] for r in result.require_table().rows()}
        assert data["x"] == (10.0, 1.0, 10.0)
        assert data["y"] == (10.0, 1.0, 10.0)
        assert data["z"] == (25.0, 2.0, 12.5)

    def test_min_max_supported(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT MIN(a.val), MAX(a.val) FROM a, b WHERE a.id = b.id"
        )
        assert result.require_table().rows() == [(5.0, 20.0)]

    def test_order_by_desc_and_limit(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT SUM(a.val) s, b.val FROM a, b WHERE a.id = b.id "
            "GROUP BY b.val ORDER BY s DESC LIMIT 1"
        )
        assert result.require_table().rows() == [(25.0, "z")]

    def test_filters_pushed_down(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT a.val, b.val FROM a, b WHERE a.id = b.id AND a.val > 9 "
            "AND b.val = 'z'"
        )
        assert result.require_table().rows() == [(20.0, "z")]

    def test_nonequi_join(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT a.id, b.id FROM a, b WHERE a.id < b.id"
        )
        expected = sorted(
            (x, y) for x in [1, 2, 3, 2, 5] for y in [1, 1, 2, 4] if x < y
        )
        assert sorted(result.require_table().rows()) == expected

    def test_empty_result(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT a.val, b.val FROM a, b WHERE a.id = b.id AND a.val > 999"
        )
        assert result.n_rows == 0

    def test_breakdown_has_join_stage(self, small_catalog):
        engine = YDBEngine(small_catalog)
        result = engine.execute(
            "SELECT a.val, b.val FROM a, b WHERE a.id = b.id"
        )
        assert result.breakdown.get("join") > 0
        assert result.breakdown.get("gpu_memcpy") > 0


class TestMonetDBAgainstYDB:
    def test_same_results_different_costs(self, micro_catalog):
        ydb = YDBEngine(micro_catalog)
        monet = MonetDBEngine(micro_catalog)
        sql = ("SELECT SUM(a.val) s, b.val FROM a, b WHERE a.id = b.id "
               "GROUP BY b.val ORDER BY b.val")
        ydb_rows = ydb.execute(sql).require_table().rows()
        monet_rows = monet.execute(sql).require_table().rows()
        assert ydb_rows == monet_rows

    def test_monetdb_slower_on_join_heavy(self, micro_catalog):
        sql = "SELECT a.val, b.val FROM a, b WHERE a.id = b.id"
        ydb = YDBEngine(micro_catalog).execute(sql)
        monet = MonetDBEngine(micro_catalog).execute(sql)
        assert monet.seconds > ydb.seconds


class TestAnalyticMode:
    def test_counts_match_real_mode(self):
        catalog = microbench_catalog(2048, 16, seed=5)
        sql = "SELECT a.val, b.val FROM a, b WHERE a.id = b.id"
        real = YDBEngine(catalog, mode=ExecutionMode.REAL).execute(sql)
        analytic = YDBEngine(
            catalog, mode=ExecutionMode.ANALYTIC, materialize_limit=10
        ).execute(sql)
        assert analytic.n_rows == real.n_rows
        assert analytic.table is None

    def test_charged_time_identical_across_modes(self):
        catalog = microbench_catalog(1024, 8, seed=6)
        sql = "SELECT a.val, b.val FROM a, b WHERE a.id = b.id"
        real = YDBEngine(catalog, mode=ExecutionMode.REAL).execute(sql)
        analytic = YDBEngine(
            catalog, mode=ExecutionMode.ANALYTIC, materialize_limit=10
        ).execute(sql)
        assert analytic.seconds == pytest.approx(real.seconds, rel=1e-9)

    def test_require_table_raises_when_skipped(self):
        catalog = microbench_catalog(1024, 8, seed=6)
        run = YDBEngine(
            catalog, mode=ExecutionMode.ANALYTIC, materialize_limit=10
        ).execute("SELECT a.val, b.val FROM a, b WHERE a.id = b.id")
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            run.require_table()


@pytest.mark.parametrize("engine_cls", [YDBEngine, MonetDBEngine])
def test_nonequi_join_over_pair_cap_raises(engine_cls):
    """A non-equi join past ``NONEQUI_PAIR_LIMIT`` fails before expanding;
    ANALYTIC mode still declines it and counts its pairs."""
    from repro.common.errors import ExecutionError
    from repro.engine.physical import NONEQUI_PAIR_LIMIT

    n = 10_000
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {"id": np.arange(n)}))
    catalog.register(Table.from_dict("b", {"id": np.arange(n, 2 * n)}))
    sql = "SELECT a.id, b.id FROM a, b WHERE a.id < b.id"
    assert n * n > NONEQUI_PAIR_LIMIT
    with pytest.raises(ExecutionError, match="non-equi join"):
        engine_cls(catalog).execute(sql)
    analytic = engine_cls(catalog, mode=ExecutionMode.ANALYTIC).execute(sql)
    assert analytic.table is None
    assert analytic.n_rows == n * n


#: sha256 of every baseline charge over the differential corpus; see
#: test_baseline_charges_are_pinned.
BASELINE_CHARGES_DIGEST = (
    "ae55039ac53d6bd3775837278b6508fe06718d35945fe647d5e46b257bf31278"
)


@pytest.mark.engine_matrix
def test_baseline_charges_are_pinned():
    """YDB / MonetDB simulated seconds are byte-stable.

    Both baselines run the differential corpus in REAL mode and in
    ANALYTIC mode at a 64-pair materialization limit, so the runs that
    skip a join (and price the operators above it from statistics) are
    pinned too.  The digest covers row counts, ``repr(seconds)`` and every
    stage in charge order: any change to what the walker reports or to
    the order the cost model replays it changes it.
    """
    import hashlib
    import itertools

    from repro.datasets.ssb import ssb_catalog
    from test_differential import CORPUS

    catalogs = {"ssb": ssb_catalog(scale_factor=1, rows_per_sf=3000, seed=11),
                "micro": microbench_catalog(600, 24, seed=3)}
    cells = [(ExecutionMode.REAL, 4_000_000), (ExecutionMode.ANALYTIC, 64)]
    digest = hashlib.sha256()
    skipped = 0
    for cls, (mode, limit), (schema, name, sql) in itertools.product(
            (YDBEngine, MonetDBEngine), cells, CORPUS):
        r = cls(catalogs[schema], mode=mode,
                materialize_limit=limit).execute(sql)
        skipped += r.table is None
        digest.update(repr((
            cls.__name__, mode.value, name, r.n_rows, repr(r.seconds),
            list(r.breakdown.stages.items()),
        )).encode())
    assert skipped == 62
    assert digest.hexdigest() == BASELINE_CHARGES_DIGEST


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 80),
    k=st.integers(1, 12),
    seed=st.integers(0, 99999),
)
def test_property_groupby_sums_match_numpy(n, k, seed):
    """YDB's grouped SUM over a join equals a brute-force computation."""
    rng = np.random.default_rng(seed)
    a_id = rng.integers(0, k, n)
    a_val = rng.integers(0, 50, n).astype(float)
    b_id = rng.integers(0, k, n)
    b_val = rng.integers(0, 5, n)
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {"id": a_id, "val": a_val}))
    catalog.register(Table.from_dict("b", {"id": b_id, "val": b_val}))
    result = YDBEngine(catalog).execute(
        "SELECT SUM(a.val) s, b.val FROM a, b WHERE a.id = b.id "
        "GROUP BY b.val"
    )
    got = {int(r[1]): r[0] for r in result.require_table().rows()}
    expected: dict[int, float] = {}
    for j in range(n):
        matched = a_val[a_id == b_id[j]].sum()
        if (a_id == b_id[j]).any():
            expected[int(b_val[j])] = expected.get(int(b_val[j]), 0.0) + matched
    assert got.keys() == expected.keys()
    for group, total in expected.items():
        assert got[group] == pytest.approx(total)
