"""The TensorProgram fusion pass and the predicate epilogues:
rewrite-rule applicability, where the lowering puts HAVING and residual
predicates, fused programs against the oracle over the fuzz corpus, and
the statistics-derived selectivity estimates that replaced the
hard-coded 0.5 per conjunct.

The oracle property is the load-bearing test: for every fuzzed query,
the fused program (BatchedGemm + predicate epilogues + direct-COO
operands) must produce the Reference oracle's rows and keep a
consistent per-operator cost ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match
from repro.bench.verify import TCU_REL
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.engine.base import ExecutionMode
from repro.engine.cache import ProgramCache
from repro.engine.tcudb import (
    BatchedGemm,
    Strategy,
    TCUDBEngine,
    TCUDBOptions,
    fuse_program,
    lower_query,
)
from repro.engine.tcudb import ops
from repro.engine.tcudb.lower import _lower_pattern
from repro.engine.tcudb.patterns import match_pattern
from repro.sql.ast_nodes import Parameter, walk_predicate_exprs
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.storage import Catalog, Table
from repro.storage.statistics import (
    ColumnStats,
    bound_stats_lookup,
    conjunction_selectivity,
    predicate_selectivity,
)
from test_fuzz_queries import FUZZ_SEED, QueryGenerator


def lowered_program(catalog, sql):
    bound = bind(parse(sql), catalog, None)
    return lower_query(bound).program


def pattern_program(catalog, sql):
    """The pattern lowering's program before the rewrite pass."""
    bound = bind(parse(sql), catalog, None)
    return _lower_pattern(bound, match_pattern(bound)).program


def op_kinds(program):
    return [op.kind for op in program.ops]


# --------------------------------------------------------------------- #
# Rewrite-rule applicability
# --------------------------------------------------------------------- #


@pytest.fixture
def abc_catalog(rng):
    catalog = Catalog()
    catalog.register(Table.from_dict("a", {
        "id": rng.integers(0, 8, 60),
        "val": rng.integers(0, 9, 60).astype(float),
        "w": rng.integers(1, 5, 60).astype(float),
    }))
    catalog.register(Table.from_dict("b", {
        "id": np.arange(8),
        "g": rng.integers(0, 3, 8),
        "val": rng.integers(0, 9, 8).astype(float),
    }))
    catalog.register(Table.from_dict("c", {
        "w": np.arange(6),
        "g": rng.integers(0, 3, 6),
        "val": rng.integers(0, 9, 6).astype(float),
    }))
    return catalog


class TestRewriteRules:
    @pytest.fixture
    def catalog(self, abc_catalog):
        return abc_catalog

    def test_multi_grid_agg_batches(self, catalog):
        sql = ("SELECT SUM(a.val), COUNT(*), AVG(a.w), b.g FROM a, b "
               "WHERE a.id = b.id GROUP BY b.g")
        program = lowered_program(catalog, sql)
        batched = [op for op in program.ops if isinstance(op, BatchedGemm)]
        assert len(batched) == 1
        assert batched[0].n_grids == 3  # count + sum + avg value grids
        assert batched[0].fused_from  # rewrite recorded in the listing
        assert "BatchedGemm" in program.describe()
        assert "fused_from" in program.describe()
        fill = next(op for op in program.ops
                    if isinstance(op, ops.ValueFill))
        assert fill.shared

    def test_count_only_agg_stays_plain_gemm(self, catalog):
        sql = ("SELECT COUNT(*), b.g FROM a, b WHERE a.id = b.id "
               "GROUP BY b.g")
        program = lowered_program(catalog, sql)
        # A single (count) grid has no fan-out to batch.
        assert not any(isinstance(op, BatchedGemm) for op in program.ops)
        assert any(type(op) is ops.Gemm for op in program.ops)

    # ``seconds``: the simulated charge under a forced DENSE plan.
    # COUNT(*) in SELECT and HAVING is one call, hence one spec; COUNT
    # specs multiply no grid, so the charge is the one a spec per
    # occurrence (``count,count``) gave.
    @pytest.mark.parametrize("items, funcs, seconds", [
        ("SUM(a.val), b.g", "sum,count", "9.273279563369964e-05"),
        ("COUNT(*), b.g", "count", "7.069279525274726e-05"),
    ], ids=["sum", "repeated-count"])
    def test_having_lowers_into_grid_aggregate(self, catalog, items, funcs,
                                               seconds):
        sql = (f"SELECT {items} FROM a, b WHERE a.id = b.id "
               "GROUP BY b.g HAVING COUNT(*) > 2")
        program = lowered_program(catalog, sql)
        fill = next(op for op in program.ops
                    if isinstance(op, ops.ValueFill))
        assert ",".join(spec.func for spec in fill.specs) == funcs
        run = TCUDBEngine(catalog, options=TCUDBOptions(
            force_strategy=Strategy.DENSE)).execute(sql)
        assert run.extra["executed_by"] == "TCU"
        assert repr(run.seconds) == seconds
        harvest = next(op for op in program.ops
                       if isinstance(op, ops.GridAggregate))
        assert harvest.epilogue_predicates
        decode = next(op for op in program.ops if op.kind == "decode")
        assert decode.input == harvest.id

    def test_residual_or_lowers_into_nonzero_extract(self, catalog):
        sql = ("SELECT a.val, b.val FROM a, b WHERE a.id = b.id "
               "AND (a.val > 3 OR b.val > 3)")
        program = lowered_program(catalog, sql)
        extract = next(op for op in program.ops
                       if isinstance(op, ops.NonzeroExtract))
        assert extract.epilogue_predicates
        decode = next(op for op in program.ops if op.kind == "decode")
        assert decode.input == extract.id

    def test_residual_fact_lowers_into_value_fill(self, catalog):
        # Residuals over the folded fact side run inside the operand
        # fill (masked tuples are never placed).  b carries the residual
        # and gets folded; c stays as the B side.
        sql = ("SELECT SUM(a.val), COUNT(*), c.g FROM a, b, c "
               "WHERE a.id = b.id AND a.w = c.w "
               "AND (a.val > 3 OR b.val > 3) "
               "GROUP BY c.g")
        program = lowered_program(catalog, sql)
        fill = next(op for op in program.ops
                    if isinstance(op, ops.ValueFill))
        assert fill.epilogue_predicates
        assert fill.left_input == "fold_b"

    def test_fuse_program_does_not_mutate_input(self, catalog):
        sql = ("SELECT SUM(a.val), COUNT(*), b.g FROM a, b "
               "WHERE a.id = b.id GROUP BY b.g")
        original = pattern_program(catalog, sql)
        kinds_before = op_kinds(original)
        fused = fuse_program(original)
        assert op_kinds(original) == kinds_before
        assert fused is not original
        assert any(isinstance(op, BatchedGemm) for op in fused.ops)

    def test_program_without_rewrites_returned_unchanged(self, catalog):
        sql = "SELECT a.val, b.val FROM a, b WHERE a.id = b.id"
        program = pattern_program(catalog, sql)
        assert fuse_program(program) is program


# --------------------------------------------------------------------- #
# Execution equivalence
# --------------------------------------------------------------------- #


def sorted_rows(result):
    return sorted(map(tuple, result.require_table().rows()))


class TestFusedExecution:
    @pytest.fixture
    def catalog(self):
        return ssb_catalog(scale_factor=1, rows_per_sf=2500, seed=7)

    MULTI_AGG = (
        "SELECT d_year, SUM(lo_revenue) AS rev, COUNT(*) AS n, "
        "AVG(lo_quantity) AS q, SUM(lo_supplycost) AS cost "
        "FROM lineorder, ddate WHERE lo_orderdate = d_datekey "
        "GROUP BY d_year"
    )

    def test_fused_matches_oracle_dense(self, catalog):
        got = TCUDBEngine(catalog).execute(self.MULTI_AGG)
        expected = create_engine("reference", catalog).execute(self.MULTI_AGG)
        assert_results_match(got, expected, rel=TCU_REL, context="dense")

    def test_fused_matches_oracle_forced_sparse(self, catalog):
        # The SPARSE price over the direct-COO operands, multiplied by
        # the same backend product as DENSE.
        got = TCUDBEngine(catalog, options=TCUDBOptions(
            force_strategy=Strategy.SPARSE)).execute(self.MULTI_AGG)
        expected = create_engine("reference", catalog).execute(self.MULTI_AGG)
        assert got.extra["strategy"] == "sparse"
        assert_results_match(got, expected, rel=TCU_REL, context="sparse")

    def test_cost_ledger_names_program_operators(self, catalog):
        run = TCUDBEngine(catalog).execute(self.MULTI_AGG)
        program = run.extra["program"]
        op_ids = {op.id for op in program.ops}
        ledger = run.extra["operator_costs"]
        assert ledger
        assert {cost.op_id for cost in ledger} <= op_ids
        assert any(cost.kind == "batched_gemm" for cost in ledger)

    def test_generated_code_has_fused_sections(self, catalog):
        run = TCUDBEngine(catalog).execute(
            self.MULTI_AGG + " HAVING COUNT(*) > 5"
        )
        source = run.extra["generated_code"].source
        assert "wmma_batched_gemm" in source or "tcu_spmm_batched" in source
        assert "fused epilogue" in source

    def test_analytic_matches_real_simulated_seconds(self, catalog):
        real = TCUDBEngine(catalog, mode=ExecutionMode.REAL).execute(
            self.MULTI_AGG
        )
        analytic = TCUDBEngine(catalog, mode=ExecutionMode.ANALYTIC).execute(
            self.MULTI_AGG
        )
        assert analytic.n_rows == real.n_rows
        assert analytic.seconds == pytest.approx(real.seconds, rel=1e-6)


# --------------------------------------------------------------------- #
# Predicate hosts: the operator that evaluates HAVING / residuals
# --------------------------------------------------------------------- #

# host -> (SQL with ``{pred}`` where the predicate goes, the predicate,
# the same predicate with one literal lifted to ``?`` and its values,
# the host operator's id, executed_by).  The hybrid query's residual
# touches its only dimension, so no pattern B side remains.
PREDICATE_HOSTS = {
    "2way-residual": (
        "SELECT a.val, b.val FROM a, b WHERE a.id = b.id{pred}",
        " AND (a.val > 3 OR b.val > 6)",
        " AND (a.val > ? OR b.val > 6)", [2, 6], "pairs_1", "TCU"),
    "multiway-residual": (
        "SELECT a.val, b.val, c.val FROM a, b, c "
        "WHERE a.id = b.id AND a.w = c.w{pred}",
        " AND (a.val > 3 OR c.val > 6)",
        " AND (a.val > ? OR c.val > 6)", [2, 6], "pairs_2", "TCU"),
    "star-residual-fact": (
        "SELECT SUM(a.val), COUNT(*), c.g FROM a, b, c "
        "WHERE a.id = b.id AND a.w = c.w{pred} GROUP BY c.g",
        " AND (a.val > 3 OR b.val > 6)",
        " AND (a.val > ? OR b.val > 6)", [2, 6], "value_fill", "TCU"),
    "star-having": (
        "SELECT SUM(a.val), b.g FROM a, b WHERE a.id = b.id "
        "GROUP BY b.g{pred}",
        " HAVING COUNT(*) > 2",
        " HAVING COUNT(*) > ?", [1, 20], "grid_agg", "TCU"),
    "hybrid-having": (
        "SELECT SUM(a.val), b.g FROM a, b WHERE a.id = b.id "
        "AND (a.val > 3 OR b.val > 3) GROUP BY b.g{pred}",
        " HAVING COUNT(*) > 2",
        " HAVING COUNT(*) > ?", [1, 20], "grid_agg", "TCU-hybrid"),
}

DENSE = TCUDBOptions(force_strategy=Strategy.DENSE)


def epilogue_hosts(program):
    return {op.id: op.epilogue_predicates for op in program.ops
            if getattr(op, "epilogue_predicates", None)}


def mask_charges(run):
    return [cost.op_id for cost in run.extra["operator_costs"]
            if cost.stage == "tcu_mask_apply"]


@pytest.mark.parametrize("host", PREDICATE_HOSTS)
class TestPredicateHosts:
    def test_lowering_places_predicates_in_their_host(self, abc_catalog,
                                                      host):
        template, pred, _, _, host_id, executed_by = PREDICATE_HOSTS[host]
        sql = template.format(pred=pred)
        hosts = epilogue_hosts(lowered_program(abc_catalog, sql))
        assert list(hosts) == [host_id]
        assert not epilogue_hosts(lowered_program(
            abc_catalog, template.format(pred="")))
        run = TCUDBEngine(abc_catalog, options=DENSE).execute(sql)
        assert run.extra["executed_by"] == executed_by
        assert mask_charges(run) == [host_id]
        assert_results_match(
            run, create_engine("reference", abc_catalog).execute(sql),
            rel=TCU_REL, context=host)

    def test_prepared_parameter_specializes_in_the_host(self, abc_catalog,
                                                        host):
        template, _, lifted, values, host_id, executed_by = (
            PREDICATE_HOSTS[host])
        oracle = create_engine("reference", abc_catalog)
        engine = TCUDBEngine(abc_catalog, options=DENSE,
                             program_cache=ProgramCache())
        prepared = engine.prepare(template.format(pred=lifted))
        for value in values:
            run = engine.execute_prepared(prepared, [value])
            assert run.extra["executed_by"] == executed_by
            (predicates,) = epilogue_hosts(run.extra["program"]).values()
            assert not any(isinstance(node, Parameter)
                           for predicate in predicates
                           for expr in walk_predicate_exprs(predicate)
                           for node in expr.walk())
            inlined = template.format(pred=lifted.replace("?", str(value)))
            assert_results_match(run, oracle.execute(inlined), rel=TCU_REL,
                                 context=f"{host} ? = {value}")
        assert engine.program_cache.stats()["hits"] == len(values) - 1

    def test_analytic_prices_the_epilogue_in_the_host(self, abc_catalog,
                                                      host):
        template, pred, _, _, host_id, executed_by = PREDICATE_HOSTS[host]
        sql = template.format(pred=pred)
        engine = TCUDBEngine(abc_catalog, mode=ExecutionMode.ANALYTIC,
                             options=DENSE)
        run = engine.execute(sql)
        assert run.extra["executed_by"] == executed_by
        assert mask_charges(run) == [host_id]
        unmasked = engine.execute(template.format(pred="")).n_rows
        if host_id == "value_fill":
            # The fill masks the fact rows themselves, before the grid
            # estimate.
            assert run.n_rows <= unmasked
            return
        # Pairs and groups are estimates: the epilogue scales them by
        # the predicates' statistics-derived selectivity.
        bound = bind(parse(sql), abc_catalog, None)
        (predicates,) = epilogue_hosts(lower_query(bound).program).values()
        selectivity = conjunction_selectivity(predicates,
                                              bound_stats_lookup(bound))
        assert 0 < selectivity < 1
        assert run.n_rows == int(unmasked * selectivity)


def test_masked_fill_emits_its_operand_transform(abc_catalog):
    """A ValueFill carrying residuals still names its consuming GEMM, so
    the generated program holds its transformation section."""
    template, pred, *_ = PREDICATE_HOSTS["star-residual-fact"]
    run = TCUDBEngine(abc_catalog, options=DENSE).execute(
        template.format(pred=pred))
    steps = run.extra["generated_code"].steps
    assert [step for step in steps if step.startswith("transform:")] == [
        "transform:" + ("gpu" if run.extra["decision"].plan.transform.on_gpu
                        else "cpu")]


FUZZ_QUERIES = 120


def test_property_fuzz_corpus_fused_matches_oracle():
    """Fused programs over the fuzz corpus: the oracle's rows and
    consistent cost ledgers."""
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=1500, seed=13)
    oracle = create_engine("reference", catalog)
    fused_engine = TCUDBEngine(catalog)
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    failures: list[str] = []
    batched_seen = 0
    for index in range(FUZZ_QUERIES):
        sql = generator.generate()
        try:
            expected = oracle.execute(sql)
            fused = fused_engine.execute(sql)
            assert_results_match(fused, expected, rel=TCU_REL,
                                 context=f"fused #{index}: {sql}")
            if not fused.extra.get("fallback_reason"):
                program = fused.extra["program"]
                op_ids = {op.id for op in program.ops}
                ledger_ids = {c.op_id for c in fused.extra["operator_costs"]}
                assert ledger_ids <= op_ids, f"#{index}: {sql}"
                if any(isinstance(op, BatchedGemm) for op in program.ops):
                    batched_seen += 1
        except AssertionError as error:
            failures.append(f"-- fuzz #{index}\n{sql}\n   {error}")
        except Exception as error:  # engine crash: also a bug
            failures.append(
                f"-- fuzz #{index} raised {type(error).__name__}: "
                f"{error}\n{sql}"
            )
    if failures:
        pytest.fail(
            f"{len(failures)}/{FUZZ_QUERIES} fuzzed queries diverged "
            "(fused vs oracle); reproducing SQL below\n"
            + "\n".join(failures[:10])
        )
    assert batched_seen >= 10, (
        f"only {batched_seen} fuzzed queries exercised BatchedGemm"
    )


# --------------------------------------------------------------------- #
# Statistics-derived selectivities (formerly hard-coded 0.5/conjunct)
# --------------------------------------------------------------------- #


class TestSelectivity:
    STATS = ColumnStats(min_value=0.0, max_value=100.0, n_distinct=50,
                        n_rows=1000)

    def _stats_of(self, expr):
        from repro.sql.ast_nodes import ColumnRef

        return self.STATS if isinstance(expr, ColumnRef) else None

    def _predicates(self, sql_where):
        bound = self._bound(sql_where)
        return list(bound.filters["t"]) + list(bound.residuals)

    def _bound(self, sql_where):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {
            "x": np.arange(100), "y": np.arange(100),
        }))
        return bind(parse(f"SELECT x FROM t WHERE {sql_where}"),
                    catalog, None)

    def _selectivity(self, sql_where) -> float:
        predicates = self._predicates(sql_where)
        assert predicates
        return conjunction_selectivity(predicates, self._stats_of)

    def test_equality_uses_distinct_count(self):
        assert self._selectivity("x = 4") == pytest.approx(1 / 50)

    def test_range_uses_value_span(self):
        assert self._selectivity("x < 25") == pytest.approx(0.25)
        assert self._selectivity("x >= 75") == pytest.approx(0.25)

    def test_between_intersects_ranges(self):
        assert self._selectivity(
            "x BETWEEN 25 AND 75"
        ) == pytest.approx(0.5)

    def test_in_list_scales_with_cardinality(self):
        assert self._selectivity(
            "x IN (1, 2, 3, 4, 5)"
        ) == pytest.approx(5 / 50)

    def test_negation_complements(self):
        assert self._selectivity("NOT (x < 25)") == pytest.approx(0.75)

    def test_disjunction_inclusion_exclusion(self):
        assert self._selectivity(
            "(x < 25 OR y < 25)"
        ) == pytest.approx(1 - 0.75 * 0.75)

    def test_unknown_expression_defaults_to_half(self):
        predicates = self._predicates("x + y > 10")
        assert predicate_selectivity(
            predicates[0], lambda expr: None
        ) == pytest.approx(0.5)

    def test_conjunction_multiplies_and_floors(self):
        predicates = self._predicates("x = 4 AND y = 7")
        assert conjunction_selectivity(
            predicates, self._stats_of
        ) == pytest.approx(1 / 2500)
        assert conjunction_selectivity(
            predicates * 20, self._stats_of
        ) >= 1e-4
