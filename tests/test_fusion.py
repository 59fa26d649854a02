"""The TensorProgram fusion pass: rewrite-rule applicability, fused vs
unfused equivalence over the fuzz corpus, and the statistics-derived
selectivity estimates that replaced the hard-coded 0.5 per conjunct.

The equivalence property is the load-bearing test: for every fuzzed
query, the fused program (BatchedGemm + masked epilogues + direct-COO
operands) must produce the same rows as the unfused per-aggregate DAG
and as the Reference oracle, never charge *more* simulated time, and
keep a consistent per-operator cost ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from differential_utils import assert_results_match
from repro.common.rng import make_rng
from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.engine.base import ExecutionMode
from repro.engine.tcudb import (
    BatchedGemm,
    Strategy,
    TCUDBEngine,
    TCUDBOptions,
    fuse_program,
    lower_query,
)
from repro.engine.tcudb import ops
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.storage import Catalog, Table
from repro.storage.statistics import (
    ColumnStats,
    conjunction_selectivity,
    predicate_selectivity,
)
from test_fuzz_queries import FUZZ_SEED, QueryGenerator

TCU_REL = 2e-3


def lowered_program(catalog, sql, fusion):
    bound = bind(parse(sql), catalog, None)
    lowered = lower_query(bound, fusion=fusion)
    assert not isinstance(lowered, type(None))
    return lowered.program


def op_kinds(program):
    return [op.kind for op in program.ops]


# --------------------------------------------------------------------- #
# Rewrite-rule applicability
# --------------------------------------------------------------------- #


class TestRewriteRules:
    @pytest.fixture
    def catalog(self, rng):
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

    def test_multi_grid_agg_batches(self, catalog):
        sql = ("SELECT SUM(a.val), COUNT(*), AVG(a.w), b.g FROM a, b "
               "WHERE a.id = b.id GROUP BY b.g")
        program = lowered_program(catalog, sql, fusion=True)
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
        program = lowered_program(catalog, sql, fusion=True)
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
    def test_having_fuses_into_grid_aggregate(self, catalog, items, funcs,
                                              seconds):
        sql = (f"SELECT {items} FROM a, b WHERE a.id = b.id "
               "GROUP BY b.g HAVING COUNT(*) > 2")
        program = lowered_program(catalog, sql, fusion=True)
        fill = next(op for op in program.ops
                    if isinstance(op, ops.ValueFill))
        assert ",".join(spec.func for spec in fill.specs) == funcs
        run = TCUDBEngine(catalog, options=TCUDBOptions(
            force_strategy=Strategy.DENSE)).execute(sql)
        assert run.extra["executed_by"] == "TCU"
        assert repr(run.seconds) == seconds
        kinds = op_kinds(program)
        assert "mask_apply" not in kinds
        harvest = next(op for op in program.ops
                       if isinstance(op, ops.GridAggregate))
        assert harvest.epilogue_predicates
        assert "mask_having" in harvest.fused_from
        # The Decode consumer was rewired onto the host operator.
        decode = next(op for op in program.ops if op.kind == "decode")
        assert decode.input == harvest.id

    def test_residual_or_fuses_into_nonzero_extract(self, catalog):
        sql = ("SELECT a.val, b.val FROM a, b WHERE a.id = b.id "
               "AND (a.val > 3 OR b.val > 3)")
        program = lowered_program(catalog, sql, fusion=True)
        kinds = op_kinds(program)
        assert "mask_apply" not in kinds
        extract = next(op for op in program.ops
                       if isinstance(op, ops.NonzeroExtract))
        assert extract.epilogue_predicates
        assert "mask_residual" in extract.fused_from

    def test_residual_fact_mask_fuses_into_value_fill(self, catalog):
        # residual-fact masks run before the aggregate product; the
        # residual-fill rule folds them into the ValueFill as a masked
        # operand fill (masked tuples are never placed), removing the
        # last standalone mask operator from the PR-4 fusion list.
        # (b carries the residual and gets folded; c stays as the B side.)
        sql = ("SELECT SUM(a.val), COUNT(*), c.g FROM a, b, c "
               "WHERE a.id = b.id AND a.w = c.w "
               "AND (a.val > 3 OR b.val > 3) "
               "GROUP BY c.g")
        program = lowered_program(catalog, sql, fusion=True)
        masks = [op for op in program.ops if isinstance(op, ops.MaskApply)]
        assert not any(m.role == "residual-fact" for m in masks)
        fill = next(op for op in program.ops
                    if isinstance(op, ops.ValueFill))
        assert fill.epilogue_predicates
        assert "mask_residual" in fill.fused_from
        # The fill's input was rewired onto the mask's producer.
        assert fill.left_input != "mask_residual"
        unfused = lowered_program(catalog, sql, fusion=False)
        assert any(
            m.role == "residual-fact"
            for m in unfused.ops if isinstance(m, ops.MaskApply)
        )

    def test_fusion_off_leaves_program_unfused(self, catalog):
        sql = ("SELECT SUM(a.val), COUNT(*), b.g FROM a, b "
               "WHERE a.id = b.id GROUP BY b.g HAVING COUNT(*) > 2")
        program = lowered_program(catalog, sql, fusion=False)
        assert not any(isinstance(op, BatchedGemm) for op in program.ops)
        assert "mask_apply" in op_kinds(program)
        assert "fused_from" not in program.describe()

    def test_fuse_program_does_not_mutate_input(self, catalog):
        sql = ("SELECT SUM(a.val), COUNT(*), b.g FROM a, b "
               "WHERE a.id = b.id GROUP BY b.g")
        original = lowered_program(catalog, sql, fusion=False)
        kinds_before = op_kinds(original)
        fused = fuse_program(original)
        assert op_kinds(original) == kinds_before
        assert fused is not original
        assert any(isinstance(op, BatchedGemm) for op in fused.ops)

    def test_program_without_rewrites_returned_unchanged(self, catalog):
        sql = "SELECT a.val, b.val FROM a, b WHERE a.id = b.id"
        program = lowered_program(catalog, sql, fusion=False)
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

    def test_fused_matches_unfused_dense(self, catalog):
        on = TCUDBEngine(catalog).execute(self.MULTI_AGG)
        off = TCUDBEngine(
            catalog, options=TCUDBOptions(fusion=False)
        ).execute(self.MULTI_AGG)
        assert_results_match(on, off, rel=TCU_REL, context="dense")

    def test_fused_matches_unfused_forced_sparse(self, catalog):
        # Exercises the direct-COO operand builder end to end.
        options_on = TCUDBOptions(force_strategy=Strategy.SPARSE)
        options_off = TCUDBOptions(force_strategy=Strategy.SPARSE,
                                   fusion=False)
        on = TCUDBEngine(catalog, options=options_on).execute(self.MULTI_AGG)
        off = TCUDBEngine(catalog,
                          options=options_off).execute(self.MULTI_AGG)
        assert on.extra["strategy"] == "sparse"
        assert_results_match(on, off, rel=TCU_REL, context="sparse")

    def test_fused_never_costs_more(self, catalog):
        for sql in (
            self.MULTI_AGG,
            "SELECT SUM(lo_revenue), d_year FROM lineorder, ddate "
            "WHERE lo_orderdate = d_datekey GROUP BY d_year "
            "HAVING COUNT(*) > 5",
        ):
            on = TCUDBEngine(catalog).execute(sql)
            off = TCUDBEngine(
                catalog, options=TCUDBOptions(fusion=False)
            ).execute(sql)
            assert on.seconds <= off.seconds + 1e-12, sql

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


FUZZ_QUERIES = 120


def test_property_fuzz_corpus_fused_equals_unfused():
    """Fused-vs-unfused program equivalence over the fuzz corpus: same
    rows as each other and as the oracle, fused simulated cost never
    higher, consistent cost ledgers."""
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=1500, seed=13)
    oracle = create_engine("reference", catalog)
    fused_engine = TCUDBEngine(catalog)
    unfused_engine = TCUDBEngine(catalog, options=TCUDBOptions(fusion=False))
    generator = QueryGenerator(make_rng(FUZZ_SEED))
    failures: list[str] = []
    batched_seen = 0
    for index in range(FUZZ_QUERIES):
        sql = generator.generate()
        try:
            expected = oracle.execute(sql)
            fused = fused_engine.execute(sql)
            unfused = unfused_engine.execute(sql)
            assert_results_match(fused, expected, rel=TCU_REL,
                                 context=f"fused #{index}: {sql}")
            assert_results_match(unfused, expected, rel=TCU_REL,
                                 context=f"unfused #{index}: {sql}")
            both_native = not (fused.extra.get("fallback_reason")
                               or unfused.extra.get("fallback_reason"))
            if both_native:
                # Fusion must never increase simulated cost.
                assert fused.seconds <= unfused.seconds + 1e-12, (
                    f"#{index} fused {fused.seconds} > unfused "
                    f"{unfused.seconds}: {sql}"
                )
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
            "(fused vs unfused vs oracle); reproducing SQL below\n"
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
