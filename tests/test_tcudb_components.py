"""TCUDB components: patterns, transforms, feasibility, optimizer, codegen."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.tcudb import (
    MatchFailure,
    OpEmission,
    OperatorGeometry,
    PatternKind,
    Strategy,
    TCUOptimizer,
    comparison_matrix,
    emit_tensor_program,
    grouped_matrix,
    match_pattern,
    run_feasibility_test,
    tuple_matrix,
    union_key_domain,
)
from repro.engine.tcudb.cost import estimate_dense, estimate_sparse
from repro.engine.tcudb.feasibility import INDICATOR_RANGE
from repro.engine.tcudb.patterns import constant_value
from repro.hardware.calibration import run_calibration
from repro.hardware.profiles import I7_7700K
from repro.sql import bind, parse
from repro.tensor.precision import Precision, ValueRange


class TestPatternMatcher:
    def test_q1_matches_2way(self, small_catalog):
        bound = bind(parse("SELECT A.Val, B.Val FROM A, B WHERE A.ID = B.ID"),
                     small_catalog)
        pattern = match_pattern(bound)
        assert pattern.kind == PatternKind.JOIN_2WAY

    def test_q5_nonequi_matches(self, small_catalog):
        bound = bind(parse("SELECT A.Val, B.Val FROM A, B WHERE A.ID < B.ID"),
                     small_catalog)
        pattern = match_pattern(bound)
        assert pattern.kind == PatternKind.JOIN_2WAY
        assert pattern.joins[0].op == "<"

    def test_q3_matches_join_agg(self, small_catalog):
        bound = bind(parse(
            "SELECT SUM(A.Val), B.Val FROM A, B WHERE A.ID = B.ID "
            "GROUP BY B.Val"
        ), small_catalog)
        pattern = match_pattern(bound)
        assert pattern.kind == PatternKind.JOIN_AGG
        assert pattern.aggregates[0].func == "sum"

    def test_sum_of_products_decomposes(self, small_catalog):
        bound = bind(parse(
            "SELECT SUM(2 * A.Val * A.Val) FROM A, B WHERE A.ID = B.ID"
        ), small_catalog)
        pattern = match_pattern(bound)
        spec = pattern.aggregates[0]
        assert spec.constant == 2.0
        assert len(spec.factors) == 2

    def test_sum_with_division_decomposes(self, small_catalog):
        bound = bind(parse(
            "SELECT SUM(A.Val / A.ID) FROM A, B WHERE A.ID = B.ID"
        ), small_catalog)
        pattern = match_pattern(bound)
        powers = {f.power for f in pattern.aggregates[0].factors}
        assert powers == {1, -1}

    def test_additive_sum_splits_linearly(self, small_catalog):
        bound = bind(parse(
            "SELECT SUM(A.Val - A.ID) FROM A, B WHERE A.ID = B.ID"
        ), small_catalog)
        pattern = match_pattern(bound)
        assert len(pattern.aggregates) == 2  # SUM(val) and SUM(id)

    def test_min_max_rejected(self, small_catalog):
        bound = bind(parse(
            "SELECT MAX(A.Val) FROM A, B WHERE A.ID = B.ID"
        ), small_catalog)
        failure = match_pattern(bound)
        assert isinstance(failure, MatchFailure)
        assert "MAX" in failure.reason

    def test_single_table_rejected(self, small_catalog):
        bound = bind(parse("SELECT a.val FROM a"), small_catalog)
        assert isinstance(match_pattern(bound), MatchFailure)

    def test_constant_projection_allowed(self, small_catalog):
        bound = bind(parse(
            "SELECT A.Val, (1 - 0.85) / 4 FROM A, B WHERE A.ID = B.ID"
        ), small_catalog)
        pattern = match_pattern(bound)
        assert pattern.kind == PatternKind.JOIN_2WAY
        assert pattern.projected[1] == pytest.approx(0.0375)

    def test_constant_value_folding(self):
        from repro.sql.ast_nodes import BinaryOp, Literal

        expr = BinaryOp("/", BinaryOp("-", Literal(1), Literal(0.85)),
                        Literal(4))
        assert constant_value(expr) == pytest.approx(0.0375)
        assert constant_value(BinaryOp("/", Literal(1), Literal(0))) is None


class TestTransform:
    def test_union_key_domain(self):
        left = np.array([5, 3, 5])
        right = np.array([3, 9])
        domain = union_key_domain(left, right)
        assert list(domain.values) == [3, 5, 9]
        assert list(domain.left) == [1, 0, 1]
        assert list(domain.right) == [0, 2]

    def test_tuple_matrix_encoding(self):
        # Section 3.1: mat(A)[i, j] = 1 iff a_i.ID = v_j.
        matrix = tuple_matrix(np.array([0, 2, 0]), k=3)
        dense = matrix.to_dense()
        assert dense.shape == (3, 3)
        assert dense[0, 0] == 1 and dense[1, 2] == 1 and dense[2, 0] == 1
        assert dense.sum() == 3

    def test_join_via_indicator_matmul(self, rng):
        """C = mat(A) @ mat(B).T has C[i,j] > 0 iff keys match (Sec 3.1)."""
        left = rng.integers(0, 6, 20)
        right = rng.integers(0, 6, 15)
        domain = union_key_domain(left, right)
        a = tuple_matrix(domain.left, domain.k).to_dense()
        b = tuple_matrix(domain.right, domain.k).to_dense()
        product = a @ b.T
        for i in range(20):
            for j in range(15):
                assert (product[i, j] > 0) == (left[i] == right[j])

    def test_grouped_matrix_sums_duplicates(self):
        keys = np.array([0, 0, 1])
        groups = np.array([7, 7, 7])
        values = np.array([2.0, 3.0, 4.0])
        matrix = grouped_matrix(keys, k=2, group_codes=groups, values=values)
        dense = matrix.to_dense()
        assert dense.shape == (1, 2)
        assert dense[0, 0] == 5.0 and dense[0, 1] == 4.0

    def test_grouped_matrix_collapses_without_groups(self):
        matrix = grouped_matrix(np.array([0, 1, 0]), k=2)
        assert matrix.shape == (1, 2)
        assert matrix.to_dense()[0, 0] == 2.0

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "<>"])
    def test_comparison_matrix_semantics(self, rng, op):
        import operator

        ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge, "<>": operator.ne}
        domain = np.array([1, 4, 7, 9])
        keys = np.array([0, 2, 3])  # positions in domain
        matrix = comparison_matrix(keys, domain, op).to_dense()
        for i, key_pos in enumerate(keys):
            for j in range(4):
                expected = ops[op](domain[key_pos], domain[j])
                assert bool(matrix[i, j]) == expected, (op, i, j)


class TestFeasibility:
    def test_indicator_ranges_pick_int4(self):
        report = run_feasibility_test(INDICATOR_RANGE, INDICATOR_RANGE, 4096)
        assert report.feasible
        assert report.choice.precision == Precision.INT4

    def test_unbounded_division_rejected(self):
        report = run_feasibility_test(None, ValueRange(0, 1), 10)
        assert not report.feasible
        assert "unbounded" in report.reason

    def test_result_bound_reported(self):
        report = run_feasibility_test(
            ValueRange(0, 10), ValueRange(0, 10), 100
        )
        assert report.result_bound == 10 * 10 * 100


class TestOptimizer:
    def _optimizer(self, device):
        return TCUOptimizer(device, I7_7700K, run_calibration(device))

    def _geometry(self, g1=4096, g2=4096, k=32, nnz=4096):
        return OperatorGeometry(
            g1=g1, g2=g2, k=k, nnz_left=nnz, nnz_right=nnz,
            n_tuples=g1 + g2, raw_bytes=8.0 * (g1 + g2),
            result_rows=min(g1 * g2, 500_000),
        )

    def test_dense_chosen_for_dense_inputs(self, device):
        optimizer = self._optimizer(device)
        feasibility = run_feasibility_test(INDICATOR_RANGE, INDICATOR_RANGE, 32)
        decision = optimizer.decide(self._geometry(), feasibility,
                                    pairs=500_000, grouped=False)
        assert decision.use_tcu
        assert decision.plan.strategy == Strategy.DENSE

    def test_sparse_chosen_below_density_threshold(self, device):
        optimizer = self._optimizer(device)
        geometry = self._geometry(k=65536, nnz=4096)  # density 1/65536
        feasibility = run_feasibility_test(INDICATOR_RANGE, INDICATOR_RANGE,
                                           65536)
        decision = optimizer.decide(geometry, feasibility, pairs=4096,
                                    grouped=False)
        assert decision.plan.strategy == Strategy.SPARSE

    def test_blocked_chosen_beyond_device_memory(self, device):
        optimizer = self._optimizer(device)
        dim = 120_000  # ~29 GB fp16 matrices > 24 GB
        geometry = self._geometry(g1=dim, g2=dim, k=dim, nnz=dim * 64)
        feasibility = run_feasibility_test(INDICATOR_RANGE, INDICATOR_RANGE,
                                           dim)
        decision = optimizer.decide(geometry, feasibility, pairs=dim,
                                    grouped=False)
        assert decision.plan.strategy == Strategy.BLOCKED

    def test_infeasible_range_falls_back(self, device):
        optimizer = self._optimizer(device)
        feasibility = run_feasibility_test(None, None, 10)
        decision = optimizer.decide(self._geometry(), feasibility,
                                    pairs=10, grouped=False)
        assert not decision.use_tcu
        assert "range test failed" in decision.reason

    def test_compact_precision_is_cheaper(self, device):
        geometry = self._geometry(g1=8192, g2=8192, k=8192, nnz=8192)
        host = I7_7700K
        int4 = estimate_dense(device, host, geometry, Precision.INT4)
        fp16 = estimate_dense(device, host, geometry, Precision.FP16)
        assert int4.total < fp16.total

    def test_trace_records_tests(self, device):
        optimizer = self._optimizer(device)
        feasibility = run_feasibility_test(INDICATOR_RANGE, INDICATOR_RANGE, 32)
        decision = optimizer.decide(self._geometry(), feasibility,
                                    pairs=500_000, grouped=False)
        text = decision.explain()
        assert "range test" in text and "density test" in text

    def test_forced_strategy_reestimates(self, device):
        sparse_forced = TCUOptimizer(
            device, I7_7700K, run_calibration(device),
            force_strategy=Strategy.SPARSE,
        )
        feasibility = run_feasibility_test(INDICATOR_RANGE, INDICATOR_RANGE, 32)
        decision = sparse_forced.decide(self._geometry(), feasibility,
                                        pairs=500_000, grouped=False)
        assert decision.plan.strategy == Strategy.SPARSE
        baseline = self._optimizer(device).decide(
            self._geometry(), feasibility, pairs=500_000, grouped=False
        )
        assert decision.plan.total != baseline.plan.total


class TestCodegen:
    def _plan(self, device, strategy=Strategy.DENSE):
        geometry = OperatorGeometry(
            g1=64, g2=64, k=32, nnz_left=64, nnz_right=64, n_tuples=128,
            raw_bytes=1024, result_rows=100,
        )
        if strategy == Strategy.SPARSE:
            return estimate_sparse(device, I7_7700K, geometry, Precision.FP16)
        return estimate_dense(device, I7_7700K, geometry, Precision.FP16)

    def _program(self, plan, n_matmuls=1):
        """A transform operator feeding one GEMM: the transform reads the
        plan its consumer's decision selected."""
        return emit_tensor_program("test", [
            OpEmission(kind="indicator_build", label="IndicatorBuild(=)",
                       consumer_id="gemm_1", transform=True),
            OpEmission(kind="gemm", label="TCUJoin", plan=plan,
                       dims=(64, 64, 32), n_matmuls=n_matmuls),
        ], decisions={"gemm_1": SimpleNamespace(plan=plan)})

    def test_dense_program_uses_wmma(self, device):
        program = self._program(self._plan(device))
        assert "wmma_optimized_gemm" in program.source
        assert "cudaMemcpy" in program.source

    def test_sparse_program_uses_tile_kernel(self, device):
        program = self._program(self._plan(device, Strategy.SPARSE))
        assert "tcu_spmm_kernel" in program.source
        assert "csr_to_tiles" in program.source

    def test_steps_enumerated(self, device):
        plan = self._plan(device)
        program = self._program(plan, n_matmuls=2)
        transform = "gpu" if plan.transform.on_gpu else "cpu"
        assert program.steps == (f"transform:{transform}", "compute:densex2")
