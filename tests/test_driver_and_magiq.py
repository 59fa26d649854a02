"""Driver internals (composite keys, GEMM paths) and the MAGiQ engine."""

import numpy as np
import pytest

from repro.engine.magiq import GraphBLAS, MAGiQEngine
from repro.engine.tcudb.cost import estimate_dense
from repro.engine.tcudb.driver import (
    NUMERIC_CELL_LIMIT,
    CompositeKey,
    PreparedJoin,
    TCUDriver,
)
from repro.engine.tcudb.transform import union_key_domain
from repro.hardware.profiles import I7_7700K
from repro.tensor.csr import CSRMatrix
from repro.tensor.coo import COOMatrix
from repro.tensor.precision import Precision


class TestCompositeKey:
    def test_roundtrip_two_columns(self, rng):
        a = rng.integers(10, 20, 50)
        b = rng.integers(0, 5, 50)
        key = CompositeKey.build([a, b])
        decoded = key.decode(key.codes)
        assert np.array_equal(decoded[0], a)
        assert np.array_equal(decoded[1], b)

    def test_cardinality(self):
        key = CompositeKey.build([np.array([1, 1, 2]), np.array([7, 8, 7])])
        assert key.cardinality == 4  # 2 values x 2 values

    def test_three_columns(self, rng):
        arrays = [rng.integers(0, 4, 30) for _ in range(3)]
        key = CompositeKey.build(arrays)
        decoded = key.decode(key.codes)
        for original, back in zip(arrays, decoded):
            assert np.array_equal(original, back)

    def test_empty_rejected(self):
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError):
            CompositeKey.build([])


class TestDriverJoinPaths:
    def _prepared(self, rng, n, m, k):
        left = rng.integers(0, k, n)
        right = rng.integers(0, k, m)
        domain = union_key_domain(left, right)
        return PreparedJoin(
            op="=", left_keys_mapped=domain.left,
            right_keys_mapped=domain.right,
            domain_values=domain.values, k=domain.k,
        )

    def _plan(self, device, n, m, k):
        from repro.engine.tcudb.cost import OperatorGeometry

        geometry = OperatorGeometry(
            g1=n, g2=m, k=k, nnz_left=n, nnz_right=m, n_tuples=n + m,
            raw_bytes=8.0 * (n + m), result_rows=n,
        )
        return estimate_dense(device, I7_7700K, geometry, Precision.INT4)

    def test_matmul_and_semantic_paths_agree(self, device, rng):
        """The indicator-GEMM join (the path the ``Gemm`` operator runs)
        and the key-based join produce the same pair set — the central
        driver invariant."""
        n, m, k = 60, 45, 9
        prepared = self._prepared(rng, n, m, k)
        plan = self._plan(device, n, m, k)
        driver = TCUDriver(device)
        assert n * m <= NUMERIC_CELL_LIMIT
        rows, cols = driver._join_pairs_by_matmul(prepared, plan)
        pairs = driver._join_pairs_semantic(prepared)
        li, = pairs.left([np.arange(n)])
        ri, = pairs.right([np.arange(m)])
        matmul_pairs = sorted(zip(rows.tolist(), cols.tolist()))
        semantic_pairs = sorted(zip(li.tolist(), ri.tolist()))
        assert matmul_pairs == semantic_pairs

    def test_analytic_count_matches_pairs(self, device, rng):
        """ANALYTIC mode counts the pairs REAL mode materializes."""
        prepared = self._prepared(rng, 40, 40, 5)
        plan = self._plan(device, 40, 40, 5)
        driver = TCUDriver(device)
        rows, _ = driver._join_pairs_by_matmul(prepared, plan)
        assert driver._join_count(prepared) == rows.size


class TestGraphBLAS:
    @pytest.fixture
    def grb(self, device):
        return GraphBLAS(device)

    @pytest.fixture
    def matrix(self, rng):
        dense = np.where(rng.random((12, 12)) < 0.3,
                         rng.integers(1, 5, (12, 12)).astype(float), 0.0)
        return CSRMatrix.from_dense(dense)

    def test_mxv(self, grb, matrix, rng):
        x = rng.normal(size=12)
        result = grb.mxv(matrix, x)
        assert np.allclose(result.value, matrix.to_dense() @ x)
        assert result.seconds > 0

    def test_vxm_is_transpose_product(self, grb, matrix, rng):
        x = rng.normal(size=12)
        result = grb.vxm(x, matrix)
        assert np.allclose(result.value, matrix.to_dense().T @ x)

    def test_mxm_matches_dense(self, grb, matrix):
        result = grb.mxm(matrix, matrix)
        assert np.allclose(result.value.to_dense(),
                           matrix.to_dense() @ matrix.to_dense())

    def test_reduce_rows_is_row_sum(self, grb, matrix):
        result = grb.reduce_rows(matrix)
        assert np.allclose(result.value, matrix.to_dense().sum(axis=1))

    def test_ewise_div_guards_zero(self, grb):
        result = grb.ewise_div(np.array([1.0, 2.0]), np.array([2.0, 0.0]))
        assert np.allclose(result.value, [0.5, 0.0])

    def test_costs_scale_with_nnz(self, grb, rng):
        small = CSRMatrix.from_coo(COOMatrix(
            np.array([0]), np.array([0]), np.array([1.0]), (100, 100)))
        rows = rng.integers(0, 100, 5000)
        cols = rng.integers(0, 100, 5000)
        big = CSRMatrix.from_coo(
            COOMatrix(rows, cols, np.ones(5000), (100, 100))
        )
        x = np.ones(100)
        assert grb.mxv(big, x).seconds > grb.mxv(small, x).seconds


class TestMAGiQEngine:
    def test_requires_loaded_graph(self):
        from repro.common.errors import ExecutionError

        engine = MAGiQEngine()
        with pytest.raises(ExecutionError):
            _ = engine.adjacency

    def test_out_degrees(self):
        engine = MAGiQEngine()
        engine.load_graph(np.array([0, 0, 1]), np.array([1, 2, 2]), 3)
        degrees, seconds = engine.out_degrees()
        assert list(degrees) == [2, 1, 0]
        assert seconds > 0

    def test_pagerank_scores_sum_bounded(self):
        engine = MAGiQEngine()
        rng = np.random.default_rng(0)
        src = rng.integers(0, 50, 150)
        dst = rng.integers(0, 50, 150)
        engine.load_graph(src, dst, 50)
        output = engine.pagerank(max_iterations=40)
        assert output.scores.min() > 0
        # The paper's formulation leaks dangling mass, so the total is
        # at most 1 but at least the teleport mass.
        assert 0.15 <= output.scores.sum() <= 1.0 + 1e-9

    def test_convergence_stops_early(self):
        engine = MAGiQEngine()
        engine.load_graph(np.array([0, 1]), np.array([1, 0]), 2)
        output = engine.pagerank(max_iterations=500, tolerance=1e-12)
        assert output.iterations < 500
