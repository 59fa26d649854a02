"""Unit + property tests for the COO/CSR sparse formats and the tile-count
estimate TCU-SpMM is priced with."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.tensor.coo import COOMatrix
from repro.tensor.csr import CSRMatrix
from repro.tensor.tiled import estimate_nonempty_tiles


def random_coo(rng, shape, nnz):
    rows = rng.integers(0, shape[0], nnz)
    cols = rng.integers(0, shape[1], nnz)
    vals = rng.normal(size=nnz)
    return COOMatrix(rows, cols, vals, shape)


class TestCOO:
    def test_roundtrip_dense(self, rng):
        coo = random_coo(rng, (13, 17), 40)
        dense = coo.to_dense()
        back = COOMatrix.from_dense(dense)
        assert np.allclose(back.to_dense(), dense)

    def test_sum_duplicates(self):
        coo = COOMatrix(
            np.array([0, 0, 1]), np.array([1, 1, 0]),
            np.array([2.0, 3.0, 4.0]), (2, 2),
        )
        deduped = coo.sum_duplicates()
        assert deduped.nnz == 2
        assert deduped.to_dense()[0, 1] == 5.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ReproError):
            COOMatrix(np.array([5]), np.array([0]), np.array([1.0]), (2, 2))

    def test_transpose(self, rng):
        coo = random_coo(rng, (6, 9), 12)
        assert np.allclose(coo.transpose().to_dense(), coo.to_dense().T)

    def test_density(self):
        coo = COOMatrix(np.array([0]), np.array([0]), np.array([1.0]), (2, 2))
        assert coo.density == 0.25


class TestCSR:
    def test_matches_scipy_construction(self, rng):
        coo = random_coo(rng, (20, 30), 80).sum_duplicates()
        ours = CSRMatrix.from_coo(coo)
        theirs = sp.coo_matrix(
            (coo.vals, (coo.rows, coo.cols)), shape=coo.shape
        ).tocsr()
        assert np.array_equal(ours.indptr, theirs.indptr)
        assert np.array_equal(ours.indices, theirs.indices)
        assert np.allclose(ours.data, theirs.data)

    def test_matvec_matches_scipy(self, rng):
        coo = random_coo(rng, (25, 15), 60)
        ours = CSRMatrix.from_coo(coo)
        x = rng.normal(size=15)
        reference = sp.csr_matrix(ours.to_dense()) @ x
        assert np.allclose(ours.matvec(x), reference)

    def test_matmul_dense(self, rng):
        csr = CSRMatrix.from_coo(random_coo(rng, (10, 8), 20))
        other = rng.normal(size=(8, 6))
        assert np.allclose(csr.matmul_dense(other), csr.to_dense() @ other)

    def test_spgemm_matches_dense_product(self, rng):
        a = CSRMatrix.from_coo(random_coo(rng, (12, 9), 25))
        b = CSRMatrix.from_coo(random_coo(rng, (9, 14), 25))
        assert np.allclose(
            a.spgemm(b).to_dense(), a.to_dense() @ b.to_dense()
        )

    def test_spgemm_flops_counts_work(self, rng):
        a = CSRMatrix.from_coo(random_coo(rng, (10, 10), 30).sum_duplicates())
        b = CSRMatrix.from_coo(random_coo(rng, (10, 10), 30).sum_duplicates())
        flops = a.spgemm_flops(b)
        # 2 flops per (a_ik, b_kj) pairing.
        expected = 2 * sum(
            int(np.sum(b.row_nnz()[a.indices[a.indptr[i]:a.indptr[i + 1]]]))
            for i in range(a.shape[0])
        )
        assert flops == expected

    def test_transpose_roundtrip(self, rng):
        csr = CSRMatrix.from_coo(random_coo(rng, (7, 11), 18))
        assert np.allclose(
            csr.transpose().transpose().to_dense(), csr.to_dense()
        )

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ReproError):
            CSRMatrix(np.array([0, 2, 1]), np.array([0]), np.array([1.0]),
                      (2, 2))

    def test_empty_matrix(self):
        csr = CSRMatrix(np.zeros(3, dtype=np.int64), np.array([], dtype=np.int64),
                        np.array([]), (2, 5))
        assert csr.nnz == 0
        assert np.allclose(csr.matvec(np.ones(5)), 0)


class TestTiled:
    def test_estimate_nonempty_tiles_bounds(self):
        estimate = estimate_nonempty_tiles((160, 160), 50)
        assert 0 < estimate <= 100  # grid is 10x10 tiles
        assert estimate <= 50  # can't exceed nnz


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(1, 40),
    n_cols=st.integers(1, 40),
    seed=st.integers(0, 10_000),
)
def test_property_csr_roundtrip(n_rows, n_cols, seed):
    """CSR <-> COO <-> dense conversions are lossless."""
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, n_rows * n_cols // 2 + 1))
    coo = random_coo(rng, (n_rows, n_cols), nnz)
    dense = coo.to_dense()
    csr = CSRMatrix.from_coo(coo)
    assert np.allclose(csr.to_dense(), dense)
    assert np.allclose(csr.to_coo().to_dense(), dense)
