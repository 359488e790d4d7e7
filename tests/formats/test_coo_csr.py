"""Structure-level tests for the COO and CSR formats."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.coo import COO
from repro.formats.csr import CSR
from tests.conftest import make_random_triplets


class TestCOO:
    def test_arrays_named(self, small_triplets):
        A = COO.from_triplets(small_triplets)
        assert set(A.arrays()) == {"rows", "cols", "values"}

    def test_no_padding(self, small_triplets):
        A = COO.from_triplets(small_triplets)
        assert A.stored_entries == A.nnz
        assert A.padding_ratio == 1.0

    def test_rejects_format_params(self, small_triplets):
        with pytest.raises(FormatError):
            COO.from_triplets(small_triplets, block_size=4)

    def test_rejects_unsorted(self):
        with pytest.raises(FormatError):
            COO(2, 2, [1, 0], [0, 0], [1.0, 2.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(FormatError):
            COO(2, 2, [0], [0, 1], [1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            COO(2, 2, [0, 5], [0, 0], [1.0, 2.0])

    def test_row_segments_is_indptr(self, small_triplets):
        A = COO.from_triplets(small_triplets)
        seg = A.row_segments()
        assert seg[0] == 0
        assert seg[-1] == A.nnz
        assert np.all(np.diff(seg) >= 0)
        counts = np.bincount(A.rows, minlength=A.nrows)
        assert np.array_equal(np.diff(seg), counts)

    def test_to_triplets_copies(self, small_triplets):
        A = COO.from_triplets(small_triplets)
        t = A.to_triplets()
        assert not np.shares_memory(t.values, A.values)

    def test_empty_matrix(self):
        from repro.matrices.coo_builder import CooBuilder

        A = COO.from_triplets(CooBuilder(4, 4).finish())
        assert A.nnz == 0
        assert A.to_dense().sum() == 0


class TestCSR:
    def test_arrays_named(self, small_triplets):
        A = CSR.from_triplets(small_triplets)
        assert set(A.arrays()) == {"indptr", "indices", "values"}

    def test_indptr_structure(self, small_triplets):
        A = CSR.from_triplets(small_triplets)
        assert A.indptr.shape == (A.nrows + 1,)
        assert A.indptr[0] == 0
        assert A.indptr[-1] == A.nnz
        assert np.all(np.diff(A.indptr) >= 0)

    def test_matches_scipy_structure(self, small_triplets):
        import scipy.sparse as sp

        A = CSR.from_triplets(small_triplets)
        S = sp.csr_matrix(small_triplets.to_dense())
        assert np.array_equal(A.indptr, S.indptr)
        assert np.array_equal(A.indices, S.indices)
        assert np.allclose(A.values, S.data)

    def test_expanded_rows(self, small_triplets):
        A = CSR.from_triplets(small_triplets)
        assert np.array_equal(A.expanded_rows(), np.asarray(small_triplets.rows))

    def test_row_nnz(self, small_triplets):
        A = CSR.from_triplets(small_triplets)
        assert np.array_equal(A.row_nnz(), small_triplets.row_counts())

    def test_empty_rows_handled(self, empty_rows_triplets):
        A = CSR.from_triplets(empty_rows_triplets)
        assert np.allclose(A.to_dense(), empty_rows_triplets.to_dense())

    def test_rejects_bad_indptr_length(self):
        with pytest.raises(FormatError):
            CSR(3, 3, [0, 1], [0], [1.0])

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(FormatError):
            CSR(2, 3, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_rejects_wrong_terminal(self):
        with pytest.raises(FormatError):
            CSR(2, 3, [0, 1, 5], [0, 1], [1.0, 2.0])

    def test_rejects_col_out_of_range(self):
        with pytest.raises(FormatError):
            CSR(2, 3, [0, 1, 2], [0, 3], [1.0, 2.0])

    def test_smaller_than_coo(self):
        """CSR's pointer array is 'much shorter' than COO's row array."""
        t = make_random_triplets(50, 50, density=0.3, seed=1)
        coo = COO.from_triplets(t)
        csr = CSR.from_triplets(t)
        assert csr.nbytes < coo.nbytes
