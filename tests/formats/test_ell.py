"""Structure-level tests for ELLPACK."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.ell import ELL
from repro.matrices.coo_builder import CooBuilder
from tests.conftest import make_random_triplets


class TestELLStructure:
    def test_width_is_max_row(self, small_triplets):
        A = ELL.from_triplets(small_triplets)
        assert A.width == int(small_triplets.row_counts().max())

    def test_shape_of_arrays(self, small_triplets):
        A = ELL.from_triplets(small_triplets)
        assert A.indices.shape == (A.nrows, A.width)
        assert A.values.shape == (A.nrows, A.width)

    def test_stored_entries(self, small_triplets):
        A = ELL.from_triplets(small_triplets)
        assert A.stored_entries == A.nrows * A.width

    def test_padding_values_zero(self, small_triplets):
        A = ELL.from_triplets(small_triplets)
        slots = np.arange(A.width)[None, :]
        pad_mask = slots >= A.row_nnz[:, None]
        assert np.all(A.values[pad_mask] == 0)

    def test_padding_indices_repeat_last_column(self):
        """Locality rule: padded slots reuse the row's last real column."""
        b = CooBuilder(3, 10)
        b.add_batch([0, 0, 0, 1], [2, 5, 7, 3], [1, 1, 1, 1])
        A = ELL.from_triplets(b.finish())
        assert A.width == 3
        # Row 1 has one entry at column 3; padding repeats column 3.
        assert list(A.indices[1]) == [3, 3, 3]
        # Row 2 is empty; padding uses column 0.
        assert list(A.indices[2]) == [0, 0, 0]

    def test_real_entries_in_order(self):
        b = CooBuilder(2, 6)
        b.add_batch([0, 0, 0], [1, 3, 5], [1.0, 2.0, 3.0])
        A = ELL.from_triplets(b.finish())
        assert list(A.indices[0]) == [1, 3, 5]
        assert list(A.values[0]) == [1.0, 2.0, 3.0]

    def test_one_long_row_inflates_everything(self, skewed_triplets):
        """The torso1 pathology: width is set by the single long row."""
        A = ELL.from_triplets(skewed_triplets)
        assert A.width == 45
        assert A.padding_ratio > 5

    def test_rejects_format_params(self, small_triplets):
        with pytest.raises(FormatError):
            ELL.from_triplets(small_triplets, width=4)

    def test_empty_matrix_width_one(self):
        A = ELL.from_triplets(CooBuilder(3, 3).finish())
        assert A.width == 1
        assert A.nnz == 0
        assert A.to_dense().sum() == 0

    def test_roundtrip_drops_padding(self, small_triplets):
        A = ELL.from_triplets(small_triplets)
        t = A.to_triplets()
        assert t.nnz == small_triplets.nnz
        assert np.allclose(t.to_dense(), small_triplets.to_dense())

    def test_storage_is_slot_major(self, small_triplets):
        """Slot j of every row is one contiguous column, and plans read it in place."""
        from repro.kernels.planner import plan_spmm

        A = ELL.from_triplets(small_triplets)
        assert A.width > 1
        assert A.indices.flags.f_contiguous and A.values.flags.f_contiguous
        from_c = ELL(
            A.nrows, A.ncols, np.ascontiguousarray(A.indices),
            np.ascontiguousarray(A.values), A.row_nnz,
        )
        assert from_c.indices.flags.f_contiguous and from_c.values.flags.f_contiguous
        kept = ELL(A.nrows, A.ncols, A.indices, A.values, A.row_nnz)
        assert np.shares_memory(kept.indices, A.indices)
        assert np.shares_memory(kept.values, A.values)
        for parts in (1, 3):
            for unit in plan_spmm(A, 4, parts).units:
                ((_rows, (idx, val), _thin),) = unit.args[0]
                assert np.shares_memory(idx, A.indices) and np.shares_memory(val, A.values)
                assert idx[0].flags.c_contiguous and val[0].flags.c_contiguous

    def test_validation_row_nnz_range(self):
        with pytest.raises(FormatError):
            ELL(2, 4, np.zeros((2, 2), int), np.zeros((2, 2)), np.array([3, 0]))

    def test_validation_shapes(self):
        with pytest.raises(FormatError):
            ELL(2, 4, np.zeros((2, 2), int), np.zeros((2, 3)), np.array([1, 1]))

    def test_validation_col_range(self):
        with pytest.raises(FormatError):
            ELL(2, 2, np.full((2, 1), 5), np.zeros((2, 1)), np.array([1, 1]))


class TestELLPaddingEconomics:
    def test_uniform_matrix_minimal_padding(self):
        t = make_random_triplets(30, 30, density=0.2, seed=3)
        # Build a perfectly uniform matrix: every row 4 entries.
        b = CooBuilder(20, 30)
        rng = np.random.default_rng(0)
        for r in range(20):
            cols = rng.choice(30, 4, replace=False)
            b.add_batch([r] * 4, sorted(cols), rng.random(4) + 0.5)
        A = ELL.from_triplets(b.finish())
        assert A.padding_ratio == 1.0

    def test_padding_counts_in_footprint(self, skewed_triplets):
        from repro.formats.csr import CSR

        ell = ELL.from_triplets(skewed_triplets)
        csr = CSR.from_triplets(skewed_triplets)
        assert ell.nbytes > 3 * csr.nbytes
