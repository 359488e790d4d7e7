"""Tests for triplet accumulation (CooBuilder / Triplets)."""

import numpy as np
import pytest

from repro.dtypes import POLICY_32
from repro.errors import FormatError, ShapeError
from repro.matrices.coo_builder import CooBuilder, triplets_from_dense


class TestCooBuilder:
    def test_single_add(self):
        b = CooBuilder(3, 3)
        b.add(1, 2, 5.0)
        t = b.finish()
        assert t.nnz == 1
        assert t.to_dense()[1, 2] == 5.0

    def test_batch_add(self):
        b = CooBuilder(4, 4)
        b.add_batch([0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        assert b.pending == 3
        assert b.finish().nnz == 3

    def test_empty_finish(self):
        t = CooBuilder(5, 5).finish()
        assert t.nnz == 0
        assert t.to_dense().sum() == 0

    def test_sorted_row_major(self):
        b = CooBuilder(3, 3)
        b.add_batch([2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        t = b.finish()
        keys = np.asarray(t.rows, dtype=np.int64) * 3 + t.cols
        assert np.all(np.diff(keys) > 0)

    def test_duplicates_summed(self):
        b = CooBuilder(2, 2)
        b.add_batch([0, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])
        t = b.finish()
        assert t.nnz == 1
        assert t.to_dense()[0, 1] == pytest.approx(6.0)

    def test_duplicates_kept_when_disabled(self):
        b = CooBuilder(2, 2)
        b.add_batch([0, 0], [1, 1], [1.0, 2.0])
        t = b.finish(sum_duplicates=False)
        assert t.nnz == 2

    def test_row_out_of_range(self):
        b = CooBuilder(2, 2)
        with pytest.raises(FormatError):
            b.add(2, 0, 1.0)

    def test_col_out_of_range(self):
        b = CooBuilder(2, 2)
        with pytest.raises(FormatError):
            b.add(0, -1, 1.0)

    def test_mismatched_batch_shapes(self):
        b = CooBuilder(3, 3)
        with pytest.raises(FormatError):
            b.add_batch([0, 1], [0], [1.0, 2.0])

    def test_zero_dims_rejected(self):
        with pytest.raises(ShapeError):
            CooBuilder(0, 3)

    def test_add_dense(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = CooBuilder(2, 2)
        b.add_dense(dense)
        assert np.array_equal(b.finish().to_dense(), dense)

    def test_add_dense_wrong_shape(self):
        b = CooBuilder(2, 2)
        with pytest.raises(ShapeError):
            b.add_dense(np.zeros((3, 3)))

    def test_policy_dtypes_respected(self):
        b = CooBuilder(3, 3, policy=POLICY_32)
        b.add(0, 0, 1.0)
        t = b.finish()
        assert t.rows.dtype == np.int32
        assert t.values.dtype == np.float32

    def test_empty_batch_noop(self):
        b = CooBuilder(3, 3)
        b.add_batch([], [], [])
        assert b.pending == 0


class TestTriplets:
    def test_arrays_are_read_only(self, small_triplets):
        for array in (small_triplets.rows, small_triplets.cols, small_triplets.values):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_fingerprint_hashed_once(self, content_hashes):
        t = CooBuilder(3, 3).finish()
        assert t.fingerprint == t.fingerprint
        assert len(content_hashes) == 1

    def test_row_counts(self):
        b = CooBuilder(4, 4)
        b.add_batch([0, 0, 2], [0, 1, 3], [1, 1, 1])
        counts = b.finish().row_counts()
        assert counts.tolist() == [2, 0, 1, 0]

    def test_transposed_roundtrip(self, small_triplets):
        double_t = small_triplets.transposed().transposed()
        assert np.array_equal(double_t.to_dense(), small_triplets.to_dense())

    def test_transposed_shape(self, small_triplets):
        t = small_triplets.transposed()
        assert t.nrows == small_triplets.ncols
        assert t.ncols == small_triplets.nrows

    def test_transposed_sorted(self, small_triplets):
        t = small_triplets.transposed()
        keys = np.asarray(t.rows, dtype=np.int64) * t.ncols + t.cols
        assert np.all(np.diff(keys) > 0)

    def test_from_dense_roundtrip(self, rng):
        dense = np.where(rng.random((7, 9)) < 0.3, rng.random((7, 9)) + 0.5, 0)
        assert np.array_equal(triplets_from_dense(dense).to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ShapeError):
            triplets_from_dense(np.ones(4))
