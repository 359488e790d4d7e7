"""Correctness tests for SpMV (paper §6.3.4)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels.dispatch import parallel_spmv, serial_spmv
from tests.conftest import ALL_FORMATS, build_format


class TestSerialSpmv:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_matches_dense(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        x = rng.standard_normal(A.ncols)
        assert np.allclose(serial_spmv(A, x), small_triplets.to_dense() @ x)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_empty_rows(self, empty_rows_triplets, rng, fmt):
        A = build_format(fmt, empty_rows_triplets)
        x = rng.standard_normal(A.ncols)
        assert np.allclose(serial_spmv(A, x), empty_rows_triplets.to_dense() @ x)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_skewed(self, skewed_triplets, rng, fmt):
        A = build_format(fmt, skewed_triplets)
        x = rng.standard_normal(A.ncols)
        assert np.allclose(serial_spmv(A, x), skewed_triplets.to_dense() @ x)

    def test_rejects_matrix_operand(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        with pytest.raises(ShapeError):
            serial_spmv(A, rng.standard_normal((A.ncols, 2)))

    def test_rejects_wrong_length(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        with pytest.raises(ShapeError):
            serial_spmv(A, rng.standard_normal(A.ncols + 1))

    def test_spmv_equals_spmm_column(self, small_triplets, rng):
        """SpMV is SpMM with k=1 (§6.3.4)."""
        A = build_format("csr", small_triplets)
        x = rng.standard_normal(A.ncols)
        y = serial_spmv(A, x)
        C = A.spmm(x[:, None])
        assert np.allclose(y, C[:, 0])


class TestParallelSpmv:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("threads", [1, 4])
    def test_matches_dense(self, small_triplets, rng, fmt, threads):
        A = build_format(fmt, small_triplets)
        x = rng.standard_normal(A.ncols)
        y = parallel_spmv(A, x, threads=threads)
        assert np.allclose(y, small_triplets.to_dense() @ x)

    def test_rejects_zero_threads(self, small_triplets, rng):
        from repro.errors import KernelError

        A = build_format("csr", small_triplets)
        with pytest.raises(KernelError):
            parallel_spmv(A, rng.standard_normal(A.ncols), threads=0)

    def test_format_method_dispatch(self, small_triplets, rng):
        A = build_format("ell", small_triplets)
        x = rng.standard_normal(A.ncols)
        assert np.allclose(
            A.spmv(x, variant="parallel", threads=2),
            small_triplets.to_dense() @ x,
        )

    def test_gpu_variant_runs(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        x = rng.standard_normal(A.ncols)
        y = A.spmv(x, variant="gpu")
        assert np.allclose(y, small_triplets.to_dense() @ x)
