"""Correctness tests for the serial SpMM kernels."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.formats.registry import format_names
from repro.kernels.dispatch import serial_spmm
from repro.kernels.planner import SpmmPlan, execute, plan_spmm
from repro.verify.reference import reference_spmm
from tests.conftest import ALL_FORMATS, build_format, make_random_triplets


def dense_ref(triplets, B, k=None):
    D = triplets.to_dense()
    Bv = B[:, :k] if k is not None and k < B.shape[1] else B
    return D @ Bv


class TestSerialCorrectness:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_matches_dense(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 7))
        assert np.allclose(serial_spmm(A, B), dense_ref(small_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_k_clipping(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 9))
        C = serial_spmm(A, B, k=4)
        assert C.shape == (A.nrows, 4)
        assert np.allclose(C, dense_ref(small_triplets, B, k=4))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_k_one(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 1))
        assert np.allclose(serial_spmm(A, B), dense_ref(small_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_empty_rows(self, empty_rows_triplets, rng, fmt):
        A = build_format(fmt, empty_rows_triplets)
        B = rng.standard_normal((A.ncols, 5))
        assert np.allclose(serial_spmm(A, B), dense_ref(empty_rows_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_skewed_rows(self, skewed_triplets, rng, fmt):
        A = build_format(fmt, skewed_triplets)
        B = rng.standard_normal((A.ncols, 6))
        assert np.allclose(serial_spmm(A, B), dense_ref(skewed_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_empty_matrix(self, rng, fmt):
        from repro.matrices.coo_builder import CooBuilder

        A = build_format(fmt, CooBuilder(6, 6).finish())
        B = rng.standard_normal((6, 4))
        assert np.allclose(serial_spmm(A, B), 0.0)

    def test_every_registered_kernel_exists(self, small_triplets):
        assert set(format_names()) == set(ALL_FORMATS)
        for fmt in format_names():
            assert isinstance(plan_spmm(build_format(fmt, small_triplets), 4), SpmmPlan)

    def test_dispatch_unknown_format(self, small_triplets, rng):
        class Fake:
            format_name = "mystery"

        with pytest.raises(KernelError):
            serial_spmm(Fake(), rng.standard_normal((3, 2)))

    def test_reference_helper(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 4))
        assert np.allclose(reference_spmm(small_triplets, B), dense_ref(small_triplets, B))


class TestChunking:
    def test_bcsr_chunked_matches_unchunked(self, rng):
        t = make_random_triplets(50, 50, density=0.15, seed=9)
        A = build_format("bcsr", t)
        B = rng.standard_normal((50, 8))
        full = serial_spmm(A, B)
        tiny_chunks = serial_spmm(A, B, chunk_elements=64)
        assert np.array_equal(full, tiny_chunks)

    def test_stream_chunked_matches(self, rng):
        t = make_random_triplets(60, 40, density=0.2, seed=10)
        A = build_format("csr", t)
        B = rng.standard_normal((40, 8))
        C1 = execute(plan_spmm(A, 8), B)
        C2 = execute(plan_spmm(A, 8, chunk_elements=32), B)
        assert np.array_equal(C1, C2)

    def test_row_range_restricts(self, small_triplets, rng):
        """Each unit of a split plan writes only its own rows of C."""
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 5))
        ref = small_triplets.to_dense() @ B
        plan = plan_spmm(A, 5, parts=3)
        assert len(plan.units) == 3
        written = np.zeros(A.nrows, dtype=int)
        for unit in plan.units:
            C = np.zeros((A.nrows, 5))
            unit(B, C)
            mine = np.any(C != 0.0, axis=1)
            assert 0 < mine.sum() < A.nrows
            assert np.allclose(C[mine], ref[mine])
            written += mine
        assert written.max() == 1


class TestDtypes:
    def test_float32_policy(self, rng):
        from repro.dtypes import POLICY_32

        t = make_random_triplets(20, 20, density=0.2, seed=11, policy=POLICY_32)
        A = build_format("csr", t, policy=POLICY_32)
        B = rng.standard_normal((20, 4)).astype(np.float32)
        C = serial_spmm(A, B)
        assert C.dtype == np.float32
        assert np.allclose(C, t.to_dense().astype(np.float64) @ B, atol=1e-3)
