"""Tests for the transpose, optimized, grouped, and GPU kernel variants,
plus the dispatch table."""

import numpy as np
import pytest

from repro.errors import KernelError, OffloadError, ShapeError
from repro.kernels.dispatch import (
    compile_variant,
    get_kernel,
    grouped_spmm,
    kernel_variants,
    optimized_spmm,
    run_spmm,
    transpose_operand,
    transpose_spmm,
)
from repro.kernels.gpu import gpu_execution_stats, gpu_spmm, gpu_spmm_with_stats
from repro.kernels.plan import PlanCache
from repro.kernels.planner import execute, plan_spmm, row_groups
from tests.conftest import ALL_FORMATS, build_format, make_random_triplets


def dense_ref(triplets, B):
    return triplets.to_dense() @ B


class TestDispatch:
    def test_variants_listed(self):
        variants = kernel_variants("spmm")
        for expected in (
            "serial",
            "parallel",
            "gpu",
            "serial_transpose",
            "parallel_transpose",
            "gpu_transpose",
            "optimized",
            "optimized_parallel",
            "grouped",
            "grouped_parallel",
        ):
            assert expected in variants

    def test_spmv_variants(self):
        assert set(kernel_variants("spmv")) == {"serial", "parallel", "gpu"}

    def test_unknown_variant(self):
        with pytest.raises(KernelError):
            get_kernel("warp", "spmm")

    @pytest.mark.parametrize("variant", ["serial", "parallel", "optimized", "gpu"])
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_all_variants_all_formats(self, small_triplets, rng, fmt, variant):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 5))
        C = run_spmm(A, B, variant=variant, threads=3)
        assert np.allclose(C, dense_ref(small_triplets, B))

    def test_format_spmm_method_dispatches(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 4))
        assert np.allclose(
            A.spmm(B, variant="parallel", threads=2), dense_ref(small_triplets, B)
        )


class TestTranspose:
    def test_transpose_operand_contiguous(self, rng):
        B = rng.standard_normal((7, 5))
        Bt = transpose_operand(B)
        assert Bt.shape == (5, 7)
        assert Bt.flags.c_contiguous

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("threads", [1, 4])
    def test_correctness(self, small_triplets, rng, fmt, threads):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 6))
        C = transpose_spmm(A, B, threads=threads)
        assert np.allclose(C, dense_ref(small_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_skewed(self, skewed_triplets, rng, fmt):
        A = build_format(fmt, skewed_triplets)
        B = rng.standard_normal((A.ncols, 4))
        assert np.allclose(
            transpose_spmm(A, B, threads=2), dense_ref(skewed_triplets, B)
        )

    def test_pre_transposed_operand(self, small_triplets, rng):
        """The plan runs on the strided view of an already-transposed B."""
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 6))
        C = execute(plan_spmm(A, 6), transpose_operand(B).T)
        assert np.allclose(C, dense_ref(small_triplets, B))

    def test_pre_transposed_bad_shape(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        with pytest.raises(ShapeError):
            transpose_spmm(A, rng.standard_normal((4, A.ncols + 1)).T)

    def test_variant_names_route(self, small_triplets, rng):
        A = build_format("bcsr", small_triplets)
        B = rng.standard_normal((A.ncols, 4))
        for variant in ("serial_transpose", "parallel_transpose", "gpu_transpose"):
            C = run_spmm(A, B, variant=variant, threads=2)
            assert np.allclose(C, dense_ref(small_triplets, B))


class TestOptimized:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_specialized_matches(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 8))
        kernel = compile_variant(A, "optimized", 8)
        assert np.allclose(kernel(B), dense_ref(small_triplets, B))

    def test_specialization_cached(self, small_triplets, rng):
        """The plan cache is the one specialization memo."""
        B = rng.standard_normal((small_triplets.ncols, 8))
        cache = PlanCache()
        plan, built = cache.get_or_build_plan(small_triplets, "csr", variant="optimized", k=8)
        again, hit = cache.get_or_build_plan(small_triplets, "csr", variant="optimized", k=8)
        assert (built, hit) == ("built", "memory") and again is plan
        A = build_format("csr", small_triplets)
        assert np.array_equal(plan(B), optimized_spmm(A, B))

    def test_k_must_be_positive(self, small_triplets):
        A = build_format("csr", small_triplets)
        with pytest.raises(KernelError):
            compile_variant(A, "optimized", 0)

    def test_fixed_k_clips(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 10))
        C = optimized_spmm(A, B, k=4)
        assert C.shape == (A.nrows, 4)

    def test_repeated_calls_reuse_plan(self, small_triplets, rng):
        """Specialization pays off over the benchmark loop; the plan must
        not be rebuilt per call (smoke check via timing monotonicity)."""
        import time

        B = rng.standard_normal((small_triplets.ncols, 8))
        plan, _ = PlanCache().get_or_build_plan(small_triplets, "coo", variant="optimized", k=8)
        t0 = time.perf_counter()
        for _ in range(5):
            plan(B)
        hot = time.perf_counter() - t0
        assert hot < 1.0  # sanity: cached path is cheap


class TestGrouped:
    @pytest.mark.parametrize("fmt", ["coo", "csr", "csr5"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_correctness(self, small_triplets, rng, fmt, threads):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 6))
        C = grouped_spmm(A, B, threads=threads)
        assert np.allclose(C, dense_ref(small_triplets, B))

    def test_plan_groups_by_length(self, small_triplets):
        A = build_format("csr", small_triplets)
        groups = row_groups(A)
        total_rows = sum(rows.size for rows, _, _ in groups)
        nonempty = int((small_triplets.row_counts() > 0).sum())
        assert total_rows == nonempty
        for _, idx_mat, val_mat in groups:
            assert idx_mat.shape == val_mat.shape

    def test_empty_rows_stay_zero(self, empty_rows_triplets, rng):
        A = build_format("csr", empty_rows_triplets)
        B = rng.standard_normal((A.ncols, 4))
        C = grouped_spmm(A, B)
        assert np.allclose(C, dense_ref(empty_rows_triplets, B))

    def test_unsupported_format(self, small_triplets, rng):
        A = build_format("ell", small_triplets)
        with pytest.raises(KernelError):
            grouped_spmm(A, rng.standard_normal((A.ncols, 2)))

    def test_skewed(self, skewed_triplets, rng):
        A = build_format("csr", skewed_triplets)
        B = rng.standard_normal((A.ncols, 5))
        assert np.allclose(grouped_spmm(A, B), dense_ref(skewed_triplets, B))


class TestGpu:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_functional_result(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 4))
        assert np.allclose(gpu_spmm(A, B), dense_ref(small_triplets, B))

    def test_stats_divergence_uniform_vs_skewed(self, skewed_triplets):
        # 64 rows fill both warps exactly: ELL's constant width means zero
        # divergence; the skewed CSR matrix diverges badly.
        t = make_random_triplets(64, 64, density=0.2, seed=4)
        A_uniform = build_format("ell", t)
        A_skewed = build_format("csr", skewed_triplets)
        s_uniform = gpu_execution_stats(A_uniform, 8)
        s_skewed = gpu_execution_stats(A_skewed, 8)
        assert s_uniform.divergence == pytest.approx(1.0)
        assert s_skewed.divergence > 2.0

    def test_stats_lane_work_counts_k(self, small_triplets):
        A = build_format("csr", small_triplets)
        s4 = gpu_execution_stats(A, 4)
        s8 = gpu_execution_stats(A, 8)
        assert s8.lane_work == 2 * s4.lane_work

    def test_with_stats_helper(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 4))
        C, stats = gpu_spmm_with_stats(A, B)
        assert np.allclose(C, dense_ref(small_triplets, B))
        assert stats.warps >= 1

    def test_faulty_runtime_raises(self, small_triplets, rng):
        from repro.machine.offload import FaultyOffloadRuntime

        A = build_format("csr", small_triplets)
        A._suite_name = "torso1"  # not in the Aries working set
        runtime = FaultyOffloadRuntime()
        with pytest.raises(OffloadError):
            gpu_spmm(A, rng.standard_normal((A.ncols, 2)), runtime=runtime)

    def test_healthy_runtime_passes(self, small_triplets, rng):
        from repro.machine.offload import HealthyOffloadRuntime

        A = build_format("csr", small_triplets)
        A._suite_name = "torso1"
        C = gpu_spmm(
            A, rng.standard_normal((A.ncols, 2)), runtime=HealthyOffloadRuntime()
        )
        assert C.shape == (A.nrows, 2)
