"""Correctness tests for the CPU-parallel SpMM kernels."""

import os

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.dispatch import parallel_spmm
from tests.conftest import ALL_FORMATS, build_format, make_random_triplets


def dense_ref(triplets, B):
    return triplets.to_dense() @ B


class TestParallelCorrectness:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("threads", [1, 2, 4, 7])
    def test_matches_dense(self, small_triplets, rng, fmt, threads):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 6))
        C = parallel_spmm(A, B, threads=threads)
        assert np.allclose(C, dense_ref(small_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_dynamic_schedule(self, small_triplets, rng, fmt):
        A = build_format(fmt, small_triplets)
        B = rng.standard_normal((A.ncols, 6))
        if fmt in ("coo", "csr", "ell", "bell", "bcsr", "csr5"):
            C = parallel_spmm(A, B, threads=3, schedule="dynamic")
            assert np.allclose(C, dense_ref(small_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_skewed(self, skewed_triplets, rng, fmt):
        A = build_format(fmt, skewed_triplets)
        B = rng.standard_normal((A.ncols, 4))
        C = parallel_spmm(A, B, threads=5)
        assert np.allclose(C, dense_ref(skewed_triplets, B))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_empty_rows(self, empty_rows_triplets, rng, fmt):
        A = build_format(fmt, empty_rows_triplets)
        B = rng.standard_normal((A.ncols, 3))
        C = parallel_spmm(A, B, threads=4)
        assert np.allclose(C, dense_ref(empty_rows_triplets, B))

    def test_more_threads_than_rows(self, rng):
        t = make_random_triplets(3, 8, density=0.5, seed=2)
        A = build_format("csr", t)
        B = rng.standard_normal((8, 4))
        assert np.allclose(parallel_spmm(A, B, threads=16), dense_ref(t, B))

    def test_k_parameter(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 10))
        C = parallel_spmm(A, B, k=3, threads=4)
        assert C.shape == (A.nrows, 3)
        assert np.allclose(C, small_triplets.to_dense() @ B[:, :3])

    def test_rejects_zero_threads(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        with pytest.raises(KernelError):
            parallel_spmm(A, rng.standard_normal((A.ncols, 2)), threads=0)

    def test_rejects_unknown_schedule(self, small_triplets, rng):
        A = build_format("csr", small_triplets)
        with pytest.raises(KernelError):
            parallel_spmm(
                A, rng.standard_normal((A.ncols, 2)), threads=2, schedule="guided"
            )

    def test_deterministic_across_thread_counts(self, small_triplets, rng):
        """Same partition-sum order per row regardless of threads: results
        are bit-identical for row-partitioned formats."""
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 5))
        C1 = parallel_spmm(A, B, threads=1)
        C4 = parallel_spmm(A, B, threads=4)
        assert np.array_equal(C1, C4)


class TestCsr5DirtyRows:
    def test_rows_spanning_partitions(self, rng):
        """A single row larger than a tile spans workers; the partial sums
        must merge exactly once."""
        from repro.formats.csr5 import CSR5
        from repro.matrices.coo_builder import CooBuilder

        b = CooBuilder(5, 64)
        b.add_batch([0] * 50, range(50), rng.uniform(1, 2, 50))
        b.add_batch([2, 3], [1, 2], [1.0, 1.0])
        t = b.finish()
        A = CSR5.from_triplets(t, tile_nnz=8)
        B = rng.standard_normal((64, 6))
        for threads in (1, 2, 3, 8):
            C = parallel_spmm(A, B, threads=threads)
            assert np.allclose(C, t.to_dense() @ B), f"threads={threads}"

    def test_empty_csr5(self, rng):
        from repro.formats.csr5 import CSR5
        from repro.matrices.coo_builder import CooBuilder

        A = CSR5.from_triplets(CooBuilder(4, 4).finish())
        C = parallel_spmm(A, rng.standard_normal((4, 2)), threads=2)
        assert np.allclose(C, 0.0)


class TestThreadClamp:
    """effective_threads clamps to the CPUs the process may actually use:
    the scheduler affinity mask when the platform exposes one (containers,
    cgroup quotas), os.cpu_count() otherwise — and records which."""

    @staticmethod
    def _no_affinity(monkeypatch):
        from repro.kernels import planner

        monkeypatch.delattr(planner.os, "sched_getaffinity", raising=False)

    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        from repro.bench.observe import Tracer
        from repro.kernels import planner
        from repro.kernels.planner import effective_threads

        monkeypatch.setattr(planner.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            planner.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        tracer = Tracer()
        assert effective_threads(32, tracer) == 3
        assert tracer.warnings["thread_clamp"] == 1
        assert tracer.counters["threads_requested"] == 32
        assert tracer.counters["threads_used"] == 3
        assert tracer.counters["threads_cap_affinity"] == 1
        assert "threads_cap_cpu_count" not in tracer.counters

    def test_clamped_to_cpu_count_without_affinity(self, monkeypatch):
        from repro.bench.observe import Tracer
        from repro.kernels import planner
        from repro.kernels.planner import effective_threads

        self._no_affinity(monkeypatch)
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 2)
        tracer = Tracer()
        assert effective_threads(32, tracer) == 2
        assert tracer.warnings["thread_clamp"] == 1
        assert tracer.counters["threads_requested"] == 32
        assert tracer.counters["threads_used"] == 2
        assert tracer.counters["threads_cap_cpu_count"] == 1

    def test_no_clamp_within_cores(self, monkeypatch):
        from repro.bench.observe import Tracer
        from repro.kernels import planner
        from repro.kernels.planner import effective_threads

        self._no_affinity(monkeypatch)
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 8)
        tracer = Tracer()
        assert effective_threads(4, tracer) == 4
        assert "thread_clamp" not in tracer.warnings

    def test_empty_affinity_falls_back_to_cpu_count(self, monkeypatch):
        from repro.bench.observe import Tracer
        from repro.kernels import planner
        from repro.kernels.planner import effective_threads

        monkeypatch.setattr(planner.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            planner.os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        tracer = Tracer()
        assert effective_threads(8, tracer) == 4
        assert tracer.counters["threads_cap_cpu_count"] == 1

    def test_cpu_count_none_falls_back_to_one(self, monkeypatch):
        from repro.kernels import planner
        from repro.kernels.planner import effective_threads

        self._no_affinity(monkeypatch)
        monkeypatch.setattr(planner.os, "cpu_count", lambda: None)
        assert effective_threads(16) == 1

    def test_clamp_still_correct(self, small_triplets, rng, monkeypatch):
        from repro.kernels import planner

        monkeypatch.setattr(planner.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(
            planner.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        A = build_format("csr", small_triplets)
        B = rng.standard_normal((A.ncols, 4))
        C = parallel_spmm(A, B, threads=32)
        assert np.allclose(C, dense_ref(small_triplets, B))


class TestForkSafety:
    """The shared-pool registry must re-arm in forked children: a fork
    clones the pool dict but not its worker threads, so an inherited
    executor accepts work nobody will ever run."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
    def test_shared_pool_usable_after_fork(self):
        from repro.kernels import planner
        from repro.kernels.planner import shared_pool

        # Prime a pool in the parent so the child inherits a dead entry.
        assert shared_pool(2).submit(lambda: 7).result(timeout=10) == 7
        assert 2 in planner._SHARED_POOLS
        pid = os.fork()
        if pid == 0:
            # Child: report via exit code; os._exit skips pytest teardown.
            try:
                if planner._SHARED_POOLS:
                    os._exit(3)  # registry not cleared by the at-fork hook
                ok = shared_pool(2).submit(lambda: 11).result(timeout=10) == 11
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status)
        code = os.WEXITSTATUS(status)
        assert code == 0, {
            1: "child pool returned a wrong result",
            2: "child pool hung or raised (inherited dead executor?)",
            3: "fork hook did not clear the shared-pool registry",
        }.get(code, f"child exited with {code}")
