"""Tests for benchmark parameters, timing, and verification."""

import argparse
import time

import numpy as np
import pytest

from repro.bench.params import BenchParams
from repro.bench.timing import TimingStats, flops_to_mflops, measure
from repro.verify.reference import reference_spmm, verify_result
from repro.dtypes import POLICY_32
from repro.errors import BenchConfigError, VerificationError
from tests.conftest import build_format


class TestBenchParams:
    def test_defaults_match_paper(self):
        p = BenchParams()
        assert p.k == 128          # "all benchmarks were run with k set to 128"
        assert p.threads == 32     # "all OMP kernels were run with 32 threads"
        assert p.block_size == 4   # "all BCSR kernels were run with a block size of 4"

    def test_validation(self):
        for bad in (
            dict(n_runs=-1),
            dict(threads=0),
            dict(block_size=0),
            dict(k=0),
            dict(warmup=-1),
            dict(thread_list=(0, 2)),
        ):
            with pytest.raises(BenchConfigError):
                BenchParams(**bad)

    def test_format_params_bcsr(self):
        assert BenchParams(block_size=8).format_params("bcsr") == {"block_size": 8}

    def test_format_params_plain(self):
        assert BenchParams().format_params("csr") == {}

    def test_kernel_options_parallel(self):
        opts = BenchParams(threads=16, variant="parallel").kernel_options()
        assert opts == {"threads": 16, "schedule": "static"}

    def test_kernel_options_serial_empty(self):
        assert BenchParams(variant="serial").kernel_options() == {}

    def test_with_copies(self):
        p = BenchParams()
        q = p.with_(k=64)
        assert q.k == 64 and p.k == 128

    def test_cli_roundtrip(self):
        parser = argparse.ArgumentParser()
        BenchParams.add_arguments(parser)
        args = parser.parse_args(
            ["-n", "3", "-t", "8", "-b", "2", "-k", "64", "--variant", "parallel",
             "--thread-list", "2,4,8", "--dtypes", "32"]
        )
        p = BenchParams.from_args(args)
        assert p.n_runs == 3 and p.threads == 8 and p.block_size == 2
        assert p.k == 64 and p.thread_list == (2, 4, 8)
        assert p.dtype_policy is POLICY_32

    def test_cli_bad_thread_list(self):
        parser = argparse.ArgumentParser()
        BenchParams.add_arguments(parser)
        args = parser.parse_args(["--thread-list", "2,x"])
        with pytest.raises(BenchConfigError):
            BenchParams.from_args(args)


class TestTiming:
    def test_stats_aggregates(self):
        s = TimingStats((1.0, 2.0, 3.0))
        assert s.mean == pytest.approx(2.0)
        assert s.best == 1.0
        assert s.worst == 3.0
        assert s.n == 3
        assert s.std == pytest.approx(np.std([1, 2, 3]))

    def test_stats_needs_samples(self):
        with pytest.raises(BenchConfigError):
            TimingStats(())

    def test_measure_counts_calls(self):
        calls = []
        result, stats = measure(lambda: calls.append(1) or len(calls), n_runs=3, warmup=2)
        assert len(calls) == 5
        assert result == 5
        assert stats.n == 3

    def test_measure_rejects_negative_runs(self):
        with pytest.raises(BenchConfigError):
            measure(lambda: None, n_runs=-1)

    def test_measure_zero_runs_is_untimed_single_call(self):
        # The empty-run contract: one untimed call, stats None.
        calls = []
        result, stats = measure(lambda: calls.append(1) or len(calls), n_runs=0, warmup=0)
        assert calls == [1]
        assert result == 1
        assert stats is None

    def test_measure_times_positive(self):
        _, stats = measure(lambda: time.sleep(0.001), n_runs=2, warmup=0)
        assert stats.best >= 0.001

    def test_flops_to_mflops(self):
        assert flops_to_mflops(2_000_000, 2.0) == pytest.approx(1.0)

    def test_flops_to_mflops_rejects_negative_time(self):
        with pytest.raises(BenchConfigError):
            flops_to_mflops(100, -0.5)

    def test_flops_to_mflops_clamps_zero_to_resolution(self):
        from repro.bench.observe import Tracer
        from repro.bench.timing import timer_resolution

        tracer = Tracer()
        mflops = flops_to_mflops(100, 0.0, tracer=tracer)
        assert mflops == pytest.approx(100 / timer_resolution() / 1e6)
        assert tracer.warnings["timer_clamped"] == 1

    def test_measure_traces_warmup_and_kernel_spans(self):
        from repro.bench.observe import Tracer

        tracer = Tracer()
        _, stats = measure(lambda: None, n_runs=3, warmup=2, tracer=tracer)
        names = [sp.name for sp in tracer.spans]
        assert names.count("warmup") == 1
        assert names.count("kernel") == 3
        assert stats.n == 3


class TestVerify:
    def test_accepts_correct(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 4))
        C = small_triplets.to_dense() @ B
        assert verify_result(small_triplets, B, C)

    def test_rejects_wrong_values(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 4))
        C = small_triplets.to_dense() @ B + 1.0
        with pytest.raises(VerificationError):
            verify_result(small_triplets, B, C)

    def test_rejects_wrong_shape(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 4))
        with pytest.raises(VerificationError):
            verify_result(small_triplets, B, np.zeros((2, 2)))

    def test_soft_mode_returns_false(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 4))
        bad = np.zeros((small_triplets.nrows, 4))
        assert verify_result(small_triplets, B, bad, raise_on_failure=False) is False

    def test_k_restricts_reference(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 8))
        C = small_triplets.to_dense() @ B[:, :3]
        assert verify_result(small_triplets, B, C, k=3)

    def test_reference_is_coo_kernel(self, small_triplets, rng):
        B = rng.standard_normal((small_triplets.ncols, 4))
        ref = reference_spmm(small_triplets, B)
        assert np.allclose(ref, small_triplets.to_dense() @ B)

    def test_tolerates_reordered_accumulation(self, small_triplets, rng):
        """Different formats sum rows in different orders; float noise at
        that level must pass."""
        B = rng.standard_normal((small_triplets.ncols, 4))
        A = build_format("bcsr", small_triplets)
        C = A.spmm(B)
        assert verify_result(small_triplets, B, C)
