"""The stable facade: surface gate, behavior, and deprecation shims."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api as api
from repro.bench.params import BenchParams

from .conftest import make_random_triplets

SURFACE_FILE = Path(__file__).resolve().parents[1] / "docs" / "api_surface.txt"


class TestSurface:
    def test_all_matches_committed_surface(self):
        """CI's api-stability gate, runnable locally: __all__ == the file."""
        committed = SURFACE_FILE.read_text().split()
        assert sorted(api.__all__) == committed, (
            "repro.api.__all__ changed; update docs/api_surface.txt "
            "deliberately if this is intentional"
        )

    def test_every_export_exists(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_top_level_reexports(self):
        for name in ("multiply", "benchmark", "benchmark_grid", "tune",
                     "Engine", "SpmmRequest", "SpmmResult", "api"):
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(api, name, getattr(repro, name))


class TestMultiply:
    def test_from_triplets(self):
        t = make_random_triplets(20, 16, density=0.3, seed=1)
        B = np.random.default_rng(0).random((16, 4))
        C = api.multiply(t, B, fmt="csr")
        np.testing.assert_allclose(C, t.to_dense() @ B, rtol=1e-12)

    def test_from_format_instance(self):
        t = make_random_triplets(20, 16, density=0.3, seed=1)
        A = repro.CSR.from_triplets(t)
        B = np.random.default_rng(0).random((16, 4))
        np.testing.assert_allclose(api.multiply(A, B), t.to_dense() @ B, rtol=1e-12)

    def test_format_conversion_on_mismatch(self):
        t = make_random_triplets(20, 16, density=0.3, seed=1)
        A = repro.CSR.from_triplets(t)
        B = np.random.default_rng(0).random((16, 4))
        np.testing.assert_allclose(
            api.multiply(A, B, fmt="ell"), t.to_dense() @ B, rtol=1e-12
        )

    def test_spmv_on_1d_operand(self):
        t = make_random_triplets(20, 16, density=0.3, seed=1)
        x = np.random.default_rng(0).random(16)
        y = api.multiply(t, x, fmt="csr")
        np.testing.assert_allclose(y, t.to_dense() @ x, rtol=1e-12)

    def test_threads_keyword(self):
        t = make_random_triplets(30, 24, density=0.2, seed=2)
        B = np.random.default_rng(0).random((24, 4))
        C = api.multiply(t, B, variant="parallel", threads=2)
        np.testing.assert_allclose(C, t.to_dense() @ B, rtol=1e-12)

    def test_rejects_garbage_matrix(self):
        with pytest.raises(repro.errors.SpmmBenchError):
            api.multiply(42, np.zeros((4, 2)))


class TestBenchmark:
    def test_keyword_overrides_beat_params(self):
        t = make_random_triplets(24, 20, density=0.25, seed=3)
        r = api.benchmark(
            t, fmt="csr", variant="serial", k=4, n_runs=1,
            params=BenchParams(k=64, n_runs=9),
        )
        assert r.params.k == 4
        assert r.params.n_runs == 1
        assert r.verified is True

    def test_suite_name_with_scale(self):
        r = api.benchmark("dw4096", fmt="csr", variant="serial",
                          k=4, n_runs=1, scale=64)
        assert r.matrix == "dw4096"
        assert r.mflops > 0

    def test_machine_string_resolution(self):
        t = make_random_triplets(24, 20, density=0.25, seed=3)
        r = api.benchmark(t, fmt="csr", k=4, n_runs=1,
                          machine="arm", mode="model")
        assert r.modeled is not None

    def test_emits_no_deprecation_warning(self):
        """The facade itself must not trip the legacy shims."""
        t = make_random_triplets(24, 20, density=0.25, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.benchmark(t, fmt="csr", k=4, n_runs=1)


class TestBenchmarkGrid:
    def test_scalars_promote_to_axes(self):
        records = api.benchmark_grid(
            "dw4096", "csr", variants="serial", k=4, threads=2,
            scale=64, mode="model", machine="arm",
        )
        assert len(records) == 1
        assert records[0].mflops > 0

    def test_full_axes(self):
        records = api.benchmark_grid(
            ["dw4096"], ["csr", "ell"], variants=["serial"], k=[4, 8],
            scale=64, mode="model", machine="arm",
        )
        assert len(records) == 4


class TestTune:
    def test_records_and_activates(self, tmp_path):
        from repro.tune.store import get_active_store, set_active_store

        t = make_random_triplets(32, 24, density=0.2, seed=4)
        report = api.tune(
            t, k=4, fmts=("csr",), variants=("serial", "parallel"),
            threads=(2,), mode="model", machine="arm",
            store=tmp_path / "tuned.json", activate=True,
        )
        try:
            assert report.decision.format_name == "csr"
            active = get_active_store()
            assert active is not None
            assert active.lookup(report.fingerprint, k=4) is not None
        finally:
            set_active_store(None)


class TestDeprecationShims:
    def test_spmm_benchmark_construction_warns(self):
        from repro.bench.suite import SpmmBenchmark

        with pytest.warns(DeprecationWarning, match="repro.api.benchmark"):
            SpmmBenchmark("csr")

    def test_grid_runner_construction_warns(self):
        from repro.bench.runner import GridRunner, GridSpec

        with pytest.warns(DeprecationWarning, match="benchmark_grid"):
            GridRunner(GridSpec(matrices=("dw4096",), formats=("csr",)))

    def test_removed_kernel_shims_are_gone(self):
        """The old kernel aliases were removed, not left to drift."""
        from repro.kernels import dispatch

        assert not hasattr(repro, "run_spmm") and not hasattr(repro, "run_spmv")
        assert not hasattr(dispatch, "spmm") and not hasattr(dispatch, "spmv")

    def test_undeprecated_homes_stay_silent(self):
        """kernels.run_spmm and the facade must not warn."""
        t = make_random_triplets(20, 16, density=0.3, seed=5)
        A = repro.CSR.from_triplets(t)
        B = np.random.default_rng(0).random((16, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.kernels.run_spmm(A, B)
            api.multiply(A, B)
