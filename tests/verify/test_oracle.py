"""Differential oracle: every execution path must agree on every cell.

The acceptance contract of the verify subsystem: each path *pair* the
engine/plan/api layers expose (plan-cached vs uncached, engine-batched vs
direct, variant=auto vs explicit) is pinned by at least one differential
assertion here.
"""

import numpy as np
import pytest

from repro import api
from repro.engine import Engine, SpmmRequest
from repro.kernels import dispatch
from repro.kernels.dispatch import run_spmm, serial_spmm
from repro.kernels.plan import PlanCache
from repro.tune.store import TuneStore
from repro.verify import (
    PATH_NAMES,
    DifferentialOracle,
    dense_reference,
    result_tolerance,
    supported_variants,
)
from repro.verify.adversarial import build_adversarial
from tests.conftest import FORMAT_PARAMS, build_format, make_random_triplets

ZOO_SAMPLE = ("empty", "empty_rows", "one_by_n", "n_by_one", "prime_dims",
              "single_dense_row", "duplicate_coo", "cancelling_duplicates")


class TestOracleGreenOnMain:
    @pytest.mark.parametrize("case", ZOO_SAMPLE)
    def test_all_paths_agree_on_adversarial_case(self, case):
        t = build_adversarial(case, 3)
        with DifferentialOracle(variants=("serial",)) as oracle:
            report = oracle.check(t, k=4, seed=11)
        assert report.checks > 0
        assert report.ok, [d.describe() for d in report.discrepancies]

    def test_all_variants_agree_on_random_matrix(self):
        t = make_random_triplets(17, 13, density=0.3, seed=5)
        with DifferentialOracle(
            variants=("serial", "parallel", "optimized", "grouped", "serial_transpose"),
            paths=("direct", "api", "plan_uncached", "plan_cached"),
        ) as oracle:
            report = oracle.check(t, k=6, seed=5)
        assert report.ok, [d.describe() for d in report.discrepancies]

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle paths"):
            DifferentialOracle(paths=("direct", "teleport"))


class TestPathPairs:
    """The three pairs the issue names, asserted directly (not via the oracle
    loop) so a regression names the exact layer that broke."""

    def test_plan_cached_vs_uncached_bit_identical(self, rng_factory):
        t = make_random_triplets(19, 16, density=0.25, seed=9)
        B = rng_factory(9).standard_normal((16, 5))
        cache = PlanCache(maxsize=4)
        plan1, prov1 = cache.get_or_build_plan(t, "csr", variant="serial", k=5)
        plan2, prov2 = cache.get_or_build_plan(t, "csr", variant="serial", k=5)
        assert (prov1, prov2) == ("built", "memory")
        np.testing.assert_array_equal(plan1(B), plan2(B))

    def test_engine_batched_vs_direct_bit_identical(self, rng_factory):
        t = make_random_triplets(14, 12, density=0.3, seed=4)
        B = np.ascontiguousarray(rng_factory(4).standard_normal((12, 3)))
        req = SpmmRequest(matrix=t, k=3, fmt="csr", variant="serial", dense=B)
        with Engine(workers=2) as engine:
            direct = engine.run(req).output
            batch = [r.output for r in engine.map_batch([req, req, req])]
        for out in batch:
            np.testing.assert_array_equal(out, direct)

    def test_engine_matches_api_multiply(self, rng_factory):
        t = make_random_triplets(14, 12, density=0.3, seed=4)
        B = np.ascontiguousarray(rng_factory(4).standard_normal((12, 3)))
        with Engine(workers=1) as engine:
            engine_out = engine.run(
                SpmmRequest(matrix=t, k=3, fmt="csr", variant="serial", dense=B)
            ).output
        api_out = api.multiply(t, B, fmt="csr", variant="serial", k=3)
        np.testing.assert_array_equal(engine_out, api_out)

    @pytest.mark.parametrize("fmt", ("csr", "ell", "bcsr"))
    def test_auto_vs_explicit_within_tolerance(self, fmt, rng_factory):
        t = make_random_triplets(21, 18, density=0.2, seed=2)
        B = rng_factory(2).standard_normal((18, 4))
        A = build_format(fmt, t)
        explicit = run_spmm(A, B, variant="serial", k=4)
        auto = run_spmm(A, B, variant="auto", k=4, tune_store=TuneStore())
        ref = dense_reference(t, B, 4)
        tol = result_tolerance(ref)
        assert np.abs(np.asarray(auto, dtype=np.float64) - ref).max() <= tol
        assert np.abs(np.asarray(explicit, dtype=np.float64) - ref).max() <= tol


class TestOracleDetection:
    def test_injected_bug_is_caught_and_localized(self, monkeypatch):
        def buggy(A, B, k=None, **opts):
            C = serial_spmm(A, B, k, **opts)
            if C.shape[0] > 1:
                C = C.copy()
                C[1] += 0.5
            return C

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", buggy)
        t = make_random_triplets(10, 10, density=0.4, seed=8)
        with DifferentialOracle(formats=("csr",), variants=("serial",),
                                paths=("direct",)) as oracle:
            report = oracle.check(t, k=4, seed=8)
        assert not report.ok
        d = report.discrepancies[0]
        assert (d.path, d.fmt, d.variant, d.kind) == ("direct", "csr", "serial", "value")
        assert d.max_abs_err > d.tolerance

    def test_check_single_matches_full_check(self, monkeypatch):
        def buggy(A, B, k=None, **opts):
            return serial_spmm(A, B, k, **opts) * 1.01

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", buggy)
        t = make_random_triplets(8, 8, density=0.5, seed=1)
        with DifferentialOracle() as oracle:
            found = oracle.check_single(t, 3, "csr", "serial", "direct", seed=1)
        assert found and found[0].kind == "value"

    def test_exception_reported_not_raised(self, monkeypatch):
        def exploding(A, B, k=None, **opts):
            raise RuntimeError("kernel exploded")

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", exploding)
        t = make_random_triplets(6, 6, density=0.4, seed=3)
        with DifferentialOracle(formats=("csr",), variants=("serial",),
                                paths=("direct",)) as oracle:
            report = oracle.check(t, k=2, seed=3)
        assert not report.ok
        assert report.discrepancies[0].kind == "exception"
        assert "kernel exploded" in report.discrepancies[0].detail


class TestSupportedVariants:
    def test_transpose_on_every_format(self):
        for fmt in FORMAT_PARAMS:
            variants = ("serial_transpose", "parallel_transpose")
            assert supported_variants(fmt, variants) == variants

    def test_grouped_limited(self):
        assert "grouped" in supported_variants("coo", ("grouped",))
        assert supported_variants("bcsr", ("grouped",)) == ()

    def test_universal_variants_everywhere(self):
        for fmt in FORMAT_PARAMS:
            assert supported_variants(fmt, ("serial", "parallel")) == ("serial", "parallel")

    def test_path_names_cover_issue_matrix(self):
        for required in ("plan_uncached", "plan_cached", "engine_direct",
                         "engine_batched", "api", "auto"):
            assert required in PATH_NAMES
