"""Engine integration tests: plan sharing, bit-identity, the empty run."""

import functools

import numpy as np
import pytest

from repro.bench.observe import Tracer
from repro.engine import Engine, SpmmRequest, batch_requests
from repro.errors import EngineClosedError, EngineError
from repro.formats.registry import get_format
from repro.kernels.dispatch import run_spmm
from repro.kernels.plan import PlanCache
from repro.matrices import suite
from repro.tune.store import TuneDecision, TuneStore

from ..conftest import make_random_triplets


def _reference(triplets, request):
    """The serial single-call path the engine must match bit for bit."""
    A = get_format(request.fmt).from_triplets(triplets)
    rng = np.random.default_rng(request.seed + 1)
    B = A.policy.value_array(rng.standard_normal((triplets.ncols, request.k)))
    return run_spmm(A, B, variant="serial", k=request.k)


class TestRequestValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(EngineError):
            SpmmRequest(matrix="cant", k=0)

    def test_rejects_negative_repeats(self):
        with pytest.raises(EngineError):
            SpmmRequest(matrix="cant", repeats=-1)

    def test_rejects_non_request_submission(self):
        with Engine(workers=1) as engine:
            with pytest.raises(EngineError):
                engine.submit({"matrix": "cant"})

    def test_rejects_bad_dense_shape(self):
        t = make_random_triplets(16, 12, density=0.3, seed=3)
        with Engine(workers=1) as engine:
            req = SpmmRequest(matrix=t, k=4, dense=np.zeros((3, 3)))
            with pytest.raises(EngineError):
                engine.run(req)


class TestPlanSharing:
    def test_stress_mixed_fingerprints(self):
        """64 requests over 4 matrices x 2 formats: one build per group."""
        matrices = [
            make_random_triplets(40, 32, density=0.2, seed=s) for s in range(4)
        ]
        requests = [
            SpmmRequest(matrix=matrices[i % 4], k=8, fmt=("csr", "ell")[(i // 4) % 2])
            for i in range(64)
        ]
        cache = PlanCache()
        # Plan-sharing counters are a thread-backend contract (process
        # workers build plans in their own caches), so pin the backend.
        with Engine(
            workers=4, plan_cache=cache, max_in_flight=64, backend="thread"
        ) as engine:
            results = engine.map_batch(requests)
            stats = engine.stats

        assert len(results) == 64
        # 4 matrices x 2 formats = 8 distinct plan keys; everything else
        # must share (each matrix index always pairs with the same format).
        built = stats["engine_plan_built"]
        shared = stats.get("engine_plan_shared", 0)
        assert built == 8
        assert shared == 56
        assert cache.stats["plan_hits"] >= 56
        # Results come back in submission order, bit-identical to the
        # serial single-call path.
        for req, res in zip(requests, results):
            assert res.output is not None
            np.testing.assert_array_equal(
                res.output, _reference(req.matrix, req)
            )

    def test_repeated_suite_matrix_loads_once(self):
        tracer = Tracer()
        # "shared" provenance is thread-backend in-process plan sharing.
        with Engine(workers=2, tracer=tracer, backend="thread") as engine:
            reqs = [
                SpmmRequest(matrix="dw4096", k=4, scale=64, repeats=1)
                for _ in range(6)
            ]
            results = engine.map_batch(reqs)
        provenances = [r.plan_provenance for r in results]
        assert provenances.count("built") == 1
        assert provenances.count("shared") == 5
        # All six saw the identical fingerprint (same loaded triplets).
        assert len({r.fingerprint for r in results}) == 1

    def test_batch_requests_helper(self):
        from repro.dtypes import DEFAULT_POLICY

        t = make_random_triplets(20, 16, density=0.25, seed=7)
        rng = np.random.default_rng(0)
        panels = [
            DEFAULT_POLICY.value_array(rng.standard_normal((16, 4))) for _ in range(3)
        ]
        with Engine(workers=2) as engine:
            results = engine.map_batch(batch_requests(t, panels, k=4))
        A = get_format("csr").from_triplets(t)
        for panel, res in zip(panels, results):
            np.testing.assert_array_equal(
                res.output, run_spmm(A, panel, variant="serial", k=4)
            )


class TestVariants:
    def test_parallel_matches_serial(self):
        t = make_random_triplets(48, 40, density=0.15, seed=11)
        with Engine(workers=2) as engine:
            serial = engine.run(SpmmRequest(matrix=t, k=8, variant="serial"))
            parallel = engine.run(
                SpmmRequest(matrix=t, k=8, variant="parallel", threads=2)
            )
        np.testing.assert_allclose(parallel.output, serial.output, rtol=1e-12)

    def test_auto_resolves_through_tune_store(self):
        t = make_random_triplets(32, 24, density=0.2, seed=5)
        from repro.kernels.plan import fingerprint_triplets

        store = TuneStore()
        store.record(
            TuneDecision(
                fingerprint=fingerprint_triplets(t),
                matrix="matrix",
                format_name="csr",
                variant="parallel",
                threads=2,
                chunk_elements=4096,
                k=8,
                score_mflops=1.0,
                mode="model",
                machine="arm",
            ),
            persist=False,
        )
        with Engine(workers=2, tune_store=store) as engine:
            results = engine.map_batch(
                [SpmmRequest(matrix=t, k=8, variant="auto") for _ in range(4)]
            )
            stats = engine.stats
        assert all(r.variant == "parallel" for r in results)
        # The store is consulted once per (matrix, k); the rest memoize.
        assert stats["engine_auto_resolved"] == 1

    def test_gpu_variant_unplanned_but_correct(self):
        t = make_random_triplets(24, 20, density=0.3, seed=9)
        with Engine(workers=1) as engine:
            res = engine.run(SpmmRequest(matrix=t, k=4, variant="gpu"))
        assert res.plan_provenance == "unplanned"
        np.testing.assert_array_equal(res.output, _reference(t, res.request))


class TestEmptyRunContract:
    """repeats=0: untimed single call, counters identical to a timed run."""

    def test_zero_repeats_output_exists_untimed(self):
        t = make_random_triplets(24, 20, density=0.3, seed=13)
        with Engine(workers=1) as engine:
            res = engine.run(SpmmRequest(matrix=t, k=4, repeats=0, verify=True))
        assert res.timing is None
        assert res.mflops == 0.0
        assert res.verified is True
        np.testing.assert_array_equal(res.output, _reference(t, res.request))

    def test_zero_repeats_plan_counters_match_timed_run(self):
        t = make_random_triplets(24, 20, density=0.3, seed=13)

        def cache_counters(repeats):
            cache = PlanCache()
            # The parent plan cache only sees traffic on the thread backend.
            with Engine(workers=1, plan_cache=cache, backend="thread") as engine:
                engine.run(SpmmRequest(matrix=t, k=4, repeats=repeats))
            return {
                k: cache.stats[k]
                for k in ("plan_hits", "plan_misses", "format_hits", "format_misses")
            }

        assert cache_counters(0) == cache_counters(3)

    def test_no_timer_clamped_warning_on_empty_run(self):
        t = make_random_triplets(24, 20, density=0.3, seed=13)
        tracer = Tracer()
        with Engine(workers=1, tracer=tracer) as engine:
            engine.run(SpmmRequest(matrix=t, k=4, repeats=0))
        assert "timer_clamped" not in tracer.warnings

    def test_suite_agrees_on_empty_run(self):
        """The benchmark suite honors the same n_runs=0 contract."""
        from repro.api import benchmark

        t = make_random_triplets(24, 20, density=0.3, seed=13)
        result = benchmark(t, fmt="csr", variant="serial", k=4, n_runs=0)
        assert result.timing is None
        assert result.mflops == 0.0
        assert result.verified is True


class TestLifecycle:
    def test_submit_after_close_raises(self):
        engine = Engine(workers=1)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(SpmmRequest(matrix="cant", k=4, scale=64))

    def test_failure_counted_and_raised(self):
        with Engine(workers=1) as engine:
            with pytest.raises(Exception):
                engine.run(SpmmRequest(matrix="no-such-matrix", k=4))
            assert engine.stats["engine_failed"] == 1

    def test_map_batch_drains_before_raising(self):
        t = make_random_triplets(16, 12, density=0.3, seed=1)
        with Engine(workers=2) as engine:
            good = [SpmmRequest(matrix=t, k=4) for _ in range(3)]
            bad = SpmmRequest(matrix="no-such-matrix", k=4)
            with pytest.raises(Exception):
                engine.map_batch(good + [bad])
            # The failure did not poison the engine.
            assert engine.run(SpmmRequest(matrix=t, k=4)).output is not None

    def test_stats_expose_engine_counters(self):
        t = make_random_triplets(16, 12, density=0.3, seed=2)
        with Engine(workers=1, backend="thread") as engine:
            engine.run(SpmmRequest(matrix=t, k=4, repeats=2))
            stats = engine.stats
        for key in (
            "engine_submitted",
            "engine_completed",
            "engine_queue_wait_s",
            "engine_plan_s",
            "engine_execute_s",
        ):
            assert key in stats, key
        assert stats["plan_cache"]["plan_misses"] == 1


class TestFingerprintOnce:
    """A matrix is hashed once, however many requests and engines use it."""

    @staticmethod
    def _serve(matrix):
        # Two engines, like a server's tenants; "auto" resolution reads the
        # fingerprint too.
        for _ in range(2):
            with Engine(workers=1, backend="thread", tune_store=TuneStore()) as engine:
                for _ in range(3):
                    engine.run(
                        SpmmRequest(matrix=matrix, k=4, scale=64, variant="auto", fmt="auto")
                    )

    def test_inline_triplets(self, content_hashes):
        self._serve(make_random_triplets(40, 32, density=0.2, seed=21))
        assert len(content_hashes) == 1

    def test_suite_matrix(self, content_hashes, monkeypatch):
        # A fresh loader cache, so the matrix object is new to this test.
        fresh = functools.lru_cache(maxsize=64)(suite._load_cached.__wrapped__)
        monkeypatch.setattr(suite, "_load_cached", fresh)
        self._serve("cant")
        assert len(content_hashes) == 1
