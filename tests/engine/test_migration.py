"""Online-migration tests: decision rule, concurrent swaps, staleness.

The swap contract under test is the one the oracle enforces end to end:
a migrated plan group keeps returning byte-identical outputs, in-flight
requests are never torn by a swap, and the ``migration_*`` counters only
ever go up.
"""

import threading
import time

import numpy as np
import pytest

from repro.bench.observe import Tracer
from repro.engine import Engine, MigrationPolicy, SpmmRequest
from repro.engine.migration import MigrationManager
from repro.errors import EngineError
from repro.kernels.plan import PlanCache
from repro.tune.store import TuneDecision, TuneStore

from ..conftest import make_random_triplets

_N, _DENSITY = 300, 0.1


@pytest.fixture
def slow_serial_plans(monkeypatch):
    """Make ``serial`` plans structurally slower than every other variant.

    ``serial`` and ``optimized`` specialize to the same closure, so their
    real timing gap is pure noise; wrapping the serial plan with a fixed
    delay (output untouched, still bit-identical) turns the probe's
    "candidate is faster" comparison into a deterministic fact.
    """
    import repro.kernels.plan as plan_mod

    real_specialize = plan_mod._specialize_variant

    def slowed(A, variant, k, threads, schedule, chunk_elements):
        kern = real_specialize(A, variant, k, threads, schedule, chunk_elements)
        if variant != "serial":
            return kern

        def slow_call(B, tracer=None):
            time.sleep(0.003)
            return kern(B, tracer=tracer)

        return slow_call

    monkeypatch.setattr(plan_mod, "_specialize_variant", slowed)


def _hot_request(triplets, **overrides):
    kwargs = dict(matrix=triplets, k=8, fmt="csr", variant="serial", repeats=1)
    kwargs.update(overrides)
    return SpmmRequest(**kwargs)


def _wait_for(predicate, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestPolicyCoercion:
    def test_bool_and_policy_pass_through(self):
        assert MigrationPolicy.coerce(True).enabled
        assert not MigrationPolicy.coerce(False).enabled
        policy = MigrationPolicy(min_hits=7)
        assert MigrationPolicy.coerce(policy) is policy

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.delenv("SPMM_MIGRATION", raising=False)
        assert not MigrationPolicy.coerce(None).enabled
        monkeypatch.setenv("SPMM_MIGRATION", "1")
        assert MigrationPolicy.coerce(None).enabled


class TestTuneStoreObservation:
    def test_observe_accumulates_without_version_bump(self):
        store = TuneStore()
        before = store.version
        stats = store.observe("fp", 8, 0.5)
        stats = store.observe("fp", 8, 1.5)
        assert stats.hits == 2
        assert stats.total_s == pytest.approx(2.0)
        assert stats.mean_s == pytest.approx(1.0)
        # Observations must not invalidate auto-variant memos; only
        # recorded decisions bump the version.
        assert store.version == before
        assert store.observed("other", 8).hits == 0

    def test_record_bumps_version(self):
        store = TuneStore()
        before = store.version
        store.record(
            TuneDecision(
                fingerprint="fp", matrix="m", format_name="csr",
                variant="serial", threads=1, chunk_elements=1024, k=8,
                score_mflops=1.0, mode="online",
            ),
            persist=False,
        )
        assert store.version == before + 1


class TestDecisionRule:
    def _manager(self, policy, tracer=None):
        return MigrationManager(
            plan_cache=PlanCache(),
            tracer=tracer if tracer is not None else Tracer(),
            policy=policy,
            tune_store=TuneStore(),
        )

    def test_below_min_hits_stays_watching(self):
        tracer = Tracer()
        manager = self._manager(MigrationPolicy(min_hits=5), tracer)
        t = make_random_triplets(30, 30, density=0.3, seed=1)
        for _ in range(4):
            manager.observe(t, "csr", "serial", 8, 1, 1e-3)
        assert manager.status(t.fingerprint, "csr", "serial", 8, 1) == "watching"
        assert tracer.counters.get("migration_candidates", 0) == 0
        manager.close()

    def test_unamortized_group_never_queues(self):
        tracer = Tracer()
        # A huge margin means no realistic traffic covers the conversion.
        manager = self._manager(MigrationPolicy(min_hits=1, margin=1e9), tracer)
        t = make_random_triplets(30, 30, density=0.3, seed=2)
        for _ in range(10):
            manager.observe(t, "csr", "serial", 8, 1, 1e-3, conversion_s=1e-3)
        assert manager.status(t.fingerprint, "csr", "serial", 8, 1) == "watching"
        assert tracer.counters.get("migration_candidates", 0) == 0
        manager.close()

    def test_no_candidates_rejects(self):
        tracer = Tracer()
        manager = self._manager(
            MigrationPolicy(candidate_variants=(), candidate_formats=()), tracer
        )
        t = make_random_triplets(30, 30, density=0.3, seed=3)
        outcome = manager.migrate_now(t, "csr", "serial", 8, 1, force=True)
        assert outcome.target is None
        assert outcome.reason == "no-bit-identical-candidate"
        assert tracer.counters["migration_rejected"] == 1
        manager.close()

    def test_forced_probe_installs_redirect(self):
        tracer = Tracer()
        manager = self._manager(MigrationPolicy(probe_repeats=1), tracer)
        t = make_random_triplets(_N, _N, density=_DENSITY, seed=4)
        outcome = manager.migrate_now(t, "csr", "serial", 8, 1, force=True)
        assert outcome.reason == "migrated"
        assert outcome.target is not None
        assert manager.resolve(t.fingerprint, "csr", "serial", 8, 1) == outcome.target
        assert tracer.counters["migration_completed"] == 1
        # A second probe of the same group is a no-op.
        again = manager.migrate_now(t, "csr", "serial", 8, 1, force=True)
        assert again.reason == "already-migrated"
        manager.close()

    def test_cross_format_tuned_decision_excluded_under_bit_gate(self):
        """Fuzz regression: a tuned winner recorded for ANOTHER format of
        the same fingerprint must not become a candidate while the
        bit-identity gate is on — one probe operand can coincide bitwise
        across formats and diverge on the next operand."""
        store = TuneStore()
        store.record(
            TuneDecision(
                fingerprint="fp", matrix="m", format_name="csr",
                variant="optimized", threads=1, chunk_elements=1024, k=8,
                score_mflops=1.0, mode="online",
            ),
            persist=False,
        )
        strict = MigrationManager(
            plan_cache=PlanCache(), tracer=Tracer(), tune_store=store,
            policy=MigrationPolicy(candidate_variants=("serial",)),
        )
        key = PlanCache.migration_key("fp", "ell", "serial", 8, 1)
        assert ("csr", "optimized", 1, ()) not in strict._candidates(key)
        relaxed = MigrationManager(
            plan_cache=PlanCache(), tracer=Tracer(), tune_store=store,
            policy=MigrationPolicy(
                require_bit_identity=False, candidate_variants=("serial",)
            ),
        )
        assert ("csr", "optimized", 1, ()) in relaxed._candidates(key)
        strict.close()
        relaxed.close()

    def test_candidate_formats_need_relaxed_gate(self):
        policy = MigrationPolicy(
            candidate_formats=("ell",), candidate_variants=("serial",)
        )
        strict = MigrationManager(
            plan_cache=PlanCache(), tracer=Tracer(), tune_store=TuneStore(),
            policy=policy,
        )
        key = PlanCache.migration_key("fp", "csr", "serial", 8, 1)
        assert all(cand[0] == "csr" for cand in strict._candidates(key))
        strict.close()

    def test_bit_identity_gate(self):
        manager = self._manager(MigrationPolicy())
        ref = np.arange(1, 13, dtype=np.float64).reshape(3, 4)
        assert manager._acceptable(ref, ref.copy())
        assert not manager._acceptable(ref, ref + 1e-12)
        assert not manager._acceptable(ref, ref.astype(np.float32))
        assert not manager._acceptable(ref, ref[:2])
        relaxed = self._manager(
            MigrationPolicy(require_bit_identity=False, rtol=1e-9)
        )
        assert relaxed._acceptable(ref, ref + 1e-12)
        assert not relaxed._acceptable(ref, ref + 1.0)
        manager.close()
        relaxed.close()


class TestEngineMigration:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_forced_migration_bit_identical(self, backend):
        t = make_random_triplets(_N, _N, density=_DENSITY, seed=11)
        with Engine(
            workers=2, backend=backend, migration=MigrationPolicy(probe_repeats=1)
        ) as engine:
            req = _hot_request(t)
            pre = engine.run(req)
            assert not pre.migrated
            outcome = engine.force_migration(req)
            assert outcome.reason == "migrated"
            post = engine.run(req)
            stats = engine.stats
        assert post.migrated
        np.testing.assert_array_equal(pre.output, post.output)
        assert stats["migration_completed"] == 1
        assert stats["migration_served"] >= 1
        if backend == "process":
            assert stats["migration_worker_served"] >= 1

    def test_migration_disabled_engine_refuses(self):
        t = make_random_triplets(30, 30, density=0.3, seed=12)
        with Engine(workers=1, backend="thread") as engine:
            assert not engine.migration_enabled
            result = engine.run(_hot_request(t))
            assert not result.migrated
            with pytest.raises(EngineError):
                engine.force_migration(_hot_request(t))
            assert "migration_served" not in engine.stats

    def test_background_migration_lands_under_traffic(self, slow_serial_plans):
        t = make_random_triplets(_N, _N, density=_DENSITY, seed=13)
        policy = MigrationPolicy(min_hits=2, margin=0.0, probe_repeats=3)
        with Engine(workers=2, backend="thread", migration=policy) as engine:
            req = _hot_request(t, repeats=2)
            baseline = engine.run(req)
            for _ in range(5):
                engine.run(req)
            manager = engine._migrations

            def status():
                return manager.status(baseline.fingerprint, "csr", "serial", 8, 1)

            assert _wait_for(lambda: status() == "migrated")
            post = engine.run(req)
            stats = engine.stats
            assert post.migrated
            np.testing.assert_array_equal(baseline.output, post.output)
            assert stats["migration_candidates"] >= 1
            assert stats["migration_completed"] >= 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_swap_no_torn_reads(self, backend):
        """A swap landing under in-flight traffic never tears an output."""
        t = make_random_triplets(_N, _N, density=_DENSITY, seed=14)
        n_requests = 24 if backend == "thread" else 8
        with Engine(
            workers=4 if backend == "thread" else 2,
            max_in_flight=n_requests,
            backend=backend,
            # min_hits out of reach: the forced swap is the only migration,
            # so the counter assertions below are deterministic.
            migration=MigrationPolicy(probe_repeats=1, min_hits=10**6),
        ) as engine:
            req = _hot_request(t)
            reference = engine.run(req).output
            counter_samples = []
            stop = threading.Event()

            def sample_counters():
                while not stop.is_set():
                    stats = engine.stats
                    counter_samples.append(
                        (stats.get("migration_completed", 0),
                         stats.get("migration_served", 0))
                    )
                    time.sleep(0.002)

            sampler = threading.Thread(target=sample_counters, daemon=True)
            sampler.start()
            futures = [engine.submit(req) for _ in range(n_requests // 2)]
            engine.force_migration(req)
            futures += [engine.submit(req) for _ in range(n_requests // 2)]
            results = [f.result(timeout=60) for f in futures]
            stop.set()
            sampler.join(timeout=5)
            stats = engine.stats

        for res in results:
            np.testing.assert_array_equal(res.output, reference)
        assert stats["migration_completed"] == 1
        # Requests submitted after the swap must resolve the redirect.
        assert any(r.migrated for r in results)
        # Counters are monotone under concurrency.
        for (c0, s0), (c1, s1) in zip(counter_samples, counter_samples[1:]):
            assert c1 >= c0
            assert s1 >= s0

    def test_stale_auto_memo_revalidates_after_migration(self):
        t = make_random_triplets(_N, _N, density=_DENSITY, seed=15)
        store = TuneStore()
        with Engine(
            workers=1, backend="thread", tune_store=store,
            migration=MigrationPolicy(probe_repeats=1),
        ) as engine:
            auto = _hot_request(t, variant="auto")
            first = engine.run(auto)
            engine.run(auto)
            assert engine.stats["engine_auto_resolved"] == 1
            # Migrating records an online decision, bumping the store
            # version the memo was resolved against.
            outcome = engine.force_migration(_hot_request(t))
            assert outcome.reason == "migrated"
            assert store.version > 0
            post = engine.run(auto)
            stats = engine.stats
        assert stats["engine_auto_revalidated"] >= 1
        assert stats["engine_auto_resolved"] >= 2
        np.testing.assert_array_equal(first.output, post.output)


class TestRedirectPersistence:
    def test_redirects_propagate_through_disk_tier(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        key = PlanCache.migration_key("fp", "csr", "serial", 8, 1)
        target = cache.install_migration(
            key, format_name="csr", variant="optimized", threads=1
        )
        sibling = PlanCache(directory=tmp_path)
        assert sibling.resolve_migration(key) == target

    def test_higher_version_wins_on_merge(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        sibling = PlanCache(directory=tmp_path)
        key = PlanCache.migration_key("fp", "csr", "serial", 8, 1)
        cache.install_migration(key, format_name="csr", variant="parallel", threads=2)
        # A later install from the sibling must supersede everywhere.
        final = sibling.install_migration(
            key, format_name="csr", variant="optimized", threads=1
        )
        assert cache.resolve_migration(key) == final

    def test_memory_only_cache_keeps_redirects_local(self):
        cache = PlanCache()
        key = PlanCache.migration_key("fp", "csr", "serial", 8, 1)
        cache.install_migration(key, format_name="csr", variant="optimized", threads=1)
        assert cache.resolve_migration(key) is not None
        assert PlanCache().resolve_migration(key) is None
