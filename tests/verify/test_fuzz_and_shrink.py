"""Fuzzer, shrinker, and corpus: the self-test the issue demands.

The headline scenario: monkeypatch a kernel bug, run the fuzzer, and watch
it (1) detect the discrepancy, (2) shrink the case to at most 8x8 before
persisting, (3) write a replayable corpus entry, and (4) see the replay
flip to passing once the bug is gone.
"""

import numpy as np
import pytest

from repro.kernels import dispatch
from repro.kernels.dispatch import serial_spmm
from repro.verify import (
    generate_case,
    load_corpus,
    replay_corpus,
    run_fuzz,
    save_failure,
    shrink_case,
)
from repro.verify.corpus import triplets_from_entry
from repro.verify.fuzz import FuzzCase
from tests.conftest import make_random_triplets


class TestDeterminism:
    def test_same_seed_same_case(self):
        for index in (0, 1, 2, 7, 30):
            a = generate_case(123, index)
            b = generate_case(123, index)
            assert isinstance(a, FuzzCase)
            assert (a.name, a.case_seed, a.k) == (b.name, b.case_seed, b.k)
            np.testing.assert_array_equal(a.triplets.rows, b.triplets.rows)
            np.testing.assert_array_equal(a.triplets.cols, b.triplets.cols)
            np.testing.assert_array_equal(a.triplets.values, b.triplets.values)

    def test_different_seeds_differ(self):
        cases_a = [generate_case(0, i).case_seed for i in range(10)]
        cases_b = [generate_case(1, i).case_seed for i in range(10)]
        assert cases_a != cases_b

    def test_case_rotation_covers_all_populations(self):
        names = {generate_case(0, i).name.split(":")[0] for i in range(12)}
        assert names == {"adversarial", "generator", "random"}


class TestCleanRun:
    def test_small_budget_is_green(self, tmp_path):
        report = run_fuzz(seed=0, budget=12, corpus_dir=tmp_path)
        assert report.ok, report.failures
        assert report.cases == 12
        assert report.oracle_checks > 0
        assert report.metamorphic_checks > 0
        assert list(tmp_path.glob("fail_*.json")) == []

    def test_tracer_counters_emitted(self):
        from repro.bench.observe import Tracer

        tracer = Tracer()
        report = run_fuzz(seed=3, budget=6, tracer=tracer)
        assert report.ok
        assert tracer.counters["fuzz_cases"] == 6
        assert tracer.counters["fuzz_oracle_checks"] == report.oracle_checks
        assert tracer.counters["fuzz_metamorphic_checks"] == report.metamorphic_checks


class TestSelfTest:
    """Inject a bug; the whole detect -> shrink -> persist -> replay loop runs."""

    @staticmethod
    def _inject(monkeypatch):
        def buggy(A, B, k=None, **opts):
            C = serial_spmm(A, B, k, **opts)
            if C.shape[0] > 2:
                C = C.copy()
                C[2, 0] += 1.0
            return C

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", buggy)

    def test_detects_shrinks_and_persists(self, monkeypatch, tmp_path):
        self._inject(monkeypatch)
        report = run_fuzz(seed=0, budget=30, corpus_dir=tmp_path, max_failures=3)
        assert not report.ok
        for failure in report.failures:
            nrows, ncols = failure["shrunk_shape"]
            assert nrows <= 8 and ncols <= 8, failure
        entries = load_corpus(tmp_path)
        assert entries
        entry = entries[0]
        assert entry["check"]["kind"] in ("oracle", "metamorphic")
        t = triplets_from_entry(entry)
        assert t.nrows <= 8 and t.ncols <= 8

    def test_replay_flips_when_bug_fixed(self, monkeypatch, tmp_path):
        self._inject(monkeypatch)
        run_fuzz(seed=0, budget=30, corpus_dir=tmp_path, max_failures=2)
        with_bug = replay_corpus(tmp_path)
        assert with_bug and all(r["still_failing"] for r in with_bug)
        monkeypatch.undo()  # the "fix"
        fixed = replay_corpus(tmp_path)
        assert fixed and not any(r["still_failing"] for r in fixed)

    def test_early_stop_on_max_failures(self, monkeypatch):
        self._inject(monkeypatch)
        report = run_fuzz(seed=0, budget=200, max_failures=2)
        assert len(report.failures) >= 2
        assert report.cases < 200  # stopped long before the budget


class TestShrinker:
    def test_shrinks_to_minimal_row_count(self):
        # Failing iff the matrix still has an entry in row >= 4: the shrinker
        # should cut everything else away.
        t = make_random_triplets(32, 32, density=0.3, seed=13)

        def predicate(tt, kk):
            return bool(tt.nnz and (tt.rows >= min(4, tt.nrows - 1)).any())

        result = shrink_case(t, 8, predicate)
        assert predicate(result.triplets, result.k)
        assert result.triplets.nnz < t.nnz
        assert result.triplets.nrows * result.triplets.ncols < 32 * 32
        assert result.steps > 0

    def test_k_reduction(self):
        t = make_random_triplets(6, 6, density=0.5, seed=2)
        result = shrink_case(t, 16, lambda tt, kk: True)
        assert result.k == 1  # nothing anchors k, so it collapses

    def test_non_failing_input_returned_unchanged(self):
        t = make_random_triplets(10, 10, density=0.3, seed=3)
        result = shrink_case(t, 4, lambda tt, kk: False)
        assert result.steps == 0
        assert result.triplets is t

    def test_crashing_predicate_candidates_skipped(self):
        t = make_random_triplets(12, 12, density=0.3, seed=5)
        calls = {"n": 0}

        def predicate(tt, kk):
            calls["n"] += 1
            if tt.nrows < 6:
                raise RuntimeError("harness crash on tiny case")
            return True

        result = shrink_case(t, 4, predicate)
        assert result.triplets.nrows >= 6  # crashed candidates never accepted
        assert calls["n"] > 0


class TestCorpus:
    def test_save_load_roundtrip(self, tmp_path):
        t = make_random_triplets(5, 7, density=0.4, seed=9)
        path = save_failure(
            tmp_path,
            triplets=t,
            k=3,
            check={"kind": "oracle", "path": "direct", "fmt": "csr", "variant": "serial"},
            error="max abs error 1.0e+00",
            master_seed=0,
            case_seed=42,
            case_index=5,
            case_name="random",
            original_shape=(32, 32),
            original_nnz=100,
            shrink_steps=4,
        )
        assert path.exists()
        entries = load_corpus(tmp_path)
        assert len(entries) == 1
        back = triplets_from_entry(entries[0])
        np.testing.assert_array_equal(back.to_dense(), t.to_dense())
        assert entries[0]["case_seed"] == 42

    def test_same_failure_overwrites_not_duplicates(self, tmp_path):
        t = make_random_triplets(4, 4, density=0.5, seed=1)
        kwargs = dict(
            triplets=t, k=2,
            check={"kind": "oracle", "path": "direct", "fmt": "csr", "variant": "serial"},
            error="boom", master_seed=0, case_seed=1, case_index=0,
            case_name="random", original_shape=(4, 4), original_nnz=t.nnz,
        )
        p1 = save_failure(tmp_path, **kwargs)
        p2 = save_failure(tmp_path, **kwargs)
        assert p1 == p2
        assert len(load_corpus(tmp_path)) == 1

    def test_replay_empty_corpus(self, tmp_path):
        assert replay_corpus(tmp_path / "missing") == []


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
    def test_builder_rejects_cleanly(self, bad):
        from repro.errors import FormatError
        from repro.matrices.coo_builder import CooBuilder

        builder = CooBuilder(3, 3)
        with pytest.raises(FormatError, match="finite"):
            builder.add_batch([0], [0], [bad])
