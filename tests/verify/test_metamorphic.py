"""Metamorphic relations: the oracle-free half of the verify subsystem."""

import numpy as np
import pytest

from repro.kernels import dispatch
from repro.kernels.dispatch import serial_spmm, transpose_spmm
from repro.verify import METAMORPHIC_RELATIONS, run_metamorphic, run_relation
from repro.verify.adversarial import build_adversarial
from tests.conftest import ALL_FORMATS, make_random_triplets


class TestRelationsHoldOnMain:
    @pytest.mark.parametrize("relation", sorted(METAMORPHIC_RELATIONS))
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_relation_holds_per_format(self, relation, fmt):
        t = make_random_triplets(13, 11, density=0.3, seed=6)
        failures = run_relation(relation, t, k=4, seed=6, fmt=fmt, variant="serial")
        assert failures == []

    @pytest.mark.parametrize("case", ("empty", "empty_rows", "one_by_n",
                                      "duplicate_coo", "prime_dims"))
    def test_full_sweep_on_adversarial_case(self, case):
        t = build_adversarial(case, 2)
        failures = run_metamorphic(t, k=3, seed=2, variants=("serial",))
        assert failures == [], failures

    def test_parallel_variant_also_holds(self):
        t = make_random_triplets(16, 14, density=0.25, seed=10)
        failures = run_metamorphic(
            t, k=5, seed=10, formats=("csr", "bcsr"), variants=("parallel",)
        )
        assert failures == [], failures


class TestRelationsDetectBugs:
    def test_scaling_catches_additive_bug(self, monkeypatch):
        # C + 1 survives a same-reference differential check if the reference
        # shares the kernel; scalar scaling does not: alpha*(C+1) != alpha*C + 1.
        def buggy(A, B, k=None, **opts):
            return serial_spmm(A, B, k, **opts) + 1.0

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", buggy)
        t = make_random_triplets(9, 9, density=0.4, seed=4)
        failures = run_relation("scalar_scaling", t, k=3, seed=4, fmt="csr")
        assert failures

    def test_row_permutation_catches_row_coupling_bug(self, monkeypatch):
        def buggy(A, B, k=None, **opts):
            C = serial_spmm(A, B, k, **opts)
            if C.shape[0] > 1:
                C = C.copy()
                C[0] += C[1]  # couples two specific rows: breaks equivariance
            return C

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", buggy)
        t = make_random_triplets(12, 10, density=0.4, seed=12)
        failures = run_relation("row_permutation", t, k=4, seed=12, fmt="csr")
        assert failures

    def test_transpose_duality_catches_transpose_kernel_bug(self, monkeypatch):
        def buggy(A, B, k=None, **opts):
            opts.pop("threads", None)
            return transpose_spmm(A, B, k, threads=1, **opts) * 1.5

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial_transpose", buggy)
        t = make_random_triplets(11, 9, density=0.4, seed=7)
        failures = run_relation("transpose_duality", t, k=4, seed=7, fmt="csr")
        assert any("serial_transpose" in f for f in failures)


class TestRelationMechanics:
    def test_k_slicing_skips_k1(self):
        t = make_random_triplets(7, 7, density=0.4, seed=1)
        assert run_relation("k_slicing", t, k=1, seed=1, fmt="csr") == []

    def test_unknown_relation_raises(self):
        t = make_random_triplets(5, 5, density=0.4, seed=1)
        with pytest.raises(KeyError):
            run_relation("nonexistent", t)

    def test_run_metamorphic_reports_structured_records(self, monkeypatch):
        def buggy(A, B, k=None, **opts):
            return serial_spmm(A, B, k, **opts) + 1.0

        monkeypatch.setitem(dispatch.SPMM_VARIANTS, "serial", buggy)
        t = make_random_triplets(8, 8, density=0.4, seed=3)
        failures = run_metamorphic(t, k=3, seed=3, formats=("csr",), variants=("serial",))
        assert failures
        record = failures[0]
        assert set(record) == {"relation", "fmt", "variant", "message"}
        assert record["fmt"] == "csr" and record["variant"] == "serial"

    def test_relations_are_deterministic(self):
        t = make_random_triplets(10, 10, density=0.3, seed=5)
        a = run_metamorphic(t, k=4, seed=5, formats=("csr",), variants=("serial",))
        b = run_metamorphic(t, k=4, seed=5, formats=("csr",), variants=("serial",))
        assert a == b == []
        B1 = np.random.default_rng(6).standard_normal((10, 4))
        B2 = np.random.default_rng(6).standard_normal((10, 4))
        np.testing.assert_array_equal(B1, B2)  # seeded streams replay exactly
