"""Tests for SpGEMM (Gustavson row merge)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels.spgemm import spgemm, spgemm_flops
from repro.matrices.coo_builder import CooBuilder
from tests.conftest import ALL_FORMATS, build_format, make_random_triplets


def make_pair(seed=0):
    a = make_random_triplets(18, 24, density=0.2, seed=seed)
    b = make_random_triplets(24, 15, density=0.25, seed=seed + 1)
    return a, b


class TestCorrectness:
    def test_matches_dense(self):
        a, b = make_pair()
        A = build_format("csr", a)
        B = build_format("csr", b)
        C = spgemm(A, B)
        assert np.allclose(C.to_dense(), a.to_dense() @ b.to_dense())

    def test_matches_scipy(self):
        import scipy.sparse as sp

        a, b = make_pair(3)
        A = build_format("csr", a)
        B = build_format("csr", b)
        C = spgemm(A, B)
        ref = (sp.csr_matrix(a.to_dense()) @ sp.csr_matrix(b.to_dense())).toarray()
        assert np.allclose(C.to_dense(), ref)

    @pytest.mark.parametrize("fmt_a", ALL_FORMATS)
    @pytest.mark.parametrize("fmt_b", ["csr", "coo"])
    def test_any_format_operands(self, fmt_a, fmt_b):
        a, b = make_pair(7)
        A = build_format(fmt_a, a)
        B = build_format(fmt_b, b)
        C = spgemm(A, B)
        assert np.allclose(C.to_dense(), a.to_dense() @ b.to_dense())

    def test_square_power(self):
        t = make_random_triplets(20, 20, density=0.15, seed=9)
        A = build_format("csr", t)
        sq = spgemm(A, A)
        assert np.allclose(sq.to_dense(), t.to_dense() @ t.to_dense())

    def test_result_sorted_row_major(self):
        a, b = make_pair(11)
        C = spgemm(build_format("csr", a), build_format("csr", b))
        keys = np.asarray(C.rows, dtype=np.int64) * C.ncols + C.cols
        assert np.all(np.diff(keys) > 0)

    def test_empty_operand(self):
        a = CooBuilder(5, 6).finish()
        b = make_random_triplets(6, 4, density=0.4, seed=1)
        C = spgemm(build_format("csr", a), build_format("csr", b))
        assert C.nnz == 0

    def test_identity_is_noop(self):
        n = 12
        eye = CooBuilder(n, n)
        eye.add_batch(np.arange(n), np.arange(n), np.ones(n))
        t = make_random_triplets(n, n, density=0.3, seed=5)
        C = spgemm(build_format("csr", t), build_format("csr", eye.finish()))
        assert np.allclose(C.to_dense(), t.to_dense())

    def test_cancellation_dropped(self):
        # A row that sums to exactly zero must not appear in the output.
        a = CooBuilder(1, 2)
        a.add_batch([0, 0], [0, 1], [1.0, -1.0])
        b = CooBuilder(2, 1)
        b.add_batch([0, 1], [0, 0], [1.0, 1.0])
        C = spgemm(
            build_format("csr", a.finish()), build_format("csr", b.finish())
        )
        assert C.nnz == 0

    def test_shape_mismatch(self):
        a, b = make_pair()
        with pytest.raises(ShapeError):
            spgemm(build_format("csr", b), build_format("csr", b))

    def test_chain_back_into_spmm(self, rng):
        """The SpGEMM product feeds the SpMM suite (one-format pipeline)."""
        t = make_random_triplets(16, 16, density=0.2, seed=13)
        A = build_format("csr", t)
        product = spgemm(A, A)
        A2 = build_format("csr", product)
        B = rng.standard_normal((16, 4))
        assert np.allclose(A2.spmm(B), t.to_dense() @ t.to_dense() @ B)


class TestFlops:
    def test_flop_count_formula(self):
        a, b = make_pair(17)
        A = build_format("csr", a)
        B = build_format("csr", b)
        expected = 0
        db = b.to_dense()
        for r, c in zip(a.rows, a.cols):
            expected += 2 * int((db[int(c)] != 0).sum())
        assert spgemm_flops(A, B) == expected

    def test_flops_shape_check(self):
        a, b = make_pair()
        with pytest.raises(ShapeError):
            spgemm_flops(build_format("csr", b), build_format("csr", b))

    @pytest.mark.parametrize("fmt_a,fmt_b", [("bcsr", "ell"), ("sell", "csr"), ("csr", "bell")])
    def test_traced_spgemm_converts_each_operand_once(self, monkeypatch, fmt_a, fmt_b):
        """The traced flop count reuses the CSR arrays already in hand."""
        import importlib

        from repro.bench.observe import Tracer

        convert_module = importlib.import_module("repro.formats.convert")

        a, b = make_pair(19)
        A, B = build_format(fmt_a, a), build_format(fmt_b, b)
        calls = []
        real = convert_module.convert

        def counting_convert(M, *args, **kwargs):
            calls.append(M)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(convert_module, "convert", counting_convert)
        tracer = Tracer()
        C = spgemm(A, B, tracer=tracer)
        assert len(calls) == sum(fmt not in ("csr", "coo", "csr5") for fmt in (fmt_a, fmt_b))
        assert tracer.counters["spgemm_flops"] == spgemm_flops(A, B)
        assert tracer.counters["spgemm_output_nnz"] == C.nnz
