"""Study 8 bench (Figures 5.17/5.18): transposing matrix B.

Wall clock: baseline parallel vs parallel-transpose kernels (including the
transpose itself, as the study charges it) across formats, plus the raw
transpose cost.
"""

import pytest

from repro.kernels.dispatch import transpose_operand
from repro.studies import study8_transpose

from conftest import K, SCALE, build, dense_operand

TRANSPOSE_FORMATS = ("coo", "csr", "ell", "bcsr")


@pytest.mark.parametrize("fmt", TRANSPOSE_FORMATS)
def test_baseline_parallel(benchmark, fmt):
    A = build("cant", fmt)
    B = dense_operand(A)
    C = benchmark(lambda: A.spmm(B, variant="parallel", threads=4))
    assert C.shape == (A.nrows, K)


@pytest.mark.parametrize("fmt", TRANSPOSE_FORMATS)
def test_parallel_transpose(benchmark, fmt):
    A = build("cant", fmt)
    B = dense_operand(A)
    C = benchmark(lambda: A.spmm(B, variant="parallel_transpose", threads=4))
    assert C.shape == (A.nrows, K)


def test_transpose_cost(benchmark):
    A = build("cant", "csr")
    B = dense_operand(A)
    Bt = benchmark(transpose_operand, B)
    assert Bt.shape == (K, A.ncols)


def test_report_figures(report_header):
    report_header("study8", study8_transpose.run(scale=SCALE).to_text())
