"""Study 9 bench (Figure 5.19): manual optimizations.

This is the one study whose mechanism is *measurable* in pure Python: the
fixed-k specialized kernels hoist planning and loads out of the call path
(the analog of template instantiation).  Benchmarks compare the generic and
specialized kernels; the specialized path should not be slower, and for COO
(which rebuilds its row pointer per generic call) it should win clearly.
"""

import pytest

from repro.kernels.dispatch import compile_variant
from repro.studies import study9_manual_opt

from conftest import K, PAPER_FORMATS, SCALE, build, dense_operand


@pytest.mark.parametrize("fmt", PAPER_FORMATS)
def test_generic_kernel(benchmark, fmt):
    A = build("x104", fmt)
    B = dense_operand(A)
    C = benchmark(A.spmm, B)
    assert C.shape == (A.nrows, K)


@pytest.mark.parametrize("fmt", PAPER_FORMATS)
def test_specialized_kernel(benchmark, fmt):
    A = build("x104", fmt)
    B = dense_operand(A)
    kernel = compile_variant(A, "optimized", K)  # specialization outside the timer
    C = benchmark(kernel, B)
    assert C.shape == (A.nrows, K)


def test_coo_specialization_wins():
    """COO's generic kernel rebuilds its row pointer per call; the
    specialized kernel must not be slower."""
    import time

    A = build("cant", "coo")
    B = dense_operand(A)
    kernel = compile_variant(A, "optimized", K)

    def best_of(fn, n=3):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    A.spmm(B)
    kernel(B)
    generic = best_of(lambda: A.spmm(B))
    specialized = best_of(lambda: kernel(B))
    assert specialized <= generic * 1.1


def test_report_figures(report_header):
    report_header("study9", study9_manual_opt.run(scale=SCALE).to_text())
