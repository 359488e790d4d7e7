"""The one kernel layer: every variant is a way of calling one per-format plan.

Bit identity across variants is the contract that makes the single planner
+ executor safe: every variant must reproduce ``serial`` exactly (signed
zeros included), except CSR5 under the parallel schedules, which runs the
CSR5 equal-nnz tile algorithm and merges rows across tile boundaries.
"""

import tracemalloc

import numpy as np
import pytest

from repro.kernels.dispatch import run_spmm, run_spmv
from repro.kernels.plan import PlanCache
from repro.matrices.coo_builder import CooBuilder
from tests.conftest import ALL_FORMATS, FORMAT_PARAMS, build_format, make_random_triplets


def _bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype.str, a.tobytes()


def _inputs():
    """Matrices with empty rows and -0.0 in both operands."""
    rng = np.random.default_rng(11)
    cases = []
    for n, m in [(37, 29), (64, 64)]:
        builder = CooBuilder(n, m)
        nnz = n * m // 4
        rows = rng.integers(0, n, nnz)
        rows[rows % 7 == 3] = 0  # every row congruent to 3 mod 7 stays empty
        vals = rng.standard_normal(nnz)
        vals[rng.random(nnz) < 0.1] = -0.0
        builder.add_batch(rows, rng.integers(0, m, nnz), vals)
        B = rng.standard_normal((m, 6))
        B[rng.random(B.shape) < 0.1] = -0.0
        cases.append((builder.finish(), B))
    return cases


CASES = _inputs()
VARIANTS = [
    pytest.param("optimized", {}, id="optimized"),
    *[
        pytest.param("parallel", {"threads": t, "schedule": s}, id=f"parallel-{s}-t{t}")
        for t in (1, 2, 3, 4)
        for s in ("static", "dynamic")
    ],
    *[
        pytest.param("optimized_parallel", {"threads": t}, id=f"optimized_parallel-t{t}")
        for t in (1, 2, 3, 4)
    ],
    pytest.param("serial_transpose", {}, id="serial_transpose"),
    *[
        pytest.param("parallel_transpose", {"threads": t}, id=f"parallel_transpose-t{t}")
        for t in (2, 4)
    ],
]


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("variant,opts", VARIANTS)
@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_variant_matches_serial_bit_for_bit(fmt, variant, opts, case):
    triplets, B = CASES[case]
    A = build_format(fmt, triplets)
    want = run_spmm(A, B, "serial")
    got = run_spmm(A, B, variant, **opts)
    if fmt == "csr5" and variant in ("parallel", "optimized_parallel"):
        # Tile units merge boundary rows: same sums, different order.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert _bits(run_spmm(A, B, variant, **opts)) == _bits(got)
    else:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("variant", ["serial", "parallel"])
@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmv_is_spmm_column_zero(fmt, variant, case):
    triplets, B = CASES[case]
    A = build_format(fmt, triplets)
    x = np.ascontiguousarray(B[:, 1])
    want = run_spmm(A, x[:, None], "serial")[:, 0]
    assert _bits(run_spmv(A, x, variant, threads=3)) == _bits(want)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_planned_transpose_matches_serial(fmt):
    triplets, B = CASES[0]
    cache = PlanCache()
    serial, _ = cache.get_or_build_plan(
        triplets, fmt, variant="serial", k=6, format_params=FORMAT_PARAMS.get(fmt)
    )
    for variant in ("serial_transpose", "parallel_transpose"):
        plan, _ = cache.get_or_build_plan(
            triplets, fmt, variant=variant, k=6, threads=2, format_params=FORMAT_PARAMS.get(fmt)
        )
        assert _bits(plan(B)) == _bits(serial(B))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bcsr_plan_honours_chunk_elements():
    """A small chunk budget bounds the BCSR panel gather of a plan."""
    t = make_random_triplets(400, 400, density=0.2, seed=3)
    B = np.random.default_rng(3).standard_normal((400, 32))
    cache = PlanCache()
    big, _ = cache.get_or_build_plan(t, "bcsr", variant="serial", k=32)
    small, _ = cache.get_or_build_plan(t, "bcsr", variant="serial", k=32, chunk_elements=4096)
    assert _bits(small(B)) == _bits(big(B))
    big_peak = _peak_bytes(lambda: big(B))
    small_peak = _peak_bytes(lambda: small(B))
    assert small_peak * 5 < big_peak, (small_peak, big_peak)
