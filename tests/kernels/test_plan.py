"""Tests for execution plans and the plan cache (repro.kernels.plan)."""

import pickle

import numpy as np
import pytest

from repro.errors import BenchConfigError
from repro.kernels.dispatch import run_spmm
from repro.kernels.plan import (
    PLAN_CACHE_VERSION,
    PLANNABLE_VARIANTS,
    PlanCache,
    PlanKey,
    fingerprint_triplets,
    matrix_fingerprint,
    plan_supported,
)
from repro.matrices.coo_builder import Triplets
from tests.conftest import ALL_FORMATS, FORMAT_PARAMS, build_format, make_random_triplets

K = 6
PLAN_VARIANTS = ("serial", "parallel", "optimized")


def _dense_operand(triplets, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((triplets.ncols, K))


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("variant", PLAN_VARIANTS)
def test_planned_bitwise_identical_to_unplanned(small_triplets, fmt, variant):
    """A cached plan must reproduce the direct kernel result bit for bit."""
    cache = PlanCache()
    B = _dense_operand(small_triplets)
    A = build_format(fmt, small_triplets)
    expected = run_spmm(A, B, variant=variant, k=K, threads=2)

    plan, provenance = cache.get_or_build_plan(
        small_triplets,
        fmt,
        variant=variant,
        k=K,
        threads=2,
        format_params=FORMAT_PARAMS.get(fmt),
    )
    assert provenance in ("built", "memory")
    got = plan(B)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)

    # Second lookup is a pure memo hit returning the same plan object.
    plan2, provenance2 = cache.get_or_build_plan(
        small_triplets,
        fmt,
        variant=variant,
        k=K,
        threads=2,
        format_params=FORMAT_PARAMS.get(fmt),
    )
    assert provenance2 == "memory"
    assert plan2 is plan
    assert np.array_equal(plan2(B), expected)


def test_plan_supported_excludes_gpu():
    assert plan_supported("serial")
    assert plan_supported("parallel")
    assert not plan_supported("gpu")
    assert not plan_supported("gpu_transpose")
    assert not plan_supported("serial", operation="spgemm")
    for variant in PLANNABLE_VARIANTS:
        assert plan_supported(variant)


def test_unplannable_variant_raises(small_triplets):
    with pytest.raises(BenchConfigError):
        PlanCache().get_or_build_plan(small_triplets, "csr", variant="gpu", k=K)


def test_fingerprint_changes_on_mutation(small_triplets):
    """Any change to shape, pattern, or values must change the fingerprint."""
    base = fingerprint_triplets(small_triplets)
    assert base == fingerprint_triplets(small_triplets)  # deterministic

    bumped_values = Triplets(
        nrows=small_triplets.nrows,
        ncols=small_triplets.ncols,
        rows=small_triplets.rows,
        cols=small_triplets.cols,
        values=small_triplets.values * 1.5,
    )
    moved_entry = Triplets(
        nrows=small_triplets.nrows,
        ncols=small_triplets.ncols,
        rows=small_triplets.rows,
        cols=np.where(
            np.arange(small_triplets.nnz) == 0,
            (small_triplets.cols + 1) % small_triplets.ncols,
            small_triplets.cols,
        ).astype(small_triplets.cols.dtype),
        values=small_triplets.values,
    )
    wider = Triplets(
        nrows=small_triplets.nrows,
        ncols=small_triplets.ncols + 1,
        rows=small_triplets.rows,
        cols=small_triplets.cols,
        values=small_triplets.values,
    )
    digests = {base, *map(fingerprint_triplets, (bumped_values, moved_entry, wider))}
    assert len(digests) == 4


def test_mutated_matrix_gets_fresh_plan(small_triplets):
    """The cache may never serve a plan built for different data."""
    cache = PlanCache()
    B = _dense_operand(small_triplets)
    plan, _ = cache.get_or_build_plan(small_triplets, "csr", variant="serial", k=K)
    doubled = Triplets(
        nrows=small_triplets.nrows,
        ncols=small_triplets.ncols,
        rows=small_triplets.rows,
        cols=small_triplets.cols,
        values=small_triplets.values * 2.0,
    )
    plan2, provenance = cache.get_or_build_plan(doubled, "csr", variant="serial", k=K)
    assert provenance == "built"
    assert plan2 is not plan
    assert np.allclose(plan2(B), 2.0 * plan(B))


def test_matrix_fingerprint_format_independent(small_triplets, content_hashes):
    """The same logical matrix fingerprints identically in every format: a
    format's fingerprint is its canonical triplets', hashed once per object."""
    want = fingerprint_triplets(small_triplets)
    for fmt in ALL_FORMATS:
        A = build_format(fmt, small_triplets)
        assert A.fingerprint == A.to_triplets().fingerprint == want, fmt
        hashed = len(content_hashes)
        assert matrix_fingerprint(A) == want, fmt
        assert len(content_hashes) == hashed, fmt


def test_plan_cache_hashes_each_triplets_once(content_hashes):
    """Planning one matrix in every format, serial and parallel, hashes it once."""
    trip = make_random_triplets(40, 30, density=0.2, seed=7)
    cache = PlanCache()
    for fmt in ALL_FORMATS:
        for variant in ("serial", "parallel"):
            cache.get_or_build_plan(
                trip, fmt, variant=variant, k=K, threads=2,
                format_params=FORMAT_PARAMS.get(fmt),
            )
    assert len(cache) == 2 * len(ALL_FORMATS)
    assert len(content_hashes) == 1


def test_conversion_artifact_shared_across_variants(small_triplets):
    """Different variants of one (matrix, format) share the conversion."""
    cache = PlanCache()
    cache.get_or_build_plan(small_triplets, "csr", variant="serial", k=K)
    assert cache.stats["format_misses"] == 1
    cache.get_or_build_plan(small_triplets, "csr", variant="parallel", k=K, threads=2)
    assert cache.stats["format_misses"] == 1
    assert cache.stats["format_hits"] == 1
    assert cache.stats["plan_misses"] == 2


def test_disk_cache_round_trip(tmp_path, small_triplets):
    """A second process (fresh cache, same directory) skips conversion."""
    B = _dense_operand(small_triplets)
    first = PlanCache(directory=tmp_path)
    plan, provenance = first.get_or_build_plan(
        small_triplets, "csr", variant="serial", k=K
    )
    assert provenance == "built"
    assert first.stats["disk_writes"] == 1
    assert list(tmp_path.glob("*.plan.pkl"))

    second = PlanCache(directory=tmp_path)
    plan2, provenance2 = second.get_or_build_plan(
        small_triplets, "csr", variant="serial", k=K
    )
    assert provenance2 == "disk"
    assert second.stats["disk_hits"] == 1
    assert plan2.format_time_s == 0.0
    assert np.array_equal(plan2(B), plan(B))


def test_disk_cache_ignores_corrupt_entry(tmp_path, small_triplets):
    first = PlanCache(directory=tmp_path)
    first.get_or_build_plan(small_triplets, "csr", variant="serial", k=K)
    (path,) = tmp_path.glob("*.plan.pkl")
    path.write_bytes(b"not a pickle")

    fresh = PlanCache(directory=tmp_path)
    _, provenance = fresh.get_or_build_plan(small_triplets, "csr", variant="serial", k=K)
    assert provenance == "built"
    assert fresh.stats["disk_hits"] == 0


def test_disk_cache_ignores_version_mismatch(tmp_path, small_triplets):
    first = PlanCache(directory=tmp_path)
    first.get_or_build_plan(small_triplets, "csr", variant="serial", k=K)
    (path,) = tmp_path.glob("*.plan.pkl")
    payload = pickle.loads(path.read_bytes())
    payload["version"] = PLAN_CACHE_VERSION + 1
    path.write_bytes(pickle.dumps(payload))

    fresh = PlanCache(directory=tmp_path)
    _, provenance = fresh.get_or_build_plan(small_triplets, "csr", variant="serial", k=K)
    assert provenance == "built"


def test_lru_eviction(small_triplets):
    cache = PlanCache(maxsize=2)
    for k in (2, 3, 4):
        cache.get_or_build_plan(small_triplets, "csr", variant="serial", k=k)
    assert len(cache) == 2
    assert cache.stats["evictions"] >= 1
    # The newest key (k=4) still hits the plan memo...
    before = cache.stats["plan_misses"]
    cache.get_or_build_plan(small_triplets, "csr", variant="serial", k=4)
    assert cache.stats["plan_misses"] == before
    # ...while the evicted oldest (k=2) is a plan miss and rebuilds (the
    # conversion artifact may still be memoized — only the plan was evicted).
    cache.get_or_build_plan(small_triplets, "csr", variant="serial", k=2)
    assert cache.stats["plan_misses"] == before + 1


def test_plan_key_distinguishes_knobs(small_triplets):
    fp = fingerprint_triplets(small_triplets)
    a = PlanKey(fp, "csr", "serial", 8, 1)
    b = PlanKey(fp, "csr", "serial", 8, 1, chunk_elements=1024)
    assert a != b
    assert a.conversion_key == b.conversion_key  # chunk is kernel-side only
    assert a.token == b.token


def test_plan_cache_rejects_bad_maxsize():
    with pytest.raises(BenchConfigError):
        PlanCache(maxsize=0)


def test_tracer_counters_recorded(small_triplets):
    from repro.bench.observe import Tracer

    tracer = Tracer()
    cache = PlanCache()
    cache.get_or_build_plan(
        small_triplets, "csr", variant="serial", k=K, tracer=tracer
    )
    cache.get_or_build_plan(
        small_triplets, "csr", variant="serial", k=K, tracer=tracer
    )
    assert tracer.counters["plan_cache_miss"] == 1
    assert tracer.counters["plan_cache_hit"] == 1


def test_larger_matrix_parallel_identical():
    """Plans over a bigger skewed matrix match the unplanned kernels."""
    trip = make_random_triplets(150, 90, density=0.05, seed=9)
    B = np.random.default_rng(4).standard_normal((90, K))
    cache = PlanCache()
    for fmt in ("coo", "csr", "ell"):
        A = build_format(fmt, trip)
        expected = run_spmm(A, B, variant="parallel", k=K, threads=4)
        plan, _ = cache.get_or_build_plan(
            trip, fmt, variant="parallel", k=K, threads=4
        )
        assert np.array_equal(plan(B), expected), fmt
