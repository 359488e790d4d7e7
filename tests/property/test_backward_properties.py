"""Property tests pinning the backward-mode identity.

The backward gradient multiply (kernels/backward.py) is a composition:
transpose the sparse operand's triplets, rebuild the same format, run the
Study 8 transpose-operand kernel.  Both the composed path and the
explicit-transpose reference stream identical entries in identical
per-row order, so the contract is *bit* identity, not closeness — which
is what these properties assert, across formats, thread counts, and the
DLMC-style generators the DL suite benchmarks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelError
from repro.formats.registry import get_format
from repro.kernels.backward import (
    BACKWARD_FORMATS,
    backward_reference,
    backward_spmm,
    transpose_format,
)
from repro.kernels.dispatch import transpose_spmm
from repro.matrices.generators import block_sparse_matrix, magnitude_pruned_matrix
from tests.conftest import FORMAT_PARAMS
from tests.property.test_format_properties import sparse_matrices


def _grad(t, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t.nrows, k))


@settings(max_examples=60, deadline=None)
@given(
    t=sparse_matrices(),
    fmt=st.sampled_from(BACKWARD_FORMATS),
    k=st.integers(1, 7),
    threads=st.sampled_from([1, 3]),
    seed=st.integers(0, 4),
)
def test_backward_bit_identical_to_explicit_transpose(t, fmt, k, threads, seed):
    params = FORMAT_PARAMS.get(fmt, {})
    A = get_format(fmt).from_triplets(t, **params)
    G = _grad(t, k, seed)
    got = backward_spmm(A, G, k, threads=threads, fmt_params=params)
    At = get_format(fmt).from_triplets(t.transposed(), **params)
    want = transpose_spmm(At, G, k, threads=threads)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    t=sparse_matrices(),
    fmt=st.sampled_from(BACKWARD_FORMATS),
    k=st.integers(1, 5),
    seed=st.integers(0, 4),
)
def test_backward_matches_dense_reference(t, fmt, k, seed):
    params = FORMAT_PARAMS.get(fmt, {})
    A = get_format(fmt).from_triplets(t, **params)
    G = _grad(t, k, seed)
    got = backward_spmm(A, G, k, fmt_params=params)
    assert np.allclose(got, backward_reference(t, G, k), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    t=sparse_matrices(),
    fmt=st.sampled_from(BACKWARD_FORMATS),
    k=st.integers(1, 5),
)
def test_backward_serial_parallel_bit_identical(t, fmt, k):
    # Threads partition rows of A^T; each output row is produced by exactly
    # one thread with the serial per-row loop, so parallelism cannot change
    # a single bit.
    params = FORMAT_PARAMS.get(fmt, {})
    A = get_format(fmt).from_triplets(t, **params)
    G = _grad(t, k, 7)
    serial = backward_spmm(A, G, k, threads=1, fmt_params=params)
    parallel = backward_spmm(A, G, k, threads=4, fmt_params=params)
    assert np.array_equal(serial, parallel)


@settings(max_examples=30, deadline=None)
@given(t=sparse_matrices(), fmt=st.sampled_from(BACKWARD_FORMATS))
def test_transpose_format_roundtrip(t, fmt):
    # Transposing twice through the format class restores the dense matrix.
    params = FORMAT_PARAMS.get(fmt, {})
    A = get_format(fmt).from_triplets(t, **params)
    back = transpose_format(transpose_format(A, **params), **params)
    assert np.array_equal(back.to_triplets().to_dense(), t.to_dense())


@pytest.mark.parametrize("fmt", BACKWARD_FORMATS)
def test_dl_generators_bit_identity(fmt):
    params = FORMAT_PARAMS.get(fmt, {})
    for t in (
        magnitude_pruned_matrix(40, 24, 0.12, seed=1),
        block_sparse_matrix(30, 44, block_size=8, block_density=0.25, seed=2),
    ):
        A = get_format(fmt).from_triplets(t, **params)
        G = _grad(t, 6, 11)
        got = backward_spmm(A, G, 6, fmt_params=params)
        At = get_format(fmt).from_triplets(t.transposed(), **params)
        assert np.array_equal(got, transpose_spmm(At, G, 6))
        assert np.allclose(got, backward_reference(t, G, 6), atol=1e-9)


def test_vector_gradient_promoted():
    t = magnitude_pruned_matrix(12, 9, 0.3, seed=3)
    A = get_format("csr").from_triplets(t)
    g = np.arange(t.nrows, dtype=np.float64)
    got = backward_spmm(A, g)
    assert got.shape == (t.ncols, 1)
    assert np.allclose(got, backward_reference(t, g))


def test_gradient_row_mismatch_raises():
    t = magnitude_pruned_matrix(10, 8, 0.3, seed=4)
    A = get_format("csr").from_triplets(t)
    with pytest.raises(KernelError):
        backward_spmm(A, np.zeros((t.nrows + 1, 3)))
