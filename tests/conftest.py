"""Shared fixtures and helpers for the SpMM-Bench reproduction tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dtypes import DEFAULT_POLICY
from repro.matrices.coo_builder import CooBuilder, Triplets

#: Formats under test everywhere; blocked/tiled formats take params.
ALL_FORMATS = ("coo", "csr", "ell", "bcsr", "bell", "csr5", "sell")
PAPER_FORMATS = ("coo", "csr", "ell", "bcsr")

FORMAT_PARAMS = {
    "bcsr": {"block_size": 3},
    "bell": {"row_block": 4},
    "csr5": {"tile_nnz": 16},
    "sell": {"chunk": 4, "sigma": 8},
}


def make_random_triplets(
    nrows: int,
    ncols: int,
    density: float = 0.2,
    seed: int = 0,
    policy=DEFAULT_POLICY,
) -> Triplets:
    """Random sparse triplets with no explicit zeros."""
    rng = np.random.default_rng(seed)
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.uniform(0.5, 2.0, (nrows, ncols)), 0.0)
    builder = CooBuilder(nrows, ncols, policy=policy)
    builder.add_dense(dense)
    return builder.finish()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rng_factory():
    """Seeded-RNG factory: ``rng_factory(seed)`` is deterministic per test.

    Use instead of ad-hoc ``np.random.default_rng(...)`` calls so every
    test names its stream explicitly and reruns bit-identically.
    """

    def factory(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return factory


@pytest.fixture
def small_triplets():
    """A 23x31 random matrix with ~20% density."""
    return make_random_triplets(23, 31, density=0.2, seed=42)


@pytest.fixture
def skewed_triplets():
    """A matrix with one very long row (the torso1 pathology)."""
    from repro.verify.adversarial import build_adversarial

    return build_adversarial("skewed_row", 7)


@pytest.fixture
def empty_rows_triplets():
    """A matrix with several completely empty rows."""
    from repro.verify.adversarial import build_adversarial

    return build_adversarial("empty_rows")


@pytest.fixture
def degenerate_zoo():
    """Every adversarial boundary matrix, keyed by name (repro.verify)."""
    from repro.verify.adversarial import degenerate_zoo as _zoo

    return _zoo(0)


@pytest.fixture
def content_hashes(monkeypatch):
    """Records each content fingerprint the code under test computes.

    A content fingerprint starts an empty SHA-256 and feeds it the arrays;
    the short cache-file tokens hash a string given up front, so they are
    not counted.
    """
    calls = []
    sha256 = hashlib.sha256

    def counting(*args, **kwargs):
        if not args and not kwargs:
            calls.append(1)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


@pytest.fixture(params=ALL_FORMATS)
def format_name(request):
    return request.param


def build_format(name: str, triplets: Triplets, policy=DEFAULT_POLICY):
    """Construct any registered format with its test parameters."""
    from repro.formats.registry import get_format

    return get_format(name).from_triplets(
        triplets, policy=policy, **FORMAT_PARAMS.get(name, {})
    )
