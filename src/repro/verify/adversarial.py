"""The degenerate-matrix zoo: adversarial structures for the fuzzer.

The structured generators in :mod:`repro.matrices.generators` model the
paper's Table 5.1 inputs; the builders here model everything those inputs
are *not* — the boundary geometries where padding, permutation, chunking,
and blocking each break differently:

* empty matrices (nnz=0) and matrices with empty rows/columns,
* a single dense row (the ELL/SELL width explosion) or column,
* 1xN / Nx1 / 1x1 shapes (the SpMV boundary),
* prime dimensions (block sizes never divide evenly),
* duplicate COO entries (the builder must sum, formats must not double),
* explicit stored zeros (padding/value confusion),
* extreme value magnitudes (any reordered sum changes the bits),
* SELL-C-σ boundary geometry (fewer rows than one chunk; a sorting
  window that is entirely empty).

Each builder is a deterministic function of a seed, so every fuzz case —
and every shrunk corpus entry — is replayable from ``(name, seed)`` alone.
Test fixtures reuse these builders (``tests/conftest.py``) so the unit
suite and the fuzzer agree on what "degenerate" means.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..matrices.coo_builder import CooBuilder, Triplets

__all__ = ["ADVERSARIAL_BUILDERS", "degenerate_zoo", "build_adversarial"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _vals(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    return rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)


def empty_matrix(seed: int = 0) -> Triplets:
    """nnz = 0: every kernel must return exact zeros."""
    return CooBuilder(6, 5).finish()


def empty_rows(seed: int = 0) -> Triplets:
    """Several completely empty rows between sparse ones."""
    builder = CooBuilder(10, 10)
    builder.add_batch([0, 0, 4, 9], [1, 3, 4, 9], [1.0, 2.0, 3.0, 4.0])
    return builder.finish()


def empty_cols(seed: int = 0) -> Triplets:
    """Columns 0 and the last one never referenced (gather boundary)."""
    rng = _rng(seed)
    rows = np.arange(8, dtype=np.int64)
    cols = 1 + (rows * 3) % 8  # stays inside [1, 8] of 10 columns
    builder = CooBuilder(8, 10)
    builder.add_batch(rows, cols, _vals(rng, rows.size))
    return builder.finish()


def single_dense_row(seed: int = 0) -> Triplets:
    """One fully dense row among near-empty ones — the ELL width killer."""
    rng = _rng(seed)
    n = 12
    builder = CooBuilder(n, n)
    builder.add_batch(np.full(n, 3, dtype=np.int64), np.arange(n), _vals(rng, n))
    for r in (0, 7, n - 1):
        builder.add(r, int(rng.integers(n)), float(rng.uniform(0.5, 2.0)))
    return builder.finish()


def single_dense_col(seed: int = 0) -> Triplets:
    """One fully dense column: every row gathers the same B row."""
    rng = _rng(seed)
    n = 11
    builder = CooBuilder(n, n)
    builder.add_batch(np.arange(n), np.full(n, 5, dtype=np.int64), _vals(rng, n))
    return builder.finish()


def one_by_n(seed: int = 0) -> Triplets:
    rng = _rng(seed)
    cols = np.array([0, 3, 4, 8, 12], dtype=np.int64)
    builder = CooBuilder(1, 13)
    builder.add_batch(np.zeros(cols.size, dtype=np.int64), cols, _vals(rng, cols.size))
    return builder.finish()


def n_by_one(seed: int = 0) -> Triplets:
    rng = _rng(seed)
    rows = np.array([0, 2, 5, 10], dtype=np.int64)
    builder = CooBuilder(11, 1)
    builder.add_batch(rows, np.zeros(rows.size, dtype=np.int64), _vals(rng, rows.size))
    return builder.finish()


def one_by_one(seed: int = 0) -> Triplets:
    builder = CooBuilder(1, 1)
    builder.add(0, 0, 3.5)
    return builder.finish()


def prime_dims(seed: int = 0) -> Triplets:
    """7x13: no block size > 1 divides either dimension."""
    rng = _rng(seed)
    nrows, ncols = 7, 13
    mask = rng.random((nrows, ncols)) < 0.3
    r, c = np.nonzero(mask)
    builder = CooBuilder(nrows, ncols)
    if r.size:
        builder.add_batch(r, c, _vals(rng, r.size))
    else:
        builder.add(0, 0, 1.0)
    return builder.finish()


def duplicate_coo(seed: int = 0) -> Triplets:
    """Overlapping batches: the builder must sum duplicates exactly once."""
    rng = _rng(seed)
    builder = CooBuilder(6, 6)
    rows = np.array([0, 1, 2, 3, 4, 5, 0, 1, 2], dtype=np.int64)
    cols = np.array([1, 2, 3, 4, 5, 0, 1, 2, 3], dtype=np.int64)
    builder.add_batch(rows, cols, _vals(rng, rows.size))
    builder.add_batch(rows[:4], cols[:4], _vals(rng, 4))  # duplicates of the first four
    return builder.finish()


def explicit_zero(seed: int = 0) -> Triplets:
    """A stored 0.0 value: formats must not confuse it with padding."""
    rng = _rng(seed)
    builder = CooBuilder(5, 5)
    builder.add_batch([0, 1, 2, 3], [1, 2, 3, 4], [1.5, 0.0, -2.0, 0.5])
    builder.add(4, 0, float(rng.uniform(0.5, 2.0)))
    return builder.finish()


def cancelling_duplicates(seed: int = 0) -> Triplets:
    """Duplicates that sum to zero: a stored zero born from accumulation."""
    builder = CooBuilder(4, 4)
    builder.add_batch([0, 2, 2], [1, 3, 0], [2.0, 1.0, -0.5])
    builder.add_batch([0, 2], [1, 0], [-2.0, 0.5])  # cancels (0,1) and (2,0)
    return builder.finish()


def wide_value_range(seed: int = 0) -> Triplets:
    """Values spanning ~1e-6..1e6: a reordered row sum changes the bits."""
    rng = _rng(seed)
    n = 9
    mask = rng.random((n, n)) < 0.4
    r, c = np.nonzero(mask)
    if r.size == 0:
        r, c = np.array([0]), np.array([0])
    exponents = rng.integers(-6, 7, r.size).astype(np.float64)
    values = rng.uniform(1.0, 9.9, r.size) * (10.0**exponents)
    builder = CooBuilder(n, n)
    builder.add_batch(r, c, values * rng.choice([-1.0, 1.0], r.size))
    return builder.finish()


def fully_dense(seed: int = 0) -> Triplets:
    rng = _rng(seed)
    n = 6
    builder = CooBuilder(n, n)
    dense = rng.uniform(0.5, 1.5, (n, n))
    builder.add_dense(dense)
    return builder.finish()


def skewed_row(seed: int = 0) -> Triplets:
    """A matrix with one very long row (the torso1 pathology)."""
    rng = _rng(seed)
    builder = CooBuilder(40, 50)
    builder.add_batch(np.zeros(45, dtype=np.int64), np.arange(45), rng.uniform(1, 2, 45))
    for r in range(1, 40):
        cols = rng.choice(50, size=3, replace=False)
        builder.add_batch([r] * 3, cols, rng.uniform(1, 2, 3))
    return builder.finish()


def diagonal_only(seed: int = 0) -> Triplets:
    rng = _rng(seed)
    n = 9
    builder = CooBuilder(n, n)
    builder.add_batch(np.arange(n), np.arange(n), _vals(rng, n))
    return builder.finish()


def last_entry_corner(seed: int = 0) -> Triplets:
    """Only the (n-1, m-1) corner is set: off-by-one hunting."""
    builder = CooBuilder(8, 9)
    builder.add(7, 8, -1.25)
    builder.add(0, 0, 2.0)
    return builder.finish()


def short_chunk(seed: int = 0) -> Triplets:
    """Fewer rows than a SELL chunk (3 < C=4): one ragged trailing chunk.

    The oracle's SELL defaults (chunk=4, sigma=8) make the whole matrix a
    single partial chunk — rows_per_chunk bookkeeping, the permutation
    scatter, and padded-width cumsum all hit their n < C boundary at once.
    """
    rng = _rng(seed)
    builder = CooBuilder(3, 7)
    rows = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
    cols = np.array([1, 6, 0, 2, 4, 5], dtype=np.int64)
    builder.add_batch(rows, cols, _vals(rng, rows.size))
    return builder.finish()


def empty_sigma_window(seed: int = 0) -> Triplets:
    """A whole SELL sorting window (rows 8..15 under sigma=8) is empty.

    Sorting within the second window is a no-op over all-zero lengths, so
    its two chunks (C=4) have width 0 — zero-sized padded segments that a
    streaming kernel must skip without emitting or consuming anything.
    """
    rng = _rng(seed)
    builder = CooBuilder(20, 12)
    busy = np.concatenate([np.arange(0, 8), np.arange(16, 20)]).astype(np.int64)
    for r in busy:
        width = int(rng.integers(1, 5))
        cols = rng.choice(12, size=width, replace=False)
        builder.add_batch(np.full(width, r, dtype=np.int64), cols, _vals(rng, width))
    return builder.finish()


def ragged_block_edge(seed: int = 0) -> Triplets:
    """DLMC block-sparse pattern whose dims are not block multiples.

    A 4-wide block grid over a 10x14 matrix leaves a 2-row and 2-column
    ragged fringe; the clipped blocks exercise BCSR's partial-tile padding
    and ELL's per-row width jumps between full and clipped blocks.
    """
    from ..matrices.generators import block_sparse_matrix

    return block_sparse_matrix(10, 14, block_size=4, block_density=0.6, seed=seed)


def ultra_sparse_pruned(seed: int = 0) -> Triplets:
    """98%-sparse magnitude pruning on a wide matrix: most rows empty.

    The DLMC tail regime — Binomial(ncols, 0.02) row counts leave a large
    fraction of rows with zero entries while a few carry 2-3, the geometry
    that trips row-pointer walks which assume nnz > 0 per row.
    """
    from ..matrices.generators import magnitude_pruned_matrix

    return magnitude_pruned_matrix(12, 48, 0.02, seed=seed)


#: name -> builder(seed).  Ordered: the fuzzer samples by index.
ADVERSARIAL_BUILDERS: dict[str, Callable[[int], Triplets]] = {
    "empty": empty_matrix,
    "empty_rows": empty_rows,
    "empty_cols": empty_cols,
    "single_dense_row": single_dense_row,
    "single_dense_col": single_dense_col,
    "one_by_n": one_by_n,
    "n_by_one": n_by_one,
    "one_by_one": one_by_one,
    "prime_dims": prime_dims,
    "duplicate_coo": duplicate_coo,
    "explicit_zero": explicit_zero,
    "cancelling_duplicates": cancelling_duplicates,
    "wide_value_range": wide_value_range,
    "fully_dense": fully_dense,
    "skewed_row": skewed_row,
    "diagonal_only": diagonal_only,
    "last_entry_corner": last_entry_corner,
    "short_chunk": short_chunk,
    "empty_sigma_window": empty_sigma_window,
    "ragged_block_edge": ragged_block_edge,
    "ultra_sparse_pruned": ultra_sparse_pruned,
}


def build_adversarial(name: str, seed: int = 0) -> Triplets:
    """Build one named adversarial case."""
    return ADVERSARIAL_BUILDERS[name](seed)


def degenerate_zoo(seed: int = 0) -> dict[str, Triplets]:
    """Every adversarial case, built deterministically from one seed."""
    return {name: fn(seed) for name, fn in ADVERSARIAL_BUILDERS.items()}
