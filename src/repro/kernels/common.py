"""Shared kernel machinery: the slot-major layout, row chunking, partitions.

The paper's kernels add each row of C left to right over its stored
entries, into a zeroed C (the ``C[i] += ...`` loops of §4.1-4.2).  Every
summing CPU kernel here keeps that order without a per-row Python loop by
visiting the entries slot-major — the jagged-diagonal / SELL-C-sigma layout
of Kreutzer et al.: rows sorted longest first, slot ``j`` adding the
``j``-th entry of every row that has one (:func:`slot_layout`).  Slots
that few rows reach run from products formed up front
(:data:`THIN_ELEMENTS`).  Row chunking bounds what a unit gathers at once
so large matrices never materialize multi-GB temporaries — the paper hit
exactly this wall (§6.3.5, "they used a huge amount of the available
RAM").
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import KernelError

__all__ = [
    "slot_layout",
    "expand",
    "THIN_ELEMENTS",
    "iter_row_chunks",
    "balanced_partitions",
    "DEFAULT_CHUNK_ELEMENTS",
]

#: Upper bound on elements (entries x k) materialized per chunk (~256 MB f64).
DEFAULT_CHUNK_ELEMENTS = 32_000_000


def slot_layout(indptr: np.ndarray) -> tuple:
    """The jagged-diagonal (slot-major) layout of the rows under ``indptr``.

    Returns ``(order, ptr, offsets, perm)``: the nonempty rows, longest
    first (ties keep row order); a pointer over their entries in that
    order; the slot offsets — slot ``j`` holds the ``j``-th entry of each of
    the first ``offsets[j + 1] - offsets[j]`` rows; and the entry index at
    each slot-major position.  Fully vectorized.
    """
    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    nslots = int(lengths.max(initial=0))
    widths = lengths.size - np.cumsum(np.bincount(lengths, minlength=nslots + 1))[:nslots]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    # Position i of slot j holds entry j of row order[i]; int32 positions
    # halve the build's memory traffic.
    pos = np.int32 if indptr[-1] - indptr[0] < 2**31 else np.int64
    rank = np.arange(offsets[-1], dtype=pos)
    rank -= np.repeat(offsets[:-1].astype(pos), widths)
    perm = indptr[:-1][order][rank]
    perm += np.repeat(np.arange(nslots, dtype=pos), widths)
    order = order[: widths[0] if nslots else 0]
    return order, np.concatenate([[0], np.cumsum(lengths[order])]), offsets, perm


#: Slots whose rows hold at most this many output elements in all are thin.
THIN_ELEMENTS = 4096


def expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for each ``(s, n)`` pair."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def iter_row_chunks(
    indptr: np.ndarray, k: int, max_elements: int = DEFAULT_CHUNK_ELEMENTS
) -> Iterator[tuple[int, int]]:
    """Yield ``(row_start, row_end)`` ranges whose entry count times ``k``
    stays under ``max_elements``.

    A single row larger than the budget still gets its own chunk (the
    kernel must make progress), so the bound is soft for pathological rows.
    """
    if k <= 0:
        raise KernelError(f"k must be positive, got {k}")
    nrows = indptr.size - 1
    budget_entries = max(1, max_elements // max(k, 1))
    r0 = 0
    while r0 < nrows:
        r1 = int(np.searchsorted(indptr, indptr[r0] + budget_entries, side="right")) - 1
        r1 = min(max(r1, r0 + 1), nrows)
        yield r0, r1
        r0 = r1


def balanced_partitions(indptr: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split rows into ``parts`` contiguous ranges with near-equal nnz.

    This is the static OpenMP-style schedule the paper's parallel kernels
    use, except balanced by work rather than row count; partitions may be
    empty for very skewed matrices (a single huge row cannot be split).
    """
    if parts < 1:
        raise KernelError(f"parts must be >= 1, got {parts}")
    nrows = indptr.size - 1
    targets = int(indptr[-1]) * np.arange(1, parts) // parts
    bounds = [0, *np.minimum(np.searchsorted(indptr, targets), nrows).tolist(), nrows]
    return list(zip(bounds[:-1], bounds[1:]))
