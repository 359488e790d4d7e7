"""Sparse-sparse matrix multiplication (SpGEMM).

The paper's future work stops short of SpGEMM: "Supporting SpGEMM would be
interesting, but doing so would likely require significant modification
(unless the operation is on one type of format)" (§6.3.4).  This module
takes exactly the carve-out the paper identifies — both operands in one
format family (CSR-like) — and implements Gustavson's row-merge algorithm:

    C[i, :] = sum over j in A[i, :] of A[i, j] * B[j, :]

on the slot loop the SpMM kernels share, as a kernel in its own right (the
LOHP-SpGEMM view): each output is ``0.0`` plus its products in A-row entry
order, with exact cancellations dropped.  Accepts any registered format
(converted to CSR arrays internally) and returns Triplets, so the result
can be formatted into anything — including back into the benchmark suite
for an SpMM on the product.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..formats.base import SparseFormat
from ..formats.coo import COO
from ..formats.csr import CSR
from ..formats.csr5 import CSR5
from ..matrices.coo_builder import Triplets
from .common import expand, slot_layout

__all__ = ["spgemm", "spgemm_flops"]


def _csr_arrays(M: SparseFormat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(M, (CSR, CSR5)):
        return M.indptr, M.indices, M.values
    if isinstance(M, COO):
        return M.row_segments(), M.cols, M.values
    # Any other registered format: route through CSR (the paper's
    # "one type of format" restriction, applied by conversion).
    from ..formats.convert import convert

    csr = convert(M, "csr")
    return csr.indptr, csr.indices, csr.values


#: Dense accumulator elements per tile of A rows, but never fewer than
#: ``MIN_TILE_ROWS`` rows, however wide B is.
TILE_ELEMENTS, MIN_TILE_ROWS = 1 << 14, 16


def spgemm_flops(A: SparseFormat, B: SparseFormat) -> int:
    """Multiply-add count of Gustavson's algorithm: sum over entries
    A[i,j] of nnz(B[j, :]) — the standard SpGEMM work metric."""
    if A.ncols != B.nrows:
        raise ShapeError(f"inner dimensions differ: {A.ncols} vs {B.nrows}")
    return int(2 * np.diff(_csr_arrays(B)[0])[_csr_arrays(A)[1]].sum())


def spgemm(A: SparseFormat, B: SparseFormat, *, tracer=None) -> Triplets:
    """C = A @ B for two sparse operands; returns row-sorted Triplets.

    Rows of A go in tiles with one dense ``rows x ncols`` accumulator.  A
    tile's entries expand, slot-major, into (target, product) pairs; slot
    ``j`` scatter-adds its pairs (targets are unique within a slot), and the
    tile harvests its nonzeros in row-major order.  Memory is the
    accumulator and one tile's expansion, plus the output.

    A ``tracer`` records the SpGEMM-specific counters: ``spgemm_flops``
    (the Gustavson multiply-add work), ``spgemm_output_nnz``, and
    ``spgemm_compression`` — output nnz over multiply-adds, the standard
    measure of how much accumulation the merge performed.
    """
    if A.ncols != B.nrows:
        raise ShapeError(f"inner dimensions differ: {A.ncols} vs {B.nrows}")
    a_ptr, a_cols, a_vals = _csr_arrays(A)
    b_ptr, b_cols, b_vals = _csr_arrays(B)
    b_len, ncols = np.diff(b_ptr), B.ncols
    tile_rows = max(MIN_TILE_ROWS, TILE_ELEMENTS // max(ncols, 1))
    acc = np.zeros(tile_rows * ncols, dtype=np.float64)
    keys, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.float64)]
    for r0 in range(0, A.nrows, tile_rows):
        ptr = a_ptr[r0 : r0 + tile_rows + 1]
        _, _, offsets, ent = slot_layout(ptr)
        cols = a_cols[ent]
        lengths = b_len[cols]
        if not lengths.sum():
            continue
        src = expand(b_ptr[cols], lengths)
        row = np.searchsorted(ptr, ent, side="right") - 1
        targets = np.repeat(row * ncols, lengths) + b_cols[src]
        products = np.repeat(a_vals[ent], lengths) * b_vals[src]
        bounds = np.concatenate([[0], np.cumsum(lengths)])[offsets].tolist()
        for f0, f1 in zip(bounds[:-1], bounds[1:]):
            acc[targets[f0:f1]] += products[f0:f1]
        if targets.size >= acc.size:  # dense tile: scan it
            pos = np.flatnonzero(acc)
        else:  # sparse tile: look only where products landed
            pos = np.unique(targets)
            pos = pos[acc[pos] != 0.0]  # numerical cancellation drops entries
        keys.append(r0 * ncols + pos)
        vals.append(acc[pos])
        acc[pos] = 0.0
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    if tracer is not None:
        flops = int(2 * b_len[a_cols].sum())
        tracer.count("spgemm_flops", flops)
        tracer.count("spgemm_output_nnz", keys.size)
        if flops:
            tracer.count("spgemm_compression", 2.0 * keys.size / flops)
    rows, cols = np.divmod(keys, max(ncols, 1))
    policy = A.policy
    return Triplets(
        nrows=A.nrows,
        ncols=ncols,
        rows=policy.index_array(rows),
        cols=policy.index_array(cols),
        values=policy.value_array(vals),
    )
