"""Backward-mode SpMM: the training-time gradient multiply ``A^T @ G``.

In a sparse layer's backward pass the weight matrix is applied transposed to
the output gradient (``grad_input = W^T @ grad_output`` — the
``--backward-test`` mode of pytorch's DLMC benchmarks).  Rather than adding a
third kernel family, we reuse the Study 8 machinery: transpose the *sparse*
operand once (structure + values, a formatting cost charged like any other
conversion) and run the existing transpose-operand kernels on it.  The
composition is exact — both paths stream the same entries in the same
per-row order — so ``backward_spmm`` on ``A`` is bit-identical to
``transpose_spmm`` on an explicitly transposed ``A``, which is what the
property tests pin.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from ..formats.base import SparseFormat
from ..matrices.coo_builder import Triplets
from .dispatch import transpose_spmm

__all__ = ["BACKWARD_FORMATS", "backward_spmm", "transpose_format"]

#: The formats of the DL grid's backward cells (``BENCH_dl.json``).  The
#: transposed-operand plan serves every format; this tuple declares which
#: ones the DL grid benchmarks, so its cells stay comparable across runs.
BACKWARD_FORMATS = ("coo", "csr", "csr5", "ell", "bcsr")


def transpose_format(A: SparseFormat, **params) -> SparseFormat:
    """Rebuild ``A^T`` in ``A``'s own format class.

    ``params`` are the format-constructor knobs of the *transposed* build
    (BCSR ``block_size``, CSR5 ``tile_nnz``, ...); the canonical
    row-major-sorted triplet transpose in between makes the result identical
    to formatting the transposed triplets directly.
    """
    tt = A.to_triplets().transposed()
    return type(A).from_triplets(tt, policy=A.policy, **params)


def backward_spmm(
    A: SparseFormat,
    G: np.ndarray,
    k: int | None = None,
    *,
    threads: int = 1,
    fmt_params: dict | None = None,
    **_opts,
) -> np.ndarray:
    """``A^T @ G`` for a ``(nrows, k)`` gradient panel ``G``.

    ``threads=1`` is the serial backward kernel, larger values the parallel
    one — the same split as the forward Study 8 kernels this delegates to.
    The per-call transpose is the convenience path; benchmarks that want the
    transpose cost out of the timed region build ``transpose_format(A)``
    once and call :func:`~repro.kernels.dispatch.transpose_spmm` directly.
    """
    G = np.asarray(G)
    if G.ndim == 1:
        G = G[:, None]
    if G.shape[0] != A.nrows:
        raise KernelError(
            f"gradient has {G.shape[0]} rows, expected A.nrows = {A.nrows}"
        )
    At = transpose_format(A, **(fmt_params or {}))
    return transpose_spmm(At, G, k, threads=threads)


def backward_reference(triplets: Triplets, G: np.ndarray, k: int | None = None) -> np.ndarray:
    """Dense explicit-transpose reference: ``dense(A).T @ G``.

    Independent of every sparse kernel (densify + BLAS), the backward analog
    of :func:`repro.verify.reference.dense_reference`.
    """
    G = np.asarray(G)
    if G.ndim == 1:
        G = G[:, None]
    if k is not None and k < G.shape[1]:
        G = G[:, :k]
    return triplets.to_dense().astype(np.float64).T @ G.astype(np.float64)
