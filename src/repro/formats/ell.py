"""ELLPACK (ELL) format.

"ELL builds an array that contains the nonzero column indices for every row
... Every row will have a constant number of columns, meaning the size of
each row is dictated by the row in the matrix with the most nonzero
elements" (paper §2.2).  Padding entries carry value 0 and, for spatial
locality, reuse the row's last real column index so padded gathers land on
an already-touched cache line — the paper's "padding is done in proximity to
the nonzero elements" guidance.

ELL is the simplest blocked format and the most fragile: one long row (high
column ratio) inflates every other row — the ``torso1`` failure mode.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..dtypes import DEFAULT_POLICY, DTypePolicy
from ..errors import FormatError
from ..matrices.coo_builder import Triplets
from .base import SparseFormat
from .registry import register_format

__all__ = ["ELL"]


@register_format("ell")
class ELL(SparseFormat):
    """Fixed-width padded row storage.

    Attributes
    ----------
    width:
        Entries per row (= max row nnz of the source matrix).
    indices, values:
        ``(nrows, width)`` arrays stored slot-major (Fortran order), so slot
        ``j`` of every row is one contiguous column — the order the kernel
        walks; slots ``>= row_nnz[i]`` in row *i* are padding.
    row_nnz:
        Real nonzeros per row, needed to recover the logical matrix.
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indices: np.ndarray,
        values: np.ndarray,
        row_nnz: np.ndarray,
        policy: DTypePolicy = DEFAULT_POLICY,
    ):
        super().__init__(nrows, ncols, policy)
        # The policy coerces to C order; applied to the transpose, that is
        # Fortran (slot-major) order of the matrix, and a no-op for input
        # that is already slot-major.
        indices = policy.index_array(np.asarray(indices).T).T
        values = policy.value_array(np.asarray(values).T).T
        row_nnz = np.ascontiguousarray(row_nnz, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[0] != nrows:
            raise FormatError(f"ELL indices must be (nrows, width), got {indices.shape}")
        if values.shape != indices.shape:
            raise FormatError("ELL values shape must match indices")
        if row_nnz.shape != (nrows,):
            raise FormatError("ELL row_nnz must have length nrows")
        width = indices.shape[1]
        if np.any(row_nnz < 0) or np.any(row_nnz > width):
            raise FormatError("ELL row_nnz out of [0, width] range")
        if indices.size and (indices.min() < 0 or int(indices.max()) >= ncols):
            raise FormatError("ELL column index out of range")
        self.width = width
        self.indices = indices
        self.values = values
        self.row_nnz = row_nnz

    @classmethod
    def from_triplets(
        cls, triplets: Triplets, policy: DTypePolicy = DEFAULT_POLICY, **params: Any
    ) -> "ELL":
        if params:
            raise FormatError(f"ELL takes no format parameters, got {params}")
        nrows, ncols = triplets.nrows, triplets.ncols
        counts = triplets.row_counts()
        width = int(counts.max()) if counts.size and triplets.nnz else 0
        width = max(width, 1)  # keep arrays 2-D even for empty matrices
        indices = np.zeros((nrows, width), dtype=policy.index, order="F")
        values = np.zeros((nrows, width), dtype=policy.value, order="F")
        if triplets.nnz:
            # Slot of each entry within its row (triplets are row-major sorted).
            starts = np.cumsum(counts) - counts
            slot = np.arange(triplets.nnz, dtype=np.int64) - starts[triplets.rows]
            indices[triplets.rows, slot] = triplets.cols
            values[triplets.rows, slot] = triplets.values
            # Locality-preserving padding: repeat the row's last real column.
            nonempty = counts > 0
            last_col = np.zeros(nrows, dtype=policy.index)
            last_idx = (starts + counts - 1)[nonempty]
            last_col[nonempty] = triplets.cols[last_idx]
            pad_mask = np.arange(width)[None, :] >= counts[:, None]
            np.copyto(indices, last_col[:, None], where=pad_mask)
        return cls(nrows, ncols, indices, values, counts, policy=policy)

    def to_triplets(self) -> Triplets:
        valid = np.arange(self.width)[None, :] < self.row_nnz[:, None]
        rows, slots = np.nonzero(valid)
        return Triplets(
            nrows=self.nrows,
            ncols=self.ncols,
            rows=self.policy.index_array(rows),
            cols=self.indices[rows, slots].copy(),
            values=self.values[rows, slots].copy(),
        )

    @property
    def nnz(self) -> int:
        return int(self.row_nnz.sum())

    @property
    def stored_entries(self) -> int:
        return int(self.indices.size)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "indices": self.indices,
            "values": self.values,
            "row_nnz": self.row_nnz,
        }
