"""Triplet (COO-like) accumulation.

Sparse matrices "are generally stored in a COO-like format" (paper §4.1) and
every format in the suite is built from that representation.  The
:class:`CooBuilder` collects ``(row, col, value)`` triplets, then
:meth:`CooBuilder.finish` validates bounds, sorts row-major, and sums
duplicates, producing an immutable :class:`Triplets` bundle that the format
constructors consume.  A bundle's arrays are read-only, so its content
fingerprint is computed once and read by every cache keyed on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..dtypes import DEFAULT_POLICY, DTypePolicy
from ..errors import FormatError, ShapeError

__all__ = ["Triplets", "CooBuilder"]


@dataclass(frozen=True)
class Triplets:
    """Validated, row-major-sorted, duplicate-free COO triplets.

    The three arrays are frozen (``flags.writeable = False``) on
    construction: a matrix's content cannot change under a cache keyed by
    its :attr:`fingerprint`.  A caller that needs to edit one copies the
    array first.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.rows, self.cols, self.values):
            array.flags.writeable = False

    @cached_property
    def fingerprint(self) -> str:
        """Content digest (shape, dtypes, pattern, values), hashed on first use.

        Any change to the coordinates or values changes it, so a cache keyed
        by it can never serve a plan built for different data.  Plans, engine
        groups, migration, shared-memory publication and the tune store all
        read this one value.
        """
        h = hashlib.sha256()
        h.update(
            f"{self.nrows}x{self.ncols}"
            f":{self.rows.dtype.str}:{self.cols.dtype.str}:{self.values.dtype.str}".encode()
        )
        for array in (self.rows, self.cols, self.values):
            h.update(np.ascontiguousarray(array))
        return h.hexdigest()[:32]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.values.size)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small matrices / tests only)."""
        dense = np.zeros((self.nrows, self.ncols), dtype=self.values.dtype)
        dense[self.rows, self.cols] = self.values
        return dense

    def row_counts(self) -> np.ndarray:
        """Nonzeros per row, length ``nrows``."""
        return np.bincount(self.rows, minlength=self.nrows).astype(np.int64)

    def transposed(self) -> "Triplets":
        """Triplets of the transpose, re-sorted row-major."""
        order = np.lexsort((self.rows, self.cols))
        return Triplets(
            nrows=self.ncols,
            ncols=self.nrows,
            rows=np.ascontiguousarray(self.cols[order]),
            cols=np.ascontiguousarray(self.rows[order]),
            values=np.ascontiguousarray(self.values[order]),
        )


class CooBuilder:
    """Accumulates triplets and produces a validated :class:`Triplets`.

    Parameters
    ----------
    nrows, ncols:
        Matrix dimensions; every appended coordinate must fall inside them.
    policy:
        Dtype policy for the produced arrays.

    Examples
    --------
    >>> b = CooBuilder(3, 3)
    >>> b.add(0, 0, 1.0)
    >>> b.add_batch([1, 2], [2, 1], [3.0, 4.0])
    >>> t = b.finish()
    >>> t.nnz
    3
    """

    def __init__(self, nrows: int, ncols: int, policy: DTypePolicy = DEFAULT_POLICY):
        if nrows <= 0 or ncols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {nrows}x{ncols}")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.policy = policy
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []

    def add(self, row: int, col: int, value: float) -> None:
        """Append a single triplet."""
        self.add_batch([row], [col], [value])

    def add_batch(self, rows, cols, values) -> None:
        """Append arrays of triplets; lengths must match."""
        r = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        c = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        v = np.atleast_1d(self.policy.value_array(values))
        if not (r.shape == c.shape == v.shape) or r.ndim != 1:
            raise FormatError(
                f"triplet batch shapes differ: rows {r.shape}, cols {c.shape}, values {v.shape}"
            )
        if r.size == 0:
            return
        if r.min() < 0 or r.max() >= self.nrows:
            raise FormatError(f"row index out of range [0, {self.nrows})")
        if c.min() < 0 or c.max() >= self.ncols:
            raise FormatError(f"col index out of range [0, {self.ncols})")
        if not np.isfinite(v).all():
            bad = int(np.count_nonzero(~np.isfinite(v)))
            raise FormatError(
                f"triplet values must be finite; batch contains {bad} NaN/Inf entries"
            )
        self._rows.append(r)
        self._cols.append(c)
        self._vals.append(v)

    def add_dense(self, dense) -> None:
        """Append every nonzero of a dense array."""
        arr = np.asarray(dense)
        if arr.shape != (self.nrows, self.ncols):
            raise ShapeError(f"dense block shape {arr.shape} != {(self.nrows, self.ncols)}")
        r, c = np.nonzero(arr)
        self.add_batch(r, c, arr[r, c])

    @property
    def pending(self) -> int:
        """Triplets appended so far (before dedup)."""
        return int(sum(a.size for a in self._rows))

    def finish(self, sum_duplicates: bool = True) -> Triplets:
        """Sort row-major, combine duplicates, and freeze into Triplets."""
        if not self._rows:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=self.policy.value)
        else:
            rows = np.concatenate(self._rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            # Keys are unique (row, col) pairs; segment-sum values over them.
            keys = rows * np.int64(self.ncols) + cols
            unique_mask = np.empty(keys.size, dtype=bool)
            unique_mask[0] = True
            np.not_equal(keys[1:], keys[:-1], out=unique_mask[1:])
            segment_ids = np.cumsum(unique_mask) - 1
            summed = np.zeros(int(segment_ids[-1]) + 1, dtype=vals.dtype)
            np.add.at(summed, segment_ids, vals)
            rows = rows[unique_mask]
            cols = cols[unique_mask]
            vals = summed
        return Triplets(
            nrows=self.nrows,
            ncols=self.ncols,
            rows=self.policy.index_array(rows),
            cols=self.policy.index_array(cols),
            values=self.policy.value_array(vals),
        )


def triplets_from_dense(dense, policy: DTypePolicy = DEFAULT_POLICY) -> Triplets:
    """Convenience: build Triplets straight from a dense array."""
    arr = np.asarray(dense)
    if arr.ndim != 2:
        raise ShapeError(f"expected 2-D array, got ndim={arr.ndim}")
    builder = CooBuilder(arr.shape[0], arr.shape[1], policy=policy)
    builder.add_dense(arr)
    return builder.finish()
