"""Reference multiplies and the tolerance model.

"The suite has a built-in verification function for verifying the accuracy
of the calculation.  We originally tried to implement this using a pure
matrix-matrix multiplication algorithm, but this took too long.  We decided
instead to use the COO multiplication algorithm for verification." (§4.3)

Three references live here:

* :func:`exact_reference` — each row of C summed left to right from
  ``0.0`` in column order, the bytes every format and every variant but
  ``grouped*`` returns for a finite B (padding and fill add only ``±0.0``).
  It shares no code with :mod:`repro.kernels`;
* :func:`reference_spmm` — the paper's choice: the COO serial kernel on the
  retained original triplets;
* :func:`dense_reference` — densify + BLAS matmul, for the few results
  summed in an order BLAS picks (``grouped*``, dot products, the SpGEMM
  cross-check).

Those few are judged within :func:`result_tolerance`, an absolute band
scaled with the reference's magnitude.
"""

from __future__ import annotations

import numpy as np

from ..errors import VerificationError
from ..formats.coo import COO
from ..kernels.dispatch import serial_spmm
from ..matrices.coo_builder import Triplets

__all__ = [
    "exact_reference",
    "reference_spmm",
    "dense_reference",
    "result_tolerance",
    "verify_result",
]

#: Accumulation-depth factor baked into the acceptance band for results
#: summed in an order BLAS picks.
ACCUMULATION_FACTOR = 16


def exact_reference(triplets: Triplets, B: np.ndarray, k: int | None = None) -> np.ndarray:
    """``A @ B`` with each row summed left to right, in float64.

    Walks the triplets in stored order (row-major, columns ascending): step
    ``p`` adds the product of every row's ``p``-th entry into a zeroed C,
    so each row is ``0.0 + p1 + p2 + ...``.
    """
    B = np.asarray(B, dtype=np.float64)[:, :k]
    C = np.zeros((triplets.nrows, B.shape[1]))
    rows, cols, values = triplets.rows, triplets.cols, triplets.values.astype(np.float64)
    position = np.arange(rows.size) - np.searchsorted(rows, rows)
    # One slice per within-row position, stored order kept inside a slice.
    order = np.argsort(position, kind="stable")
    for at in np.split(order, np.cumsum(np.bincount(position))[:-1]):
        C[rows[at]] += values[at, None] * B[cols[at]]
    return C


def reference_spmm(triplets: Triplets, B: np.ndarray, k: int | None = None) -> np.ndarray:
    """The COO reference multiply used for verification (paper §4.3)."""
    ref_fmt = COO.from_triplets(triplets)
    return serial_spmm(ref_fmt, B, k)


def dense_reference(triplets: Triplets, B: np.ndarray, k: int | None = None) -> np.ndarray:
    """Densified matmul reference — independent of every sparse kernel.

    Small matrices only (the fuzzer's domain): the dense product shares no
    gather/segment-sum code with the kernels under test, so a bug in the
    shared machinery cannot cancel out of the comparison.
    """
    B = np.asarray(B)
    if k is not None and k < B.shape[1]:
        B = B[:, :k]
    dense = triplets.to_dense().astype(np.float64)
    return dense @ B.astype(np.float64)


def result_tolerance(reference: np.ndarray, rtol: float = 1e-6) -> float:
    """Absolute acceptance band for a result against ``reference``."""
    scale = float(np.abs(reference).max()) if reference.size else 0.0
    return rtol * (scale or 1.0) * ACCUMULATION_FACTOR


def verify_result(
    triplets: Triplets,
    B: np.ndarray,
    C: np.ndarray,
    k: int | None = None,
    rtol: float = 1e-6,
    raise_on_failure: bool = True,
) -> bool:
    """Check a kernel result against the COO reference.

    Tolerance scales with the reference magnitude, so a ``grouped`` result,
    summed in the order BLAS picks, passes too.
    """
    reference = reference_spmm(triplets, B, k)
    if C.shape != reference.shape:
        if raise_on_failure:
            raise VerificationError(
                f"result shape {C.shape} != reference {reference.shape}"
            )
        return False
    tolerance = result_tolerance(reference, rtol)
    max_err = float(np.abs(C - reference).max()) if reference.size else 0.0
    ok = bool(max_err <= tolerance)
    if not ok and raise_on_failure:
        raise VerificationError(
            f"verification failed: max abs error {max_err:.3e} "
            f"(tolerance {tolerance:.3e})"
        )
    return ok
