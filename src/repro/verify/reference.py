"""Reference multiplies and the tolerance model.

"The suite has a built-in verification function for verifying the accuracy
of the calculation.  We originally tried to implement this using a pure
matrix-matrix multiplication algorithm, but this took too long.  We decided
instead to use the COO multiplication algorithm for verification." (§4.3)

Two references live here:

* :func:`reference_spmm` — the paper's choice: the COO serial kernel on the
  retained original triplets (fast, shares the suite's chunking machinery);
* :func:`dense_reference` — an *independent* accumulation order
  (densify + BLAS matmul), which the differential oracle prefers because it
  shares no code with any kernel under test.

Both feed :func:`result_tolerance`, which scales the acceptance band with
the magnitude of the reference so accumulation-order differences between
formats never read as failures while real divergence does.
"""

from __future__ import annotations

import numpy as np

from ..errors import VerificationError
from ..formats.coo import COO
from ..kernels.dispatch import serial_spmm
from ..matrices.coo_builder import Triplets

__all__ = [
    "reference_spmm",
    "dense_reference",
    "result_tolerance",
    "verify_result",
]

#: Accumulation-depth factor baked into the acceptance band; formats sum the
#: same products in different orders, so bit-exact equality is not expected.
ACCUMULATION_FACTOR = 16


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

    Tolerance scales with the reference magnitude (accumulation order
    differs between formats, so bit-exact equality is not expected).
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
