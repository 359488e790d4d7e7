"""Metamorphic relations: correctness checks that need no oracle.

Where the differential oracle asks "do all paths agree with the
reference?", the relations here ask "does each path respect the algebra of
matrix multiplication?" — which catches bugs the reference shares (e.g. a
systematic index shift applied identically everywhere):

* ``row_permutation`` — permuting A's rows permutes C's rows the same way;
* ``col_permutation`` — permuting A's columns while inverse-permuting B's
  rows leaves C unchanged;
* ``scalar_scaling`` — ``(alpha * A) @ B == alpha * (A @ B)``;
* ``transpose_duality`` — ``x @ (A @ B) == (A^T x) @ B`` (the SpMV of the
  transposed triplets), plus the Study 8 transpose kernels agreeing with
  the straight kernels;
* ``k_slicing`` — the first ``j`` columns of a width-``k`` product equal
  the width-``j`` product;
* ``format_roundtrip`` — ``convert`` through any format and back preserves
  the dense matrix and the computed product;
* ``backward_duality`` — the backward gradient multiply ``A^T @ G``
  (kernels/backward.py) is bit-identical to the Study 8 transpose kernel
  on an explicitly transposed operand, and agrees with the straight
  forward kernel on the transposed triplets;
* ``spgemm_identity`` — ``A @ I == A`` under Gustavson SpGEMM, and
  ``A @ A^T`` dense-agrees with the densified product.

Each relation takes ``(triplets, B, k, fmt, variant, rtol)`` and returns a
list of human-readable failure strings (empty = holds).  The shrinker uses
:func:`run_relation` as its predicate when minimizing a relation failure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..formats.convert import convert
from ..formats.registry import format_names, get_format
from ..kernels.dispatch import run_spmm, run_spmv
from ..matrices.coo_builder import CooBuilder, Triplets
from .oracle import DEFAULT_FORMAT_PARAMS, supported_variants
from .reference import result_tolerance

__all__ = ["METAMORPHIC_RELATIONS", "run_metamorphic", "run_relation"]


def _build(fmt: str, triplets: Triplets):
    return get_format(fmt).from_triplets(triplets, **DEFAULT_FORMAT_PARAMS.get(fmt, {}))


def _permuted_triplets(triplets: Triplets, row_perm=None, col_perm=None) -> Triplets:
    """Rebuild triplets with rows/cols relabeled through permutations."""
    rows = row_perm[triplets.rows] if row_perm is not None else triplets.rows
    cols = col_perm[triplets.cols] if col_perm is not None else triplets.cols
    builder = CooBuilder(triplets.nrows, triplets.ncols)
    builder.add_batch(rows, cols, triplets.values)
    return builder.finish()


def _multiply(fmt: str, variant: str, triplets: Triplets, B: np.ndarray, k: int) -> np.ndarray:
    return np.asarray(run_spmm(_build(fmt, triplets), B, variant=variant, k=k), dtype=np.float64)


def _mismatch(got: np.ndarray, want: np.ndarray, rtol: float) -> float | None:
    """Max abs deviation if outside the scaled band, else None."""
    if got.shape != want.shape:
        return float("inf")
    err = float(np.abs(got - want).max()) if want.size else 0.0
    return err if err > result_tolerance(want, rtol) else None


def row_permutation(triplets, B, k, fmt, variant, rtol):
    """Permuting A's rows must permute C's rows identically."""
    rng = np.random.default_rng(triplets.nrows * 31 + triplets.nnz)
    perm = rng.permutation(triplets.nrows)
    base = _multiply(fmt, variant, triplets, B, k)
    shuffled = _multiply(fmt, variant, _permuted_triplets(triplets, row_perm=perm), B, k)
    err = _mismatch(shuffled[perm], base, rtol)
    if err is not None:
        return [f"row permutation not equivariant: max abs deviation {err:.3e}"]
    return []


def col_permutation(triplets, B, k, fmt, variant, rtol):
    """Permuting A's columns + inverse-permuting B's rows leaves C fixed."""
    rng = np.random.default_rng(triplets.ncols * 37 + triplets.nnz)
    perm = rng.permutation(triplets.ncols)
    B_scattered = np.empty_like(B)
    B_scattered[perm] = B  # B'[perm[c]] = B[c] pairs with A'[i, perm[c]] = A[i, c]
    base = _multiply(fmt, variant, triplets, B, k)
    moved = _multiply(fmt, variant, _permuted_triplets(triplets, col_perm=perm), B_scattered, k)
    err = _mismatch(moved, base, rtol)
    if err is not None:
        return [f"column permutation not invariant: max abs deviation {err:.3e}"]
    return []


def scalar_scaling(triplets, B, k, fmt, variant, rtol):
    """(alpha A) @ B must equal alpha (A @ B)."""
    alpha = -3.25  # exactly representable: scaling is bit-clean in binary fp
    scaled = Triplets(
        nrows=triplets.nrows,
        ncols=triplets.ncols,
        rows=triplets.rows,
        cols=triplets.cols,
        values=triplets.values * alpha,
    )
    base = _multiply(fmt, variant, triplets, B, k)
    got = _multiply(fmt, variant, scaled, B, k)
    err = _mismatch(got, alpha * base, rtol)
    if err is not None:
        return [f"scalar scaling violated: max abs deviation {err:.3e}"]
    return []


def transpose_duality(triplets, B, k, fmt, variant, rtol):
    """x @ (A @ B) == (A^T x) @ B, and transpose kernels match straight ones."""
    failures = []
    C = _multiply(fmt, variant, triplets, B, k)
    # Algebraic dual through the independent SpMV path on A^T.
    rng = np.random.default_rng(triplets.nrows * 41 + triplets.nnz)
    x = rng.standard_normal(triplets.nrows)
    At = get_format("csr").from_triplets(triplets.transposed())
    y = np.asarray(run_spmv(At, x), dtype=np.float64)  # A^T x
    left = x @ C
    right = y @ np.asarray(B, dtype=np.float64)[:, :k]
    tol = result_tolerance(left, rtol) * max(np.abs(x).max(), 1.0) * max(triplets.nrows, 1)
    err = float(np.abs(left - right).max()) if left.size else 0.0
    if err > tol:
        failures.append(
            f"transpose duality (x@C vs (A^T x)@B) violated: max abs deviation {err:.3e}"
        )
    # Study 8 kernels: transposed-operand variant must match the straight one.
    if not variant.endswith("_transpose"):
        Ct = _multiply(fmt, "serial_transpose", triplets, B, k)
        terr = _mismatch(Ct, C, rtol)
        if terr is not None:
            failures.append(
                f"serial_transpose disagrees with {variant}: max abs deviation {terr:.3e}"
            )
    return failures


def k_slicing(triplets, B, k, fmt, variant, rtol):
    """The first j columns of a width-k product equal the width-j product."""
    if k < 2:
        return []
    j = max(1, k // 2)
    full = _multiply(fmt, variant, triplets, B, k)
    sliced = _multiply(fmt, variant, triplets, B, j)
    err = _mismatch(sliced, full[:, :j], rtol)
    if err is not None:
        return [f"k-slicing violated (k={k} -> j={j}): max abs deviation {err:.3e}"]
    return []


def format_roundtrip(triplets, B, k, fmt, variant, rtol):
    """convert() through ``fmt`` and back must preserve matrix and product."""
    failures = []
    csr = get_format("csr").from_triplets(triplets)
    other = convert(csr, fmt, **DEFAULT_FORMAT_PARAMS.get(fmt, {}))
    back = convert(other, "csr")
    dense_before = triplets.to_dense()
    dense_after = back.to_triplets().to_dense()
    if dense_before.shape != dense_after.shape or not np.array_equal(
        dense_before, dense_after
    ):
        failures.append(f"csr -> {fmt} -> csr round-trip changed the dense matrix")
        return failures
    base = _multiply(fmt, variant, triplets, B, k)
    via = np.asarray(run_spmm(back, B, variant=variant, k=k), dtype=np.float64)
    err = _mismatch(via, base, rtol)
    if err is not None:
        return failures + [
            f"product after {fmt} round-trip deviates: max abs error {err:.3e}"
        ]
    return failures


def backward_duality(triplets, B, k, fmt, variant, rtol):
    """Backward A^T@G == transpose kernel on explicit A^T, bit for bit."""
    from ..kernels.backward import backward_spmm, transpose_spmm

    failures = []
    params = DEFAULT_FORMAT_PARAMS.get(fmt, {})
    rng = np.random.default_rng(triplets.nrows * 43 + triplets.nnz)
    G = rng.standard_normal((triplets.nrows, k))
    A = _build(fmt, triplets)
    got = np.asarray(backward_spmm(A, G, k, fmt_params=params), dtype=np.float64)
    # Bit-identity leg: same format built from the transposed triplets,
    # same transpose kernel — the composition must be exact, not close.
    At = _build(fmt, triplets.transposed())
    want_exact = np.asarray(transpose_spmm(At, G, k), dtype=np.float64)
    if got.shape != want_exact.shape or not np.array_equal(got, want_exact):
        failures.append(
            "backward_spmm is not bit-identical to transpose_spmm on explicit A^T"
        )
    # Algebraic leg: the straight forward kernel on A^T computes the same
    # product (different accumulation order, so tolerance applies).
    want = _multiply(fmt, variant, triplets.transposed(), G, k)
    err = _mismatch(got, want, rtol)
    if err is not None:
        failures.append(
            f"backward duality (A^T@G vs forward on A^T) violated: "
            f"max abs deviation {err:.3e}"
        )
    return failures


def spgemm_identity(triplets, B, k, fmt, variant, rtol):
    """A @ I == A under SpGEMM; A @ A^T matches the densified product."""
    from ..kernels.spgemm import spgemm

    failures = []
    A = _build(fmt, triplets)
    eye = CooBuilder(triplets.ncols, triplets.ncols)
    diag = np.arange(triplets.ncols, dtype=np.int64)
    eye.add_batch(diag, diag, np.ones(triplets.ncols))
    identity = get_format("csr").from_triplets(eye.finish())
    got = spgemm(A, identity).to_dense()
    want = triplets.to_dense()
    if got.shape != want.shape or not np.array_equal(got, want):
        failures.append(f"A @ I != A through {fmt} SpGEMM")
    # A @ A^T against the dense product (accumulation reorders, so the
    # scaled tolerance band applies instead of bit equality).
    At = get_format("csr").from_triplets(triplets.transposed())
    prod = spgemm(A, At).to_dense()
    dense = want.astype(np.float64) @ want.astype(np.float64).T
    err = _mismatch(prod, dense, rtol)
    if err is not None:
        failures.append(
            f"A @ A^T SpGEMM deviates from dense product: max abs error {err:.3e}"
        )
    return failures


#: name -> relation(triplets, B, k, fmt, variant, rtol) -> [failure, ...]
METAMORPHIC_RELATIONS: dict[str, Callable] = {
    "row_permutation": row_permutation,
    "col_permutation": col_permutation,
    "scalar_scaling": scalar_scaling,
    "transpose_duality": transpose_duality,
    "k_slicing": k_slicing,
    "format_roundtrip": format_roundtrip,
    "backward_duality": backward_duality,
    "spgemm_identity": spgemm_identity,
}


def run_relation(
    name: str,
    triplets: Triplets,
    k: int = 8,
    seed: int = 0,
    fmt: str = "csr",
    variant: str = "serial",
    rtol: float = 1e-6,
) -> list[str]:
    """Run one named relation; returns failure strings (empty = holds)."""
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((triplets.ncols, k))
    return METAMORPHIC_RELATIONS[name](triplets, B, k, fmt, variant, rtol)


def run_metamorphic(
    triplets: Triplets,
    k: int = 8,
    seed: int = 0,
    formats=None,
    variants=("serial",),
    relations=None,
    rtol: float = 1e-6,
    tracer=None,
) -> list[dict]:
    """Run every relation across formats/variants.

    Returns a list of failure records ``{"relation", "fmt", "variant",
    "message"}`` — empty when every relation holds everywhere.
    """
    names = tuple(relations) if relations is not None else tuple(METAMORPHIC_RELATIONS)
    fmts = tuple(formats) if formats is not None else tuple(format_names())
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((triplets.ncols, k))
    failures: list[dict] = []
    checks = 0
    for fmt in fmts:
        for variant in supported_variants(fmt, variants):
            for name in names:
                checks += 1
                for message in METAMORPHIC_RELATIONS[name](triplets, B, k, fmt, variant, rtol):
                    failures.append(
                        {"relation": name, "fmt": fmt, "variant": variant, "message": message}
                    )
    if tracer is not None:
        tracer.count("fuzz_metamorphic_checks", checks)
        if failures:
            tracer.count("fuzz_metamorphic_failures", len(failures))
    return failures
