"""Kernel dispatch: the suite's variant matrix over one kernel layer.

The paper provides, per format, "serial, parallel, GPU, serial transpose,
parallel transpose, and GPU transpose kernels" (§4.2), plus the Study 9
manually-optimized variants.  Each variant here is a way of calling the one
per-format plan of :mod:`repro.kernels.planner`:

* ``serial`` and ``optimized`` run the plan as one unit, inline;
* ``parallel`` and ``optimized_parallel`` split it by an OpenMP-style
  schedule — ``static`` hands each thread one balanced range, ``dynamic``
  over-decomposes into ``threads * 4`` units that workers pull as they
  finish (the paper's skewed matrices, ``torso1``, are where dynamic pays);
  CSR5 splits into equal-nnz tiles;
* ``serial_transpose`` and ``parallel_transpose`` (Study 8) run the same
  plan on the strided view of a transposed copy of B;
* ``grouped`` and ``grouped_parallel`` run the grouped-row plan;
* ``gpu`` and ``gpu_transpose`` check the simulated offload launch, then run
  the serial arithmetic (:mod:`repro.kernels.gpu`).

The ``optimized`` names stay so Studies 2/9 report them; the Study 9
template effect itself (fixed ``k``) is a compiler property that the
analytic model applies through the trace's ``fixed_k`` flag.  SpMV is SpMM
with ``k = 1`` (§6.3.4).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import KernelError, ShapeError
from .common import DEFAULT_CHUNK_ELEMENTS
from .gpu import gpu_spmm
from .planner import DEFAULT_THREADS, effective_threads, execute, plan_grouped, plan_spmm

__all__ = [
    "run_spmm",
    "run_spmv",
    "compile_variant",
    "kernel_variants",
    "get_kernel",
    "serial_spmm",
    "parallel_spmm",
    "optimized_spmm",
    "transpose_spmm",
    "transpose_operand",
    "grouped_spmm",
    "serial_spmv",
    "parallel_spmv",
    "SPMM_VARIANTS",
    "sums_left_to_right",
    "SPMV_BASE",
]

#: Variants split by an OpenMP-style schedule, with per-worker tracing.
_SCHEDULED = ("parallel", "optimized_parallel")


def transpose_operand(B: np.ndarray) -> np.ndarray:
    """Materialize B^T contiguously — the preprocessing cost of Study 8."""
    return np.ascontiguousarray(np.asarray(B).T)


def _schedule_parts(threads: int, schedule: str) -> int:
    if schedule == "static":
        return threads
    if schedule == "dynamic":
        return threads * 4
    raise KernelError(f"unknown schedule {schedule!r}; use 'static' or 'dynamic'")


def compile_variant(
    A,
    variant: str,
    k: int,
    *,
    threads: int = DEFAULT_THREADS,
    schedule: str = "static",
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    **_opts,
) -> Callable[..., np.ndarray]:
    """Plan one SpMM variant over ``A`` at a fixed ``k``.

    Returns ``kernel(B, tracer=None) -> C``; all planning — row splits,
    chunk schedules, row groups — happened here.  ``threads`` applies to the
    ``*_parallel`` variants only and is clamped by
    :func:`~repro.kernels.planner.effective_threads`; the scheduled parallel
    variants re-record the clamp and their per-worker busy times on a
    tracer passed at call time.
    """
    used = 1
    if "parallel" in variant:
        if threads < 1:
            raise KernelError(f"threads must be >= 1, got {threads}")
        used = effective_threads(threads)
    if variant.startswith("grouped"):
        plan = plan_grouped(A)
    elif variant in _SCHEDULED:
        parts = _schedule_parts(used, schedule)
        plan = plan_spmm(A, k, parts, chunk_elements=chunk_elements, tiled=True)
    else:
        plan = plan_spmm(A, k, used, chunk_elements=chunk_elements)
    transpose = variant.endswith("_transpose")
    traced = variant in _SCHEDULED

    def kernel(B: np.ndarray, tracer=None) -> np.ndarray:
        B = A.check_dense_operand(B, k)
        if transpose:
            B = transpose_operand(B).T  # strided view of the contiguous copy
        if traced and tracer is not None:
            effective_threads(threads, tracer)
        else:
            tracer = None
        return execute(plan, B, used, tracer)

    return kernel


def _width(B, k: int | None) -> int:
    """The plan width for an operand: ``k``, else B's column count."""
    if k is not None and k > 0:
        return k
    shape = np.shape(B)
    return max(shape[1] if len(shape) == 2 else 1, 1)


def _spmm_variant(variant: str) -> Callable[..., np.ndarray]:
    def run(A, B, k=None, *, tracer=None, **opts):
        return compile_variant(A, variant, _width(B, k), **opts)(B, tracer=tracer)

    run.__name__ = f"{variant}_spmm"
    run.__doc__ = f"``C = A @ B`` with the {variant!r} variant (see :func:`compile_variant`)."
    return run


serial_spmm = _spmm_variant("serial")
parallel_spmm = _spmm_variant("parallel")
optimized_spmm = _spmm_variant("optimized")
grouped_spmm = _spmm_variant("grouped")


def transpose_spmm(A, B, k=None, *, threads: int = 1, **opts) -> np.ndarray:
    """SpMM against a transposed dense operand (Study 8).

    ``threads=1`` gives the serial-transpose kernel; larger values give the
    parallel-transpose kernel (the only one the paper evaluates, since
    transposing serially "would have been very time consuming").
    """
    variant = "parallel_transpose" if threads > 1 else "serial_transpose"
    return compile_variant(A, variant, _width(B, k), threads=threads, **opts)(B)


def _gpu_transpose(A, B, k=None, *, runtime=None, **opts):
    if runtime is not None:
        runtime.check_launch(A)
    return compile_variant(A, "serial_transpose", _width(B, k), **opts)(B)


SPMM_VARIANTS: dict[str, Callable] = {
    "serial": serial_spmm,
    "parallel": parallel_spmm,
    "gpu": gpu_spmm,
    "serial_transpose": _spmm_variant("serial_transpose"),
    "parallel_transpose": _spmm_variant("parallel_transpose"),
    "gpu_transpose": _gpu_transpose,
    "optimized": optimized_spmm,
    "optimized_parallel": _spmm_variant("optimized_parallel"),
    "grouped": grouped_spmm,
    "grouped_parallel": _spmm_variant("grouped_parallel"),
}


def sums_left_to_right(variant: str) -> bool:
    """Whether ``variant`` sums each row of C left to right in stored order.

    Every variant does but ``grouped*``, which sums in the order BLAS picks.
    """
    return not variant.startswith("grouped")


def _spmv(A, x, threads: int) -> np.ndarray:
    """SpMV is the k=1 plan over balanced row ranges, column 0 (§6.3.4)."""
    if threads < 1:
        raise KernelError(f"threads must be >= 1, got {threads}")
    used = effective_threads(threads)
    plan = plan_spmm(A, 1, used)
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError(f"SpMV operand must be 1-D, got ndim={x.ndim}")
    return execute(plan, A.check_dense_operand(x[:, None]), used)[:, 0]


def serial_spmv(A, x: np.ndarray, **_opts) -> np.ndarray:
    """``y = A @ x`` with the serial plan."""
    return _spmv(A, x, 1)


def parallel_spmv(A, x: np.ndarray, *, threads: int = DEFAULT_THREADS, **_opts) -> np.ndarray:
    """``y = A @ x`` split over balanced row ranges."""
    return _spmv(A, x, threads)


def _gpu_spmv(A, x: np.ndarray, *, runtime=None, **opts) -> np.ndarray:
    if runtime is not None:
        runtime.check_launch(A)
    return serial_spmv(A, x, **opts)


SPMV_VARIANTS: dict[str, Callable] = {
    "serial": serial_spmv,
    "parallel": parallel_spmv,
    "gpu": _gpu_spmv,
}

#: SpMM variant -> the SpMV kernel that computes the same k=1 product.
#: SpMV is SpMM with k=1 (§6.3.4): transposing a vector operand is a no-op
#: and the Study 9 specializations plan over k, so each SpMM variant
#: degenerates to its serial/parallel/gpu base at the k=1 boundary.
SPMV_BASE: dict[str, str] = {
    "serial": "serial",
    "parallel": "parallel",
    "gpu": "gpu",
    "serial_transpose": "serial",
    "parallel_transpose": "parallel",
    "gpu_transpose": "gpu",
    "optimized": "serial",
    "optimized_parallel": "parallel",
    "grouped": "serial",
    "grouped_parallel": "parallel",
}


def kernel_variants(operation: str = "spmm") -> list[str]:
    """Names of the available kernel variants for an operation."""
    table = SPMM_VARIANTS if operation == "spmm" else SPMV_VARIANTS
    return sorted(table)


def get_kernel(variant: str, operation: str = "spmm") -> Callable:
    """Look up a kernel implementation by variant name."""
    table = SPMM_VARIANTS if operation == "spmm" else SPMV_VARIANTS
    try:
        return table[variant]
    except KeyError:
        raise KernelError(
            f"unknown {operation} variant {variant!r}; available: {', '.join(sorted(table))}"
        )


def run_spmm(
    A, B: np.ndarray, variant: str = "serial", k: int | None = None, **options: Any
) -> np.ndarray:
    """Execute ``C = A @ B`` with the named kernel variant.

    ``variant="auto"`` consults the autotuned dispatch table
    (:mod:`repro.tune`): a matrix that was tuned runs its recorded winning
    variant with the tuned ``threads``/``chunk_elements`` knobs, an untuned
    one falls back to a work-size heuristic.  Explicit keyword options win
    over tuned ones.  Pass ``tune_store=`` to consult a specific
    :class:`~repro.tune.store.TuneStore` instead of the process default.
    """
    if variant == "auto":
        from ..tune.store import resolve_auto_variant  # lazy: tune sits above kernels

        kk = k if k is not None else np.asarray(B).shape[1]
        variant, tuned_options = resolve_auto_variant(
            A, kk, store=options.pop("tune_store", None), tracer=options.get("tracer")
        )
        options = {**tuned_options, **options}
    return get_kernel(variant, "spmm")(A, B, k, **options)


def run_spmv(A, x: np.ndarray, variant: str = "serial", **options: Any) -> np.ndarray:
    """Execute ``y = A @ x`` with the named kernel variant.

    Accepts any SpMM variant name (or ``"auto"``): each is normalized to
    the SpMV kernel computing the same k=1 product (:data:`SPMV_BASE`), so
    a 1-D operand and its ``(n, 1)`` reshape always agree regardless of
    which variant the caller selected.
    """
    if variant == "auto":
        from ..tune.store import resolve_auto_variant  # lazy: tune sits above kernels

        variant, tuned_options = resolve_auto_variant(
            A, 1, store=options.pop("tune_store", None), tracer=options.get("tracer")
        )
        options = {**tuned_options, **options}
    if variant not in SPMV_VARIANTS and variant in SPMV_BASE:
        variant = SPMV_BASE[variant]
    return get_kernel(variant, "spmv")(A, x, **options)
