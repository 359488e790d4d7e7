"""The core benchmark class — analog of the paper's C++ suite class.

Lifecycle (paper §4.1): the suite loads the input as COO, the format's
``format()`` step builds its structure from that COO representation, the
``calculate()`` step runs the kernel ``n_runs`` times under the timer, the
result is verified against the COO multiply, and the report combines
runtime data, matrix data, and parameter information (§4.3).

A custom format extends :class:`~repro.formats.SparseFormat` and registers
itself; the benchmark picks it up by name.  Tests or studies needing a
different calculation simply subclass :class:`SpmmBenchmark` and override
:meth:`SpmmBenchmark.calculate` — the same partial-extension pattern the
paper's evaluation leaned on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .._compat import warn_legacy
from ..errors import BenchConfigError, VerificationError
from ..formats.base import SparseFormat
from ..formats.registry import get_format
from ..kernels.dispatch import run_spmm, run_spmv, transpose_spmm
from ..kernels.plan import ExecutionPlan, PlanCache, plan_supported
from ..kernels.spgemm import spgemm, spgemm_flops
from ..kernels.traces import trace_spmm, trace_spmv
from ..machine.costmodel import CostBreakdown, predict_spmm_time
from ..machine.machines import Machine
from ..matrices.coo_builder import Triplets
from ..matrices.properties import MatrixProperties, analyze
from ..matrices.suite import load_matrix
from .observe import Tracer
from .params import BenchParams
from .timing import TimingStats, flops_to_mflops, measure
from ..verify.reference import verify_result

__all__ = ["SpmmBenchmark", "BenchResult", "OPERATIONS"]

#: Benchmarkable operations: the paper's sparse-dense pair plus the DL
#: workloads — sparse@sparse (§6.3.4 carve-out) and the backward-pass
#: gradient multiply A^T @ G (Study 8 transpose kernels on A^T).
OPERATIONS = ("spmm", "spmv", "spgemm", "backward")

#: Kernel-variant name -> cost-model execution kind.
_VARIANT_EXECUTION = {
    "serial": "serial",
    "parallel": "parallel",
    "gpu": "gpu",
    "serial_transpose": "serial",
    "parallel_transpose": "parallel",
    "gpu_transpose": "gpu",
    "optimized": "serial",
    "optimized_parallel": "parallel",
}


@dataclass(frozen=True)
class BenchResult:
    """One benchmark run's report: the §4.3 metric set plus extensions."""

    matrix: str
    format_name: str
    variant: str
    operation: str
    params: BenchParams
    properties: MatrixProperties
    #: Wall-clock stats of the calculation (None in model-only runs).
    timing: TimingStats | None
    format_time_s: float
    total_time_s: float
    useful_flops: int
    verified: bool | None
    footprint_bytes: int
    padding_ratio: float
    #: Cost-model prediction (None in wallclock-only runs).
    modeled: CostBreakdown | None = None
    extra: dict = field(default_factory=dict)

    @property
    def mflops(self) -> float:
        """Measured useful MFLOPS (wall clock) — the paper's metric."""
        if self.timing is None:
            return self.modeled.mflops if self.modeled else 0.0
        return flops_to_mflops(self.useful_flops, self.timing.mean)

    @property
    def gflops(self) -> float:
        return self.mflops / 1e3

    @property
    def flops_per_second(self) -> float:
        return self.mflops * 1e6

    @property
    def modeled_mflops(self) -> float:
        """Machine-model MFLOPS (0 when no machine was attached)."""
        return self.modeled.mflops if self.modeled else 0.0


class SpmmBenchmark:
    """Benchmark one (matrix, format, kernel-variant) combination."""

    def __init__(
        self,
        format_name: str,
        params: BenchParams | None = None,
        machine: Machine | None = None,
        operation: str = "spmm",
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
    ):
        warn_legacy("constructing SpmmBenchmark directly", "repro.api.benchmark()")
        if operation not in OPERATIONS:
            raise BenchConfigError(
                f"operation must be one of {', '.join(OPERATIONS)}, got {operation!r}"
            )
        self.format_cls = get_format(format_name)
        self.format_name = format_name.lower()
        self.params = params or BenchParams()
        self.machine = machine
        self.operation = operation
        self.triplets: Triplets | None = None
        self.matrix_name = "matrix"
        self.offload_runtime = machine.offload_runtime() if machine else None
        #: Optional instrumentation; stages and counters are recorded on it.
        self.tracer = tracer
        #: Optional execution-plan cache: repeat runs over the same matrix
        #: skip conversion, and repeat calculate() calls skip per-call
        #: planning (see repro.kernels.plan).
        self.plan_cache = plan_cache
        self._plan: ExecutionPlan | None = None
        #: Backward mode formats A^T; cached so repeat runs transpose once.
        self._transposed: Triplets | None = None
        #: SpGEMM's second sparse operand (same format family as A).
        self._operand: SparseFormat | None = None
        self._operand_triplets: Triplets | None = None

    # -- inputs -------------------------------------------------------------

    def load_triplets(self, triplets: Triplets, name: str = "matrix") -> "SpmmBenchmark":
        """Use an explicit COO-like input."""
        self.triplets = triplets
        self.matrix_name = name
        self._transposed = None
        self._operand = None
        self._operand_triplets = None
        return self

    def load_suite_matrix(self, name: str, scale: int = 1) -> "SpmmBenchmark":
        """Load one of the 14 Table 5.1 analogs."""
        if self.tracer is not None:
            with self.tracer.span("load", matrix=name, scale=scale):
                self.triplets = load_matrix(
                    name, scale=scale, policy=self.params.dtype_policy
                )
        else:
            self.triplets = load_matrix(
                name, scale=scale, policy=self.params.dtype_policy
            )
        self.matrix_name = name
        self._transposed = None
        self._operand = None
        self._operand_triplets = None
        return self

    def make_dense(self) -> np.ndarray | None:
        """Auto-generate the dense operand, width = k (paper §6.3.4).

        Backward mode generates the gradient panel ``G`` with ``A.nrows``
        rows (the operand of ``A^T``); SpGEMM has no dense operand at all
        (the second operand is sparse, built in :meth:`format`).
        """
        self._require_loaded()
        if self.operation == "spgemm":
            return None
        rng = np.random.default_rng(self.params.seed + 1)
        policy = self.params.dtype_policy
        if self.operation == "spmv":
            return policy.value_array(rng.standard_normal(self.triplets.ncols))
        leading = (
            self.triplets.nrows if self.operation == "backward" else self.triplets.ncols
        )
        return policy.value_array(rng.standard_normal((leading, self.params.k)))

    def _input_triplets(self) -> Triplets:
        """The triplets the benchmark formats: A, or A^T in backward mode."""
        if self.operation == "backward":
            if self._transposed is None:
                self._transposed = self.triplets.transposed()
            return self._transposed
        return self.triplets

    # -- the two override points (paper §4.1) --------------------------------

    def format(self) -> tuple[SparseFormat, float]:
        """Format the COO input into the benchmark's format (timed).

        With a plan cache attached, the conversion artifact (and the whole
        specialized plan) is memoized by matrix fingerprint: a cache hit
        skips the conversion and reports a zero format time, a miss pays
        exactly the cold path below.
        """
        self._require_loaded()
        self._plan = None
        if self.plan_cache is not None and plan_supported(
            self.params.variant, self.operation
        ):
            plan, provenance = self.plan_cache.get_or_build_plan(
                self.triplets,
                self.format_name,
                variant=self.params.variant,
                k=self.params.k,
                threads=self.params.threads,
                schedule=self.params.schedule,
                chunk_elements=self.params.chunk_elements,
                policy=self.params.dtype_policy,
                format_params=self.params.format_params(self.format_name),
                tracer=self.tracer,
                builder=self._build_format,
            )
            self._plan = plan
            A = plan.matrix
            A._suite_name = self.matrix_name
            return A, plan.format_time_s if provenance == "built" else 0.0
        return self._build_format()

    def _build_format(self) -> tuple[SparseFormat, float]:
        """The cold conversion path (always what a cache miss pays).

        Backward mode formats ``A^T`` (the sparse-operand transpose is a
        formatting cost, charged here exactly like Study 8 charges the dense
        transpose); SpGEMM additionally formats its second sparse operand —
        ``A`` again when square, else ``A^T`` (the Gram product ``A @ A^T``)
        — in the same format family, the paper's §6.3.4 restriction.
        """
        t0 = time.perf_counter()
        A = self.format_cls.from_triplets(
            self._input_triplets(),
            policy=self.params.dtype_policy,
            **self.params.format_params(self.format_name),
        )
        if self.operation == "spgemm":
            if self._operand_triplets is None:
                square = self.triplets.nrows == self.triplets.ncols
                self._operand_triplets = (
                    self.triplets if square else self.triplets.transposed()
                )
            self._operand = self.format_cls.from_triplets(
                self._operand_triplets,
                policy=self.params.dtype_policy,
                **self.params.format_params(self.format_name),
            )
        format_time = time.perf_counter() - t0
        # Tag for the offload runtime's per-matrix fault injection.
        A._suite_name = self.matrix_name
        return A, format_time

    def calculate(self, A: SparseFormat, B: np.ndarray) -> Any:
        """One kernel invocation — override to test a custom algorithm.

        Returns the dense result panel, except in SpGEMM mode where the
        product is sparse and comes back as Triplets.
        """
        if self.operation == "spgemm":
            # Gustavson row merge; the kernel records its own counters.
            return spgemm(A, self._operand, tracer=self.tracer)
        if self.operation == "backward":
            # A is already A^T; the Study 8 kernel streams it against G.
            threads = (
                self.params.threads if "parallel" in self.params.variant else 1
            )
            return transpose_spmm(A, B, k=self.params.k, threads=threads)
        if self._plan is not None:
            # Plan-specialized hot path: conversion, chunk schedules, and
            # closure planning all happened once, at plan build time.
            return self._plan(B, tracer=self.tracer)
        opts: dict[str, Any] = self.params.kernel_options()
        if self.params.variant.startswith("gpu"):
            opts["runtime"] = self.offload_runtime
        if self.tracer is not None and self.params.variant in (
            "parallel",
            "optimized_parallel",
        ):
            # These route to parallel_spmm, which records per-worker busy
            # times and chunk counts on the tracer.
            opts["tracer"] = self.tracer
        if self.operation == "spmv":
            return run_spmv(A, B, variant=self._spmv_variant(), **opts)
        return run_spmm(A, B, variant=self.params.variant, k=self.params.k, **opts)

    def _spmv_variant(self) -> str:
        base = self.params.variant.replace("_transpose", "").replace("optimized", "serial")
        return base if base in ("serial", "parallel", "gpu") else "serial"

    # -- model pathway -------------------------------------------------------

    def model(self, A: SparseFormat) -> CostBreakdown | None:
        """Cost-model prediction for this configuration (if a machine is set).

        SpGEMM has no analytic model (its traffic depends on the output
        pattern, which only the multiply discovers) — model-mode SpGEMM
        cells report no prediction and gate on wall clock instead.
        """
        if self.machine is None or self.operation == "spgemm":
            return None
        fixed_k = "optimized" in self.params.variant
        transpose_b = "transpose" in self.params.variant or self.operation == "backward"
        if self.operation == "spmv":
            trace = trace_spmv(A, fixed_k=fixed_k)
        else:
            trace = trace_spmm(A, self.params.k, fixed_k=fixed_k, transpose_b=transpose_b)
        execution = _VARIANT_EXECUTION.get(
            self.params.variant,
            "parallel" if "parallel" in self.params.variant else "serial",
        )
        return predict_spmm_time(
            trace, self.machine, execution, threads=self.params.threads
        )

    # -- driver ---------------------------------------------------------------

    def run(self, mode: str = "wallclock") -> BenchResult:
        """Execute the benchmark.

        ``mode='wallclock'`` times the real Python kernels;
        ``mode='model'`` skips wall-clock timing and reports only the
        machine-model prediction (used by the studies, which target the
        paper's hardware); ``mode='both'`` does both.

        Raises :class:`~repro.errors.OffloadError` when a GPU variant hits
        the machine's faulty offload runtime — callers record the censored
        point, as the paper's figures do.
        """
        if mode not in ("wallclock", "model", "both"):
            raise BenchConfigError(f"unknown mode {mode!r}")
        self._require_loaded()
        if self.params.variant == "auto":
            self._resolve_auto_variant()
        tracer = self.tracer
        t_start = time.perf_counter()
        if tracer is not None:
            with tracer.span("convert", format=self.format_name):
                A, format_time = self.format()
        else:
            A, format_time = self.format()
        # The dense operand only exists for wall-clock runs; the cost model
        # works from the trace alone.
        B = self.make_dense() if mode in ("wallclock", "both") else None

        k = self.params.k if self.operation in ("spmm", "backward") else 1
        if self.operation == "spgemm":
            # The SpGEMM work metric: Gustavson multiply-adds, a function of
            # both operands' structure (not nnz * k).
            useful_flops = spgemm_flops(A, self._operand)
        else:
            useful_flops = 2 * A.nnz * k
        if tracer is not None:
            tracer.count("flops", useful_flops)
            # Traffic floor of one calculation: the format structure plus
            # the dense operand and output panels (or the second sparse
            # operand in SpGEMM mode).
            bytes_moved = A.nbytes
            if B is not None:
                bytes_moved += B.nbytes + A.nrows * k * B.itemsize
            if self._operand is not None:
                bytes_moved += self._operand.nbytes
            tracer.count("bytes_moved", bytes_moved)

        # The offload fault fires at launch, before any timing.
        if self.params.variant.startswith("gpu") and self.offload_runtime is not None:
            self.offload_runtime.check_launch(A, matrix_name=self.matrix_name)

        timing: TimingStats | None = None
        verified: bool | None = None
        if mode in ("wallclock", "both"):
            # n_runs=0 is the empty-run contract: one untimed calculation,
            # timing stays None and mflops falls back to modeled (or 0.0).
            C, timing = measure(
                lambda: self.calculate(A, B),
                n_runs=self.params.n_runs,
                warmup=self.params.warmup,
                tracer=tracer,
            )
            if self.params.verify:
                if tracer is not None:
                    with tracer.span("verify"):
                        verified = self._verify(B, C)
                else:
                    verified = self._verify(B, C)

        extra: dict = {}
        if self.operation == "spgemm":
            extra["operand_nnz"] = self._operand.nnz
            if mode in ("wallclock", "both"):
                extra["output_nnz"] = C.nnz

        modeled = self.model(A) if mode in ("model", "both") else None
        total_time = time.perf_counter() - t_start
        return BenchResult(
            matrix=self.matrix_name,
            format_name=self.format_name,
            variant=self.params.variant,
            operation=self.operation,
            params=self.params,
            properties=analyze(self.triplets, self.matrix_name),
            timing=timing,
            format_time_s=format_time,
            total_time_s=total_time,
            useful_flops=useful_flops,
            verified=verified,
            footprint_bytes=A.nbytes,
            padding_ratio=A.padding_ratio,
            modeled=modeled,
            extra=extra,
        )

    def _resolve_auto_variant(self) -> None:
        """Pin ``variant="auto"`` to the tuned (or heuristic) choice.

        Consults the active :class:`~repro.tune.store.TuneStore` by matrix
        fingerprint; the tuned ``threads``/``chunk_elements`` knobs ride
        along.  Resolution happens once per run, before formatting, so the
        plan cache and the cost model both see a concrete variant.
        """
        from ..tune.store import resolve_auto_variant  # lazy: tune imports bench

        k = self.params.k if self.operation == "spmm" else 1
        variant, opts = resolve_auto_variant(self.triplets, k, tracer=self.tracer)
        changes: dict[str, Any] = {"variant": variant}
        if "threads" in opts:
            changes["threads"] = opts["threads"]
        if "chunk_elements" in opts:
            changes["chunk_elements"] = opts["chunk_elements"]
        self.params = self.params.with_(**changes)

    def _verify(self, B: np.ndarray | None, C: Any) -> bool:
        if self.operation == "spgemm":
            return self._verify_spgemm(C)
        if self.operation == "backward":
            # The COO reference on A^T: the explicit-transpose oracle.
            return verify_result(self._input_triplets(), B, C, k=self.params.k)
        if self.operation == "spmm":
            return verify_result(self.triplets, B, C, k=self.params.k)
        return verify_result(self.triplets, B[:, None], C[:, None], k=1)

    def _verify_spgemm(self, C: Triplets) -> bool:
        """Check the sparse product against the densified matmul."""
        from ..verify.reference import result_tolerance

        ref = self.triplets.to_dense().astype(np.float64) @ (
            self._operand_triplets.to_dense().astype(np.float64)
        )
        got = C.to_dense().astype(np.float64)
        if got.shape != ref.shape:
            raise VerificationError(
                f"spgemm result shape {got.shape} != reference {ref.shape}"
            )
        tolerance = result_tolerance(ref)
        max_err = float(np.abs(got - ref).max()) if ref.size else 0.0
        if max_err > tolerance:
            raise VerificationError(
                f"spgemm verification failed: max abs error {max_err:.3e} "
                f"(tolerance {tolerance:.3e})"
            )
        return True

    def _require_loaded(self) -> None:
        if self.triplets is None:
            raise BenchConfigError(
                "no input loaded; call load_triplets() or load_suite_matrix() first"
            )
