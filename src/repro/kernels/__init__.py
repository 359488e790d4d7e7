"""SpMM/SpMV kernels: one per-format plan, run by one executor, serving the
serial, CPU-parallel, GPU-simulated, transpose, optimized and grouped
variants for every registered format, plus the
:class:`~repro.kernels.traces.KernelTrace` accounting that drives the
analytic machine model.

The paper provides "serial, parallel, GPU, serial transpose, parallel
transpose, and GPU transpose kernels" per format (§4.2); the dispatch table
in :mod:`repro.kernels.dispatch` mirrors that matrix of variants over the
planners and executor of :mod:`repro.kernels.planner`.
"""

from .dispatch import run_spmm, run_spmv, kernel_variants, get_kernel
from .plan import ExecutionPlan, PlanCache, PlanKey, matrix_fingerprint
from .traces import KernelTrace, trace_spmm, trace_spmv
from .spgemm import spgemm, spgemm_flops
from .backward import BACKWARD_FORMATS, backward_spmm, transpose_format

__all__ = [
    "run_spmm",
    "run_spmv",
    "kernel_variants",
    "get_kernel",
    "ExecutionPlan",
    "PlanCache",
    "PlanKey",
    "matrix_fingerprint",
    "KernelTrace",
    "trace_spmm",
    "trace_spmv",
    "spgemm",
    "spgemm_flops",
    "BACKWARD_FORMATS",
    "backward_spmm",
    "transpose_format",
]
