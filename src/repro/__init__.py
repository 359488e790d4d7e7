"""SpMM-Bench reproduction.

A Python reproduction of *SpMM-Bench: Performance Characterization of Sparse
Formats for Sparse-Dense Matrix Multiplication* (Flynn, 2024): sparse
formats (COO, CSR, ELLPACK, BCSR, plus the future-work BELL and CSR5),
serial / parallel / GPU-simulated / transpose / optimized SpMM and SpMV
kernels, an extensible benchmark suite, analytic machine models for the
paper's Grace Hopper (Arm) and Aries (x86) systems, and the nine studies of
the paper's evaluation chapter.

The stable entrypoint is :mod:`repro.api` — ``multiply``, ``benchmark``,
``benchmark_grid``, ``tune``, and the batched ``Engine``.

Quickstart
----------
>>> from repro.api import multiply, benchmark, load_matrix
>>> import numpy as np
>>> t = load_matrix("cant", scale=64)
>>> B = np.random.default_rng(0).random((t.ncols, 128))
>>> C = multiply(t, B, fmt="csr", variant="parallel", threads=8)
>>> r = benchmark("cant", fmt="csr", variant="parallel", k=128, scale=64)
"""

from . import dtypes, errors, formats, kernels, matrices, select
from .dtypes import DTypePolicy, POLICY_32, POLICY_64, DEFAULT_POLICY
from .matrices import load_matrix, matrix_names, properties_table, analyze
from .formats import (
    COO,
    CSR,
    ELL,
    BCSR,
    BELL,
    CSR5,
    SparseFormat,
    convert,
    get_format,
    format_names,
)
from .kernels import trace_spmm, trace_spmv
from . import api
from .api import (
    Engine,
    SpmmRequest,
    SpmmResult,
    benchmark,
    benchmark_grid,
    multiply,
    tune,
)

__version__ = "1.1.0"


__all__ = [
    "api",
    "dtypes",
    "errors",
    "formats",
    "kernels",
    "matrices",
    "select",
    "DTypePolicy",
    "POLICY_32",
    "POLICY_64",
    "DEFAULT_POLICY",
    "load_matrix",
    "matrix_names",
    "properties_table",
    "analyze",
    "COO",
    "CSR",
    "ELL",
    "BCSR",
    "BELL",
    "CSR5",
    "SparseFormat",
    "convert",
    "get_format",
    "format_names",
    "Engine",
    "SpmmRequest",
    "SpmmResult",
    "multiply",
    "benchmark",
    "benchmark_grid",
    "tune",
    "trace_spmm",
    "trace_spmv",
    "__version__",
]
