"""The benchmark suite — the paper's first contribution.

An extensible harness mirroring the thesis' C++ design (§4.1): a core
benchmark class owns matrix loading, dense-operand generation, timing,
FLOPS accounting, verification against the COO reference multiply, and
metric reporting; a format plugs in through its ``format()`` and
``calculate()`` steps.  On top sit the paper's runtime parameters (§4.3),
the thread-sweep feature added for Study 3.1, CSV reporting, and a grid
runner that drives matrices x formats x kernel variants across machines —
replacing the paper's bash scripts (§6.3.3).

Two execution modes:

* ``wallclock`` — really run the Python kernels and time them;
* ``model`` — evaluate the analytic machine models on the kernel trace,
  reproducing the paper's MFLOPS bands for machines we don't have.
"""

from .params import BenchParams
from .timing import TimingStats, measure
from ..verify.reference import verify_result
from .observe import (
    Span,
    Tracer,
    build_trajectory,
    compare_trajectories,
    load_trajectory,
    write_trajectory,
)
from .suite import SpmmBenchmark, BenchResult
from .report import results_to_csv, format_table, write_csv, trace_to_csv, write_trace_csv
from .sweep import ThreadSweepResult, run_thread_sweep, best_thread_counts
from .runner import GridRunner, GridSpec, RunRecord
from .plots import BarChart, chart_from_table

__all__ = [
    "BenchParams",
    "TimingStats",
    "measure",
    "verify_result",
    "Span",
    "Tracer",
    "build_trajectory",
    "compare_trajectories",
    "load_trajectory",
    "write_trajectory",
    "SpmmBenchmark",
    "BenchResult",
    "results_to_csv",
    "format_table",
    "write_csv",
    "trace_to_csv",
    "write_trace_csv",
    "ThreadSweepResult",
    "run_thread_sweep",
    "best_thread_counts",
    "GridRunner",
    "GridSpec",
    "RunRecord",
    "BarChart",
    "chart_from_table",
]
