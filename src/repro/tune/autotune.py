"""The autotuner: empirical search over the suite's own knobs.

The paper's Study 3.1 already ships the essential mechanism — "the suite
will iterate through the thread count list, and pick the best thread count
for the given inputs" (§5.5.1) — and Study 9 shows specialization pays
(§5.11).  This module closes the loop the way run-time auto-tuners
(Katagiri & Sato) and format selectors (SpChar) do: sample candidate
``(format, variant, chunk_elements, threads)`` cells with the existing
benchmark machinery (:func:`repro.bench.sweep.run_thread_sweep` drives the
threads axis), persist the winner per matrix fingerprint, and let
``variant="auto"`` dispatch consult the table at run time.

Scores come from the deterministic machine model by default (``mode=
"model"``, reproducible anywhere) or from wall-clock measurement of the
Python kernels (``mode="wallclock"``, host-specific — the mode a serving
deployment would tune with).
"""

from __future__ import annotations

from dataclasses import dataclass

from .._compat import legacy_ok
from ..bench.params import BenchParams
from ..bench.suite import SpmmBenchmark
from ..bench.sweep import run_thread_sweep
from ..errors import BenchConfigError
from ..formats.spec import FormatSpec
from ..kernels.common import DEFAULT_CHUNK_ELEMENTS
from ..kernels.plan import PlanCache
from ..machine.machines import Machine
from ..matrices.coo_builder import Triplets
from .store import TuneDecision, TuneStore

__all__ = [
    "TuneCell",
    "TuneReport",
    "autotune",
    "DEFAULT_TUNE_FORMATS",
    "DEFAULT_TUNE_VARIANTS",
    "DEFAULT_TUNE_THREADS",
    "DEFAULT_TUNE_CHUNKS",
    "DEFAULT_FORMAT_PARAM_GRID",
]

#: The paper's four headline formats (Study 1).
DEFAULT_TUNE_FORMATS = ("coo", "csr", "ell", "bcsr")
#: Serial vs parallel is the paper's main execution axis on CPU.
DEFAULT_TUNE_VARIANTS = ("serial", "parallel")
#: A reduced Study 3.1 thread list, wall-clock safe on small hosts.
DEFAULT_TUNE_THREADS = (2, 4, 8)
#: Chunk budgets around the default (the Study 9 hoisting tunable).
DEFAULT_TUNE_CHUNKS = (DEFAULT_CHUNK_ELEMENTS,)
#: Per-format parameter cells sampled when a format is named without
#: explicit parameters.  The SELL-C-sigma grid spans small/large chunks
#: and local/global sorting windows (Kreutzer et al.) — sigma wider than
#: nrows degrades gracefully to one full sort window.
DEFAULT_FORMAT_PARAM_GRID: dict[str, tuple[dict, ...]] = {
    "sell": (
        {"chunk": 8, "sigma": 128},
        {"chunk": 32, "sigma": 512},
        {"chunk": 32, "sigma": 4096},
    ),
}


@dataclass(frozen=True)
class TuneCell:
    """One sampled candidate and its score."""

    format_name: str
    variant: str
    threads: int
    chunk_elements: int
    mflops: float
    #: Sampled format parameters as sorted ``(name, value)`` pairs
    #: (``()`` = format defaults).
    format_params: tuple = ()

    def params_label(self) -> str:
        """Compact display form of the parameter cell (``-`` for defaults)."""
        if not self.format_params:
            return "-"
        return ",".join(f"{n}={v}" for n, v in self.format_params)


@dataclass
class TuneReport:
    """Everything one autotune pass produced."""

    matrix: str
    fingerprint: str
    k: int
    mode: str
    cells: list[TuneCell]
    decision: TuneDecision

    def table_rows(self) -> list[tuple]:
        """(format, params, variant, threads, chunk, mflops) rows, best first."""
        ordered = sorted(self.cells, key=lambda c: -c.mflops)
        return [
            (
                c.format_name,
                c.params_label(),
                c.variant,
                c.threads,
                c.chunk_elements,
                f"{c.mflops:,.1f}",
            )
            for c in ordered
        ]


def _score(result) -> float:
    """Modeled MFLOPS when available, else measured."""
    return result.modeled_mflops if result.timing is None else result.mflops


def autotune(
    triplets: Triplets,
    matrix_name: str = "matrix",
    *,
    k: int = 32,
    mode: str = "model",
    machine: Machine | None = None,
    formats: tuple[str, ...] = DEFAULT_TUNE_FORMATS,
    variants: tuple[str, ...] = DEFAULT_TUNE_VARIANTS,
    thread_list: tuple[int, ...] = DEFAULT_TUNE_THREADS,
    chunk_list: tuple[int, ...] = DEFAULT_TUNE_CHUNKS,
    n_runs: int = 3,
    store: TuneStore | None = None,
    plan_cache: PlanCache | None = None,
    format_param_grid: dict[str, tuple[dict, ...]] | None = None,
    tracer=None,
) -> TuneReport:
    """Sample the candidate space for one matrix and record the winner.

    Parallel variants ride the Study 3.1 machinery — one
    :func:`run_thread_sweep` per (format, chunk) pair scores every thread
    count; serial variants run one benchmark per (format, chunk).  Formats
    may be named bare (``"sell"`` — sampled across
    ``format_param_grid``, default :data:`DEFAULT_FORMAT_PARAM_GRID`) or
    carry explicit parameters (``"sell:c=32,sigma=512"`` pins that single
    cell).  The winning cell — including its format parameters — is
    persisted to ``store`` (when given) as a :class:`TuneDecision` keyed
    by the matrix's content fingerprint.
    """
    if mode not in ("model", "wallclock"):
        raise BenchConfigError(f"tune mode must be model or wallclock, got {mode!r}")
    if mode == "model" and machine is None:
        raise BenchConfigError("model-mode tuning needs a machine model")
    if not formats or not variants:
        raise BenchConfigError("formats and variants must not be empty")
    gpu = [v for v in variants if v.startswith("gpu")]
    if gpu:
        raise BenchConfigError(f"gpu variants are not tunable: {', '.join(gpu)}")
    param_grid = (
        format_param_grid if format_param_grid is not None else DEFAULT_FORMAT_PARAM_GRID
    )

    cells: list[TuneCell] = []
    for fmt_entry in formats:
        spec = FormatSpec.parse(fmt_entry)
        fmt = spec.name
        if spec.params:
            param_cells: tuple[dict, ...] = (spec.kwargs,)
        else:
            param_cells = tuple(param_grid.get(fmt, ())) or ({},)
        for param_cell in param_cells:
            frozen = tuple(sorted((str(n), v) for n, v in param_cell.items()))
            for variant in variants:
                for chunk in chunk_list:
                    params = BenchParams(
                        variant=variant,
                        k=k,
                        n_runs=n_runs,
                        warmup=1,
                        verify=False,
                        chunk_elements=chunk,
                        threads=thread_list[0] if "parallel" in variant else 1,
                        fmt_params=frozen,
                    )
                    with legacy_ok():  # internal delegation, not a legacy caller
                        bench = SpmmBenchmark(
                            fmt,
                            params=params,
                            machine=machine,
                            tracer=tracer,
                            plan_cache=plan_cache,
                        )
                    bench.load_triplets(triplets, matrix_name)
                    if "parallel" in variant:
                        sweep = run_thread_sweep(bench, thread_list, mode=mode)
                        for threads, mflops in sweep.series():
                            cells.append(
                                TuneCell(fmt, variant, threads, chunk, mflops, frozen)
                            )
                    else:
                        result = bench.run(mode=mode)
                        cells.append(
                            TuneCell(fmt, variant, 1, chunk, _score(result), frozen)
                        )
    if tracer is not None:
        tracer.count("tune_cells_sampled", len(cells))
        tracer.count("tune_decisions")

    best = max(cells, key=lambda c: c.mflops)
    decision = TuneDecision(
        fingerprint=triplets.fingerprint,
        matrix=matrix_name,
        format_name=best.format_name,
        variant=best.variant,
        threads=best.threads,
        chunk_elements=best.chunk_elements,
        k=k,
        score_mflops=best.mflops,
        mode=mode,
        machine=machine.name if machine else None,
        format_params=best.format_params,
    )
    if store is not None:
        store.record(decision)
    return TuneReport(
        matrix=matrix_name,
        fingerprint=triplets.fingerprint,
        k=k,
        mode=mode,
        cells=cells,
        decision=decision,
    )
