"""Grid runner: matrices x formats x variants x machines.

The paper ran its grid through bash scripts and flagged that as future work
(§6.3.3: "one possible solution would be to devise a Python script to
generate a runtime script for a given configuration").  :class:`GridRunner`
is that replacement: a declarative :class:`GridSpec` expands to benchmark
runs, offload failures are captured as censored records instead of
crashing the sweep, and results come back as flat :class:`RunRecord` rows
ready for the study reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .._compat import legacy_ok, warn_legacy
from ..errors import OffloadError
from ..kernels.backward import BACKWARD_FORMATS
from ..kernels.plan import PlanCache
from ..machine.machines import Machine
from .observe import Tracer
from .params import BenchParams
from .suite import BenchResult, SpmmBenchmark

__all__ = ["GridSpec", "RunRecord", "GridRunner"]


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of a benchmark grid.

    ``operation`` names the single workload of the grid; ``operations``
    (when non-empty) sweeps several workloads — spmm/spgemm/backward — as an
    extra axis, with the per-operation prunings of :meth:`cells`.
    """

    matrices: tuple[str, ...]
    formats: tuple[str, ...]
    variants: tuple[str, ...] = ("serial",)
    k_values: tuple[int, ...] = (128,)
    thread_counts: tuple[int, ...] = (32,)
    block_sizes: tuple[int, ...] = (4,)
    scale: int = 1
    operation: str = "spmm"
    operations: tuple[str, ...] = ()
    base_params: BenchParams = field(default_factory=BenchParams)

    def configurations(self) -> Iterator[tuple[str, str, BenchParams]]:
        """Expand to (matrix, format, params) triples for ``operation``.

        The historical single-operation expansion; :meth:`cells` is the
        operation-aware form the runner consumes.
        """
        for matrix, fmt, _op, params in self._expand(self.operation):
            yield matrix, fmt, params

    def cells(self) -> Iterator[tuple[str, str, str, BenchParams]]:
        """Expand to (matrix, format, operation, params) cells.

        Block size only varies for BCSR (the paper's only block-size knob);
        thread counts only vary for parallel variants; SpGEMM collapses the
        variant and k axes (one algorithm, no dense width) and backward
        keeps only the DL grid's backward formats (``BACKWARD_FORMATS``) —
        pointless axis combinations are pruned.
        """
        for op in self.operations or (self.operation,):
            yield from self._expand(op)

    def _expand(self, op: str) -> Iterator[tuple[str, str, str, BenchParams]]:
        formats: Sequence[str] = self.formats
        variants: Sequence[str] = self.variants
        k_axis: Sequence[int] = self.k_values
        if op == "spgemm":
            variants = ("serial",)
            k_axis = self.k_values[:1]
        elif op == "backward":
            formats = tuple(f for f in self.formats if f in BACKWARD_FORMATS)
        for matrix in self.matrices:
            for fmt in formats:
                blocks: Sequence[int] = self.block_sizes if fmt == "bcsr" else (self.base_params.block_size,)
                for variant in variants:
                    threads_axis: Sequence[int] = (
                        self.thread_counts if "parallel" in variant else (self.base_params.threads,)
                    )
                    for k in k_axis:
                        for threads in threads_axis:
                            for block in blocks:
                                yield matrix, fmt, op, self.base_params.with_(
                                    variant=variant, k=k, threads=threads, block_size=block
                                )


@dataclass(frozen=True)
class RunRecord:
    """One grid cell: a result, or a censoring reason."""

    matrix: str
    format_name: str
    variant: str
    k: int
    threads: int
    block_size: int
    machine: str
    result: BenchResult | None
    censored: str | None = None
    operation: str = "spmm"

    @property
    def mflops(self) -> float:
        if self.result is None:
            return 0.0
        return (
            self.result.modeled_mflops
            if self.result.timing is None
            else self.result.mflops
        )


class GridRunner:
    """Execute a :class:`GridSpec`, on one machine model or on wall clock."""

    def __init__(
        self,
        spec: GridSpec,
        machine: Machine | None = None,
        mode: str = "model",
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
    ):
        warn_legacy("constructing GridRunner directly", "repro.api.benchmark_grid()")
        self.spec = spec
        self.machine = machine
        self.mode = mode
        #: Optional instrumentation, shared by every cell of the grid.
        self.tracer = tracer
        #: Optional plan cache shared across cells: grid axes that revisit
        #: the same (matrix, format) pair skip the conversion entirely.
        self.plan_cache = plan_cache
        #: Matrices whose GPU launches were censored (offload faults /
        #: device memory), mirroring the paper's omitted data points.
        self.censored: list[RunRecord] = []

    def run(self) -> list[RunRecord]:
        """Run the full grid; censored cells are recorded, not raised."""
        records: list[RunRecord] = []
        for matrix, fmt, operation, params in self.spec.cells():
            if self.tracer is not None:
                with self.tracer.span(
                    "cell",
                    matrix=matrix,
                    format=fmt,
                    variant=params.variant,
                    operation=operation,
                ):
                    record = self._run_one(matrix, fmt, params, operation)
            else:
                record = self._run_one(matrix, fmt, params, operation)
            records.append(record)
            if record.censored:
                self.censored.append(record)
                if self.tracer is not None:
                    self.tracer.warn("censored_cell")
        return records

    def _run_one(
        self, matrix: str, fmt: str, params: BenchParams, operation: str | None = None
    ) -> RunRecord:
        if operation is None:
            operation = self.spec.operation
        with legacy_ok():  # internal delegation, not a legacy caller
            bench = SpmmBenchmark(
                fmt,
                params=params,
                machine=self.machine,
                operation=operation,
                tracer=self.tracer,
                plan_cache=self.plan_cache,
            )
        bench.load_suite_matrix(matrix, scale=self.spec.scale)
        meta = dict(
            matrix=matrix,
            format_name=fmt,
            variant=params.variant,
            k=params.k,
            threads=params.threads,
            block_size=params.block_size,
            machine=self.machine.name if self.machine else "wallclock",
            operation=operation,
        )
        try:
            result = bench.run(mode=self.mode)
        except OffloadError as exc:
            return RunRecord(**meta, result=None, censored=str(exc))
        return RunRecord(**meta, result=result)
