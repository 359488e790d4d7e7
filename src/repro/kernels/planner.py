"""The SpMM kernel layer: one planner per format, one executor for all.

The paper defines SpMM as one algorithm per format, run as several variants
(§4.2: "serial, parallel, GPU, serial transpose, parallel transpose").
Here each format's algorithm exists once, as a *planner*: given the matrix,
the dense width ``k``, a work split and the chunk budget, it returns an
:class:`SpmmPlan` — work units that write disjoint rows of C, plus a
finishing step.  :func:`execute` runs the units inline, or on a shared
thread pool when ``threads > 1``.  Every variant in
:mod:`repro.kernels.dispatch` is a way of calling this one layer (the
single-kernel argument of Kreutzer et al., applied to variants).

Per format:

* **COO / CSR / CSR5** stream the row-major entries: gather, scale,
  segmented reduction (:func:`~repro.kernels.common.plan_stream_segments`);
* **SELL-C-sigma** streams its padded chunk-major storage, a padded CSR over
  sorted rows (:meth:`~repro.formats.sell.SELL.padded_indptr`), and finishes
  by scattering through the row permutation;
* **ELL** runs its slot loop per row range — the "very simple and easily
  vectorizable" loop of §2.2, padded slots included — and **BELL** per
  slice fragment, with that slice's width;
* **BCSR** runs a chunked block-row einsum (dense tile times gathered B
  panel) with ``segment_sum``, and finishes by trimming the padded rows;
* **CSR5** under the parallel schedules splits into equal-nnz tiles instead
  of rows — the CSR5 load-balance story — and merges the partial sums of
  rows that cross tile boundaries ("dirty rows") when finishing.

Row chunking (``chunk_elements``) bounds every ``(entries, k)``
intermediate.  Units write disjoint rows, so no locking is needed, and
NumPy releases the GIL inside its kernels, so threads genuinely overlap.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..errors import KernelError
from ..formats.bcsr import BCSR
from ..formats.bell import BELL
from ..formats.coo import COO
from ..formats.csr import CSR
from ..formats.csr5 import CSR5
from ..formats.ell import ELL
from ..formats.sell import SELL
from .common import (
    DEFAULT_CHUNK_ELEMENTS,
    balanced_partitions,
    iter_row_chunks,
    plan_stream_segments,
    run_stream_segments,
    segment_sum,
)

__all__ = [
    "DEFAULT_THREADS",
    "SpmmPlan",
    "plan_spmm",
    "plan_grouped",
    "row_groups",
    "execute",
    "effective_threads",
    "shared_pool",
    "shutdown_shared_pools",
]

DEFAULT_THREADS = 32  # the paper's default for all parallel studies (§5.1)


@dataclass
class SpmmPlan:
    """Work units and finishing step for one ``(matrix, k, split)``.

    Each unit is called as ``unit(B, C)`` and writes its own rows of the
    zero-initialized work buffer ``C`` (``out_rows`` rows), so units run in
    any order on any thread; whatever a unit returns is handed to
    ``finish(C, partials)``, which turns the buffer into the result.
    ``pad_rows`` zero rows are appended to B first (BCSR edge blocks).
    """

    units: list[Callable]
    out_rows: int
    dtype: np.dtype
    finish: Callable[[np.ndarray, list], np.ndarray] | None = None
    pad_rows: int = 0


# -- planners -----------------------------------------------------------------


def _row_ranges(work_ptr: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Nonempty contiguous row ranges of near-equal work."""
    return [rng for rng in balanced_partitions(work_ptr, parts) if rng[0] < rng[1]]


def _stream_units(indptr, indices, values, k, ranges, chunk_elements) -> list[Callable]:
    values_col = np.ascontiguousarray(values)[:, None]
    return [
        partial(
            run_stream_segments,
            plan_stream_segments(indptr, indices, values_col, k, rng, chunk_elements),
        )
        for rng in ranges
    ]


def _slot_unit(fragments, B: np.ndarray, C: np.ndarray) -> None:
    """The ELL slot loop over slot-major ``(row0, nrows, indices, values)``
    fragments: row ``j`` of a fragment's arrays is slot ``j``."""
    for r0, n, idx, val in fragments:
        for j in range(idx.shape[0]):
            C[r0 : r0 + n] += val[j, :, None] * B[idx[j]]


def _bell_fragments(A: BELL, r0: int, r1: int) -> list[tuple]:
    """Slice fragments of BELL rows ``[r0, r1)``, each with its slice's width."""
    fragments = []
    row = r0
    while row < r1:
        s = row // A.row_block
        offset = row - s * A.row_block
        n = min(A.rows_in_slice(s) - offset, r1 - row)
        width = int(A.widths[s])
        base = int(A.slice_ptr[s]) + offset * width
        idx = A.indices[base : base + n * width].reshape(n, width)
        val = A.values[base : base + n * width].reshape(n, width)
        fragments.append((row, n, idx.T, val.T))
        row += n
    return fragments


def _bcsr_unit(chunks, br: int, bc: int, B: np.ndarray, C: np.ndarray) -> None:
    """Dense tiles times gathered B panels, segment-summed per block row."""
    kk = B.shape[1]
    for r0, r1, blocks, flat_cols, local_ptr in chunks:
        nb = blocks.shape[0]
        panels = B[flat_cols].reshape(nb, bc, kk)
        prods = np.einsum("nrc,nck->nrk", blocks, panels)
        out = C[r0 * br : r1 * br].reshape(r1 - r0, br * kk)  # a view: C is contiguous
        segment_sum(prods.reshape(nb, br * kk), local_ptr, out=out)


def _plan_bcsr(A: BCSR, k: int, parts: int, chunk_elements: int) -> SpmmPlan:
    br, bc = A.block_shape
    units = []
    for br0, br1 in _row_ranges(A.indptr, parts):
        sub = A.indptr[br0 : br1 + 1]
        chunks = []
        # Chunk block rows so the (blocks, bc, k) panel gather stays under
        # the budget; a block row is never split.
        for c0, c1 in iter_row_chunks(sub - sub[0], bc * k, chunk_elements):
            b0, b1 = int(sub[c0]), int(sub[c1])
            if b0 == b1:
                continue
            cols = A.block_cols[b0:b1].astype(np.int64)
            flat_cols = (cols[:, None] * bc + np.arange(bc)[None, :]).reshape(-1)
            local_ptr = sub[c0 : c1 + 1] - b0
            chunks.append((br0 + c0, br0 + c1, A.blocks[b0:b1], flat_cols, local_ptr))
        units.append(partial(_bcsr_unit, chunks, br, bc))
    nrows = A.nrows
    return SpmmPlan(
        units,
        A.nblockrows * br,
        A.policy.value,
        finish=lambda C, _: C[:nrows],
        pad_rows=A.nblockcols * bc - A.ncols,
    )


def _csr5_tile_unit(r_first, r_last, vals, idx, local_ptr, B, C):
    return r_first, r_last, segment_sum(vals * B[idx], local_ptr)


def _merge_dirty_rows(C: np.ndarray, partials: list) -> np.ndarray:
    for r_first, r_last, local in partials:
        C[r_first : r_last + 1] += local
    return C


def _plan_csr5_tiles(A: CSR5, parts: int) -> SpmmPlan:
    """Contiguous equal-nnz tile ranges; a row spanning two ranges gets a
    partial sum from each, merged once on the calling thread."""
    parts = min(parts, A.ntiles)
    bounds = np.linspace(0, A.ntiles, parts + 1, dtype=np.int64)
    units = []
    for t0, t1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        e0, e1 = int(A.tile_ptr[t0]), int(A.tile_ptr[t1])
        r_first = int(A.tile_first_row[t0])
        r_last = int(A.tile_last_row[t1 - 1])
        local_ptr = np.clip(A.indptr[r_first : r_last + 2] - e0, 0, e1 - e0)
        units.append(
            partial(
                _csr5_tile_unit,
                r_first,
                r_last,
                A.values[e0:e1, None],
                A.indices[e0:e1],
                local_ptr,
            )
        )
    return SpmmPlan(units, A.nrows, A.policy.value, finish=_merge_dirty_rows)


def plan_spmm(
    A,
    k: int,
    parts: int = 1,
    *,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    tiled: bool = False,
) -> SpmmPlan:
    """Plan ``C = A @ B`` for a fixed width ``k``, split into ``parts`` units.

    Rows (block rows for BCSR) split into ``parts`` contiguous ranges of
    near-equal stored work — ``parts=1`` is the serial kernel.  With
    ``tiled``, CSR5 splits its equal-nnz tiles instead.  ``chunk_elements``
    bounds each unit's ``(entries, k)`` intermediate.
    """
    if k < 1:
        raise KernelError(f"k must be >= 1, got {k}")
    if parts < 1:
        raise KernelError(f"parts must be >= 1, got {parts}")
    if isinstance(A, CSR5) and tiled:
        return _plan_csr5_tiles(A, parts)
    if isinstance(A, COO):
        indptr = A.row_segments()
        ranges = _row_ranges(indptr, parts)
        units = _stream_units(indptr, A.cols, A.values, k, ranges, chunk_elements)
        return SpmmPlan(units, A.nrows, A.policy.value)
    if isinstance(A, (CSR, CSR5)):
        ranges = _row_ranges(A.indptr, parts)
        units = _stream_units(A.indptr, A.indices, A.values, k, ranges, chunk_elements)
        return SpmmPlan(units, A.nrows, A.policy.value)
    if isinstance(A, SELL):
        # Workers own sorted-row ranges weighted by stored (padded) entries,
        # the real work; the sorted-order buffer scatters back at the end.
        indptr = A.padded_indptr()
        ranges = _row_ranges(indptr, parts)
        units = _stream_units(indptr, A.indices, A.values, k, ranges, chunk_elements)
        perm = A.permutation

        def scatter(Cp: np.ndarray, _partials) -> np.ndarray:
            C = np.empty_like(Cp)
            C[perm] = Cp
            return C

        return SpmmPlan(units, A.nrows, A.policy.value, finish=scatter)
    if isinstance(A, ELL):
        # Every row has identical work (the width), so split row counts.  A
        # one-unit plan hoists contiguous slot columns (the Study 9 hoisted
        # loads); split plans read the matrix through strided views, so a
        # parallel plan holds no second copy of it.
        units = []
        for r0, r1 in _row_ranges(np.arange(A.nrows + 1, dtype=np.int64), parts):
            idx, val = A.indices[r0:r1].T, A.values[r0:r1].T
            if parts == 1:
                idx, val = np.ascontiguousarray(idx), np.ascontiguousarray(val)
            units.append(partial(_slot_unit, [(r0, r1 - r0, idx, val)]))
        return SpmmPlan(units, A.nrows, A.policy.value)
    if isinstance(A, BELL):
        work_ptr = np.zeros(A.nrows + 1, dtype=np.int64)
        slices = np.minimum(np.arange(A.nrows) // A.row_block, A.nslices - 1)
        np.cumsum(A.widths[slices], out=work_ptr[1:])
        units = [
            partial(_slot_unit, _bell_fragments(A, r0, r1))
            for r0, r1 in _row_ranges(work_ptr, parts)
        ]
        return SpmmPlan(units, A.nrows, A.policy.value)
    if isinstance(A, BCSR):
        return _plan_bcsr(A, k, parts, chunk_elements)
    raise KernelError(f"no SpMM kernel for format {type(A).__name__}")


def row_groups(A) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nonempty rows of a COO/CSR/CSR5 matrix grouped by nonzero count.

    Each group is ``(row_ids, index_matrix, value_matrix)``: every row in a
    group has the same length, so its entries form a dense rectangle.
    Fully vectorized (no per-row Python loop).
    """
    if isinstance(A, (CSR, CSR5)):
        indptr, indices, values = A.indptr, A.indices, A.values
    elif isinstance(A, COO):
        indptr, indices, values = A.row_segments(), A.cols, A.values
    else:
        raise KernelError(f"grouped SpMM supports COO/CSR/CSR5 inputs, not {type(A).__name__}")
    counts = np.diff(indptr)
    order = np.argsort(counts, kind="stable")
    uniq, group_starts = np.unique(counts[order], return_index=True)
    bounds = np.append(group_starts, order.size)
    groups = []
    for gi, length in enumerate(uniq):
        if length == 0:
            continue
        rows_g = order[bounds[gi] : bounds[gi + 1]]
        pos = indptr[rows_g][:, None] + np.arange(length)[None, :]
        groups.append(
            (rows_g, np.ascontiguousarray(indices[pos]), np.ascontiguousarray(values[pos]))
        )
    return groups


def _grouped_unit(rows_g, idx_mat, val_mat, B: np.ndarray, C: np.ndarray) -> None:
    C[rows_g] = (val_mat[:, None, :] @ B[idx_mat])[:, 0, :]


def plan_grouped(A) -> SpmmPlan:
    """Grouped-row SpMM: one unit per row-length group.

    Grouping rows by nonzero count turns each group into a rectangular
    problem whose row dot-products fuse into one batched matmul
    ``(rows, 1, L) @ (rows, L, k)`` — no ``(nnz, k)`` intermediates (the
    insight behind sliced/sorted ELL).  A library-quality kernel beyond the
    paper's set, exposed as the ``grouped`` variants.
    """
    units = [partial(_grouped_unit, *group) for group in row_groups(A)]
    return SpmmPlan(units, A.nrows, A.policy.value)


# -- the executor -------------------------------------------------------------


def execute(plan: SpmmPlan, B: np.ndarray, threads: int = 1, tracer=None) -> np.ndarray:
    """Run a plan against a checked dense operand ``B`` of shape ``(ncols, k)``.

    Units run inline, or on the shared pool when ``threads > 1`` and there
    is more than one unit.  With a ``tracer``, the unit count lands in
    ``chunks_scheduled`` and each unit's busy time in the per-worker
    accounting.
    """
    kk = B.shape[1]
    if plan.pad_rows:
        B = np.vstack([B, np.zeros((plan.pad_rows, kk), dtype=B.dtype)])
    C = np.zeros((plan.out_rows, kk), dtype=plan.dtype)

    def run(unit):
        return unit(B, C)

    if tracer is not None:
        tracer.count("chunks_scheduled", len(plan.units))

        def run(unit, _run=run):
            t0 = time.perf_counter()
            out = _run(unit)
            tracer.record_worker(time.perf_counter() - t0)
            return out

    if threads > 1 and len(plan.units) > 1:
        # Consuming the results propagates worker exceptions.
        partials = list(shared_pool(threads).map(run, plan.units))
    else:
        partials = [run(unit) for unit in plan.units]
    return plan.finish(C, partials) if plan.finish is not None else C


# -- threads ------------------------------------------------------------------

#: Process-lifetime executors, one per worker count.  Creating a
#: ``ThreadPoolExecutor`` per call costs more than a small SpMM at bench
#: scales.
_SHARED_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(threads: int) -> ThreadPoolExecutor:
    """A reusable executor with ``threads`` workers (created on first use)."""
    if threads < 1:
        raise KernelError(f"threads must be >= 1, got {threads}")
    with _POOLS_LOCK:
        pool = _SHARED_POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix=f"spmm{threads}")
            _SHARED_POOLS[threads] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Tear down the shared executors (idempotent; re-creation is lazy)."""
    with _POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False)


atexit.register(shutdown_shared_pools)


def _reset_pools_after_fork() -> None:
    """Re-arm the shared-pool registry in a forked child.

    A fork clones the registry dict but not the executors' worker threads:
    the child inherits pool objects whose queues nobody drains, so the
    first ``shared_pool()`` user hangs forever (the process execution
    backend trips this directly under the ``fork`` start method).  Clearing
    the registry — and replacing the lock, which a parent thread may have
    held mid-fork — makes children lazily recreate live pools instead.
    """
    global _POOLS_LOCK
    _POOLS_LOCK = threading.Lock()
    _SHARED_POOLS.clear()


if hasattr(os, "register_at_fork"):  # POSIX only; Windows never forks
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


def _thread_cap() -> tuple[int, str]:
    """The usable-CPU cap and where it came from (``affinity``/``cpu_count``).

    ``os.cpu_count()`` reports installed cores and ignores CPU affinity
    masks and cgroup quotas — inside containers and CI runners it
    oversubscribes, and oversubscribed wall-clock numbers are noise.
    ``sched_getaffinity`` sees the actual mask where the platform has one.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            usable = len(getaffinity(0))
        except OSError:  # pragma: no cover - platform quirk
            usable = 0
        if usable:
            return usable, "affinity"
    return os.cpu_count() or 1, "cpu_count"


def effective_threads(requested: int, tracer=None) -> int:
    """Clamp a wall-clock thread count to the CPUs this process may use.

    The paper's default of 32 threads oversubscribes smaller hosts and
    makes wall-clock numbers meaningless; model-mode runs never reach this
    code and keep the paper's counts.  A clamp is recorded on the tracer
    (``thread_clamp`` warning, ``threads_requested``/``threads_used``
    counters, and a ``threads_cap_affinity``/``threads_cap_cpu_count``
    marker naming the cap's source) so traced runs show it happened.
    """
    cap, source = _thread_cap()
    used = min(requested, cap)
    if tracer is not None:
        tracer.count("threads_requested", requested)
        tracer.count("threads_used", used)
        tracer.count(f"threads_cap_{source}")
        if used < requested:
            tracer.warn("thread_clamp")
    return used
