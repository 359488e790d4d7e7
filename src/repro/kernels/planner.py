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

* **COO / CSR / CSR5 / SELL-C-sigma** run the slot loop of
  :mod:`repro.kernels.common` over their rows sorted longest first, SELL
  over its padded chunk-major storage (a padded CSR over its sorted rows,
  :meth:`~repro.formats.sell.SELL.padded_indptr`) written back through its
  permutation; units split the sorted rows by work;
* **ELL** runs the same loop per row range — the "very simple and easily
  vectorizable" loop of §2.2, padded slots included — and **BELL** per
  slice fragment, with that slice's width;
* **BCSR** runs it over block rows in the paper's block-loop order (each
  block, then each of its columns), and finishes by trimming padded rows;
* **CSR5** under the parallel schedules splits into equal-nnz tiles instead
  of rows — the CSR5 load-balance story — and, when finishing, continues
  each row that crosses a tile boundary ("dirty rows") in order.

Each row of C is summed left to right from ``0.0``, so every plan of a
matrix gives the same bits.  Units write disjoint rows, so no locking is
needed, and NumPy releases the GIL inside its kernels.
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
    THIN_ELEMENTS,
    balanced_partitions,
    expand,
    iter_row_chunks,
    slot_layout,
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


def _layout(indptr, indices, values, rows=None) -> tuple:
    """:func:`slot_layout` with the C row (``rows[i]``, else ``i``) of each
    sorted row, and the indices and values slot-major."""
    order, ptr, offsets, perm = slot_layout(indptr)
    rows = order if rows is None else rows[order]
    return rows, ptr, offsets, indices.take(perm), values.take(perm, axis=0)


def _slot_major(A) -> tuple:
    """:func:`_layout` of a stream or BCSR matrix, built once per matrix
    object — format arrays are immutable once built — so every plan over it
    shares one slot-major copy."""
    layout = getattr(A, "_slot_major", None)
    if layout is None:
        if isinstance(A, BCSR):  # block positions, so plans read the blocks in place
            args = A.indptr, A.block_cols, np.arange(A.blocks.shape[0])
        elif isinstance(A, SELL):
            # Padded rows (the real work), written back through the permutation.
            args = A.padded_indptr(), A.indices, A.values, A.permutation
        elif isinstance(A, COO):
            args = A.row_segments(), A.cols, A.values
        else:
            args = A.indptr, A.indices, A.values
        layout = A._slot_major = _layout(*args)
    return layout


def _units(layout, parts, width, budget, row_elements, fragment) -> list[list]:
    """Split a layout's sorted rows into ``parts`` ranges of near-equal
    work, each chunked so ``entries x width`` stays under ``budget``, and
    build each chunk with ``fragment(rows, starts, counts, cut)``: its C
    rows, where its part of each slot starts and how many rows that part
    has, and its first thin slot — the first whose rows hold at most
    :data:`THIN_ELEMENTS` outputs (``row_elements`` each)."""
    rows, ptr, offsets = layout[:3]
    units = []
    for r0, r1 in _row_ranges(ptr, parts):
        fragments = []
        for c0, c1 in iter_row_chunks(ptr[r0 : r1 + 1], width, budget):
            a, b = r0 + c0, r0 + c1
            nslots = int(ptr[a + 1] - ptr[a])  # sorted row a is the longest
            counts = np.minimum(np.diff(offsets[: nslots + 1]) - a, b - a)
            thin = np.flatnonzero(counts * row_elements <= THIN_ELEMENTS)
            cut = int(thin[0]) if thin.size else nslots
            fragments.append(fragment(rows[a:b], offsets[:nslots] + a, counts, cut))
        units.append(fragments)
    return units


def _split(values: np.ndarray, starts, counts, cut: int) -> tuple[list, np.ndarray]:
    """Views of ``values`` for the wide slots' pieces, and the thin slots'
    pieces gathered contiguous (a view when they are adjacent)."""
    wide = [values[s : s + m] for s, m in zip(starts[:cut].tolist(), counts[:cut].tolist())]
    s, m = starts[cut:], counts[cut:]
    n = int(m.sum())
    if n and s[-1] + m[-1] - s[0] == n:
        return wide, values[s[0] : s[0] + n]
    return wide, values.take(expand(s, m), axis=0)


def _stream_fragment(layout, rows, starts, counts, cut) -> tuple:
    (idx, thin_idx), (val, thin_val) = (_split(a, starts, counts, cut) for a in layout[3:])
    thin = (counts[cut:].tolist(), thin_idx, thin_val) if cut < counts.size else None
    return rows, (idx, val), thin


def _slot_unit(fragments, B: np.ndarray, C: np.ndarray) -> None:
    """The slot loop, the one accumulation of the stream, ELL and BELL kernels.

    A fragment is ``(rows, (indices, values), thin)``: slot ``j`` adds
    ``values[j] * B[indices[j]]`` into the first ``len(indices[j])`` rows;
    ``thin``, if any, holds the later slots' ``(widths, indices, values)``
    slot-major, their products formed at once.  ``rows`` is a slice of C
    (ELL, BELL: summed in place) or the C rows of a sorted buffer.
    """
    for rows, (indices, values), thin in fragments:
        in_place = isinstance(rows, slice)
        out = C[rows] if in_place else np.zeros((rows.size, B.shape[1]), dtype=C.dtype)
        for idx, val in zip(indices, values):
            out[: idx.shape[0]] += val[:, None] * B[idx]
        if thin is not None:
            widths, idx, val = thin
            products = val[:, None] * B[idx]
            for m in widths:
                out[:m] += products[:m]
                products = products[m:]
        if not in_place:
            C[rows] = out


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
        fragments.append((slice(row, row + n), (idx.T, val.T), None))
        row += n
    return fragments


def _bcsr_unit(blocks, br: int, bc: int, fragments, B: np.ndarray, C: np.ndarray) -> None:
    """The slot loop over block rows, in the paper's block-loop order: per
    fragment one gather of the B panel rows its blocks name (the
    intermediate ``chunk_elements`` bounds), then for each slot and block
    column ``c``, ``blocks[:, :, c] x panel[:, c]`` into the sorted buffer.
    Blocks are read through their slot-major positions, not copied."""
    kk = B.shape[1]
    C3 = C.reshape(-1, br, kk)  # a view: C is contiguous
    for rows, counts, cols, wide, thin in fragments:
        panel = B[(cols[:, None] * bc + np.arange(bc)).reshape(-1)].reshape(-1, bc, 1, kk)
        out = np.zeros((rows.size, br, kk), dtype=C.dtype)
        a = 0
        for pos in wide:
            m, blk = pos.shape[0], blocks.take(pos, axis=0)
            for c in range(bc):
                out[:m] += blk[:, :, c, None] * panel[a : a + m, c]
            a += m
        products = blocks.take(thin, axis=0).transpose(0, 2, 1)[..., None] * panel[a:]
        for m in counts[len(wide) :]:
            for c in range(bc):
                out[:m] += products[:m, c]
            products = products[m:]
        C3[rows] = out


def _bcsr_fragment(layout, rows, starts, counts, cut) -> tuple:
    cols = _split(layout[3], starts, counts, 0)[1]  # every piece, contiguous
    return rows, counts.tolist(), cols, *_split(layout[4], starts, counts, cut)


def _plan_bcsr(A: BCSR, k: int, parts: int, chunk_elements: int) -> SpmmPlan:
    br, bc = A.block_shape
    layout = _slot_major(A)
    # Chunks bound the panel gather; a block row is never split.
    units = _units(layout, parts, bc * k, chunk_elements, br * k, partial(_bcsr_fragment, layout))
    nrows = A.nrows
    return SpmmPlan(
        [partial(_bcsr_unit, A.blocks, br, bc, u) for u in units],
        A.nblockrows * br,
        A.policy.value,
        finish=lambda C, _: C[:nrows],
        pad_rows=A.nblockcols * bc - A.ncols,
    )


def _csr5_tile_unit(r_first, r_last, head_idx, head_val, fragments, B, C):
    local = np.zeros((r_last - r_first + 1, B.shape[1]), dtype=C.dtype)
    _slot_unit(fragments, B, local)
    return r_first, r_last, local, head_val[:, None] * B[head_idx]


def _merge_dirty_rows(C: np.ndarray, partials: list) -> np.ndarray:
    """Add each tile range's rows in order.  A row begun in an earlier range
    (a "dirty row") goes on with this range's products one at a time, so
    every row keeps the serial left-to-right sum."""
    for r_first, r_last, local, head in partials:
        row = C[r_first]
        for product in head:
            row += product
        C[r_first : r_last + 1] += local
    return C


def _plan_csr5_tiles(A: CSR5, k: int, parts: int, chunk_elements: int) -> SpmmPlan:
    """Contiguous equal-nnz tile ranges, merged on the calling thread."""
    parts = min(parts, A.ntiles)
    bounds = np.linspace(0, A.ntiles, parts + 1, dtype=np.int64)
    units = []
    for t0, t1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        e0, e1 = int(A.tile_ptr[t0]), int(A.tile_ptr[t1])
        r_first = int(A.tile_first_row[t0])
        r_last = int(A.tile_last_row[t1 - 1])
        # A leading row begun before e0 is left to the merge.
        head = min(int(A.indptr[r_first + 1]), e1) if A.indptr[r_first] < e0 else e0
        layout = _layout(np.clip(A.indptr[r_first : r_last + 2], head, e1), A.indices, A.values)
        fragments = _units(layout, 1, k, chunk_elements, k, partial(_stream_fragment, layout))
        head_entries = A.indices[e0:head], A.values[e0:head]
        units.append(partial(_csr5_tile_unit, r_first, r_last, *head_entries, sum(fragments, [])))
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
        return _plan_csr5_tiles(A, k, parts, chunk_elements)
    if isinstance(A, (COO, CSR, CSR5, SELL)):
        layout = _slot_major(A)
        units = _units(layout, parts, k, chunk_elements, k, partial(_stream_fragment, layout))
        return SpmmPlan([partial(_slot_unit, u) for u in units], A.nrows, A.policy.value)
    if isinstance(A, ELL):
        # Every row has identical work (the width), so split row counts.  ELL
        # stores slot-major, so each unit reads its rows of every slot as a
        # contiguous view and no plan holds a second copy of the matrix.
        units = []
        for r0, r1 in _row_ranges(np.arange(A.nrows + 1, dtype=np.int64), parts):
            slots = (A.indices[r0:r1].T, A.values[r0:r1].T)
            units.append(partial(_slot_unit, [(slice(r0, r1), slots, None)]))
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
    group has the same length, so its entries form a dense rectangle, read
    from the slot-major layout.  Fully vectorized (no per-row Python loop).
    """
    if not isinstance(A, (COO, CSR, CSR5)):
        raise KernelError(f"grouped SpMM supports COO/CSR/CSR5 inputs, not {type(A).__name__}")
    rows, ptr, offsets, indices, values = _slot_major(A)
    lengths = np.diff(ptr)
    bounds = np.flatnonzero(np.diff(lengths, prepend=-1, append=-1)).tolist()
    groups = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        pos = offsets[: lengths[a]] + np.arange(a, b)[:, None]  # row i, entry j
        groups.append((rows[a:b], indices[pos], values[pos]))
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
