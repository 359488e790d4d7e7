"""GPU SpMM kernels — SIMT functional simulation.

The paper's GPU kernels are OpenMP target-offload versions of the same
loops (§4.2).  Without a GPU we run a *functional SIMT simulation*: the
arithmetic executes on the CPU with results identical to the serial kernel,
while a warp-level execution model computes the statistics a SIMT machine
would exhibit — warps launched, divergence (lanes idling while the longest
row in the warp finishes), and memory coalescing (adjacent lanes gathering
adjacent B rows).  Those statistics feed :class:`repro.machine.gpu.GPUModel`
to predict runtime on the paper's H100/A100.

Row-to-lane mapping matches the paper's OpenMP mapping: one thread per row,
rows assigned consecutively, 32 threads per warp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from .traces import trace_spmm

__all__ = ["GpuStats", "gpu_spmm", "gpu_execution_stats", "WARP_SIZE"]

WARP_SIZE = 32


@dataclass(frozen=True)
class GpuStats:
    """Warp-level execution statistics from the SIMT simulation."""

    warps: int
    #: Sum over warps of the longest lane's work units (the cycles the warp
    #: actually occupies an SM partition).
    warp_cycles: int
    #: Sum of per-lane work units (useful cycles).
    lane_work: int
    #: Fraction of gathers from B that coalesce with a neighboring lane.
    coalesced_fraction: float
    #: Lanes occupied in the final (partial) warp of each launch.
    occupancy_tail: float

    @property
    def divergence(self) -> float:
        """warp_cycles * 32 / lane_work: 1.0 = no divergence.

        Equals the SIMT efficiency loss from imbalanced rows within warps —
        the mechanism that hurts CSR/COO GPU kernels on skewed matrices and
        that ELL's uniform width avoids.
        """
        if self.lane_work == 0:
            return 1.0
        return max(1.0, self.warp_cycles * WARP_SIZE / self.lane_work)


def gpu_execution_stats(A, k: int, *, transpose_b: bool = False) -> GpuStats:
    """Run the warp model over the format's per-row work distribution."""
    trace = trace_spmm(A, k, transpose_b=transpose_b)
    work = trace.row_work.astype(np.int64)
    n = work.size
    if n == 0:
        return GpuStats(0, 0, 0, 1.0, 1.0)
    pad = (-n) % WARP_SIZE
    padded = np.pad(work, (0, pad))
    per_warp = padded.reshape(-1, WARP_SIZE)
    warp_max = per_warp.max(axis=1)
    warps = per_warp.shape[0]
    warp_cycles = int(warp_max.sum()) * k
    lane_work = int(work.sum()) * k

    # Coalescing: adjacent lanes process adjacent rows; their gathers
    # coalesce when the rows' column indices are close.  The trace's
    # gather_locality measures exactly that spatial proximity, and a
    # transposed B defeats coalescing (lanes stride across the k dimension).
    coalesced = trace.gather_locality if not transpose_b else trace.gather_locality * 0.25
    tail = 1.0 if pad == 0 else (WARP_SIZE - pad) / WARP_SIZE
    return GpuStats(
        warps=warps,
        warp_cycles=warp_cycles,
        lane_work=lane_work,
        coalesced_fraction=float(coalesced),
        occupancy_tail=tail,
    )


def gpu_spmm(A, B: np.ndarray, k: int | None = None, *, runtime=None, **_opts) -> np.ndarray:
    """Functional GPU SpMM: serial arithmetic + SIMT statistics pathway.

    ``runtime`` optionally injects a simulated offload runtime (see
    :class:`repro.machine.offload.FaultyOffloadRuntime`); the paper's Aries
    machine failed exactly here.
    """
    from .dispatch import serial_spmm  # lazy: dispatch imports this module

    if runtime is not None:
        runtime.check_launch(A)
    return serial_spmm(A, B, k)


def gpu_spmm_with_stats(A, B: np.ndarray, k: int | None = None) -> tuple[np.ndarray, GpuStats]:
    """Convenience: result plus the warp statistics for the same launch."""
    from .dispatch import serial_spmm  # lazy: dispatch imports this module

    B_checked = A.check_dense_operand(B, k)
    if B_checked.shape[1] <= 0:
        raise KernelError("empty dense operand")
    C = serial_spmm(A, B, k)
    stats = gpu_execution_stats(A, B_checked.shape[1])
    return C, stats
