"""Paths and the metric catalog shared by the benchmark's scripts.

``BENCHMARK.json`` at the repository root declares the metric names below
with their directions and bounds; ``test_harness.py`` checks that the two
agree.  An untraced run reports :data:`END_TO_END`; a traced run reports
:data:`PER_LAYER`, with 0 for a layer the workload never calls.

This module imports nothing from the program, so ``run.py`` can start (and
fail cleanly) in a directory without the program's sources.
"""

from __future__ import annotations

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch output of runs (server trajectories, span files); git-ignored.
OUT_DIR = HERE / "out"


def child_env() -> dict:
    """The environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


WORKLOADS = ("spmm-warm", "dl-ops", "serve-hot", "serve-inline", "serve-churn")

#: The Table 5.1 analogs of ``spmm-warm`` with their load scales.
SPMM_MATRICES = {
    "cant": 16,
    "torso1": 128,
    "nd24k": 64,
    "shallow_water1": 16,
    "af23560": 8,
}
SPMM_FORMATS = ("coo", "csr", "ell", "bcsr", "sell", "csr5", "bell")
#: The DLMC-style matrices of ``dl-ops`` with their dense widths.
DL_MATRICES = {
    "dlmc_mag_90": 64,
    "dlmc_block_85": 64,
    "dlmc_mag_98": 64,
    "dlmc_batch_heavy": 512,
}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ops": "op/s",
    "mflops_geomean": "MFLOPS",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    # serve.wire
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "wire.client_encode_ms_p50": "ms",
    "wire.server_decode_ms_p50": "ms",
    "wire.server_encode_ms_p50": "ms",
    "wire.client_decode_ms_p50": "ms",
    # serve.server
    "server.admit_to_done_ms_p50": "ms",
    "server.outside_ms_p50": "ms",
    # engine
    "engine.queue_wait_ms_p50": "ms",
    "engine.queue_wait_ms_p95": "ms",
    "engine.fingerprint_ms_p50": "ms",
    "engine.fingerprint_calls": "count",
    # kernels.plan
    "plan.hit_ratio": "fraction",
    "plan.builds": "count",
    "plan.acquire_ms_p50": "ms",
    "plan.build_ms": "ms",
    # formats
    "formats.convert_ms_p50": "ms",
    # kernels
    "kernel.ms_p50": "ms",
    **{f"kernel.{fmt}.mflops_geomean": "MFLOPS" for fmt in SPMM_FORMATS},
    "kernel.serial.mflops_geomean": "MFLOPS",
    "kernel.parallel.mflops_geomean": "MFLOPS",
    **{f"kernel.{name}.mflops_geomean": "MFLOPS" for name in (*SPMM_MATRICES, *DL_MATRICES)},
    "kernel.parallel_speedup": "ratio",
    "kernel.flops": "count",
    "kernel.bytes_computed": "bytes",
    "kernel.flops_per_byte": "flop/byte",
    # kernels.backward
    "kernel.backward.mflops_geomean": "MFLOPS",
    "backward.transpose_ms_p50": "ms",
    "backward.kernel_ms_p50": "ms",
    # kernels.spgemm
    **{f"kernel.spgemm.{name}.mflops": "MFLOPS" for name in DL_MATRICES},
    "kernel.spgemm.mflops_geomean": "MFLOPS",
    "spgemm.output_nnz": "count",
    "spgemm.compression": "ratio",
    # matrices
    "matrices.load_ms": "ms",
    # the trace itself
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}
