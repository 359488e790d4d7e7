"""The five workloads.  Each pass runs in a fresh process started by run.py:

    python benchmarks/e2e/workloads.py WORKLOAD --seed N --seconds S [--trace] [--setup-only]

and prints one JSON object: the pass's counts, spread and metrics (both
end-to-end and per-layer; run.py picks what to report).

Library workloads call the program from one thread.  Serve workloads spawn
``python -m repro serve`` and drive it in a closed loop: two blocking
``repro.api.Client`` connections on two threads, each sending its next
request only after its reply arrives.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable

import numpy as np

import common
import spans
from repro import api
from repro.errors import ServeError
from repro.formats.registry import get_format
from repro.kernels.backward import backward_reference
from repro.kernels.plan import PlanCache
from repro.kernels.spgemm import spgemm_flops
from repro.matrices.coo_builder import Triplets
from repro.verify.reference import reference_spmm, result_tolerance

# Called through their modules, so the wrappers of a traced run see the calls.
suite = importlib.import_module("repro.matrices.suite")
backward = importlib.import_module("repro.kernels.backward")
spgemm = importlib.import_module("repro.kernels.spgemm")

#: Seconds per round (library) and requests per second (serve) of each
#: workload at the seed commit on a 2-vCPU Xeon.  They turn ``--seconds``
#: into a fixed operation count, so both sides of a comparison do the same
#: work; ``--seconds 0`` gives the smallest size: 1 round, 20 requests.
ROUND_S = {"spmm-warm": 2.7, "dl-ops": 3.4}
REQUEST_RATE = {"serve-hot": 40, "serve-inline": 20, "serve-churn": 20}
MIN_REQUESTS = 20
WARMUP_REQUESTS = 10
CONNECTIONS = 2
SPMM_K = 16
SERVE_MATRIX, SERVE_SCALE, SERVE_K = "cant", 16, 16
#: Migration stays off: with it on, whether and when a plan group migrated
#: varied between identical runs, and with it the kernel time.
SERVER_ARGS = ["serve", "--listen", "127.0.0.1:0", "--backend", "thread",
               "--workers", "2", "--no-migration"]


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def geomean(values) -> float:
    values = list(values)
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def quartiles_ms(values) -> list[float]:
    return [pct(values, q) * 1e3 for q in (25, 50, 75)]


# -- library workloads --------------------------------------------------------


@dataclasses.dataclass
class Cell:
    """One timed library operation, such as ``cant/csr/parallel``."""

    name: str
    op: str  # "spmm", "backward" or "spgemm"
    matrix: str
    fmt: str
    variant: str
    call: Callable[[], Any]
    reference: str  # key of the workload's reference for this output
    flops: int
    in_bytes: int
    out_bytes: int = 0
    output_nnz: int = 0
    times: list[float] = dataclasses.field(default_factory=list)


class Setup:
    """What a library workload's set-up built, and what that took."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self.cache = PlanCache(maxsize=256)
        self.cells: list[Cell] = []
        self.references: dict[str, Callable[[], np.ndarray]] = {}
        self.load_s = 0.0
        self.build_s = 0.0

    def load(self, name: str, scale: int = 1) -> Triplets:
        start = time.perf_counter()
        with self.rec.span("bench.setup", f"setup:{name}"):
            triplets = suite.load_matrix(name, scale=scale)
        self.load_s += time.perf_counter() - start
        return triplets

    def plan(self, cell: str, triplets: Triplets, fmt: str, variant: str, k: int):
        start = time.perf_counter()
        with self.rec.span("bench.setup", f"setup:{cell}"):
            plan, _ = self.cache.get_or_build_plan(
                triplets, fmt, variant=variant, k=k,
                threads=2 if variant == "parallel" else 1,
            )
        self.build_s += time.perf_counter() - start
        return plan


def setup_spmm_warm(seed: int, rec) -> Setup:
    """5 Table 5.1 analogs x 7 formats x {serial, parallel} at k=16: 70 plans."""
    rng = np.random.default_rng(seed)
    setup = Setup(rec)
    for name, scale in common.SPMM_MATRICES.items():
        T = setup.load(name, scale)
        B = rng.standard_normal((T.ncols, SPMM_K))
        setup.references[name] = functools.partial(reference_spmm, T, B, SPMM_K)
        for fmt in common.SPMM_FORMATS:
            for variant in ("serial", "parallel"):
                cell = f"{name}/{fmt}/{variant}"
                plan = setup.plan(cell, T, fmt, variant, SPMM_K)
                setup.cells.append(Cell(
                    cell, "spmm", name, fmt, variant, functools.partial(plan, B),
                    name, 2 * T.nnz * SPMM_K, plan.matrix.nbytes + B.nbytes,
                ))
    return setup


def _spgemm_reference(T: Triplets) -> np.ndarray:
    dense = T.to_dense()
    return dense @ (dense if T.nrows == T.ncols else dense.T)


def setup_dl_ops(seed: int, rec) -> Setup:
    """Forward (csr, bcsr plans), backward A^T@G (csr, bcsr) and csr SpGEMM
    (A@A if square, else A@A^T) on four DLMC-style matrices, all serial."""
    rng = np.random.default_rng(seed)
    setup = Setup(rec)
    for name, k in common.DL_MATRICES.items():
        T = setup.load(name)
        B = rng.standard_normal((T.ncols, k))
        G = rng.standard_normal((T.nrows, k))
        setup.references[f"{name}/fwd"] = functools.partial(reference_spmm, T, B, k)
        setup.references[f"{name}/bwd"] = functools.partial(backward_reference, T, G, k)
        setup.references[f"{name}/spgemm"] = functools.partial(_spgemm_reference, T)
        plans = {}
        for fmt in ("csr", "bcsr"):
            plans[fmt] = plan = setup.plan(f"{name}/fwd-{fmt}", T, fmt, "serial", k)
            A = plan.matrix
            setup.cells.append(Cell(
                f"{name}/fwd-{fmt}", "spmm", name, fmt, "serial", functools.partial(plan, B),
                f"{name}/fwd", 2 * T.nnz * k, A.nbytes + B.nbytes,
            ))
            # The per-call transpose inside backward_spmm is part of the op.
            setup.cells.append(Cell(
                f"{name}/bwd-{fmt}", "backward", name, fmt, "serial",
                functools.partial(backward.backward_spmm, A, G, k),
                f"{name}/bwd", 2 * T.nnz * k, A.nbytes + G.nbytes,
            ))
        A = plans["csr"].matrix
        with rec.span("bench.setup", f"setup:{name}/spgemm-csr"):
            other = A if T.nrows == T.ncols else get_format("csr").from_triplets(T.transposed())
        setup.cells.append(Cell(
            f"{name}/spgemm-csr", "spgemm", name, "csr", "serial",
            functools.partial(spgemm.spgemm, A, other),
            f"{name}/spgemm", spgemm_flops(A, other), A.nbytes + other.nbytes,
        ))
    return setup


LIBRARY = {"spmm-warm": setup_spmm_warm, "dl-ops": setup_dl_ops}


def _matches(out, reference: np.ndarray) -> bool:
    if isinstance(out, Triplets):
        out = out.to_dense()
    if out.shape != reference.shape:
        return False
    return float(np.abs(out - reference).max(initial=0.0)) <= result_tolerance(reference)


def _out_bytes(out) -> int:
    if isinstance(out, Triplets):
        return out.rows.nbytes + out.cols.nbytes + out.values.nbytes
    return out.nbytes


def run_library(name: str, seed: int, seconds: float, rec, setup_only: bool = False) -> dict:
    """Set up, then run every cell once per round, rounds interleaved."""
    start = time.perf_counter()
    setup = LIBRARY[name](seed, rec)
    setup_s = time.perf_counter() - start
    if setup_only:
        return {"workload": name, "setup_s": setup_s}

    expected = {key: make() for key, make in setup.references.items()}
    rounds = max(1, round(seconds / ROUND_S[name]))
    attempted = errors = wrong = 0
    timed_tags = []
    round_rates = []  # calls per second of call time, one per round
    for r in range(rounds):
        calls, busy = 0, 0.0
        for cell in setup.cells:
            tag = f"{cell.name}#{r}"
            attempted += 1
            try:
                with rec.span("bench.call", tag):
                    t0 = time.perf_counter()
                    out = cell.call()
                    elapsed = time.perf_counter() - t0
            except Exception:  # a failed call is counted, the run goes on
                traceback.print_exc()
                errors += 1
                continue
            cell.times.append(elapsed)
            calls += 1
            busy += elapsed
            timed_tags.append(tag)
            cell.out_bytes = _out_bytes(out)
            if cell.op == "spgemm":
                cell.output_nnz = out.nnz
            if not _matches(out, expected[cell.reference]):
                print(f"wrong output: {tag}", file=sys.stderr)
                wrong += 1
        if busy:
            round_rates.append(calls / busy)

    metrics = library_metrics(setup, round_rates)
    metrics["setup_s"] = setup_s
    metrics["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name,
        "counts": {"cells": len(setup.cells), "rounds": rounds, "calls": attempted},
        "attempted": attempted,
        "failed": errors + wrong,
        "wrong": wrong,
        "spread": {"cell_ms_quartiles": {c.name: quartiles_ms(c.times) for c in setup.cells}},
        "metrics": metrics,
        "timed_tags": timed_tags,
    }


def library_metrics(setup: Setup, round_rates: list[float]) -> dict:
    timed = [c for c in setup.cells if c.times]
    seconds = {c.name: statistics.median(c.times) for c in timed}
    mflops = {c.name: c.flops / seconds[c.name] / 1e6 for c in timed}
    spmm = [c for c in timed if c.op == "spmm"]
    times = [t for c in timed for t in c.times]
    stats = setup.cache.stats
    lookups = stats["plan_hits"] + stats["plan_misses"]
    flops = sum(c.flops for c in timed)
    nbytes = sum(c.in_bytes + c.out_bytes for c in timed)
    m = {
        "latency_p50_ms": pct(times, 50) * 1e3,
        "latency_p95_ms": pct(times, 95) * 1e3,
        # The median round, so one slow stretch of the host moves it less.
        "throughput_ops": statistics.median(round_rates) if round_rates else 0.0,
        "mflops_geomean": geomean(mflops[c.name] for c in timed if c.op != "spgemm"),
        "kernel.ms_p50": pct([t for c in spmm for t in c.times], 50) * 1e3,
        "kernel.backward.mflops_geomean": geomean(
            mflops[c.name] for c in timed if c.op == "backward"),
        "kernel.flops": flops,
        "kernel.bytes_computed": nbytes,
        "kernel.flops_per_byte": flops / nbytes if nbytes else 0.0,
        "plan.hit_ratio": stats["plan_hits"] / lookups if lookups else 0.0,
        "plan.builds": stats["plan_misses"],
        "plan.build_ms": setup.build_s * 1e3,
        "matrices.load_ms": setup.load_s * 1e3,
    }
    groups: dict[str, list[float]] = {}
    for c in spmm:
        for key in (c.fmt, c.variant, c.matrix):
            groups.setdefault(key, []).append(mflops[c.name])
    for key, values in groups.items():
        m[f"kernel.{key}.mflops_geomean"] = geomean(values)
    serial = {(c.matrix, c.fmt): seconds[c.name] for c in spmm if c.variant == "serial"}
    parallel = {(c.matrix, c.fmt): seconds[c.name] for c in spmm if c.variant == "parallel"}
    m["kernel.parallel_speedup"] = geomean(
        serial[key] / parallel[key] for key in serial.keys() & parallel.keys())
    products = [c for c in timed if c.op == "spgemm"]
    for c in products:
        m[f"kernel.spgemm.{c.matrix}.mflops"] = mflops[c.name]
    if products:
        m["kernel.spgemm.mflops_geomean"] = geomean(mflops[c.name] for c in products)
        m["spgemm.output_nnz"] = sum(c.output_nnz for c in products)
        m["spgemm.compression"] = 2 * m["spgemm.output_nnz"] / sum(c.flops for c in products)
    return m


# -- serve workloads ----------------------------------------------------------


def spawn_server(out_dir: Path, trace: bool) -> tuple[subprocess.Popen, int]:
    """Start the server; a traced run starts it through the span launcher."""
    args = [*SERVER_ARGS, "--out", str(out_dir / "server-trajectory.json")]
    if trace:
        cmd = [sys.executable, str(common.HERE / "serve_launcher.py"),
               str(out_dir / "spans-server.jsonl"), *args]
    else:
        cmd = [sys.executable, "-m", "repro", *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=common.ROOT, env=common.child_env())
    # The server prints "serving on HOST:PORT ..." once it listens.
    banner = proc.stdout.readline()
    if "serving on" not in banner:
        stop_server(proc)
        raise RuntimeError(f"server failed to start: {banner!r}")
    return proc, int(banner.split()[2].rpartition(":")[2])


def stop_server(proc: subprocess.Popen) -> None:
    """Drain the server (SIGTERM) and wait for it to exit.

    A drain normally takes well under a second; one that hangs is killed
    after 30 s so the run still ends.
    """
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        print("server did not drain within 30 s; killed", file=sys.stderr)
        proc.kill()
        proc.communicate()


@dataclasses.dataclass
class Traffic:
    """What one serve workload sends and how each reply is checked."""

    fmt: str
    make: Callable[[int], Any]  # request index -> matrix (suite name or Triplets)
    check: Callable[[int, np.ndarray], bool]


def traffic(name: str, T: Triplets, B: np.ndarray, base: np.ndarray, seed: int,
            count: int) -> Traffic:
    """The requests of a serve workload; ``base`` is the local oracle output."""
    if name == "serve-hot":
        return Traffic("csr", lambda i: SERVE_MATRIX, lambda i, out: np.array_equal(out, base))
    if name == "serve-inline":
        return Traffic("csr", lambda i: T, lambda i, out: np.array_equal(out, base))
    # serve-churn: request i salts one entry, so every matrix is new.  Its
    # expected output is the base output plus that entry's rank-1 update.
    rng = np.random.default_rng(seed)
    entries = rng.integers(T.nnz, size=count)
    deltas = rng.uniform(0.5, 1.5, size=count)
    atol = 1e-9 * float(np.abs(base).max())

    def make(i: int) -> Triplets:
        values = T.values.copy()
        values[entries[i]] += deltas[i]
        return dataclasses.replace(T, values=values)

    def check(i: int, out: np.ndarray) -> bool:
        e = entries[i]
        expected = base.copy()
        expected[T.rows[e]] += deltas[i] * B[T.cols[e]]
        return out.shape == expected.shape and np.allclose(out, expected, rtol=1e-9, atol=atol)

    return Traffic("bcsr", make, check)


@dataclasses.dataclass
class Sample:
    tag: str
    latency_s: float  # client-observed
    reply: dict  # the reply's timing fields, not its output
    ok: bool


def closed_loop(clients, indices, traffic: Traffic, seed: int, rec, prefix: str):
    """One request per index, spread over the clients; each client sends its
    next request only after its reply arrives.  Returns samples, errors and
    the wall-clock seconds of the whole loop."""
    pending = iter(indices)
    lock = threading.Lock()
    samples: list[Sample] = []
    errors: list[str] = []

    def drive(client) -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            matrix = traffic.make(i)
            tag = f"{prefix}{i}"
            start = time.perf_counter()
            try:
                with rec.span("bench.request", tag):
                    reply = client.multiply(
                        matrix, fmt=traffic.fmt, variant="serial", k=SERVE_K,
                        scale=SERVE_SCALE, seed=seed, repeats=1, tag=tag,
                    )
            except ServeError as exc:  # refused or failed: counted, not timed
                errors.append(f"{tag}: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - start
            fields = {k: getattr(reply, k) for k in
                      ("latency_s", "queue_wait_s", "mean_time_s", "plan_provenance")}
            samples.append(Sample(tag, latency, fields, traffic.check(i, reply.output)))

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        for future in [pool.submit(drive, client) for client in clients]:
            future.result()
    return samples, errors, time.perf_counter() - start


def run_serve(name: str, seed: int, seconds: float, rec, setup_only: bool = False,
              trace: bool = False) -> dict:
    out_dir = common.OUT_DIR / name
    out_dir.mkdir(parents=True, exist_ok=True)
    requests = max(MIN_REQUESTS, round(seconds * REQUEST_RATE[name]))
    start = time.perf_counter()
    server, port = spawn_server(out_dir, trace)
    try:
        with rec.span("bench.setup", "setup"):
            load_start = time.perf_counter()
            T = suite.load_matrix(SERVE_MATRIX, scale=SERVE_SCALE)
            load_s = time.perf_counter() - load_start
            # The operand the engine generates for request seed `seed`.
            B = np.random.default_rng(seed + 1).standard_normal((T.ncols, SERVE_K))
            fmt = "bcsr" if name == "serve-churn" else "csr"
            A = get_format(fmt).from_triplets(T)
            base = api.multiply(A, B, variant="serial", k=SERVE_K)
        sent = traffic(name, T, B, base, seed, WARMUP_REQUESTS + requests)
        clients = [api.Client(port=port) for _ in range(CONNECTIONS)]
        try:
            warm, warm_errors, _ = closed_loop(
                clients, range(WARMUP_REQUESTS), sent, seed, rec, "w")
            setup_s = time.perf_counter() - start
            if not setup_only:
                samples, errors, wall = closed_loop(
                    clients, range(WARMUP_REQUESTS, WARMUP_REQUESTS + requests),
                    sent, seed, rec, "t")
                counters = clients[0].stats()["counters"]
        finally:
            for client in clients:
                client.close()
    finally:
        stop_server(server)
    if setup_only:
        return {"workload": name, "setup_s": setup_s}

    errors += warm_errors
    wrong = sum(not s.ok for s in warm + samples)
    metrics = serve_metrics(samples, wall, counters, 2 * T.nnz * SERVE_K, fmt)
    metrics.update({
        "setup_s": setup_s,
        # The server is this process's only child, so this is its peak RSS.
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "kernel.bytes_computed": A.nbytes + B.nbytes + base.nbytes,
        "matrices.load_ms": load_s * 1e3,
    })
    metrics["kernel.flops_per_byte"] = metrics["kernel.flops"] / metrics["kernel.bytes_computed"]
    return {
        "workload": name,
        "counts": {"warmup_requests": WARMUP_REQUESTS, "requests": requests,
                   "connections": CONNECTIONS},
        "attempted": WARMUP_REQUESTS + requests,
        "failed": len(errors) + wrong,
        "wrong": wrong,
        "errors": errors[:10],
        "spread": {"latency_ms_quartiles": quartiles_ms([s.latency_s for s in samples])},
        "metrics": metrics,
        "timed_tags": [s.tag for s in samples],
    }


def _mflops(flops: int, ms: float) -> float:
    return flops / ms / 1e3 if ms else 0.0


def serve_metrics(samples: list[Sample], wall: float, counters: dict, flops: int,
                  fmt: str) -> dict:
    latency = [s.latency_s for s in samples]
    server = [s.reply["latency_s"] for s in samples]
    queue = [s.reply["queue_wait_s"] for s in samples]
    kernel = [s.reply["mean_time_s"] for s in samples]
    m = {
        "latency_p50_ms": pct(latency, 50) * 1e3,
        "latency_p95_ms": pct(latency, 95) * 1e3,
        "throughput_ops": len(samples) / wall if wall else 0.0,
        "kernel.ms_p50": pct(kernel, 50) * 1e3,
        "kernel.flops": flops,
        "server.admit_to_done_ms_p50": pct(server, 50) * 1e3,
        "server.outside_ms_p50": pct([a - b for a, b in zip(latency, server)], 50) * 1e3,
        "engine.queue_wait_ms_p50": pct(queue, 50) * 1e3,
        "engine.queue_wait_ms_p95": pct(queue, 95) * 1e3,
        "plan.hit_ratio": (
            sum(s.reply["plan_provenance"] != "built" for s in samples) / len(samples)
            if samples else 0.0),
        "plan.builds": counters.get("engine_plan_built", 0),
        "plan.build_ms": counters.get("engine_plan_s", 0.0) * 1e3,
        # End to end, the cell's rate at the median latency a client sees.
        "mflops_geomean": _mflops(flops, pct(latency, 50) * 1e3),
    }
    # Per layer, its rate at the median kernel time the server reports.
    for key in (f"kernel.{fmt}.mflops_geomean", "kernel.serial.mflops_geomean",
                f"kernel.{SERVE_MATRIX}.mflops_geomean"):
        m[key] = _mflops(flops, m["kernel.ms_p50"])
    return m


# -- traced runs --------------------------------------------------------------

#: Per-layer metric -> the span it is the median time of.
TRACED_LAYERS = {
    "wire.client_encode_ms_p50": "wire.client_encode",
    "wire.server_decode_ms_p50": "wire.server_decode",
    "wire.server_encode_ms_p50": "wire.server_encode",
    "wire.client_decode_ms_p50": "wire.client_decode",
    "engine.fingerprint_ms_p50": "engine.fingerprint",
    "plan.acquire_ms_p50": "plan.acquire",
    "formats.convert_ms_p50": "formats.convert",
    "backward.transpose_ms_p50": "backward.transpose",
    "backward.kernel_ms_p50": "backward.kernel",
}


def trace_metrics(files: list[list[dict]], timed_tags: list[str]) -> dict:
    requests = spans.per_request(files)
    m = {metric: spans.layer_ms_p50(requests, name) for metric, name in TRACED_LAYERS.items()}
    records = [r for f in files for r in f]
    m["engine.fingerprint_calls"] = sum(r["name"] == "engine.fingerprint" for r in records)
    timed = set(timed_tags)
    for metric, name in (("wire.request_bytes", "wire.client_encode"),
                         ("wire.response_bytes", "wire.client_decode")):
        sizes = [r["bytes"] for r in records
                 if r["name"] == name and "bytes" in r and r["tag"] in timed]
        m[metric] = statistics.median(sizes) if sizes else 0
    m["trace.coverage"] = spans.coverage(requests, timed_tags)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_dir = common.OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = spans.Recorder() if args.trace else spans.NullRecorder()
    if args.trace:
        for stale in out_dir.glob("spans-*.jsonl"):
            stale.unlink()
        spans.install(rec)
    if args.workload in LIBRARY:
        result = run_library(args.workload, args.seed, args.seconds, rec, args.setup_only)
    else:
        result = run_serve(args.workload, args.seed, args.seconds, rec, args.setup_only,
                           trace=args.trace)
    if args.trace:
        rec.write(out_dir / "spans-client.jsonl")
        files = [rec.spans]
        if args.workload not in LIBRARY:
            files.append(spans.load(out_dir / "spans-server.jsonl"))
        result["metrics"].update(trace_metrics(files, result["timed_tags"]))
    result.pop("timed_tags", None)
    result["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
