"""The multi-process execution backend: SpMM tasks on worker subprocesses.

The thread backend overlaps NumPy kernels (they release the GIL) but
serializes everything else — conversion, plan building, dispatch — on one
interpreter.  :class:`ProcessBackend` removes the interpreter from the hot
path entirely: a fixed fleet of long-lived ``multiprocessing`` workers,
each a full interpreter of its own, fed over a pipe-based message protocol
(modelled on PyTorch's inductor compile-worker pool):

* ``("task", id, spec)`` → worker, ``("result", id, payload)`` /
  ``("error", id, type, msg, traceback)`` → parent, ``("shutdown",)`` to
  quiesce — every message is a small picklable tuple;
* **arrays never ride the pipe**: operands cross as
  ``multiprocessing.shared_memory`` descriptors
  (:mod:`repro.engine.backends.shm`), with the dense ``B`` mapped zero-copy
  in the worker and the output ``C`` written into a parent-owned,
  parent-pre-sized segment;
* **plans are never serialized**: each worker owns a private
  :class:`~repro.kernels.plan.PlanCache` pointed at the same on-disk tier
  as the parent, so the first worker to convert a matrix persists the
  artifact and the rest re-open it from disk — rebuild-or-mmap, not pickle;
* the parent side keeps the engine's scheduling contract — futures,
  bounded in-flight window, queued-work cancellation — by running one
  :class:`~repro.engine.scheduler.WorkerPool` thread per subprocess and
  checking pipe channels out of an idle pool per task;
* a worker that dies mid-task fails only that task
  (:class:`~repro.errors.RemoteWorkerError`) and is respawned before the
  channel returns to the pool; ``shutdown`` drains queued work, sends
  every worker a shutdown message, and joins (terminate as last resort).

Workers are created before any parent worker thread starts, and the
``fork`` start method is safe here because the shared kernel thread pools
re-arm themselves after fork (see ``repro.kernels.planner``).
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable

import multiprocessing as mp

from ...errors import EngineError, RemoteWorkerError
from ..scheduler import WorkerPool
from .base import Backend
from .shm import read_copy, with_view, write_into

__all__ = ["ProcessBackend", "default_start_method"]

#: Worker-side triplets memo size (matrices reconstructed from shm).
_WORKER_MATRIX_MEMO = 16

#: Seconds to wait for a worker to exit after the shutdown message.
_JOIN_TIMEOUT = 10.0


def default_start_method() -> str:
    """``fork`` where available (fast spawn, Linux), else the platform default.

    Overridable via ``SPMM_PROCESS_START_METHOD`` for debugging spawn
    semantics on a fork platform.
    """
    env = os.environ.get("SPMM_PROCESS_START_METHOD")
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else mp.get_start_method()


# -- worker side (runs in the subprocess) -------------------------------------


class _WorkerState:
    """Per-worker caches: reconstructed matrices and a private plan cache."""

    def __init__(self, cache_dir: str | None, plan_memo: int):
        from ...kernels.plan import PlanCache

        self.plan_cache = PlanCache(maxsize=plan_memo, directory=cache_dir)
        self._matrices: OrderedDict[str, Any] = OrderedDict()

    def triplets_for(self, spec: dict):
        """Triplets for a task's matrix, copied out of shm once per worker."""
        from ...matrices.coo_builder import Triplets

        fingerprint = spec["fingerprint"]
        hit = self._matrices.get(fingerprint)
        if hit is not None:
            self._matrices.move_to_end(fingerprint)
            return hit
        desc = spec["matrix"]
        # Copy rather than view: format constructors may retain the input
        # arrays, and a plan must not dangle into a parent-owned segment.
        triplets = Triplets(
            nrows=desc["nrows"],
            ncols=desc["ncols"],
            rows=read_copy(desc["rows"]),
            cols=read_copy(desc["cols"]),
            values=read_copy(desc["values"]),
        )
        self._matrices[fingerprint] = triplets
        while len(self._matrices) > _WORKER_MATRIX_MEMO:
            self._matrices.popitem(last=False)
        return triplets

    def run(self, spec: dict) -> dict:
        from ...bench.observe import Tracer
        from ...bench.timing import measure
        from ...verify.reference import verify_result

        tracer = Tracer()
        triplets = self.triplets_for(spec)
        if spec.get("migrated"):
            # The parent resolved a migration redirect before building the
            # spec; this worker serves the target cell, rebuilding its plan
            # from the shared disk tier the probe populated.
            tracer.count("migration_worker_served")
        t_plan = time.perf_counter()
        plan, provenance = self.plan_cache.get_or_build_plan(
            triplets,
            spec["fmt"],
            variant=spec["variant"],
            k=spec["k"],
            threads=spec["threads"],
            policy=spec["policy"],
            format_params=spec.get("fmt_params"),
            tracer=tracer,
        )
        plan_time = time.perf_counter() - t_plan

        def _execute(B):
            # B is a zero-copy view over the parent's segment; it lives only
            # in this frame, which exits before with_view closes the mapping.
            t_exec = time.perf_counter()
            output, timing = measure(lambda: plan(B), n_runs=spec["repeats"], warmup=0)
            execute_s = time.perf_counter() - t_exec
            verified = None
            if spec["verify"]:
                verified = verify_result(triplets, B, output, k=spec["k"])
            return output, timing, execute_s, verified

        output, timing, execute_s, verified = with_view(spec["B"], _execute)
        write_into(spec["C"], output)
        return {
            "times": timing.times if timing is not None else None,
            "plan_time_s": plan_time,
            "execute_s": execute_s,
            "provenance": provenance,
            "verified": verified,
            "counters": dict(tracer.counters),
            "warnings": dict(tracer.warnings),
            "pid": os.getpid(),
        }


def _worker_main(conn, cache_dir: str | None, plan_memo: int) -> None:
    """The subprocess loop: recv task specs, send result/error payloads."""
    state = _WorkerState(cache_dir, plan_memo)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = msg[0]
        if kind == "shutdown":
            break
        if kind == "ping":
            conn.send(("pong", os.getpid()))
            continue
        if kind != "task":  # pragma: no cover - protocol violation
            conn.send(("error", None, "ProtocolError", f"unknown message {kind!r}", ""))
            continue
        task_id, spec = msg[1], msg[2]
        try:
            payload = state.run(spec)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            conn.send(
                ("error", task_id, type(exc).__name__, str(exc), traceback.format_exc())
            )
        else:
            conn.send(("result", task_id, payload))
    conn.close()


# -- parent side --------------------------------------------------------------


class _WorkerChannel:
    """Parent handle on one worker: its process, pipe, and health."""

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.broken = False
        self._task_ids = itertools.count()

    def run(self, spec: dict) -> dict:
        task_id = next(self._task_ids)
        try:
            self.conn.send(("task", task_id, spec))
            while True:
                msg = self.conn.recv()
                kind = msg[0]
                if kind == "result" and msg[1] == task_id:
                    return msg[2]
                if kind == "error":
                    _kind, _tid, remote_type, remote_msg, remote_tb = msg
                    raise RemoteWorkerError(
                        f"worker {self.index} failed: {remote_type}: {remote_msg}",
                        remote_type=remote_type,
                        remote_traceback=remote_tb,
                    )
                # Stale replies (e.g. a pong) are dropped; task ids are
                # strictly sequential per channel, so a mismatch is stale.
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.broken = True
            raise RemoteWorkerError(
                f"worker {self.index} (pid {self.process.pid}) died mid-task"
            ) from exc

    def close(self, *, join_timeout: float = _JOIN_TIMEOUT) -> None:
        try:
            self.conn.send(("shutdown",))
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ProcessBackend(Backend):
    """Long-lived subprocess workers fed over pipes (see module docstring).

    Parameters
    ----------
    workers:
        Subprocess count (one pipe channel and one parent feeder thread
        each).
    max_in_flight:
        Backpressure window shared with the engine's submit contract.
    cache_dir:
        On-disk :class:`~repro.kernels.plan.PlanCache` tier workers share
        conversion artifacts through; ``None`` keeps caches worker-private.
    tracer:
        Engine tracer receiving ``engine_backend_*`` lifecycle counters.
    start_method:
        ``multiprocessing`` start method (default: :func:`default_start_method`).
    plan_memo:
        Per-worker in-memory plan cache capacity.
    """

    name = "process"
    remote = True

    def __init__(
        self,
        workers: int = 4,
        max_in_flight: int = 64,
        *,
        cache_dir: str | None = None,
        tracer=None,
        start_method: str | None = None,
        plan_memo: int = 32,
        **_opts: Any,
    ):
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.max_in_flight = max_in_flight
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.tracer = tracer
        self.plan_memo = plan_memo
        self.start_method = start_method or default_start_method()
        self._ctx = mp.get_context(self.start_method)
        self._lock = threading.Lock()
        self._closed = False
        self._shutdown_started = False
        self._spawned = 0
        # Spawn the subprocesses *before* any parent worker thread exists:
        # fork must not capture a half-running thread pool.
        self._channels: "queue.SimpleQueue[_WorkerChannel]" = queue.SimpleQueue()
        for _ in range(workers):
            self._channels.put(self._spawn())
        self._pool = WorkerPool(workers, max_in_flight, name="engine-proc")

    # -- subprocess lifecycle -------------------------------------------------

    def _spawn(self) -> _WorkerChannel:
        with self._lock:
            index = self._spawned
            self._spawned += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.cache_dir, self.plan_memo),
            name=f"spmm-engine-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if self.tracer is not None:
            self.tracer.count("engine_backend_workers_spawned")
        return _WorkerChannel(index, process, parent_conn)

    # -- Backend contract -----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        block: bool = True,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> Future:
        return self._pool.submit(fn, *args, block=block, timeout=timeout, **kwargs)

    def in_flight(self) -> int:
        return self._pool.in_flight()

    def cancel_pending(self) -> int:
        return self._pool.cancel_pending()

    def run_task(self, spec: dict) -> dict:
        """Ship one task spec to an idle worker and wait for its payload.

        Runs on a parent feeder thread (one per worker, so checkout never
        starves).  A dead worker raises :class:`RemoteWorkerError` for this
        task only; the channel is replaced before going back in the pool.
        """
        channel = self._channels.get()
        try:
            return channel.run(spec)
        finally:
            if channel.broken and not self._closed:
                channel.close(join_timeout=0.5)
                channel = self._spawn()
                if self.tracer is not None:
                    self.tracer.count("engine_backend_worker_respawns")
            if self._closed:
                channel.close()
            else:
                self._channels.put(channel)

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        # Claim the shutdown under the lock *before* draining: checking
        # ``_closed`` alone let a second concurrent caller slip past (it is
        # set only after the pool drains) and start closing idle channels
        # while the first caller's feeder threads were still mid-task.
        # ``_closed`` itself cannot be set this early — ``run_task``'s
        # cleanup path closes channels instead of pooling them once it is
        # true, which would deadlock the drain.
        with self._lock:
            already = self._shutdown_started
            self._shutdown_started = True
        if already:
            # Late caller: just wait for the first caller's drain (the pool's
            # own shutdown is idempotent and join-only on repeat calls).
            self._pool.shutdown(wait=wait, cancel_pending=False)
            return
        # Drain the parent pool first: feeder threads finish (or cancel)
        # their tasks, returning every channel to the idle pool.
        self._pool.shutdown(wait=wait, cancel_pending=cancel_pending)
        with self._lock:
            self._closed = True
        while True:
            try:
                channel = self._channels.get_nowait()
            except queue.Empty:
                break
            channel.close()
