"""Adaptive online format migration for the serving engine.

The paper characterizes per-format SpMM winners offline; a serving
workload decides *reuse counts* at runtime.  Following the amortization
model of Katagiri et al.'s auto-tuning work (PAPERS.md), a matrix is
served in its **arrival format** on first sight, and the engine only pays
a conversion once the traffic has proven it back:

* every completed request feeds its per-call kernel seconds into the
  :class:`~repro.tune.store.TuneStore` observation table (per-fingerprint
  hit counts + observed kernel time);
* once a plan group has accumulated ``min_hits`` requests *and* more
  kernel time than one measured conversion costs, the group is queued for
  a background probe (``migration_candidates``);
* the probe — on a daemon worker thread, never a serving thread — times
  the current plan and a small candidate set (the tune store's recorded
  winner, same-format variant rewrites, and ``candidate_formats``),
  measuring each candidate's conversion cost through the shared
  :class:`~repro.kernels.plan.PlanCache` (``format_time_s`` is the stage
  timer the decision uses);
* the Katagiri rule decides: migrate only when
  ``hits * (t_current - t_candidate) > conversion_cost * margin`` — the
  observed reuse is the projection of future reuse;
* a **bit-identity gate** guards the swap: the candidate's output on a
  deterministic probe operand must equal the current plan's output
  byte-for-byte.  Every format and every variant but ``grouped*`` sums
  each row left to right in stored order
  (:func:`~repro.verify.reference.exact_reference`), so for a finite
  operand one probe proves the swap, across formats too.

Two cases stay outside that contract, so they never migrate.  The
``grouped*`` variants sum in the order BLAS picks, which can match the
left-to-right sum on one operand and not on the next, so they are neither
a source nor a target.  Padding and BCSR fill compute ``0 * inf = NaN``,
so a request whose B has a non-finite entry ignores a redirect and runs
its arrival cell (the engine checks B only for redirected groups).

A successful probe installs a versioned redirect in the plan cache
(:meth:`~repro.kernels.plan.PlanCache.install_migration`): in-flight
requests that already resolved keep executing their old plan — the swap
never blocks them — and every later request of the group resolves to the
migrated cell (``migration_served``).  Redirects persist through the
cache's on-disk tier (``migrations.json``), so process-backend workers and
restarted servers inherit them.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..dtypes import DEFAULT_POLICY, DTypePolicy
from ..kernels.common import DEFAULT_CHUNK_ELEMENTS
from ..kernels.dispatch import sums_left_to_right
from ..kernels.plan import MigrationTarget, PlanCache, plan_supported
from ..matrices.coo_builder import Triplets
from ..tune.store import TuneDecision, TuneStore, get_active_store

__all__ = ["MigrationPolicy", "MigrationManager", "migratable"]

#: Sentinel pushed to wake the worker thread up for shutdown.
_STOP = object()


def migratable(variant: str) -> bool:
    """Whether a plan group of ``variant`` can be a migration source or target."""
    return plan_supported(variant) and sums_left_to_right(variant)


def _freeze_params(fmt_params) -> tuple:
    """Normalize format parameters to sorted ``(name, value)`` pairs."""
    return tuple(sorted((str(n), v) for n, v in dict(fmt_params or {}).items()))


@dataclass(frozen=True)
class MigrationPolicy:
    """Knobs of the online-migration decision rule.

    ``enabled=False`` turns the whole subsystem off (requests never pay a
    resolve or an observation).  The serving front-end enables migration
    by default; a bare :class:`~repro.engine.Engine` keeps it off unless
    asked (constructor argument or ``SPMM_MIGRATION=1``).
    """

    enabled: bool = True
    #: Requests a plan group must accumulate before it can become a
    #: migration candidate — one-shot (cold) fingerprints never qualify.
    min_hits: int = 3
    #: Safety factor on the amortization rule: projected savings must
    #: exceed ``conversion_cost * margin``.
    margin: float = 1.0
    #: Timing samples per plan during a probe (minimum is taken).
    probe_repeats: int = 3
    #: Same-format variant rewrites probed besides the tune store's
    #: recorded winner.
    candidate_variants: tuple[str, ...] = (
        "optimized",
        "optimized_parallel",
        "parallel",
        "serial",
    )
    #: Other formats probed, each with every candidate variant and its
    #: default format parameters.
    candidate_formats: tuple[str, ...] = ()
    #: Thread count tried for parallel candidate variants.
    candidate_threads: int = 2
    #: Cap on tracked plan groups (LRU) — a cold stream of one-shot
    #: fingerprints must not pin every matrix in memory.
    max_tracked: int = 256

    @classmethod
    def coerce(cls, value: "MigrationPolicy | bool | None") -> "MigrationPolicy":
        """Normalize a constructor knob: policy, bool, or env default."""
        if isinstance(value, MigrationPolicy):
            return value
        if value is None:
            env = os.environ.get("SPMM_MIGRATION", "")
            return cls(enabled=env.strip().lower() in ("1", "true", "on", "yes"))
        return cls(enabled=bool(value))


@dataclass
class _GroupState:
    """Bookkeeping for one plan group (the migration unit)."""

    triplets: Triplets
    #: The group's format parameters as sorted ``(name, value)`` pairs —
    #: the probe rebuilds the current plan from them, so two (C, sigma)
    #: settings of one matrix are two independent groups.
    fmt_params: tuple = ()
    hits: int = 0
    total_s: float = 0.0
    conversion_s: float = 0.0
    status: str = "watching"  # watching -> queued -> migrated|rejected|failed


@dataclass(frozen=True)
class _Candidate:
    format_name: str
    variant: str
    threads: int
    format_params: tuple
    per_call_s: float
    conversion_s: float


@dataclass
class MigrationOutcome:
    """What one probe decided (returned by :meth:`MigrationManager.migrate_now`)."""

    target: MigrationTarget | None
    reason: str
    current_s: float = 0.0
    best_s: float = 0.0
    projected_savings_s: float = 0.0
    conversion_s: float = 0.0


class MigrationManager:
    """Background migration worker shared by one engine.

    Thread-safe: serving threads call :meth:`resolve` and :meth:`observe`;
    probes run on a single daemon thread (started lazily on the first
    candidate) so conversion and candidate timing never block a request.
    """

    def __init__(
        self,
        *,
        plan_cache: PlanCache,
        tracer,
        policy: MigrationPolicy,
        tune_store: TuneStore | None = None,
        dtype_policy: DTypePolicy = DEFAULT_POLICY,
    ):
        self.policy = policy
        self.plan_cache = plan_cache
        self.tracer = tracer
        self._tune_store = tune_store
        self.dtype_policy = dtype_policy
        self._states: OrderedDict[tuple, _GroupState] = OrderedDict()
        self._lock = threading.Lock()
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the background worker; pending probes are abandoned."""
        with self._lock:
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._queue.put(_STOP)
            thread.join(timeout)

    def _ensure_thread(self) -> None:
        with self._lock:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._worker_loop, name="spmm-migration", daemon=True
            )
            self._thread.start()

    # -- store plumbing -------------------------------------------------------

    @property
    def store(self) -> TuneStore:
        return self._tune_store if self._tune_store is not None else get_active_store()

    # -- request-side hooks (serving threads) ---------------------------------

    def resolve(
        self,
        fingerprint: str,
        fmt: str,
        variant: str,
        k: int,
        threads: int,
        fmt_params=None,
    ) -> MigrationTarget | None:
        """The redirect for a plan group, if one was installed."""
        key = PlanCache.migration_key(
            fingerprint, fmt, variant, k, threads, self.dtype_policy.name,
            format_params=fmt_params,
        )
        return self.plan_cache.resolve_migration(key)

    def observe(
        self,
        triplets: Triplets,
        fmt: str,
        variant: str,
        k: int,
        threads: int,
        seconds: float,
        conversion_s: float = 0.0,
        fmt_params=None,
    ) -> None:
        """Feed one completed request's per-call kernel seconds.

        Updates the tune store's observation table, then applies the
        enqueue half of the amortization rule: a group goes to the probe
        queue once it has ``min_hits`` requests and has spent more kernel
        time than one conversion costs.
        """
        self.store.observe(triplets.fingerprint, k, seconds)
        key = PlanCache.migration_key(
            triplets.fingerprint, fmt, variant, k, threads, self.dtype_policy.name,
            format_params=fmt_params,
        )
        with self._lock:
            if self._closed:
                return
            state = self._states.get(key)
            if state is None:
                state = _GroupState(
                    triplets=triplets, fmt_params=_freeze_params(fmt_params)
                )
                self._states[key] = state
                self.tracer.count("migration_tracked")
                while len(self._states) > self.policy.max_tracked:
                    self._states.popitem(last=False)
            else:
                self._states.move_to_end(key)
            if state.status != "watching":
                return
            state.hits += 1
            state.total_s += max(seconds, 0.0)
            if conversion_s > state.conversion_s:
                state.conversion_s = conversion_s
            if state.hits < self.policy.min_hits:
                return
            # Amortization pre-gate: the group must already have burned at
            # least one conversion's worth of kernel time before a probe
            # (which pays candidate conversions) is worth scheduling.
            cost = state.conversion_s if state.conversion_s > 0.0 else state.total_s / state.hits
            if state.total_s <= cost * self.policy.margin:
                return
            state.status = "queued"
        self.tracer.count("migration_candidates")
        self._ensure_thread()
        self._queue.put(key)

    # -- background worker ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            key = self._queue.get()
            if key is _STOP:
                return
            try:
                self._probe_and_swap(key, force=False)
            except Exception:
                self.tracer.count("migration_failed")
                with self._lock:
                    state = self._states.get(key)
                    if state is not None:
                        state.status = "failed"

    def migrate_now(
        self,
        triplets: Triplets,
        fmt: str,
        variant: str,
        k: int,
        threads: int,
        force: bool = False,
        fmt_params=None,
    ) -> MigrationOutcome:
        """Probe synchronously on the calling thread (tests, the oracle).

        ``force=True`` skips the amortization rule — the fastest
        bit-identical candidate is installed even if the projected savings
        do not cover the conversion — but never the bit-identity gate.
        """
        key = PlanCache.migration_key(
            triplets.fingerprint, fmt, variant, k, threads, self.dtype_policy.name,
            format_params=fmt_params,
        )
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = _GroupState(
                    triplets=triplets, fmt_params=_freeze_params(fmt_params)
                )
                self._states[key] = state
            if state.status == "queued":
                state.status = "watching"  # claim it from the background queue
        return self._probe_and_swap(key, force=force)

    def _probe_and_swap(self, key: tuple, force: bool) -> MigrationOutcome:
        _fingerprint, fmt, variant, k, threads, _policy_name, _params_tok = key
        with self._lock:
            state = self._states.get(key)
        if state is None or self.plan_cache.resolve_migration(key) is not None:
            return MigrationOutcome(target=None, reason="already-migrated")
        self.tracer.count("migration_probes")
        triplets = state.triplets
        fmt_params = dict(state.fmt_params)
        B = self._probe_operand(triplets, k)

        current, _ = self.plan_cache.get_or_build_plan(
            triplets, fmt, variant=variant, k=k, threads=threads,
            policy=self.dtype_policy, format_params=fmt_params,
        )
        reference = current(B)
        current_s = self._time_plan(current, B)

        best: _Candidate | None = None
        for cand_fmt, cand_variant, cand_threads, cand_params in self._candidates(
            key, state.fmt_params
        ):
            try:
                plan, provenance = self.plan_cache.get_or_build_plan(
                    triplets, cand_fmt, variant=cand_variant, k=k,
                    threads=cand_threads, policy=self.dtype_policy,
                    format_params=dict(cand_params),
                )
            except Exception:
                self.tracer.count("migration_failed")
                continue
            conversion_s = plan.format_time_s if provenance == "built" else 0.0
            if conversion_s:
                self.tracer.count("migration_conversion_s", conversion_s)
            output = plan(B)
            if not self._acceptable(reference, output):
                self.tracer.count("migration_rejected_bits")
                continue
            cand_s = self._time_plan(plan, B)
            if best is None or cand_s < best.per_call_s:
                best = _Candidate(
                    cand_fmt, cand_variant, cand_threads, cand_params,
                    cand_s, conversion_s,
                )

        if best is None:
            return self._reject(key, state, "no-bit-identical-candidate")
        savings = state.hits * (current_s - best.per_call_s)
        if not force:
            if best.per_call_s >= current_s:
                return self._reject(key, state, "no-faster-candidate")
            if savings <= best.conversion_s * self.policy.margin:
                return self._reject(key, state, "conversion-not-amortized")

        target = self.plan_cache.install_migration(
            key,
            format_name=best.format_name,
            variant=best.variant,
            threads=best.threads,
            format_params=dict(best.format_params),
        )
        self._record_decision(k, best, triplets)
        with self._lock:
            state.status = "migrated"
        self.tracer.count("migration_completed")
        if savings > 0:
            self.tracer.count("migration_projected_savings_s", savings)
        return MigrationOutcome(
            target=target,
            reason="migrated",
            current_s=current_s,
            best_s=best.per_call_s,
            projected_savings_s=max(savings, 0.0),
            conversion_s=best.conversion_s,
        )

    def _reject(self, key: tuple, state: _GroupState, reason: str) -> MigrationOutcome:
        with self._lock:
            state.status = "rejected"
        self.tracer.count("migration_rejected")
        return MigrationOutcome(target=None, reason=reason)

    # -- probe helpers --------------------------------------------------------

    def _candidates(
        self, key: tuple, fmt_params: tuple = ()
    ) -> list[tuple[str, str, int, tuple]]:
        fingerprint, fmt, variant, k, threads, _policy_name, _params_tok = key
        seen = {(fmt, variant, threads, fmt_params)}
        out: list[tuple[str, str, int, tuple]] = []

        def push(cell: tuple[str, str, int, tuple]) -> None:
            if cell not in seen and migratable(cell[1]):
                seen.add(cell)
                out.append(cell)

        # A tuned winner may name another format or other format
        # parameters (a tuned SELL (chunk, sigma) cell); the probe's
        # bit-identity gate decides whether it swaps in.
        decision = self.store.lookup(fingerprint, k)
        if decision is not None:
            push((decision.format_name.lower(), decision.variant,
                  max(decision.threads, 1), decision.format_params))
        cores = os.cpu_count() or 1
        parallel_threads = max(1, min(self.policy.candidate_threads, cores))
        cells = [(fmt, fmt_params)] + [(f.lower(), ()) for f in self.policy.candidate_formats]
        for cand_fmt, params in cells:
            for cand_variant in self.policy.candidate_variants:
                t = parallel_threads if "parallel" in cand_variant else 1
                push((cand_fmt, cand_variant, t, params))
        return out

    def _probe_operand(self, triplets: Triplets, k: int) -> np.ndarray:
        rng = np.random.default_rng(k)
        return self.dtype_policy.value_array(
            rng.standard_normal((triplets.ncols, k))
        )

    def _time_plan(self, plan, B: np.ndarray) -> float:
        best = float("inf")
        for _ in range(max(self.policy.probe_repeats, 1)):
            t0 = time.perf_counter()
            plan(B)
            best = min(best, time.perf_counter() - t0)
        return best

    def _acceptable(self, reference: np.ndarray, output: np.ndarray) -> bool:
        same_layout = (reference.shape, reference.dtype) == (output.shape, output.dtype)
        return same_layout and reference.tobytes() == output.tobytes()

    def _record_decision(
        self, k: int, best: _Candidate, triplets: Triplets
    ) -> None:
        """Publish the winner to the tune store (bumps the store version).

        Engines re-validate their memoized ``variant="auto"`` resolution
        against the store version, so a migration invalidates stale memos
        instead of letting them pin the pre-migration plan.
        """
        flops = 2 * triplets.nnz * k
        mflops = flops / best.per_call_s / 1e6 if best.per_call_s > 0 else 0.0
        store = self.store
        try:
            store.record(
                TuneDecision(
                    fingerprint=triplets.fingerprint,
                    matrix=getattr(triplets, "_suite_name", "matrix"),
                    format_name=best.format_name,
                    variant=best.variant,
                    threads=best.threads,
                    chunk_elements=DEFAULT_CHUNK_ELEMENTS,
                    k=k,
                    score_mflops=mflops,
                    mode="online",
                    format_params=best.format_params,
                ),
                persist=store.path is not None,
            )
        except Exception:  # pragma: no cover - store write must not kill a probe
            self.tracer.count("migration_failed")

    # -- introspection --------------------------------------------------------

    def status(
        self,
        fingerprint: str,
        fmt: str,
        variant: str,
        k: int,
        threads: int,
        fmt_params=None,
    ) -> str:
        key = PlanCache.migration_key(
            fingerprint, fmt, variant, k, threads, self.dtype_policy.name,
            format_params=fmt_params,
        )
        with self._lock:
            state = self._states.get(key)
        return state.status if state is not None else "untracked"
