"""Execution plans: hoist everything call-invariant behind a memo.

The paper shows the best (format, kernel, thread count) choice is
input-dependent (Studies 1, 3.1, 5, 9), and its Study 9 "template
instantiation" trick is exactly call-invariant work hoisted out of the hot
loop.  This module generalizes that idea to the whole pipeline: an
:class:`ExecutionPlan` bundles the format-conversion artifact, the chunk
schedule / thread partition, and a specialized kernel closure for one
``(matrix, format, variant, k, threads)`` cell, so repeated calls — the
benchmark-loop scenario, and any serving loop that multiplies the same
operator against fresh dense panels — skip conversion and per-call planning
entirely.

:class:`PlanCache` memoizes plans behind the input matrix's content
fingerprint (:attr:`~repro.matrices.Triplets.fingerprint`, hashed once per
triplets object).  Two tiers:

* an in-memory LRU of full plans (closures included), keyed by
  :class:`PlanKey`;
* an optional on-disk tier under a cache directory (conventionally
  ``.repro_cache/``) holding only the *conversion artifact* — the formatted
  matrix, the expensive part — keyed by fingerprint + format + params and
  invalidated by :data:`PLAN_CACHE_VERSION`.  Closures are rebuilt on load
  (cheap relative to conversion).

Cache traffic is observable: every lookup records ``plan_cache_hit`` /
``plan_cache_miss`` / ``plan_cache_disk_hit`` counters on a tracer, so
``BENCH_<study>.json`` trajectories show the win.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..dtypes import DEFAULT_POLICY, DTypePolicy
from ..errors import BenchConfigError
from ..formats.base import SparseFormat
from ..formats.registry import get_format
from ..matrices.coo_builder import Triplets
from .common import DEFAULT_CHUNK_ELEMENTS
from .dispatch import compile_variant

__all__ = [
    "PLAN_CACHE_VERSION",
    "PLANNABLE_VARIANTS",
    "matrix_fingerprint",
    "fingerprint_triplets",
    "params_token",
    "PlanKey",
    "ExecutionPlan",
    "PlanCache",
    "MigrationTarget",
    "plan_supported",
]

#: Bump when plan/conversion semantics change: stale on-disk artifacts from
#: older code are then ignored instead of replayed.
PLAN_CACHE_VERSION = 2

#: Variants a plan can specialize.  GPU variants are excluded — their
#: launch-check side effects (offload fault injection) must stay per-call.
PLANNABLE_VARIANTS = (
    "serial",
    "parallel",
    "optimized",
    "optimized_parallel",
    "serial_transpose",
    "parallel_transpose",
    "grouped",
    "grouped_parallel",
)


def plan_supported(variant: str, operation: str = "spmm") -> bool:
    """Whether an execution plan can serve this variant/operation."""
    return operation == "spmm" and variant in PLANNABLE_VARIANTS


# -- fingerprints -------------------------------------------------------------


def fingerprint_triplets(triplets: Triplets) -> str:
    """Content fingerprint of a COO-like input: :attr:`Triplets.fingerprint`.

    Hashed once per :class:`Triplets` object; later calls read the digest.
    """
    return triplets.fingerprint


def matrix_fingerprint(matrix: Triplets | SparseFormat) -> str:
    """Canonical fingerprint of a matrix, format-independent.

    A :class:`SparseFormat` fingerprints as its canonical triplets, so the
    same logical matrix has one digest in every format (the tuned-table
    lookup relies on this).
    """
    return matrix.fingerprint


def _params_token(format_params) -> tuple:
    """Canonical hashable token for a format-parameter assignment.

    Accepts a mapping, an already-tokenized pair tuple (e.g. a
    :class:`~repro.engine.request.SpmmRequest`'s normalized ``fmt_params``),
    or ``None``/empty; the token sorts and stringifies so equal assignments
    — however spelled — produce equal keys everywhere they are used
    (plan memo, disk tier, migration redirects, engine grouping).
    """
    if not format_params:
        return ()
    if not isinstance(format_params, dict):
        format_params = dict(format_params)
    return tuple(sorted((str(k), repr(v)) for k, v in format_params.items()))


#: Public name for the canonical params token (the engine and migration
#: manager key plan groups with it).
params_token = _params_token


# -- keys and plans -----------------------------------------------------------


@dataclass(frozen=True)
class PlanKey:
    """Identity of one execution plan (the ISSUE's memo key)."""

    fingerprint: str
    format_name: str
    variant: str
    k: int
    threads: int
    schedule: str = "static"
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
    policy_name: str = DEFAULT_POLICY.name
    format_params: tuple = ()

    @property
    def conversion_key(self) -> tuple:
        """Subset identifying the conversion artifact (variant-independent)."""
        return (self.fingerprint, self.format_name, self.policy_name, self.format_params)

    @property
    def token(self) -> str:
        """Filesystem-safe digest of the conversion key."""
        raw = repr((PLAN_CACHE_VERSION,) + self.conversion_key).encode()
        return hashlib.sha256(raw).hexdigest()[:24]


@dataclass(frozen=True)
class MigrationTarget:
    """Where a migrated plan group now executes (see :mod:`repro.engine.migration`).

    ``version`` increases monotonically per cache: a request that resolved
    an older redirect (or none) keeps its plan — swaps never invalidate
    in-flight work, they only steer later resolutions.
    """

    format_name: str
    variant: str
    threads: int
    version: int
    #: Sorted ``(name, value)`` parameter pairs of the target cell
    #: (``()`` = format defaults); tuned SELL-C-sigma targets carry their
    #: (chunk, sigma) here so redirected requests rebuild the exact tuned
    #: conversion.  Raw values, not the repr token — ``dict(format_params)``
    #: feeds ``from_triplets`` directly.
    format_params: tuple = ()


@dataclass
class ExecutionPlan:
    """Everything call-invariant for one cell, ready to execute.

    ``kernel`` takes the dense operand (plus an optional tracer for
    per-worker accounting) and returns C; conversion, chunk scheduling, and
    closure specialization all happened at build time.
    """

    key: PlanKey
    matrix: SparseFormat
    kernel: Callable[..., np.ndarray]
    format_time_s: float
    meta: dict = field(default_factory=dict)

    def __call__(self, B: np.ndarray, tracer=None) -> np.ndarray:
        return self.kernel(B, tracer=tracer)


def _specialize_variant(
    A: SparseFormat,
    variant: str,
    k: int,
    threads: int,
    schedule: str,
    chunk_elements: int,
) -> Callable[..., np.ndarray]:
    """Compile the variant's plan over a formatted matrix."""
    return compile_variant(
        A, variant, k, threads=threads, schedule=schedule, chunk_elements=chunk_elements
    )


# -- the cache ----------------------------------------------------------------


class PlanCache:
    """Two-tier memo of execution plans.

    Parameters
    ----------
    maxsize:
        In-memory LRU capacity, counted in plans (the conversion-artifact
        memo shares the budget).
    directory:
        Optional on-disk tier for conversion artifacts.  Created on first
        write; stale (version-mismatched) and corrupt entries are ignored
        and overwritten.
    """

    def __init__(self, maxsize: int = 128, directory: str | Path | None = None):
        if maxsize < 1:
            raise BenchConfigError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.directory = Path(directory) if directory is not None else None
        self._plans: OrderedDict[PlanKey, ExecutionPlan] = OrderedDict()
        self._formats: OrderedDict[tuple, tuple[SparseFormat, float]] = OrderedDict()
        self._lock = threading.Lock()
        #: Versioned plan-group redirects installed by online migration
        #: (:mod:`repro.engine.migration`): source key -> MigrationTarget.
        self._migrations: dict[tuple, MigrationTarget] = {}
        self._migration_version = 0
        self._migrations_mtime: int | None = None
        self.stats: dict[str, int] = {
            "plan_hits": 0,
            "plan_misses": 0,
            "format_hits": 0,
            "format_misses": 0,
            "disk_hits": 0,
            "disk_writes": 0,
            "evictions": 0,
            "migrations": 0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._formats.clear()

    # -- lookup ---------------------------------------------------------------

    def get_or_build_plan(
        self,
        triplets: Triplets,
        format_name: str,
        *,
        variant: str,
        k: int,
        threads: int = 1,
        schedule: str = "static",
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        policy: DTypePolicy = DEFAULT_POLICY,
        format_params: dict | None = None,
        tracer=None,
        builder: Callable[[], tuple[SparseFormat, float]] | None = None,
    ) -> tuple[ExecutionPlan, str]:
        """Return ``(plan, provenance)`` for one cell.

        ``provenance`` is ``"memory"`` (full plan memo hit), ``"disk"``
        (conversion artifact loaded from the disk tier, closure rebuilt) or
        ``"built"`` (cold path: conversion ran).  ``builder`` overrides how
        the conversion artifact is produced — the benchmark suite passes its
        own ``format()`` step so format-specific knobs apply; it must return
        ``(matrix, conversion_seconds)``.  The plan is keyed by
        :attr:`Triplets.fingerprint`, hashed once per triplets object.
        """
        if not plan_supported(variant):
            raise BenchConfigError(f"variant {variant!r} is not plannable")
        key = PlanKey(
            fingerprint=triplets.fingerprint,
            format_name=format_name.lower(),
            variant=variant,
            k=int(k),
            threads=int(threads),
            schedule=schedule,
            chunk_elements=int(chunk_elements),
            policy_name=policy.name,
            format_params=_params_token(format_params),
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats["plan_hits"] += 1
        if plan is not None:
            if tracer is not None:
                tracer.count("plan_cache_hit")
            return plan, "memory"

        with self._lock:
            self.stats["plan_misses"] += 1
        matrix, format_time, provenance = self._get_or_build_format(
            key, triplets, policy, format_params, builder, tracer
        )
        kernel = _specialize_variant(
            matrix, variant, key.k, key.threads, key.schedule, key.chunk_elements
        )
        plan = ExecutionPlan(
            key=key,
            matrix=matrix,
            kernel=kernel,
            format_time_s=format_time,
            meta={"provenance": provenance},
        )
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.stats["evictions"] += 1
        if tracer is not None:
            tracer.count("plan_cache_miss")
        return plan, provenance

    # -- conversion artifacts -------------------------------------------------

    def _get_or_build_format(
        self,
        key: PlanKey,
        triplets: Triplets,
        policy: DTypePolicy,
        format_params: dict | None,
        builder: Callable[[], tuple[SparseFormat, float]] | None,
        tracer,
    ) -> tuple[SparseFormat, float, str]:
        ckey = key.conversion_key
        with self._lock:
            hit = self._formats.get(ckey)
            if hit is not None:
                self._formats.move_to_end(ckey)
                self.stats["format_hits"] += 1
        if hit is not None:
            matrix, format_time = hit
            return matrix, format_time, "memory"
        with self._lock:
            self.stats["format_misses"] += 1

        matrix = self._load_from_disk(key)
        if matrix is not None:
            provenance, format_time = "disk", 0.0
            with self._lock:
                self.stats["disk_hits"] += 1
            if tracer is not None:
                tracer.count("plan_cache_disk_hit")
        else:
            if builder is not None:
                matrix, format_time = builder()
            else:
                import time

                t0 = time.perf_counter()
                matrix = get_format(key.format_name).from_triplets(
                    triplets, policy=policy, **(format_params or {})
                )
                format_time = time.perf_counter() - t0
            provenance = "built"
            self._store_to_disk(key, matrix)
        with self._lock:
            self._formats[ckey] = (matrix, format_time)
            self._formats.move_to_end(ckey)
            while len(self._formats) > self.maxsize:
                self._formats.popitem(last=False)
                self.stats["evictions"] += 1
        return matrix, format_time, provenance

    # -- migration redirects ---------------------------------------------------

    @staticmethod
    def migration_key(
        fingerprint: str,
        format_name: str,
        variant: str,
        k: int,
        threads: int,
        policy_name: str = DEFAULT_POLICY.name,
        format_params=None,
    ) -> tuple:
        """Identity of one migratable plan group (the redirect's source).

        ``format_params`` joins the key so the same matrix under two
        (C, σ) settings forms two independent plan groups — a redirect
        installed for one never captures the other.
        """
        return (
            fingerprint,
            format_name.lower(),
            variant,
            int(k),
            int(threads),
            policy_name,
            _params_token(format_params),
        )

    @property
    def migration_version(self) -> int:
        """Monotone swap counter; bumps on every installed redirect."""
        with self._lock:
            return self._migration_version

    def install_migration(
        self,
        source_key: tuple,
        *,
        format_name: str,
        variant: str,
        threads: int,
        format_params=None,
    ) -> MigrationTarget:
        """Atomically point a plan group at a new (format, variant, threads).

        The swap is a dict entry replaced under the cache lock: requests
        that already resolved keep their plan object untouched (no torn
        reads), later resolutions see the new target.  With a disk tier
        configured the redirect also persists to ``migrations.json`` so
        sibling caches over the same directory (process-backend workers,
        restarted servers) inherit it.
        """
        # Fold persisted redirects in first so this install's version is
        # strictly above every sibling's — the merge rule is
        # higher-version-wins and independent caches must not tie.
        self._refresh_migrations()
        with self._lock:
            self._migration_version += 1
            target = MigrationTarget(
                format_name=format_name.lower(),
                variant=variant,
                threads=int(threads),
                version=self._migration_version,
                format_params=tuple(
                    sorted((str(pk), pv) for pk, pv in dict(format_params or {}).items())
                ),
            )
            self._migrations[source_key] = target
            self.stats["migrations"] += 1
        self._save_migrations()
        return target

    def resolve_migration(self, source_key: tuple) -> MigrationTarget | None:
        """The current redirect for a plan group, if any (lock-consistent)."""
        self._refresh_migrations()
        with self._lock:
            return self._migrations.get(source_key)

    def _migrations_path(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / "migrations.json"

    def _save_migrations(self) -> None:
        path = self._migrations_path()
        if path is None:
            return
        # Merge-over-read so concurrent writers (several engines over one
        # cache dir) lose at most their own latest entry, never the table.
        rows = self._read_migration_rows(path)
        with self._lock:
            for key, target in self._migrations.items():
                rows[self._migration_token(key)] = {
                    "key": self._key_to_json(key),
                    "target": {
                        "format_name": target.format_name,
                        "variant": target.variant,
                        "threads": target.threads,
                        "version": target.version,
                        "format_params": [list(p) for p in target.format_params],
                    },
                }
        payload = {"version": PLAN_CACHE_VERSION, "migrations": rows}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            tmp.replace(path)
        except OSError:
            return  # a read-only cache dir must not break the run
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            return
        with self._lock:
            self._migrations_mtime = mtime

    def _refresh_migrations(self) -> None:
        """Fold redirects persisted by sibling caches into this one."""
        path = self._migrations_path()
        if path is None:
            return
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            return
        with self._lock:
            if mtime == self._migrations_mtime:
                return
            self._migrations_mtime = mtime
        rows = self._read_migration_rows(path)
        with self._lock:
            for row in rows.values():
                key_list = row.get("key")
                target_row = row.get("target")
                if not isinstance(key_list, list) or not isinstance(target_row, dict):
                    continue
                key = self._key_from_json(key_list)
                try:
                    target = MigrationTarget(
                        format_name=str(target_row["format_name"]),
                        variant=str(target_row["variant"]),
                        threads=int(target_row["threads"]),
                        version=int(target_row["version"]),
                        format_params=tuple(
                            tuple(p) for p in target_row.get("format_params", ())
                        ),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                current = self._migrations.get(key)
                if current is None or target.version > current.version:
                    self._migrations[key] = target
                if target.version > self._migration_version:
                    self._migration_version = target.version

    @staticmethod
    def _key_to_json(key: tuple) -> list:
        """JSON form of a migration key (nested param pairs become lists)."""
        return [list(list(p) for p in x) if isinstance(x, tuple) else x for x in key]

    @staticmethod
    def _key_from_json(key_list: list) -> tuple:
        """Invert :meth:`_key_to_json` (lists back to hashable tuples)."""
        return tuple(
            tuple(tuple(p) for p in x) if isinstance(x, list) else x for x in key_list
        )

    @staticmethod
    def _migration_token(key: tuple) -> str:
        return hashlib.sha256(repr(key).encode()).hexdigest()[:24]

    @staticmethod
    def _read_migration_rows(path: Path) -> dict:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(payload, dict) or payload.get("version") != PLAN_CACHE_VERSION:
            return {}
        rows = payload.get("migrations")
        return rows if isinstance(rows, dict) else {}

    # -- disk tier ------------------------------------------------------------

    def _disk_path(self, key: PlanKey) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key.format_name}-{key.token}.plan.pkl"

    def _load_from_disk(self, key: PlanKey) -> SparseFormat | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            return None  # corrupt entry: treat as a miss, rebuild over it
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != PLAN_CACHE_VERSION:
            return None
        if payload.get("fingerprint") != key.fingerprint:
            return None
        matrix = payload.get("matrix")
        return matrix if isinstance(matrix, SparseFormat) else None

    def _store_to_disk(self, key: PlanKey, matrix: SparseFormat) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        payload = {
            "version": PLAN_CACHE_VERSION,
            "fingerprint": key.fingerprint,
            "format_name": key.format_name,
            "format_params": key.format_params,
            "matrix": matrix,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except OSError:
            return  # a read-only cache dir must not break the run
        with self._lock:
            self.stats["disk_writes"] += 1
