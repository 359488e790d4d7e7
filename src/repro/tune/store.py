"""Persisted autotune decisions and the ``variant="auto"`` resolution.

The tuner (:mod:`repro.tune.autotune`) samples candidate
``(format, variant, chunk_elements, threads)`` cells and records the winner
per matrix *content fingerprint* — the same digest the plan cache uses, so
a decision made for ``cant`` applies to that matrix in any format or
loading path.  :class:`TuneStore` is the table: an in-memory dict with JSON
persistence (conventionally ``.repro_cache/tuned.json``).

:func:`resolve_auto_variant` is the dispatch side:
``run_spmm(A, B, variant="auto")`` consults the active store and falls back
to a size heuristic when the matrix was never tuned.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import BenchConfigError
from ..kernels.common import DEFAULT_CHUNK_ELEMENTS

__all__ = [
    "TuneDecision",
    "ObservedStats",
    "TuneStore",
    "DEFAULT_STORE_PATH",
    "get_active_store",
    "set_active_store",
    "resolve_auto_variant",
    "resolve_auto_format",
]

DEFAULT_STORE_PATH = Path(".repro_cache") / "tuned.json"

TUNE_STORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TuneDecision:
    """The winning cell for one (matrix, k) pair."""

    fingerprint: str
    matrix: str
    format_name: str
    variant: str
    threads: int
    chunk_elements: int
    k: int
    score_mflops: float
    mode: str = "model"
    machine: str | None = None
    #: Winning format parameters as sorted ``(name, value)`` pairs
    #: (``()`` = format defaults) — e.g. the tuned SELL-C-sigma (chunk,
    #: sigma) cell.  ``dict(format_params)`` feeds ``from_triplets``.
    format_params: tuple = ()

    def __post_init__(self) -> None:
        # JSON round-trips the pairs as nested lists; re-freeze them so
        # decisions stay hashable and compare by value.
        object.__setattr__(
            self,
            "format_params",
            tuple(sorted((str(n), v) for n, v in (self.format_params or ()))),
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["format_params"] = [list(p) for p in self.format_params]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TuneDecision":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        missing = [f for f in ("fingerprint", "format_name", "variant") if f not in known]
        if missing:
            raise BenchConfigError(f"tune entry missing fields: {', '.join(missing)}")
        return cls(**known)


@dataclass(frozen=True)
class ObservedStats:
    """Runtime observations for one (fingerprint, k) slot.

    The online-migration decision (:mod:`repro.engine.migration`) reads
    the hit count as its reuse projection and the mean observed kernel
    seconds as the serving cost of the current plan.  In-memory only —
    observations describe this process's traffic, not the machine.
    """

    hits: int = 0
    total_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.hits if self.hits else 0.0


class TuneStore:
    """Fingerprint-keyed table of :class:`TuneDecision` rows.

    ``path=None`` keeps the store purely in memory (tests); with a path the
    table loads lazily from disk and :meth:`record` persists through it.
    Unreadable or stale files are treated as empty — a corrupt cache must
    never break a benchmark run.

    The store is safe to share between serving threads and the migration
    worker: decisions and observations mutate under a lock, and
    :attr:`version` bumps on every :meth:`record` so memoized consumers
    (the engine's ``variant="auto"`` resolution) can detect staleness.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._table: dict[str, TuneDecision] = {}
        self._observed: dict[str, ObservedStats] = {}
        self._version = 0
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load()

    @staticmethod
    def _key(fingerprint: str, k: int) -> str:
        return f"{fingerprint}:k{int(k)}"

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    @property
    def version(self) -> int:
        """Monotone decision counter: changes whenever a record lands."""
        with self._lock:
            return self._version

    def decisions(self) -> list[TuneDecision]:
        with self._lock:
            return list(self._table.values())

    def record(self, decision: TuneDecision, persist: bool = True) -> None:
        """Insert/replace the decision for its (fingerprint, k) slot."""
        with self._lock:
            self._table[self._key(decision.fingerprint, decision.k)] = decision
            self._version += 1
        if persist and self.path is not None:
            self.save()

    def lookup(self, fingerprint: str, k: int | None = None) -> TuneDecision | None:
        """Best decision for a matrix: exact k first, then any k."""
        with self._lock:
            if k is not None:
                exact = self._table.get(self._key(fingerprint, k))
                if exact is not None:
                    return exact
            for decision in self._table.values():
                if decision.fingerprint == fingerprint:
                    return decision
        return None

    # -- runtime observations --------------------------------------------------

    def observe(self, fingerprint: str, k: int, seconds: float) -> ObservedStats:
        """Fold one served request's per-call kernel seconds into the table."""
        key = self._key(fingerprint, k)
        with self._lock:
            prior = self._observed.get(key, ObservedStats())
            stats = ObservedStats(
                hits=prior.hits + 1, total_s=prior.total_s + max(seconds, 0.0)
            )
            self._observed[key] = stats
        return stats

    def observed(self, fingerprint: str, k: int) -> ObservedStats:
        """The accumulated observations for a slot (zeros when unseen)."""
        with self._lock:
            return self._observed.get(self._key(fingerprint, k), ObservedStats())

    # -- persistence ----------------------------------------------------------

    def save(self) -> Path:
        if self.path is None:
            raise BenchConfigError("this TuneStore has no backing path")
        with self._lock:
            snapshot = {key: d.to_dict() for key, d in self._table.items()}
        payload = {
            "schema_version": TUNE_STORE_SCHEMA_VERSION,
            "decisions": snapshot,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.path)
        return self.path

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("schema_version") != TUNE_STORE_SCHEMA_VERSION:
            return
        for key, row in (payload.get("decisions") or {}).items():
            try:
                self._table[key] = TuneDecision.from_dict(row)
            except (BenchConfigError, TypeError):
                continue


# -- the active store (what variant="auto" consults) --------------------------

_ACTIVE_STORE: TuneStore | None = None


def get_active_store() -> TuneStore:
    """The process-wide store, lazily bound to :data:`DEFAULT_STORE_PATH`."""
    global _ACTIVE_STORE
    if _ACTIVE_STORE is None:
        path = DEFAULT_STORE_PATH if DEFAULT_STORE_PATH.exists() else None
        _ACTIVE_STORE = TuneStore(path)
    return _ACTIVE_STORE


def set_active_store(store: TuneStore | None) -> None:
    """Swap the process-wide store (``None`` resets to lazy default)."""
    global _ACTIVE_STORE
    _ACTIVE_STORE = store


#: Work threshold (nnz * k flo-pairs) above which the untuned fallback
#: prefers the parallel kernel.  Below it, thread fan-out overhead loses —
#: the paper's Study 3 sub-linear scaling story at small sizes.
AUTO_PARALLEL_WORK_THRESHOLD = 1_000_000


def resolve_auto_variant(
    matrix,
    k: int,
    store: TuneStore | None = None,
    tracer=None,
) -> tuple[str, dict]:
    """Resolve ``variant="auto"`` for a matrix: ``(variant, extra options)``.

    ``matrix`` is a :class:`~repro.formats.SparseFormat` or
    :class:`~repro.matrices.Triplets`.  A tuned decision contributes its
    variant plus its ``threads`` / ``chunk_elements`` knobs; without one, a
    work-size heuristic picks serial or parallel.
    """
    store = store if store is not None else get_active_store()
    decision = store.lookup(matrix.fingerprint, k)
    if decision is None:
        if tracer is not None:
            tracer.count("auto_dispatch_fallback")
        cores = os.cpu_count() or 1
        if matrix.nnz * max(k, 1) >= AUTO_PARALLEL_WORK_THRESHOLD and cores > 1:
            return "parallel", {"threads": min(cores, 8)}
        return "serial", {}
    if tracer is not None:
        tracer.count("auto_dispatch_tuned")
    options: dict = {}
    if "parallel" in decision.variant:
        options["threads"] = decision.threads
    if decision.chunk_elements != DEFAULT_CHUNK_ELEMENTS:
        options["chunk_elements"] = decision.chunk_elements
    return decision.variant, options


def resolve_auto_format(
    matrix,
    k: int,
    store: TuneStore | None = None,
    selector=None,
    tracer=None,
) -> tuple[str, dict]:
    """Resolve ``fmt="auto"``: ``(format_name, format parameter dict)``.

    Resolution order, mirroring :func:`resolve_auto_variant`'s
    tuned-then-fallback shape but for the *format* axis:

    1. a tuned decision in the store contributes its winning format plus
       that cell's format parameters (e.g. the tuned SELL (chunk, sigma));
    2. with no tuned entry, a trained
       :class:`~repro.select.selector.FormatSelector` predicts from matrix
       features — the trajectory-trained cold-start path (SpChar);
    3. with neither, CSR — the paper's safe general-purpose default.

    ``matrix`` is a :class:`~repro.formats.SparseFormat` or
    :class:`~repro.matrices.Triplets` (a selector prediction needs
    triplets; formats are round-tripped through ``to_triplets``).
    """
    store = store if store is not None else get_active_store()
    decision = store.lookup(matrix.fingerprint, k)
    if decision is not None:
        if tracer is not None:
            tracer.count("auto_format_tuned")
        return decision.format_name, dict(decision.format_params)
    if selector is not None:
        triplets = matrix if not hasattr(matrix, "to_triplets") else matrix.to_triplets()
        fmt = selector.select(triplets)
        if tracer is not None:
            tracer.count("auto_format_selected")
        return fmt, {}
    if tracer is not None:
        tracer.count("auto_format_fallback")
    return "csr", {}
