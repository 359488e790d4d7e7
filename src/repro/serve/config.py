"""Serving configuration: priorities, tenant quotas, server knobs.

The config vocabulary deliberately matches the facade's request vocabulary
(``fmt=``/``k=``/``threads=``/``variant=``) on the request side and adds
the serving side — ``backend=``, ``workers=``, ``max_queue=``,
``tenants=`` — so ``repro.api.serve(backend="process", max_queue=128,
tenants={"acme": {"max_in_flight": 8}})`` reads like the rest of the API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..engine.migration import MigrationPolicy
from ..errors import BenchConfigError

__all__ = ["PRIORITIES", "ServeConfig", "TenantQuota", "priority_rank"]

#: Admission priority classes, best first.  ``interactive`` requests jump
#: the queue ahead of ``normal``, which jumps ahead of ``batch``; within a
#: class, admission order is preserved (FIFO).
PRIORITIES = ("interactive", "normal", "batch")

DEFAULT_PRIORITY = "normal"


def priority_rank(priority: str) -> int:
    """Queue rank of a priority class (lower pops first)."""
    try:
        return PRIORITIES.index(priority)
    except ValueError:
        raise BenchConfigError(
            f"unknown priority {priority!r}; known: {', '.join(PRIORITIES)}"
        )


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``max_in_flight`` bounds the tenant's admitted-but-unfinished requests
    (queued + executing); the tenant's excess traffic is rejected with code
    ``"quota"`` rather than starving other tenants of queue slots.
    """

    max_in_flight: int = 16

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise BenchConfigError(
                f"tenant max_in_flight must be >= 1, got {self.max_in_flight}"
            )

    @classmethod
    def coerce(cls, value: "TenantQuota | Mapping | int") -> "TenantQuota":
        """Accept a quota object, a ``{"max_in_flight": N}`` dict, or an int."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(max_in_flight=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"max_in_flight"}
            if unknown:
                raise BenchConfigError(
                    f"unknown tenant quota keys: {', '.join(sorted(unknown))}"
                )
            return cls(**value)
        raise BenchConfigError(
            f"tenant quota must be a TenantQuota, dict, or int; "
            f"got {type(value).__name__}"
        )


@dataclass(frozen=True)
class ServeConfig:
    """Everything the persistent server needs to come up.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (the bound port
        is on :attr:`repro.serve.Server.port` once started).
    backend, workers, max_in_flight:
        Engine execution substrate — same meaning as
        :class:`repro.api.Engine` (``backend`` is ``"thread"`` or
        ``"process"``).
    max_queue:
        Admission bound: requests admitted but not yet handed to the
        engine.  A full queue rejects with code ``"overload"`` instead of
        buffering unboundedly.
    tenants:
        Per-tenant quota table (name → :class:`TenantQuota`, dict, or
        int).  Unknown tenants get ``default_quota``.  Every tenant also
        gets its own PlanCache and TuneStore namespace: one tenant's plan
        churn or tuning decisions never evict or leak into another's.
    default_quota:
        Quota applied to tenants absent from ``tenants``.
    cache_dir:
        Root of the on-disk plan tier; tenant namespaces live under
        ``<cache_dir>/tenants/<name>/``.  ``None`` keeps caches in-memory.
    drain_grace_s:
        Graceful-drain budget: on SIGTERM the server stops admitting and
        waits up to this long for in-flight requests before cancelling
        what is left.
    out:
        Trajectory path flushed on drain (default ``BENCH_serve.json``).
    migration:
        Adaptive online format migration per tenant engine (default on):
        hot plan groups are re-pointed at a faster bit-identical cell by
        a background worker once the measured conversion cost amortizes
        — see :mod:`repro.engine.migration`.  ``False`` serves every
        request in its arrival format forever (the ``--no-migration``
        CLI knob); a :class:`~repro.engine.migration.MigrationPolicy`
        instance customizes the decision rule (e.g. cross-format
        candidates, the ``--migration-formats`` CLI knob).
    """

    host: str = "127.0.0.1"
    port: int = 0
    backend: str | None = None
    workers: int | None = None
    max_in_flight: int = 64
    max_queue: int = 256
    tenants: Mapping[str, "TenantQuota | Mapping | int"] = field(default_factory=dict)
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    cache_dir: str | None = None
    drain_grace_s: float = 30.0
    out: str = "BENCH_serve.json"
    migration: "bool | MigrationPolicy" = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise BenchConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.drain_grace_s < 0:
            raise BenchConfigError(
                f"drain_grace_s must be >= 0, got {self.drain_grace_s}"
            )
        # Normalize the quota table once, eagerly, so a typo'd tenant spec
        # fails at config time instead of on that tenant's first request.
        normalized = {
            name: TenantQuota.coerce(quota) for name, quota in self.tenants.items()
        }
        object.__setattr__(self, "tenants", normalized)
        object.__setattr__(self, "default_quota", TenantQuota.coerce(self.default_quota))

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.tenants.get(tenant, self.default_quota)

    def describe(self) -> dict:
        """JSON-able summary for trajectory ``config`` blocks."""
        return {
            "host": self.host,
            "port": self.port,
            "backend": self.backend,
            "workers": self.workers,
            "max_in_flight": self.max_in_flight,
            "max_queue": self.max_queue,
            "tenants": {
                name: {"max_in_flight": q.max_in_flight}
                for name, q in self.tenants.items()
            },
            "default_quota": {"max_in_flight": self.default_quota.max_in_flight},
            "cache_dir": self.cache_dir,
            "drain_grace_s": self.drain_grace_s,
            "migration": (
                {
                    "enabled": self.migration.enabled,
                    "candidate_formats": list(self.migration.candidate_formats),
                }
                if isinstance(self.migration, MigrationPolicy)
                else self.migration
            ),
        }
