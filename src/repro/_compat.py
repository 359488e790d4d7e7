"""Deprecation plumbing for the pre-``repro.api`` entrypoints.

The facade (:mod:`repro.api`) is the stable public surface; the older
entrypoints — constructing :class:`~repro.bench.suite.SpmmBenchmark` or
:class:`~repro.bench.runner.GridRunner` directly — keep working but emit
:class:`DeprecationWarning` pointing at their replacement (the mapping
lives in ``docs/api_migration.md``).

The library itself still uses those classes internally (the facade wraps
them), so the warning is suppressible: facade code and internal call sites
run under :func:`legacy_ok`, a context-variable guard that is inherited by
``with`` scope rather than by import, keeping the warning precise — it only
fires for *external* callers entering through a legacy path.
"""

from __future__ import annotations

import contextvars
import warnings
from contextlib import contextmanager
from typing import Iterator

__all__ = ["legacy_ok", "warn_legacy"]

_SUPPRESS: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_legacy_ok", default=False
)


@contextmanager
def legacy_ok() -> Iterator[None]:
    """Mark the enclosed calls as internal: legacy warnings stay silent."""
    token = _SUPPRESS.set(True)
    try:
        yield
    finally:
        _SUPPRESS.reset(token)


def warn_legacy(old: str, new: str, *, stacklevel: int = 3) -> None:
    """Emit the deprecation warning for one legacy entrypoint.

    No-op inside a :func:`legacy_ok` scope, so the facade can delegate to
    the legacy implementations without triggering its own warning.
    """
    if _SUPPRESS.get():
        return
    warnings.warn(
        f"{old} is deprecated; use {new} instead (see docs/api_migration.md)",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
