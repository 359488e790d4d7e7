"""The replayable failure corpus.

Every fuzz failure is persisted — after shrinking — as one JSON file that
contains the *entire* reproduction: the shrunk triplets inline, the exact
check that failed (oracle path/format/variant or metamorphic relation),
and the seeds that produced the original case.  ``spmm-bench fuzz
--replay --corpus DIR`` re-runs each entry against the current tree, so a
fixed bug flips its corpus entry from failing to passing and a regressed
one flips it back — the corpus is a regression suite that writes itself.

File names are content-addressed (a short digest of the check identity
and shrunk case), so re-finding the same minimized failure overwrites
instead of accumulating duplicates.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..matrices.coo_builder import CooBuilder, Triplets

__all__ = ["save_failure", "load_corpus", "replay_corpus", "triplets_from_entry"]

CORPUS_VERSION = 1


def _entry_digest(entry: dict) -> str:
    ident = json.dumps(
        {"check": entry.get("check"), "shrunk": entry.get("shrunk")},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(ident.encode()).hexdigest()[:16]


def triplets_to_payload(triplets: Triplets) -> dict:
    return {
        "nrows": int(triplets.nrows),
        "ncols": int(triplets.ncols),
        "rows": [int(r) for r in triplets.rows],
        "cols": [int(c) for c in triplets.cols],
        "values": [float(v) for v in triplets.values],
    }


def triplets_from_entry(entry: dict) -> Triplets:
    """Rebuild the shrunk matrix stored in a corpus entry."""
    payload = entry["shrunk"]
    builder = CooBuilder(int(payload["nrows"]), int(payload["ncols"]))
    builder.add_batch(payload["rows"], payload["cols"], payload["values"])
    return builder.finish()


def save_failure(
    corpus_dir: str | Path,
    *,
    triplets: Triplets,
    k: int,
    check: dict,
    error: str,
    master_seed: int,
    case_seed: int,
    case_index: int,
    case_name: str,
    original_shape: tuple[int, int],
    original_nnz: int,
    shrink_steps: int = 0,
) -> Path:
    """Persist one shrunk failing case; returns the written path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    entry = {
        "version": CORPUS_VERSION,
        "master_seed": int(master_seed),
        "case_seed": int(case_seed),
        "case_index": int(case_index),
        "case_name": case_name,
        "k": int(k),
        "check": check,
        "error": error,
        "original_shape": [int(original_shape[0]), int(original_shape[1])],
        "original_nnz": int(original_nnz),
        "shrink_steps": int(shrink_steps),
        "shrunk": {**triplets_to_payload(triplets), "k": int(k)},
    }
    path = corpus_dir / f"fail_{_entry_digest(entry)}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir: str | Path) -> list[dict]:
    """Load every corpus entry, sorted by file name (digest order)."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    entries = []
    for path in sorted(corpus_dir.glob("fail_*.json")):
        entry = json.loads(path.read_text())
        entry["_path"] = str(path)
        entries.append(entry)
    return entries


def replay_corpus(corpus_dir: str | Path, tracer=None) -> list[dict]:
    """Re-run every corpus entry against the current tree.

    Returns one record per entry: ``{"path", "check", "still_failing",
    "messages"}``.  An empty list means the corpus directory held nothing.
    """
    from .metamorphic import run_relation  # local: metamorphic imports oracle
    from .oracle import DifferentialOracle

    results = []
    entries = load_corpus(corpus_dir)
    if not entries:
        return results
    with DifferentialOracle() as oracle:
        for entry in entries:
            triplets = triplets_from_entry(entry)
            k = int(entry["shrunk"].get("k", entry["k"]))
            check = entry.get("check", {})
            case_seed = int(entry.get("case_seed", entry.get("master_seed", 0)))
            messages: list[str] = []
            try:
                if check.get("kind") == "metamorphic":
                    messages = run_relation(
                        check["relation"],
                        triplets,
                        k=k,
                        seed=case_seed,
                        fmt=check.get("fmt", "csr"),
                        variant=check.get("variant", "serial"),
                    )
                else:
                    found = oracle.check_single(
                        triplets,
                        k,
                        check.get("fmt", "csr"),
                        check.get("variant", "serial"),
                        check.get("path", "direct"),
                        seed=case_seed,
                    )
                    messages = [d.describe() for d in found]
            except Exception as exc:  # noqa: BLE001 - replay reports, never raises
                messages = [f"replay raised {type(exc).__name__}: {exc}"]
            results.append(
                {
                    "path": entry.get("_path", ""),
                    "check": check,
                    "still_failing": bool(messages),
                    "messages": messages,
                }
            )
    if tracer is not None:
        tracer.count("fuzz_replayed", len(results))
        failing = sum(1 for r in results if r["still_failing"])
        if failing:
            tracer.count("fuzz_replay_failures", failing)
    return results
