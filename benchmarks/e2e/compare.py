"""Compare two sets of run.py result files, end-to-end metric by metric.

    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

For every (workload, end-to-end metric) it prints each set's quartiles, the
ratio of the medians (B over A) and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` -- a set's interquartile range, as a share of its median,
  exceeds the bound, and neither set beats every run of the other;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- B's median is better by more than A's interquartile range
  and B beats A in at least nine in ten of the run pairs (A1, B1), (A2, B2)...
  (run the sets interleaved: A, B, A, B...);
* ``within`` -- otherwise.

Exits 1 when any pair is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import common


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (a1, a_med, a3), (b1, b_med, b3) = quartiles(a), quartiles(b)
    worse = sign * (b_med - a_med) / a_med
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    a_beats_all = all(sign * (x - y) < 0 for x in a for y in b)
    spread = max((a3 - a1) / a_med, (b3 - b1) / b_med)
    if spread > bound and not (a_beats_all or b_beats_all):
        return "unresolved"
    if worse > bound:
        return "regressed"
    pair_wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    if -worse > (a3 - a1) / a_med and pair_wins >= 0.9 * min(len(a), len(b)):
        return "improved"
    return "within"


def compare(set_a: list[dict], set_b: list[dict], benchmark: dict) -> tuple[list[str], bool]:
    """Table lines for every pair, and whether any regressed or is unresolved."""
    lines = [f"{'workload':13s} {'metric':15s} {'A q1/median/q3':>30s} "
             f"{'B q1/median/q3':>30s} {'B/A':>7s} {'bound':>6s}  verdict"]
    bad = False
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        runs_a = [r["workloads"][workload] for r in set_a if workload in r["workloads"]]
        runs_b = [r["workloads"][workload] for r in set_b if workload in r["workloads"]]
        if len(runs_a) < 2 or len(runs_b) < 2:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in runs_a]
            b = [run["metrics"][name] for run in runs_b]
            result = verdict(a, b, metric["bound"], metric["better"])
            bad = bad or result in ("regressed", "unresolved")
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            lines.append(
                f"{workload:13s} {name:15s} {qa:>30s} {qb:>30s} "
                f"{statistics.median(b) / statistics.median(a):7.3f} {metric['bound']:6.2f}  "
                f"{result}  (n={len(a)}/{len(b)}, {metric['unit']}, {metric['better']} is better)")
    return lines, bad


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    benchmark = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(_load(argv[:split]), _load(argv[split + 1:]), benchmark)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
