"""Wall-clock system benchmark of the SpMM-Bench reproduction.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--out FILE]

Runs each workload in fresh Python processes, checks every output, prints
every metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Untraced, the metrics are
the end-to-end ones and ``setup_s`` is the median of five set-ups, four of
them in set-up-only processes.  Traced (``--trace``), the workload runs once
untraced and once with spans, and the metrics are the per-layer ones.
Exits 1 when any output is wrong or any request fails, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import common

SETUP_REPEATS = 5
DEFAULT_SECONDS = 12


def run_pass(workload: str, args: argparse.Namespace, *flags: str) -> dict:
    """One fresh worker process; returns the JSON object it prints last."""
    cmd = [sys.executable, str(common.HERE / "workloads.py"), workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=common.ROOT, env=common.child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, args: argparse.Namespace) -> dict:
    if args.trace:
        plain = run_pass(workload, args)
        result = run_pass(workload, args, "--trace")
        for key in ("attempted", "failed", "wrong"):
            result[key] += plain[key]
        untraced_ms = plain["metrics"]["latency_p50_ms"]
        if untraced_ms:
            result["metrics"]["trace.overhead"] = (
                result["metrics"]["latency_p50_ms"] / untraced_ms - 1)
        return result
    setups = [run_pass(workload, args, "--setup-only")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = run_pass(workload, args)
    result["setup_runs_s"] = [*setups, result["metrics"]["setup_s"]]
    result["metrics"]["setup_s"] = statistics.median(result["setup_runs_s"])
    return result


def reported(result: dict, trace: bool) -> dict:
    """The catalog's metrics, 0 where the workload never calls the layer."""
    catalog = common.PER_LAYER if trace else common.END_TO_END
    return {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
            for name, unit in catalog.items()}


def exit_status(results: list[dict]) -> int:
    return 1 if any(r["failed"] for r in results) else 0


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_info(results: list[dict]) -> dict:
    cpu_model = llc = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        top = max(caches, key=lambda c: int((c / "level").read_text()))
        llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": results[0]["versions"]["numpy"] if results else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=common.WORKLOADS,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length; sets each workload's operation count "
                             "(0: one round, 20 requests)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the full result file here")
    args = parser.parse_args(argv)

    if not (common.SRC / "repro").is_dir():
        print(f"error: no program sources at {common.SRC / 'repro'}", file=sys.stderr)
        return 2
    workloads = args.workload or list(common.WORKLOADS)
    results = []
    for workload in workloads:
        try:
            result = measure(workload, args)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result["error_rate"] = result["failed"] / result["attempted"]
        results.append(result)
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']} "
              f"(wrong outputs {result['wrong']}), error_rate {result['error_rate']:g}, "
              f"counts {json.dumps(result['counts'])}")
        for name, metric in reported(result, args.trace).items():
            print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
        for error in result.get("errors", []):
            print(f"  error: {error}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "git_sha": git_sha(),
            "host": host_info(results),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workloads": {r["workload"]: r for r in results},
        }, indent=1) + "\n")

    if len(results) == 1:
        metrics = reported(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}/{name}": metric
                   for r in results for name, metric in reported(r, args.trace).items()}
    print(json.dumps({
        "correct": not any(r["wrong"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return exit_status(results)


if __name__ == "__main__":
    sys.exit(main())
