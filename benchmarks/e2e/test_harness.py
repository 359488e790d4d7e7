"""Checks of the benchmark harness itself; not part of the tier-1 suite.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import common
import run
import spans
import workloads
from repro.kernels.plan import ExecutionPlan

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())

_LIBRARY_SPANS = {"bench.setup", "bench.call", "matrices.load", "plan.acquire",
                  "formats.convert", "kernels.spmm"}
_SERVE_SPANS = {"bench.setup", "bench.request", "matrices.load", "plan.acquire",
                "formats.convert", "kernels.spmm", "engine.execute", "engine.fingerprint",
                "wire.client_encode", "wire.server_decode", "wire.server_encode",
                "wire.client_decode"}
#: The spans each workload's traced run must record: one per layer it calls.
EXPECTED_SPANS = {
    "spmm-warm": _LIBRARY_SPANS,
    "dl-ops": _LIBRARY_SPANS | {"backward.spmm", "backward.transpose", "backward.kernel",
                                "spgemm.multiply"},
    "serve-hot": _SERVE_SPANS,
    "serve-inline": _SERVE_SPANS,
    "serve-churn": _SERVE_SPANS,
}


@pytest.fixture(scope="session")
def smoke():
    """``run.py --seconds 0`` (1 round, 20 requests), once per workload and mode."""
    done: dict[tuple[str, int], subprocess.CompletedProcess] = {}

    def run_smoke(workload: str, trace: int) -> subprocess.CompletedProcess:
        if (workload, trace) not in done:
            done[workload, trace] = subprocess.run(
                [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, cwd=common.ROOT, timeout=600,
            )
        return done[workload, trace]

    return run_smoke


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == common.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_run_reports_the_declared_metrics(smoke, workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_traced_run_records_a_span_for_every_layer(smoke, workload):
    assert smoke(workload, 1).returncode == 0
    names = set()
    for path in (common.OUT_DIR / workload).glob("spans-*.jsonl"):
        names |= {record["name"] for record in spans.load(path)}
    assert EXPECTED_SPANS[workload] <= names


def test_a_wrong_output_fails_the_run(monkeypatch):
    call = ExecutionPlan.__call__

    def corrupt_ell(self, B, tracer=None):
        C = call(self, B, tracer=tracer)
        if self.key.format_name == "ell":
            C[0, 0] += 1.0
        return C

    monkeypatch.setattr(ExecutionPlan, "__call__", corrupt_ell)
    result = workloads.run_library("spmm-warm", seed=0, seconds=0, rec=spans.NullRecorder())
    assert result["wrong"] == len(common.SPMM_MATRICES) * 2  # serial and parallel
    assert result["failed"] / result["attempted"] > 0
    assert run.exit_status([result]) == 1


def test_a_refused_request_counts_as_failed(monkeypatch):
    # A one-request tenant quota makes the server refuse whichever of the
    # two connections arrives while the other's request is in flight.
    monkeypatch.setattr(workloads, "SERVER_ARGS",
                        [*workloads.SERVER_ARGS, "--tenants", "default=1"])
    result = workloads.run_serve("serve-hot", seed=0, seconds=0, rec=spans.NullRecorder())
    assert result["wrong"] == 0
    assert result["failed"] > 0
    assert run.exit_status([result]) == 1
