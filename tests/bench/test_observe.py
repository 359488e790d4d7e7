"""Tests for the instrumentation layer: tracer, trajectories, and the gate."""

import json
import threading

import pytest

from repro.bench.observe import (
    STAGES,
    Tracer,
    build_trajectory,
    compare_trajectories,
    git_sha,
    load_trajectory,
    write_trajectory,
)
from repro.bench.params import BenchParams
from repro.bench.report import TRACE_CSV_COLUMNS, trace_to_csv, write_trace_csv
from repro.bench.runner import GridRunner, GridSpec
from repro.bench.suite import SpmmBenchmark
from repro.errors import BenchConfigError
from repro.machine.machines import ARIES, GRACE_HOPPER

SCALE = 64
FAST = BenchParams(n_runs=2, warmup=1, k=16, threads=2)


class TestTracer:
    def test_span_records_duration(self):
        clock_values = iter([1.0, 3.5])
        tracer = Tracer(clock=lambda: next(clock_values))
        with tracer.span("load"):
            pass
        assert len(tracer.spans) == 1
        assert tracer.spans[0].duration == pytest.approx(2.5)

    def test_nested_spans_record_parent(self):
        tracer = Tracer()
        with tracer.span("cell"):
            with tracer.span("kernel"):
                pass
        kernel, cell = tracer.spans  # completion order: innermost first
        assert kernel.name == "kernel" and kernel.parent == "cell"
        assert cell.name == "cell" and cell.parent is None

    def test_stage_times_sums_same_name(self):
        values = iter([0.0, 1.0, 10.0, 12.0])
        tracer = Tracer(clock=lambda: next(values))
        with tracer.span("kernel"):
            pass
        with tracer.span("kernel"):
            pass
        assert tracer.stage_times() == {"kernel": pytest.approx(3.0)}

    def test_counters_attach_to_open_span(self):
        tracer = Tracer()
        with tracer.span("kernel") as sp:
            tracer.count("flops", 100)
            tracer.count("flops", 50)
        assert tracer.counters["flops"] == 150
        assert sp.counters["flops"] == 150

    def test_warn_counts(self):
        tracer = Tracer()
        tracer.warn("thread_clamp")
        tracer.warn("thread_clamp")
        assert tracer.warnings == {"thread_clamp": 2}

    def test_imbalance_none_without_workers(self):
        assert Tracer().imbalance() is None

    def test_imbalance_of_skewed_workers(self):
        tracer = Tracer()
        tracer.record_worker(3.0, worker="w0")
        tracer.record_worker(1.0, worker="w1")
        # mean 2.0, max 3.0 -> 0.5
        assert tracer.imbalance() == pytest.approx(0.5)

    def test_record_worker_defaults_to_thread_ident(self):
        tracer = Tracer()
        # Both threads stay alive until both have recorded: a finished
        # thread's ident can be reused by the next one.
        both_recorded = threading.Barrier(2, timeout=10)

        def work():
            tracer.record_worker(0.25)
            both_recorded.wait()

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.worker_busy()) == 2
        assert tracer.imbalance() == pytest.approx(0.0)

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("convert", format="csr"):
            tracer.count("bytes_moved", 128)
        path = tracer.to_jsonl(tmp_path / "trace.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds == ["span", "counters", "warnings", "workers"]
        assert records[0]["name"] == "convert"
        assert records[0]["attrs"] == {"format": "csr"}
        assert records[1]["counters"] == {"bytes_moved": 128}

    def test_csv_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("kernel", rep=0):
            tracer.count("flops", 2)
        text = trace_to_csv(tracer)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
        assert lines[1].startswith("kernel,")
        path = write_trace_csv(tracer, tmp_path / "trace.csv")
        assert path.read_text().replace("\r\n", "\n") == text.replace("\r\n", "\n")


class TestPipelineWiring:
    def test_benchmark_records_paper_stages(self):
        tracer = Tracer()
        bench = SpmmBenchmark("csr", FAST, tracer=tracer)
        bench.load_suite_matrix("dw4096", scale=SCALE)
        bench.run()
        times = tracer.stage_times()
        for stage in STAGES:
            assert stage in times, f"missing stage {stage}"
            assert times[stage] > 0
        assert tracer.counters["flops"] > 0
        assert tracer.counters["bytes_moved"] > 0

    def test_parallel_run_records_workers_and_chunks(self):
        tracer = Tracer()
        bench = SpmmBenchmark("csr", FAST.with_(variant="parallel"), tracer=tracer)
        bench.load_suite_matrix("dw4096", scale=SCALE)
        result = bench.run()
        assert result.verified
        assert tracer.counters["chunks_scheduled"] > 0
        assert tracer.imbalance() is not None

    def test_grid_runner_wraps_cells(self):
        tracer = Tracer()
        spec = GridSpec(
            matrices=("dw4096",),
            formats=("csr",),
            variants=("serial",),
            k_values=(8,),
            scale=SCALE,
            base_params=FAST,
        )
        GridRunner(spec, mode="wallclock", tracer=tracer).run()
        cells = [sp for sp in tracer.spans if sp.name == "cell"]
        assert len(cells) == 1
        assert cells[0].attrs["matrix"] == "dw4096"
        # The kernel spans nest under the cell span.
        kernels = [sp for sp in tracer.spans if sp.name == "kernel"]
        assert kernels and all(sp.parent == "cell" for sp in kernels)

    def test_untraced_run_unchanged(self):
        bench = SpmmBenchmark("csr", FAST)
        bench.load_suite_matrix("dw4096", scale=SCALE)
        assert bench.run().verified


class TestGridRunnerCensoring:
    """Direct coverage of the OffloadError -> censored RunRecord path."""

    def _spec(self, matrices=("torso1",)):
        return GridSpec(
            matrices=matrices, formats=("coo",), variants=("gpu",), scale=SCALE
        )

    def test_run_one_returns_censored_record(self):
        runner = GridRunner(self._spec(), machine=ARIES, mode="model")
        record = runner._run_one(
            "torso1", "coo", runner.spec.base_params.with_(variant="gpu")
        )
        assert record.censored
        assert record.result is None
        assert record.mflops == 0.0

    def test_censored_list_population(self):
        runner = GridRunner(self._spec(("dw4096", "torso1")), machine=ARIES, mode="model")
        records = runner.run()
        assert [r.matrix for r in runner.censored] == ["torso1"]
        assert sum(1 for r in records if r.censored) == 1

    def test_uncensored_on_working_runtime(self):
        runner = GridRunner(self._spec(), machine=GRACE_HOPPER, mode="model")
        records = runner.run()
        assert runner.censored == []
        assert records[0].mflops > 0

    def test_censoring_recorded_on_tracer_and_trajectory(self):
        tracer = Tracer()
        runner = GridRunner(self._spec(), machine=ARIES, mode="model", tracer=tracer)
        records = runner.run()
        assert tracer.warnings.get("censored_cell") == 1
        traj = build_trajectory(records, tracer, config={})
        assert len(traj["censored"]) == 1
        assert traj["cells"][0]["censored"]
        assert traj["mflops"]["mean"] == 0.0  # censored cells excluded


class TestTrajectory:
    def _records(self, machine=None, mode="wallclock", tracer=None):
        spec = GridSpec(
            matrices=("dw4096",),
            formats=("csr",),
            variants=("serial", "parallel"),
            k_values=(8,),
            thread_counts=(2,),
            scale=SCALE,
            base_params=FAST,
        )
        return GridRunner(spec, machine=machine, mode=mode, tracer=tracer).run()

    def test_schema_fields(self, tmp_path):
        tracer = Tracer()
        records = self._records(tracer=tracer)
        traj = build_trajectory(records, tracer, config={"study": "t"}, run_id="abc")
        for key in ("run_id", "git_sha", "config", "mflops", "stage_times", "imbalance"):
            assert key in traj
        assert traj["run_id"] == "abc"
        assert traj["mflops"]["mean"] > 0
        assert traj["stage_times"]["kernel"] > 0
        assert all(c["best_time_s"] <= c["mean_time_s"] for c in traj["cells"])

    def test_write_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        traj = build_trajectory(self._records(tracer=tracer), tracer, config={})
        path = write_trajectory(traj, tmp_path / "BENCH_t.json")
        assert load_trajectory(path) == json.loads(json.dumps(traj))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchConfigError):
            load_trajectory(tmp_path / "nope.json")

    def test_load_rejects_non_trajectory(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(BenchConfigError):
            load_trajectory(path)

    def test_git_sha_in_repo_or_unknown(self, tmp_path):
        assert git_sha()  # repo: short sha; elsewhere: "unknown"
        assert git_sha(cwd=tmp_path) == "unknown"


def _traj(cells, stage_times=None, **extra):
    base = {
        "run_id": "r",
        "git_sha": "g",
        "config": {},
        "mflops": {"mean": 0.0, "cells": {}},
        "stage_times": stage_times or {},
        "cells": cells,
    }
    base.update(extra)
    return base


def _time_cell(key, best, modeled=None):
    return {
        "key": key,
        "best_time_s": best,
        "mean_time_s": best * 1.2,
        "modeled_mflops": modeled,
        "mflops": 1.0,
        "censored": None,
    }


class TestRegressionGate:
    def test_identical_trajectories_pass(self):
        t = _traj([_time_cell("a", 1.0), _time_cell("b", 2.0)])
        report = compare_trajectories(t, t, tolerance=0.15)
        assert report.ok and not report.regressed
        assert report.ratio == pytest.approx(1.0)

    def test_synthetic_2x_slowdown_fails(self):
        base = _traj([_time_cell("a", 1.0), _time_cell("b", 2.0)])
        slow = _traj([_time_cell("a", 2.0), _time_cell("b", 4.0)])
        report = compare_trajectories(base, slow, tolerance=0.15)
        assert report.regressed
        assert report.ratio == pytest.approx(2.0)
        assert report.metric_kind == "time"

    def test_speedup_passes(self):
        base = _traj([_time_cell("a", 2.0)])
        fast = _traj([_time_cell("a", 1.0)])
        assert compare_trajectories(base, fast, tolerance=0.15).ok

    def test_within_tolerance_passes(self):
        base = _traj([_time_cell("a", 1.0)])
        near = _traj([_time_cell("a", 1.1)])
        assert compare_trajectories(base, near, tolerance=0.15).ok

    def test_modeled_metric_preferred_and_deterministic(self):
        base = _traj([_time_cell("a", 1.0, modeled=100.0)])
        # Wall clock says 3x slower (noise) but the model is unchanged.
        cur = _traj([_time_cell("a", 3.0, modeled=100.0)])
        report = compare_trajectories(base, cur, tolerance=0.15)
        assert report.metric_kind == "modeled"
        assert report.ok and report.ratio == pytest.approx(1.0)

    def test_modeled_regression_fails(self):
        base = _traj([_time_cell("a", 1.0, modeled=200.0)])
        cur = _traj([_time_cell("a", 1.0, modeled=100.0)])
        report = compare_trajectories(base, cur, tolerance=0.15)
        assert report.regressed and report.ratio == pytest.approx(2.0)

    def test_median_tolerates_minority_spike(self):
        base = _traj([_time_cell(k, 1.0) for k in "abcde"])
        cells = [_time_cell(k, 1.0) for k in "abcd"] + [_time_cell("e", 10.0)]
        assert compare_trajectories(base, _traj(cells), tolerance=0.15).ok

    def test_censored_cells_excluded(self):
        good = _time_cell("a", 1.0)
        bad = dict(_time_cell("b", 50.0), censored="offload fault")
        report = compare_trajectories(_traj([good, bad]), _traj([good, bad]))
        assert "1 cells" in report.metric

    def test_aggregate_fallback_without_cells(self):
        base = _traj([], best_time_s=1.0)
        cur = _traj([], best_time_s=2.5)
        report = compare_trajectories(base, cur, tolerance=0.15)
        assert report.regressed and report.metric_kind == "time"

    def test_mflops_fallback(self):
        base = _traj([], mflops={"mean": 100.0, "cells": {}})
        cur = _traj([], mflops={"mean": 40.0, "cells": {}})
        report = compare_trajectories(base, cur, tolerance=0.15)
        assert report.metric_kind == "mflops"
        assert report.regressed and report.ratio == pytest.approx(2.5)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(BenchConfigError):
            compare_trajectories(_traj([]), _traj([]), tolerance=-0.1)

    def test_stage_diff_table(self):
        base = _traj([_time_cell("a", 1.0)], stage_times={"kernel": 1.0, "load": 0.5})
        cur = _traj([_time_cell("a", 1.0)], stage_times={"kernel": 2.0, "load": 0.5})
        report = compare_trajectories(base, cur, tolerance=0.15)
        text = report.table()
        kernel_row = next(line for line in text.splitlines() if "kernel" in line)
        assert "REGRESSED" in kernel_row
        load_row = next(line for line in text.splitlines() if "load" in line)
        assert "ok" in load_row
