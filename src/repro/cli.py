"""Command-line interface: ``spmm-bench`` / ``python -m repro``.

The paper ran its kernels through per-kernel binaries and bash scripts and
wished for "a Python script to generate a runtime script for a given
configuration" (§6.3.3).  This CLI is that replacement:

* ``spmm-bench run`` — benchmark one (matrix, format, variant) cell, wall
  clock and/or machine model;
* ``spmm-bench bench`` — run an instrumented grid, persist a
  ``BENCH_<study>.json`` trajectory, and optionally gate against a
  baseline (``--baseline``/``--tolerance``);
* ``spmm-bench serve --jobs FILE`` — run a batch of SpMM jobs through the
  plan-sharing execution engine (:mod:`repro.engine`) and persist an
  engine trajectory;
* ``spmm-bench serve --listen [HOST:]PORT`` — keep the engine alive behind
  the NDJSON socket protocol (:mod:`repro.serve`): admission control,
  tenant quotas, graceful drain on SIGTERM;
* ``spmm-bench loadgen`` — drive a fixed-RPS hot/cold request mix against
  a running (or ``--spawn``-ed) server and gate the ``BENCH_serve.json``
  trajectory;
* ``spmm-bench study`` — regenerate any table/figure of the evaluation;
* ``spmm-bench sweep`` — the Study 3.1 thread-list feature;
* ``spmm-bench table`` — Table 5.1;
* ``spmm-bench list`` — formats, matrices, machines, kernel variants.
"""

from __future__ import annotations

import argparse
import sys

from .bench.params import BenchParams
from .bench.report import results_to_csv
from .bench.suite import SpmmBenchmark
from .bench.sweep import run_thread_sweep
from .errors import BenchConfigError, SpmmBenchError
from .formats.registry import format_names
from .kernels.dispatch import kernel_variants
from .machine.machines import MACHINES, get_machine
from .matrices.suite import matrix_names

__all__ = ["main", "build_parser", "BENCH_GRIDS"]

#: Reduced grids for the instrumented ``bench`` command.  ``study1`` is the
#: paper's Study 1 cut down to three representative matrices (including the
#: skewed ``torso1``, whose load imbalance Study 3 cares about); ``smoke``
#: is the minimal grid CI uses to exercise the regression gate itself.
BENCH_GRIDS: dict[str, dict] = {
    "study1": dict(
        matrices=("cant", "torso1", "dw4096"),
        formats=("coo", "csr", "ell", "bcsr"),
        variants=("serial", "parallel"),
    ),
    "smoke": dict(
        matrices=("dw4096",),
        formats=("csr",),
        variants=("serial", "parallel"),
    ),
    # The DL-sparsity study (paper §6.3.4 carve-outs): DLMC-style matrices,
    # with forward SpMM, SpGEMM, and the backward gradient multiply as an
    # operation axis.  ``quick`` is the CI cut — a strict cell subset of the
    # full grid, so the shared deterministic modeled cells gate at ratio 1.0
    # against a committed full-grid baseline.
    "dl": dict(
        matrices=(
            "dlmc_mag_70",
            "dlmc_mag_90",
            "dlmc_mag_98",
            "dlmc_block_85",
            "dlmc_block_95",
            "dlmc_batch_heavy",
        ),
        formats=("csr", "ell", "bcsr"),
        variants=("serial", "parallel"),
        operations=("spmm", "spgemm", "backward"),
        k_values=(32, 256),
        quick=dict(
            matrices=("dlmc_mag_90", "dlmc_block_85", "dlmc_batch_heavy"),
            variants=("serial",),
            k_values=(32,),
        ),
    ),
}

#: ``bench --suite`` shorthand: map a matrix-suite name to its bench grid.
SUITE_STUDIES: dict[str, str] = {"scientific": "study1", "dl": "dl"}

#: Exit code of ``bench --baseline`` when the gate trips (distinct from 1,
#: the generic error code).
EXIT_REGRESSION = 3

#: Exit code of ``fuzz`` when the differential oracle or a metamorphic
#: relation found a discrepancy (or a corpus replay still fails).
EXIT_FUZZ = 4


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="spmm-bench",
        description="SpMM-Bench reproduction: sparse-format SpMM benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="benchmark one matrix/format/variant cell")
    run_p.add_argument("--matrix", required=True, help="suite matrix name")
    run_p.add_argument("--format", required=True, dest="format_name",
                       help=f"sparse format ({', '.join(format_names())}); "
                            "accepts parameter shorthand like sell:c=32,sigma=512")
    run_p.add_argument("--scale", type=int, default=16,
                       help="divide the paper's matrix rows by this factor")
    run_p.add_argument("--machine", default=None,
                       help="attach a machine model (grace-hopper/aries/arm/x86)")
    run_p.add_argument("--mode", default="wallclock",
                       choices=["wallclock", "model", "both"])
    run_p.add_argument("--operation", default="spmm",
                       choices=["spmm", "spmv", "spgemm", "backward"])
    run_p.add_argument("--csv", action="store_true", help="emit a CSV row")
    BenchParams.add_arguments(run_p)

    bench_p = sub.add_parser(
        "bench",
        help="instrumented grid run: BENCH_<study>.json trajectory + regression gate",
    )
    bench_p.add_argument("--study", default=None, choices=sorted(BENCH_GRIDS),
                         help="which reduced grid to run (default: study1)")
    bench_p.add_argument("--suite", default=None, choices=sorted(SUITE_STUDIES),
                         help="matrix-suite shorthand: 'dl' runs the DL-sparsity "
                              "grid (spmm + spgemm + backward), 'scientific' the "
                              "study1 grid")
    bench_p.add_argument("--quick", action="store_true",
                         help="CI cut of the grid (a cell subset of the full "
                              "grid, so modeled cells still gate exactly)")
    bench_p.add_argument("--scale", type=int, default=64,
                         help="divide the paper's matrix rows by this factor")
    bench_p.add_argument("--mode", default="both",
                         choices=["wallclock", "model", "both"],
                         help="'both' (default) wall-clocks the kernels for the "
                              "trace AND keeps the deterministic model metric "
                              "for the gate; 'wallclock' gates on noisy times")
    bench_p.add_argument("--machine", default=None,
                         help="machine model for model/both modes (default arm)")
    bench_p.add_argument("-n", "--n-runs", type=int, default=5,
                         help="timed repetitions per cell (the gate uses best-of-n)")
    bench_p.add_argument("--out", default=None, metavar="FILE",
                         help="trajectory path (default: BENCH_<study>.json)")
    bench_p.add_argument("--trace", default=None, metavar="FILE",
                         help="also write the span trace as JSON lines")
    bench_p.add_argument("--trace-csv", default=None, metavar="FILE",
                         help="also write the span trace as a flat CSV")
    bench_p.add_argument("--baseline", default=None, metavar="BENCH_JSON",
                         help="gate this run against a prior trajectory file")
    bench_p.add_argument("--tolerance", type=float, default=0.15,
                         help="allowed mean-time growth before failing (default 0.15)")
    bench_p.add_argument("--no-plan-cache", action="store_true",
                         help="disable the execution-plan cache (measure the cold path)")
    bench_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persist conversion artifacts to an on-disk plan cache "
                              "(e.g. .repro_cache)")

    serve_p = sub.add_parser(
        "serve",
        help="run a batch of SpMM jobs through the plan-sharing engine, or "
             "keep it alive as a socket server (--listen)",
    )
    serve_mode = serve_p.add_mutually_exclusive_group(required=True)
    serve_mode.add_argument("--jobs", default=None, metavar="FILE",
                            help="JSON job file: a list of request objects, or "
                                 '{"defaults": {...}, "jobs": [...]}')
    serve_mode.add_argument("--listen", default=None, metavar="[HOST:]PORT",
                            help="serve the NDJSON protocol persistently on this "
                                 "address (port 0 = ephemeral); SIGTERM drains "
                                 "gracefully and flushes the trajectory")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="engine workers (default: host-sized)")
    serve_p.add_argument("--backend", default=None, choices=["thread", "process"],
                         help="execution backend: worker threads (default) or "
                              "worker subprocesses with shared-memory operands")
    serve_p.add_argument("--max-in-flight", type=int, default=64,
                         help="submission-window backpressure bound (default 64)")
    serve_p.add_argument("--max-queue", type=int, default=256,
                         help="admission-queue bound before 'overload' rejects "
                              "(--listen mode, default 256)")
    serve_p.add_argument("--tenants", default=None, metavar="NAME=QUOTA,...",
                         help="per-tenant in-flight quotas, e.g. acme=8,beta=4 "
                              "(--listen mode; unknown tenants get the default)")
    serve_p.add_argument("--drain-grace", type=float, default=30.0, metavar="S",
                         help="seconds in-flight work may finish during drain "
                              "before queued requests are cancelled (default 30)")
    serve_p.add_argument("--out", default=None, metavar="FILE",
                         help="engine trajectory path (default: BENCH_serve.json)")
    serve_p.add_argument("--no-plan-cache", action="store_true",
                         help="shrink the plan cache to one entry "
                              "(approximates the cold path; --jobs mode only)")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persist plans to an on-disk cache directory "
                              "(per-tenant namespaces in --listen mode)")
    serve_p.add_argument("--migration", action=argparse.BooleanOptionalAction,
                         default=None,
                         help="adaptive online format migration: hot plan groups "
                              "move to a faster bit-identical cell once the "
                              "conversion cost amortizes (default: on for "
                              "--listen, off for --jobs)")
    serve_p.add_argument("--migration-formats", default=None, metavar="FMT[,FMT...]",
                         help="also probe these formats as migration candidates, "
                              "under the same bit-identity gate")

    loadgen_p = sub.add_parser(
        "loadgen",
        help="fixed-RPS hot/cold load against a serve --listen server, with "
             "the p99 + sustained-RPS regression gate",
    )
    loadgen_p.add_argument("--host", default="127.0.0.1")
    loadgen_p.add_argument("--port", type=int, default=None,
                           help="port of a running server (omit with --spawn)")
    loadgen_p.add_argument("--spawn", action="store_true",
                           help="spawn a serve --listen subprocess for the run, "
                                "SIGTERM it afterwards, and require a clean "
                                "drain (exit 0)")
    loadgen_p.add_argument("--backend", default=None, choices=["thread", "process"],
                           help="backend for the --spawn server")
    loadgen_p.add_argument("--workers", type=int, default=None,
                           help="workers for the --spawn server")
    loadgen_p.add_argument("--rps", type=float, default=20.0,
                           help="offered requests per second (default 20)")
    loadgen_p.add_argument("--duration", type=float, default=5.0, metavar="S",
                           help="seconds of offered load (default 5)")
    loadgen_p.add_argument("--mix", type=float, default=0.8,
                           help="hot fraction: share of requests re-using suite "
                                "matrices vs cold one-shots (default 0.8)")
    loadgen_p.add_argument("--matrices", default="dw4096",
                           help="comma-separated suite matrices for hot requests")
    loadgen_p.add_argument("--scale", type=int, default=64,
                           help="hot-matrix downscale divisor (default 64; "
                                "smaller = bigger matrices)")
    loadgen_p.add_argument("--migration", action=argparse.BooleanOptionalAction,
                           default=True,
                           help="online format migration on the --spawn server "
                                "(default on; --no-migration pins every plan "
                                "group to its arrival format)")
    loadgen_p.add_argument("--migration-formats", default=None,
                           metavar="FMT[,FMT...]",
                           help="forwarded to the --spawn server: cross-format "
                                "migration candidates under the bit-identity gate")
    loadgen_p.add_argument("--connections", type=int, default=4,
                           help="concurrent client connections (default 4)")
    loadgen_p.add_argument("--tenant", default="default")
    loadgen_p.add_argument("--priorities", default="normal",
                           help="comma-separated admission classes cycled across "
                                "requests (interactive,normal,batch)")
    loadgen_p.add_argument("--seed", type=int, default=0)
    loadgen_p.add_argument("--quick", action="store_true",
                           help="CI smoke preset: ~2s of low-rate load")
    loadgen_p.add_argument("--out", default=None, metavar="FILE",
                           help="trajectory path (default: BENCH_serve.json)")
    loadgen_p.add_argument("--baseline", default=None, metavar="JSON",
                           help="gate p99/RPS against this serve baseline")
    loadgen_p.add_argument("--tolerance", type=float, default=1.0,
                           help="allowed p99 growth over baseline (default 1.0 "
                                "= may double; serving latency is noisy)")
    loadgen_p.add_argument("--rps-tolerance", type=float, default=0.25,
                           help="allowed achieved-RPS shortfall (default 0.25)")

    tune_p = sub.add_parser(
        "tune",
        help="autotune (format, variant, chunk, threads) for a matrix and "
             "persist the winner for variant=auto dispatch",
    )
    tune_p.add_argument("--matrix", required=True, help="suite matrix name")
    tune_p.add_argument("--scale", type=int, default=64,
                        help="divide the paper's matrix rows by this factor")
    tune_p.add_argument("-k", type=int, default=32, dest="k",
                        help="dense operand width to tune for")
    tune_p.add_argument("--formats", default="coo,csr,ell,bcsr", dest="format_list",
                        help="comma-separated candidate formats; entries accept "
                             "FormatSpec shorthand — a bare 'sell' samples the "
                             "default (chunk, sigma) grid, 'sell:c=32,sigma=512' "
                             "pins one parameter cell")
    tune_p.add_argument("--variants", default="serial,parallel",
                        help="comma-separated candidate variants")
    tune_p.add_argument("--thread-list", default="2,4,8",
                        help="thread counts swept for parallel variants (5.5.1)")
    tune_p.add_argument("--chunk-list", default="",
                        help="comma-separated chunk_elements budgets to sample")
    tune_p.add_argument("--mode", default="model", choices=["model", "wallclock"],
                        help="score with the deterministic machine model (default) "
                             "or real wall-clock timings")
    tune_p.add_argument("--machine", default="arm",
                        help="machine model for model-mode scoring")
    tune_p.add_argument("-n", "--n-runs", type=int, default=3,
                        help="timed repetitions per wallclock sample")
    tune_p.add_argument("--store", default=None, metavar="JSON",
                        help="tuned-table path (default: .repro_cache/tuned.json)")

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: every execution path against the reference",
    )
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="master seed; every case is a pure function of "
                             "(seed, index)")
    fuzz_p.add_argument("--budget", type=int, default=200,
                        help="number of fuzz cases to run (default 200)")
    fuzz_p.add_argument("--corpus", default=None, metavar="DIR",
                        help="directory for shrunk failing cases (JSON, replayable)")
    fuzz_p.add_argument("--replay", action="store_true",
                        help="re-run the saved corpus instead of fuzzing")
    fuzz_p.add_argument("--formats", default=None, dest="format_list",
                        help="comma-separated formats (default: all registered)")
    fuzz_p.add_argument("--variants", default="serial,parallel",
                        help="comma-separated kernel variants to differentiate")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="persist failures unshrunk (faster triage loop)")
    fuzz_p.add_argument("--trace", default=None, metavar="FILE",
                        help="write the fuzz tracer (fuzz_* counters) as JSON lines")

    study_p = sub.add_parser("study", help="regenerate a table/figure of the paper")
    study_p.add_argument("study", help="study id (table5.1, study1..study9, study3.1, all)")
    study_p.add_argument("--scale", type=int, default=None,
                         help="matrix scale (default: the studies' default)")
    study_p.add_argument("--out", default=None, help="write the report to a file")
    study_p.add_argument("--svg", default=None, metavar="DIR",
                         help="also render each figure table as an SVG bar chart")

    spy_p = sub.add_parser("spy", help="sparsity-pattern visualization of a matrix")
    spy_p.add_argument("--matrix", required=True, help="suite matrix name")
    spy_p.add_argument("--scale", type=int, default=32)
    spy_p.add_argument("--svg", default=None, metavar="FILE",
                       help="write an SVG spy plot instead of ASCII")
    spy_p.add_argument("--histogram", action="store_true",
                       help="also print the nonzeros-per-row histogram")

    sweep_p = sub.add_parser("sweep", help="Study 3.1 thread-list sweep")
    sweep_p.add_argument("--matrix", required=True)
    sweep_p.add_argument("--format", required=True, dest="format_name")
    sweep_p.add_argument("--scale", type=int, default=16)
    sweep_p.add_argument("--machine", default="arm")
    sweep_p.add_argument("--mode", default="model", choices=["wallclock", "model"])
    BenchParams.add_arguments(sweep_p)

    sub.add_parser("table", help="print Table 5.1 (matrix properties)")

    list_p = sub.add_parser("list", help="list registered components")
    list_p.add_argument("what", choices=["formats", "matrices", "machines", "variants"])

    roof_p = sub.add_parser("roofline", help="roofline placement of kernels on a machine")
    roof_p.add_argument("--matrix", required=True, help="suite matrix name")
    roof_p.add_argument("--formats", default="coo,csr,ell,bcsr", dest="format_list")
    roof_p.add_argument("--scale", type=int, default=32)
    roof_p.add_argument("--machine", default="arm")
    roof_p.add_argument("-k", type=int, default=128, dest="k")
    roof_p.add_argument("-t", "--threads", type=int, default=32)
    roof_p.add_argument("--execution", default="parallel", choices=["serial", "parallel"])

    select_p = sub.add_parser("select", help="recommend a format for a matrix")
    select_p.add_argument("--matrix", required=True, help="suite matrix name")
    select_p.add_argument("--scale", type=int, default=32)
    select_p.add_argument("--selector", default=None,
                          help="load a saved selector JSON instead of training")
    select_p.add_argument("--trajectories", default=None, metavar="PATHS",
                          help="comma-separated BENCH_*.json files or directories; "
                               "retrains the selector on their measured per-cell "
                               "winners (SpChar-style) instead of oracle labels only")
    select_p.add_argument("--save", default=None,
                          help="save the (trained) selector to this path")

    gen_p = sub.add_parser("gen-script",
                           help="generate a shell runtime script for a grid (paper 6.3.3)")
    gen_p.add_argument("--matrices", default="cant,torso1",
                       help="comma-separated suite matrices")
    gen_p.add_argument("--formats", default="coo,csr,ell,bcsr", dest="format_list")
    gen_p.add_argument("--variants", default="serial,parallel")
    gen_p.add_argument("--scale", type=int, default=32)
    gen_p.add_argument("--machine", default=None)
    gen_p.add_argument("--mode", default="wallclock",
                       choices=["wallclock", "model", "both"])
    gen_p.add_argument("--csv", default="results.csv")
    gen_p.add_argument("-o", "--output", default="run_grid.sh")
    BenchParams.add_arguments(gen_p)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import benchmark

    params = BenchParams.from_args(args)
    machine = None
    if args.machine:
        machine = get_machine(args.machine).with_scaled_caches(args.scale)
    result = benchmark(
        args.matrix,
        fmt=args.format_name,
        params=params,
        scale=args.scale,
        operation=args.operation,
        mode=args.mode,
        machine=machine,
    )
    if args.csv:
        print(results_to_csv([result]), end="")
        return 0
    print(f"matrix        : {result.matrix} (scale 1/{args.scale})")
    print(f"format        : {result.format_name}  variant: {result.variant}")
    p = result.properties
    print(f"shape         : {p.nrows} x {p.ncols}, nnz {p.nnz}, "
          f"column ratio {p.column_ratio:.1f}")
    print(f"format time   : {result.format_time_s * 1e3:.3f} ms")
    print(f"padding ratio : {result.padding_ratio:.3f}")
    print(f"footprint     : {result.footprint_bytes / 1e6:.3f} MB")
    if result.timing is not None:
        print(f"calc time     : {result.timing.mean * 1e3:.3f} ms "
              f"(best {result.timing.best * 1e3:.3f}, n={result.timing.n})")
        print(f"measured      : {result.mflops:,.1f} MFLOPS "
              f"({result.gflops:.3f} GFLOPS)")
        print(f"verified      : {result.verified}")
    if result.modeled is not None:
        print(f"modeled       : {result.modeled_mflops:,.1f} MFLOPS on {machine.name}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.observe import (
        Tracer,
        build_trajectory,
        compare_trajectories,
        load_trajectory,
        write_trajectory,
    )
    from .bench.report import write_trace_csv
    from .bench.runner import GridRunner, GridSpec
    from .kernels.plan import PlanCache

    study = args.study
    if args.suite is not None:
        suite_study = SUITE_STUDIES[args.suite]
        if study is not None and study != suite_study:
            raise BenchConfigError(
                f"--study {study} conflicts with --suite {args.suite} "
                f"(which implies --study {suite_study})"
            )
        study = suite_study
    study = study or "study1"
    grid = dict(BENCH_GRIDS[study])
    quick = grid.pop("quick", None)
    if args.quick:
        if quick is None:
            raise BenchConfigError(f"study {study!r} has no --quick cut")
        grid.update(quick)
    params = BenchParams(n_runs=args.n_runs, warmup=2, k=32, threads=4)
    operations = tuple(grid.get("operations", ()))
    k_values = tuple(grid.get("k_values", (params.k,)))
    spec = GridSpec(
        matrices=grid["matrices"],
        formats=grid["formats"],
        variants=grid["variants"],
        k_values=k_values,
        thread_counts=(params.threads,),
        scale=args.scale,
        operations=operations,
        base_params=params,
    )
    machine = None
    if args.machine:
        machine = get_machine(args.machine).with_scaled_caches(args.scale)
    elif args.mode in ("model", "both"):
        machine = get_machine("arm").with_scaled_caches(args.scale)

    config = dict(
        study=study,
        suite=args.suite,
        quick=args.quick,
        scale=args.scale,
        mode=args.mode,
        machine=machine.name if machine else None,
        n_runs=args.n_runs,
        k=params.k,
        k_values=list(k_values),
        threads=params.threads,
        matrices=list(grid["matrices"]),
        formats=list(grid["formats"]),
        variants=list(grid["variants"]),
        operations=list(operations) or ["spmm"],
        plan_cache=not args.no_plan_cache,
    )
    # The plan cache is shared across the whole grid (and the confirm
    # rerun), so repeat cells skip conversion; --no-plan-cache measures the
    # cold path of every cell.
    plan_cache = None
    if not args.no_plan_cache:
        plan_cache = PlanCache(directory=args.cache_dir)

    # Validate the gate inputs before spending seconds on the grid: a typo'd
    # baseline path or tolerance should fail fast, not after the run.
    if args.tolerance < 0:
        raise BenchConfigError(f"tolerance must be >= 0, got {args.tolerance}")
    baseline = load_trajectory(args.baseline) if args.baseline else None

    def run_grid():
        from ._compat import legacy_ok

        tracer = Tracer()
        with legacy_ok():  # internal delegation, not a legacy caller
            runner = GridRunner(
                spec, machine=machine, mode=args.mode, tracer=tracer, plan_cache=plan_cache
            )
        records = runner.run()
        return tracer, runner, records, build_trajectory(records, tracer, config)

    tracer, runner, records, trajectory = run_grid()
    report = None
    if baseline is not None:
        report = compare_trajectories(baseline, trajectory, tolerance=args.tolerance)
        if report.regressed and report.metric_kind == "time":
            # Wall-clock gates can trip on a load spike that inflated the
            # whole run; a regression verdict needs two slow runs in a row.
            # The modeled metric is deterministic — no rerun would change it.
            print("regression suspected; confirming with a rerun...")
            tracer2, runner2, records2, trajectory2 = run_grid()
            report2 = compare_trajectories(
                baseline, trajectory2, tolerance=args.tolerance
            )
            if report2.ratio < report.ratio:
                tracer, runner, records = tracer2, runner2, records2
                trajectory, report = trajectory2, report2

    out = args.out or f"BENCH_{study}.json"
    write_trajectory(trajectory, out)
    print(f"wrote {out} ({len(records)} cells, {len(runner.censored)} censored)")
    for stage, seconds in sorted(tracer.stage_times().items()):
        print(f"  stage {stage:<12} {seconds * 1e3:10.3f} ms")
    imbalance = tracer.imbalance()
    if imbalance is not None:
        print(f"  load imbalance  {imbalance:.3f} (max/mean - 1)")
    for name, count in sorted(tracer.warnings.items()):
        print(f"  warning {name}: {count}")
    if args.trace:
        print(f"wrote {tracer.to_jsonl(args.trace)}")
    if args.trace_csv:
        print(f"wrote {write_trace_csv(tracer, args.trace_csv)}")

    if report is not None:
        print()
        print(report.table())
        if report.regressed:
            return EXIT_REGRESSION
    return 0


def _parse_listen(listen: str) -> tuple[str, int]:
    host, _, port_text = listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise BenchConfigError(f"bad --listen address {listen!r}; use [HOST:]PORT")
    return host or "127.0.0.1", port


def _parse_tenants(text: str | None) -> dict[str, int]:
    tenants: dict[str, int] = {}
    for token in (text or "").split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, quota = token.partition("=")
        if not sep:
            raise BenchConfigError(f"bad --tenants entry {token!r}; use NAME=QUOTA")
        try:
            tenants[name.strip()] = int(quota)
        except ValueError:
            raise BenchConfigError(f"bad --tenants quota in {token!r}")
    return tenants


def _migration_knob(args: argparse.Namespace, default: bool):
    """--migration/--no-migration plus --migration-formats -> engine knob.

    Returns ``False``, ``True``, or a :class:`MigrationPolicy` that also
    probes the requested formats.
    """
    enabled = args.migration if args.migration is not None else default
    if not enabled:
        return False
    if args.migration_formats:
        from .engine import MigrationPolicy

        fmts = tuple(
            tok.strip().lower()
            for tok in args.migration_formats.split(",")
            if tok.strip()
        )
        if fmts:
            return MigrationPolicy(candidate_formats=fmts)
    return True


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen is not None:
        return _cmd_serve_listen(args)
    return _cmd_serve_jobs(args)


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """Persistent socket mode: serve until SIGTERM/SIGINT, drain, flush."""
    import signal

    from .serve import Server, ServeConfig

    host, port = _parse_listen(args.listen)
    config = ServeConfig(
        host=host,
        port=port,
        backend=args.backend,
        workers=args.workers,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        tenants=_parse_tenants(args.tenants),
        cache_dir=args.cache_dir,
        drain_grace_s=args.drain_grace,
        out=args.out or "BENCH_serve.json",
        migration=_migration_knob(args, default=True),
    )
    server = Server(config)
    server.start()

    def _drain_handler(_signum, _frame):
        print("drain requested; finishing in-flight work...", flush=True)
        server.request_drain()

    signal.signal(signal.SIGTERM, _drain_handler)
    signal.signal(signal.SIGINT, _drain_handler)

    print(f"serving on {host}:{server.port} "
          f"({server.config.backend or 'thread'} backend, "
          f"max_queue={config.max_queue}, "
          f"migration={'on' if config.migration else 'off'})", flush=True)
    # Wait in slices: a signal the kernel delivers to another thread only
    # flags the handler, which runs when the main thread next executes
    # bytecode — an untimed wait would never return to let it run.
    while not server.wait(timeout=0.5):
        pass
    trajectory = server._trajectory
    path = server.write_trajectory()
    accounting = trajectory["accounting"]
    lat = trajectory["latency_s"]
    print(f"wrote {path}")
    print(f"  admitted {accounting['admitted']}: completed "
          f"{accounting['completed']}, failed {accounting['failed']}, "
          f"cancelled {accounting['cancelled']}")
    print(f"  latency p50 {lat['p50_s'] * 1e3:.2f} ms  "
          f"p99 {lat['p99_s'] * 1e3:.2f} ms")
    if not accounting["balanced"]:
        print("  ACCOUNTING IMBALANCE: requests were lost", file=sys.stderr)
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import os
    import signal
    import subprocess

    from .bench.observe import write_trajectory
    from .serve.loadgen import LoadGenSpec, loadgen_trajectory, run_loadgen
    from .serve.trajectory import gate_serve_trajectory, load_serve_baseline

    if not args.spawn and args.port is None:
        raise BenchConfigError("loadgen needs --port (or --spawn)")
    baseline = load_serve_baseline(args.baseline) if args.baseline else None

    rps, duration, connections = args.rps, args.duration, args.connections
    if args.quick:
        rps, duration, connections = min(rps, 15.0), min(duration, 2.0), 2
    spec = LoadGenSpec(
        rps=rps,
        duration_s=duration,
        mix=args.mix,
        matrices=tuple(tok.strip() for tok in args.matrices.split(",") if tok.strip()),
        connections=connections,
        tenant=args.tenant,
        priorities=tuple(tok.strip() for tok in args.priorities.split(",") if tok.strip()),
        seed=args.seed,
        scale=args.scale,
    )

    child = None
    host, port = args.host, args.port
    try:
        if args.spawn:
            cmd = [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"]
            if args.backend:
                cmd += ["--backend", args.backend]
            if args.workers:
                cmd += ["--workers", str(args.workers)]
            cmd += ["--migration" if args.migration else "--no-migration"]
            if args.migration and args.migration_formats:
                cmd += ["--migration-formats", args.migration_formats]
            cmd += ["--out", os.devnull]
            child = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
            )
            # The server prints "serving on HOST:PORT ..." once it is live.
            banner = child.stdout.readline()
            if "serving on" not in banner:
                child.kill()
                rest = child.stdout.read()
                raise BenchConfigError(
                    f"spawned server failed to start: {banner!r} {rest!r}"
                )
            host, port = _parse_listen(banner.split()[2])
            print(f"spawned server pid {child.pid} on {host}:{port}")

        report = run_loadgen(host, port, spec)
    finally:
        if child is not None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()

    for line in report.summary_lines():
        print(line)
    if child is not None:
        print(f"spawned server drained with exit code {child.returncode}")

    trajectory = loadgen_trajectory(report)
    out = args.out or "BENCH_serve.json"
    write_trajectory(trajectory, out)
    print(f"wrote {out}")
    counters = report.server_stats.get("counters", {})
    completed = int(counters.get("migration_completed", 0))
    if completed or args.migration:
        print(f"  migration: completed {completed}, "
              f"rejected {int(counters.get('migration_rejected', 0))}, "
              f"served {int(counters.get('migration_served', 0))} "
              f"({report.hot_migrated} observed client-side)")

    failed = False
    if child is not None and child.returncode != 0:
        print("spawned server did not drain cleanly", file=sys.stderr)
        failed = True
    if baseline is not None:
        regressed, messages = gate_serve_trajectory(
            trajectory, baseline,
            tolerance=args.tolerance, rps_tolerance=args.rps_tolerance,
        )
        for message in messages:
            print(f"  gate: {message}")
        if regressed:
            return EXIT_REGRESSION
    elif not trajectory["accounting"]["balanced"]:
        print("  gate: accounting imbalance (requests lost)", file=sys.stderr)
        return EXIT_REGRESSION
    return 1 if failed else 0


def _cmd_serve_jobs(args: argparse.Namespace) -> int:
    from .bench.observe import Tracer, write_trajectory
    from .engine import Engine, load_jobs, results_to_trajectory
    from .kernels.plan import PlanCache

    requests = load_jobs(args.jobs)
    if args.no_plan_cache:
        plan_cache = PlanCache(maxsize=1)
    else:
        plan_cache = PlanCache(directory=args.cache_dir)
    tracer = Tracer()
    with Engine(
        workers=args.workers,
        max_in_flight=args.max_in_flight,
        plan_cache=plan_cache,
        tracer=tracer,
        backend=args.backend,
        migration=_migration_knob(args, default=False),
    ) as engine:
        results = engine.map_batch(requests)
        stats = engine.stats

    config = dict(
        jobs=args.jobs,
        n_jobs=len(requests),
        workers=engine.workers,
        backend=engine.backend,
        max_in_flight=args.max_in_flight,
        plan_cache=not args.no_plan_cache,
    )
    trajectory = results_to_trajectory(results, tracer, config)
    out = args.out or "BENCH_serve.json"
    write_trajectory(trajectory, out)

    built = int(stats.get("engine_plan_built", 0))
    shared = int(stats.get("engine_plan_shared", 0)) + int(
        stats.get("engine_plan_memory", 0)
    ) + int(stats.get("engine_plan_disk", 0))
    print(f"wrote {out} ({len(results)} jobs, {engine.workers} "
          f"{engine.backend} workers)")
    print(f"  plans built {built}, reused {shared} "
          f"(hit ratio {shared / max(1, built + shared):.2f})")
    print(f"  queue wait  {stats.get('engine_queue_wait_s', 0.0) * 1e3:10.3f} ms total")
    print(f"  plan stage  {stats.get('engine_plan_s', 0.0) * 1e3:10.3f} ms total")
    print(f"  execute     {stats.get('engine_execute_s', 0.0) * 1e3:10.3f} ms total")
    failed = int(stats.get("engine_failed", 0))
    if failed:
        print(f"  failed jobs {failed}")
    bad = [r for r in results if r.verified is False]
    if bad:
        print(f"  VERIFY FAILED for {len(bad)} jobs: "
              + ", ".join(r.request.label for r in bad[:5]))
        return 1
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .matrices.suite import load_matrix
    from .tune.autotune import DEFAULT_TUNE_CHUNKS, autotune
    from .tune.store import DEFAULT_STORE_PATH, TuneStore, set_active_store

    def _ints(text: str, flag: str) -> tuple[int, ...]:
        try:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise BenchConfigError(f"bad {flag}: {text!r}") from exc

    formats = tuple(tok.strip() for tok in args.format_list.split(",") if tok.strip())
    variants = tuple(tok.strip() for tok in args.variants.split(",") if tok.strip())
    thread_list = _ints(args.thread_list, "--thread-list") or (2, 4, 8)
    chunk_list = _ints(args.chunk_list, "--chunk-list") or DEFAULT_TUNE_CHUNKS

    machine = None
    if args.mode == "model":
        machine = get_machine(args.machine).with_scaled_caches(args.scale)
    triplets = load_matrix(args.matrix, scale=args.scale)
    store = TuneStore(args.store or DEFAULT_STORE_PATH)

    report = autotune(
        triplets,
        matrix_name=args.matrix,
        k=args.k,
        mode=args.mode,
        machine=machine,
        formats=formats,
        variants=variants,
        thread_list=thread_list,
        chunk_list=chunk_list,
        n_runs=args.n_runs,
        store=store,
    )
    set_active_store(store)

    print(f"tuned {args.matrix} (scale 1/{args.scale}, k={args.k}, "
          f"mode={args.mode}{', machine ' + machine.name if machine else ''})")
    print(f"sampled {len(report.cells)} cells:")
    header = (f"  {'format':<8} {'params':<22} {'variant':<10} {'threads':>7} "
              f"{'chunk':>12} {'MFLOPS':>14}")
    print(header)
    for fmt, fmt_params, variant, threads, chunk, mflops in report.table_rows():
        print(f"  {fmt:<8} {fmt_params:<22} {variant:<10} {threads:>7} "
              f"{chunk:>12} {mflops:>14}")
    d = report.decision
    winner_params = (
        "[" + ",".join(f"{n}={v}" for n, v in d.format_params) + "] "
        if d.format_params else ""
    )
    print(f"winner: {d.format_name}/{d.variant} {winner_params}threads={d.threads} "
          f"chunk_elements={d.chunk_elements} ({d.score_mflops:,.1f} MFLOPS)")
    print(f"recorded {d.fingerprint}:k{d.k} -> {store.path}")
    print("variant=auto dispatch will now pick this plan for the matrix")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .bench.observe import Tracer
    from .verify import replay_corpus, run_fuzz

    tracer = Tracer()
    if args.replay:
        if not args.corpus:
            raise BenchConfigError("--replay requires --corpus DIR")
        results = replay_corpus(args.corpus, tracer=tracer)
        if not results:
            print(f"corpus {args.corpus}: no entries to replay")
            return 0
        failing = [r for r in results if r["still_failing"]]
        for r in results:
            status = "STILL FAILING" if r["still_failing"] else "fixed"
            print(f"  {r['path']}: {status}")
            for message in r["messages"][:3]:
                print(f"    {message}")
        print(f"replayed {len(results)} corpus entries, {len(failing)} still failing")
        return EXIT_FUZZ if failing else 0

    formats = None
    if args.format_list:
        formats = tuple(tok.strip() for tok in args.format_list.split(",") if tok.strip())
    variants = tuple(tok.strip() for tok in args.variants.split(",") if tok.strip())
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        corpus_dir=args.corpus,
        formats=formats,
        variants=variants or ("serial",),
        tracer=tracer,
        shrink=not args.no_shrink,
    )
    print(report.summary())
    for f in report.failures:
        check = f["check"]
        where = "/".join(str(check[key]) for key in sorted(check))
        print(f"  case {f['index']} ({f['case']}) {where}: {f['error']}")
        print(f"    shrunk to {f['shrunk_shape'][0]}x{f['shrunk_shape'][1]} "
              f"nnz={f['shrunk_nnz']} in {f['shrink_steps']} steps")
    for path in report.corpus_paths:
        print(f"  wrote {path}")
    if args.trace:
        print(f"wrote {tracer.to_jsonl(args.trace)}")
    return EXIT_FUZZ if report.failures else 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .studies import STUDIES

    ids = list(STUDIES) if args.study == "all" else [args.study]
    unknown = [sid for sid in ids if sid not in STUDIES]
    if unknown:
        print(f"unknown study {unknown[0]!r}; available: {', '.join(STUDIES)}, all",
              file=sys.stderr)
        return 2
    chunks = []
    for sid in ids:
        kwargs = {"scale": args.scale} if args.scale else {}
        result = STUDIES[sid].run(**kwargs)
        chunks.append(result.to_text())
        if args.svg:
            _write_study_svgs(result, args.svg)
    report = "\n\n".join(chunks)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _write_study_svgs(result, out_dir: str) -> None:
    """Render each figure table of a study as an SVG bar chart."""
    from pathlib import Path

    from .bench.plots import chart_from_table
    from .errors import BenchConfigError

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe_study = result.study_id.replace(" ", "_").replace(".", "_").lower()
    for i, (title, headers, rows) in enumerate(result.tables):
        try:
            chart = chart_from_table(title, headers, rows)
        except BenchConfigError:
            continue  # non-numeric table (e.g. best-thread labels)
        path = directory / f"{safe_study}_{i:02d}.svg"
        path.write_text(chart.to_svg())
        print(f"wrote {path}")


def _cmd_spy(args: argparse.Namespace) -> int:
    from .matrices.spy import ascii_spy, row_histogram, svg_spy
    from .matrices.suite import load_matrix

    triplets = load_matrix(args.matrix, scale=args.scale)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg_spy(triplets, title=f"{args.matrix} (scale 1/{args.scale})"))
        print(f"wrote {args.svg}")
    else:
        print(f"{args.matrix} (scale 1/{args.scale}): "
              f"{triplets.nrows} x {triplets.ncols}, nnz {triplets.nnz}")
        print(ascii_spy(triplets))
    if args.histogram:
        print("\nnonzeros per row:")
        print(row_histogram(triplets))
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from .formats.registry import get_format as _get_format
    from .kernels.traces import trace_spmm
    from .machine.roofline import ascii_roofline, roofline_point
    from .matrices.suite import load_matrix

    machine = get_machine(args.machine).with_scaled_caches(args.scale)
    triplets = load_matrix(args.matrix, scale=args.scale)
    points = []
    for fmt in args.format_list.split(","):
        fmt = fmt.strip()
        params = {"block_size": 4} if fmt == "bcsr" else {}
        A = _get_format(fmt).from_triplets(triplets, **params)
        points.append(
            roofline_point(
                trace_spmm(A, args.k), machine, args.execution, args.threads,
                label=f"{fmt}",
            )
        )
    print(f"{args.matrix} on {machine.name}, {args.execution}"
          f"{f' @ {args.threads}t' if args.execution == 'parallel' else ''}, k={args.k}")
    print(ascii_roofline(points))
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from .matrices.properties import analyze
    from .matrices.suite import load_matrix
    from .select import FormatSelector, train_default_selector, train_selector

    if args.selector:
        selector = FormatSelector.load(args.selector)
        print(f"loaded selector ({selector.target})")
    elif args.trajectories:
        paths = [tok.strip() for tok in args.trajectories.split(",") if tok.strip()]
        print(f"training on trajectory winners from {len(paths)} path(s)...")
        selector = train_selector(paths)
        print(f"trained selector ({selector.target})")
    else:
        print("training the default selector (oracle-labeled synthetic corpus)...")
        selector = train_default_selector()
    if args.save:
        selector.save(args.save)
        print(f"saved selector to {args.save}")
    triplets = load_matrix(args.matrix, scale=args.scale)
    props = analyze(triplets, args.matrix)
    choice = selector.select(triplets)
    proba = selector.select_proba(triplets)
    print(f"\n{args.matrix}: column ratio {props.column_ratio:.1f}, "
          f"avg {props.avg_row_nnz:.1f} nnz/row, "
          f"ELL padding {props.ell_padding_fraction:.0%}")
    print(f"recommended format: {choice.upper()}")
    print("leaf distribution: " + ", ".join(
        f"{fmt}={p:.0%}" for fmt, p in sorted(proba.items(), key=lambda kv: -kv[1])
    ))
    return 0


def _cmd_gen_script(args: argparse.Namespace) -> int:
    from .bench.runner import GridSpec
    from .bench.scripts import write_runtime_script

    params = BenchParams.from_args(args)
    spec = GridSpec(
        matrices=tuple(args.matrices.split(",")),
        formats=tuple(args.format_list.split(",")),
        variants=tuple(args.variants.split(",")),
        k_values=(params.k,),
        thread_counts=(params.threads,),
        block_sizes=(params.block_size,),
        scale=args.scale,
        base_params=params,
    )
    path = write_runtime_script(
        spec, args.output, csv_path=args.csv, machine=args.machine, mode=args.mode
    )
    n_cells = sum(1 for _ in spec.configurations())
    print(f"wrote {path} ({n_cells} benchmark cells -> {args.csv})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ._compat import legacy_ok

    params = BenchParams.from_args(args).with_(variant="parallel")
    machine = get_machine(args.machine).with_scaled_caches(args.scale)
    with legacy_ok():  # internal delegation, not a legacy caller
        bench = SpmmBenchmark(args.format_name, params=params, machine=machine)
    bench.load_suite_matrix(args.matrix, scale=args.scale)
    thread_list = params.thread_list or (2, 4, 8, 16, 32, 48, 64, 72)
    sweep = run_thread_sweep(bench, thread_list, mode=args.mode)
    print(f"{args.matrix} / {args.format_name} on {machine.name}:")
    for threads, mflops in sweep.series():
        marker = "  <-- best" if threads == sweep.best_threads else ""
        print(f"  t={threads:<3} {mflops:>12,.1f} MFLOPS{marker}")
    return 0


def _cmd_table(_args: argparse.Namespace) -> int:
    from .studies import table_5_1

    print(table_5_1.run().to_text())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "formats":
        for name in format_names():
            print(name)
    elif args.what == "matrices":
        for name in matrix_names():
            print(name)
    elif args.what == "machines":
        seen = set()
        for name, machine in MACHINES.items():
            if machine.name in seen:
                continue
            seen.add(machine.name)
            print(f"{machine.name}: {machine.description}")
    else:
        for name in kernel_variants("spmm"):
            print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "tune": _cmd_tune,
        "fuzz": _cmd_fuzz,
        "study": _cmd_study,
        "sweep": _cmd_sweep,
        "table": _cmd_table,
        "list": _cmd_list,
        "spy": _cmd_spy,
        "select": _cmd_select,
        "gen-script": _cmd_gen_script,
        "roofline": _cmd_roofline,
    }
    try:
        return handlers[args.command](args)
    except SpmmBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
