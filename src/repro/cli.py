"""Command-line entry point: paper experiments and declarative scenarios.

Installed as ``repro-experiments``:

    repro-experiments list
    repro-experiments run figure2
    repro-experiments run-all --quick
    repro-experiments scenario list
    repro-experiments scenario validate my-spec.json
    repro-experiments scenario run figure2
    repro-experiments scenario run figure2 --backend simulated
    repro-experiments scenario sweep capacity-sweep --export sweep.csv
    repro-experiments scenario sweep straggler-sweep --backend simulated
    repro-experiments scenario calibrate figure2 --source simulated
    repro-experiments plan list
    repro-experiments plan run plan-bp-budget --format json
    repro-experiments plan run plan-gd-deadline --backend simulated
    repro-experiments hardware list
    repro-experiments serve --port 8765
    repro-experiments client evaluate figure2 --url http://127.0.0.1:8765
    repro-experiments client sweep capacity-sweep --mode async
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.errors import ExperimentError, ReproError
from repro.experiments import experiment_ids, run_all, run_experiment
from repro.experiments.plotting import render_table


def _add_scenario_run_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``scenario run`` and ``scenario sweep``."""
    parser.add_argument(
        "spec", help="a bundled scenario name (see 'scenario list') or a JSON file path"
    )
    parser.add_argument(
        "--workers",
        metavar="GRID",
        default=None,
        help=(
            "override the spec's worker grid: 'log:<start>:<stop>:<points>'"
            " (log-spaced, what the vectorized path makes cheap),"
            " '<min>:<max>[:<step>]', or an explicit list '1,2,4'"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("analytic", "simulated", "calibrated", "network"),
        default=None,
        help=(
            "override the spec's evaluation backend: 'analytic' (closed-form"
            " cost trees), 'simulated' (discrete-event cluster runs),"
            " 'calibrated' (measure, fit, evaluate the fitted family), or"
            " 'network' (flow-level runs over the spec's topology block)"
        ),
    )
    parser.add_argument(
        "--parallel",
        choices=("auto", "serial", "process"),
        default="auto",
        help="evaluation mode (default: auto — pool for expensive grids)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="process-pool size (default: cpu count)"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: ~/.cache/repro)"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute even if a cached result exists"
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="write the structured result to PATH (.json or .csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Modeling Scalability of"
            " Distributed Machine Learning' (Ulanov et al., ICDE 2017)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_parser.add_argument(
        "--quick", action="store_true", help="smaller grids/trials for a fast pass"
    )

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    run_all_parser.add_argument(
        "--quick", action="store_true", help="smaller grids/trials for a fast pass"
    )

    scenario_parser = subparsers.add_parser(
        "scenario", help="declarative scenario engine (see docs/scenarios.md)"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)

    scenario_sub.add_parser("list", help="list bundled scenario specs")

    validate_parser = scenario_sub.add_parser(
        "validate", help="check a scenario spec without running it"
    )
    validate_parser.add_argument(
        "spec", help="a bundled scenario name or a JSON file path"
    )

    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario and print its speedup report"
    )
    _add_scenario_run_options(scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="expand the sweep grid and print one summary row per point"
    )
    _add_scenario_run_options(scenario_sweep)
    scenario_sweep.add_argument(
        "--refine",
        action="store_true",
        help=(
            "progressive refinement: evaluate a coarse worker subset per"
            " grid point and densify only around the time minimum and the"
            " speedup knee (pointwise backends only)"
        ),
    )
    scenario_sweep.add_argument(
        "--stats",
        action="store_true",
        help="report store effectiveness (points reused vs computed)",
    )
    scenario_sweep.add_argument(
        "--trace",
        metavar="PATH",
        nargs="?",
        const="trace-spans.json",
        default=None,
        help=(
            "record spans for the whole run (compile, chunks, backend"
            " evaluations, store commits) and write them to PATH"
            " (default: trace-spans.json); view with 'repro-experiments"
            " trace export'"
        ),
    )

    cache_parser = scenario_sub.add_parser(
        "cache", help="inspect or clean the on-disk result store"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="what is stored: families, views, points, bytes"
    )
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every stored result (and stale staging files)"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="remove garbage only: stale temps, orphan chunks"
    )
    for cache_command in (cache_stats, cache_clear, cache_gc):
        cache_command.add_argument(
            "--cache-dir",
            default=None,
            help="result cache directory (default: ~/.cache/repro)",
        )
    cache_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="age past which unreferenced files count as garbage (default: 3600)",
    )

    calibrate_parser = scenario_sub.add_parser(
        "calibrate",
        help=(
            "measure a scenario through a backend, fit feature families to"
            " the measurements, and report MAPE/R² per family"
        ),
    )
    calibrate_parser.add_argument(
        "spec", help="a bundled scenario name (see 'scenario list') or a JSON file path"
    )
    calibrate_parser.add_argument(
        "--source",
        choices=("analytic", "simulated"),
        default=None,
        help=(
            "backend that takes the measurements (default: the spec's"
            " calibration block, else simulated when the workload is"
            " BSP-expressible, else analytic)"
        ),
    )
    calibrate_parser.add_argument(
        "--features",
        metavar="NAME[,NAME...]",
        default=None,
        help="feature families to fit (default: every library)",
    )
    calibrate_parser.add_argument(
        "--workers",
        metavar="GRID",
        default=None,
        help="override the spec's worker grid (same syntax as 'scenario run')",
    )
    calibrate_parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="write the calibration report to PATH (.json)",
    )

    plan_parser = subparsers.add_parser(
        "plan", help="capacity planner: provisioning decisions (see docs/planner.md)"
    )
    plan_sub = plan_parser.add_subparsers(dest="plan_command", required=True)

    plan_sub.add_parser("list", help="list bundled capacity plans")

    plan_validate = plan_sub.add_parser(
        "validate", help="check a plan spec without optimising it"
    )
    plan_validate.add_argument("spec", help="a bundled plan name or a JSON file path")

    plan_run = plan_sub.add_parser(
        "run", help="optimise a plan and print its recommendation"
    )
    plan_run.add_argument(
        "spec", help="a bundled plan name (see 'plan list') or a JSON file path"
    )
    plan_run.add_argument(
        "--backend",
        choices=("analytic", "simulated", "calibrated", "network"),
        default=None,
        help=(
            "override the evaluation backend candidates are measured"
            " through (e.g. stress-check a plan under the simulated"
            " backend's jitter and stragglers)"
        ),
    )
    plan_run.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable text (default) or the JSON payload",
    )
    plan_run.add_argument(
        "--parallel",
        choices=("auto", "serial", "process"),
        default="auto",
        help="evaluation mode (default: auto — pool for expensive grids)",
    )
    plan_run.add_argument(
        "--jobs", type=int, default=None, help="process-pool size (default: cpu count)"
    )
    plan_run.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: ~/.cache/repro)"
    )
    plan_run.add_argument(
        "--no-cache", action="store_true", help="recompute even if a cached result exists"
    )
    plan_run.add_argument(
        "--refine",
        action="store_true",
        help=(
            "progressive refinement: candidates evaluate a coarse worker"
            " subset and densify only around the optimum and the knee"
            " (pointwise backends only)"
        ),
    )
    plan_run.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help=(
            "write the recommendation to PATH (.json: full report;"
            " .csv: the priced candidate table)"
        ),
    )

    hardware_parser = subparsers.add_parser(
        "hardware", help="the hardware catalog scenario and plan specs draw from"
    )
    hardware_sub = hardware_parser.add_subparsers(dest="hardware_command", required=True)
    hardware_sub.add_parser(
        "list", help="list catalog entries with their key specs and prices"
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect span files written by 'scenario sweep --trace'"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a span file to Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    trace_export.add_argument("spans", help="a span file (repro-trace-v1 JSON)")
    trace_export.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output path (default: <spans>.chrome.json)",
    )
    trace_summary = trace_sub.add_parser(
        "summary", help="per-span-name wall/CPU time table for a span file"
    )
    trace_summary.add_argument("spans", help="a span file (repro-trace-v1 JSON)")

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-lived evaluation service (see docs/service.md)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="bind port (default: 8765; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--parallel",
        choices=("auto", "serial", "process"),
        default="auto",
        help="sweep evaluation mode (default: auto)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None, help="sweep process-pool size (default: cpu count)"
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: ~/.cache/repro)"
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true", help="recompute even if a cached result exists"
    )
    serve_parser.add_argument(
        "--target-cache",
        type=int,
        default=256,
        help="compiled-target LRU entries (default: 256)",
    )
    serve_parser.add_argument(
        "--coalesce-window",
        type=float,
        default=0.0,
        help=(
            "seconds the first of a batch of same-spec requests waits for"
            " more to join its vectorized evaluation (default: 0)"
        ),
    )
    serve_parser.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        help="in-flight request limit before answering 429 (default: 8)",
    )
    serve_parser.add_argument(
        "--job-workers", type=int, default=2, help="async job threads (default: 2)"
    )
    serve_parser.add_argument(
        "--max-jobs",
        type=int,
        default=32,
        help="queued+running async job limit before answering 429 (default: 32)",
    )
    serve_parser.add_argument(
        "--sync-limit",
        type=int,
        default=64,
        help=(
            "grid-point budget a sweep/plan may cost synchronously; larger"
            " requests become 202 jobs (default: 64)"
        ),
    )
    serve_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record request spans (bounded buffer); clients root them in"
            " their own traces via the X-Repro-Trace-Id header"
        ),
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes accepting on the shared port; >1 enables the"
            " pre-fork sharded mode with a respawning supervisor"
            " (default: 1 = classic single-process serving)"
        ),
    )
    serve_parser.add_argument(
        "--control-dir",
        default=None,
        help=(
            "sharded mode: directory for the worker registry and mirrored"
            " job state (default: a fresh temp directory)"
        ),
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help=(
            "sharded mode: seconds a SIGTERM'd worker may spend finishing"
            " in-flight requests before being killed (default: 10)"
        ),
    )

    client_parser = subparsers.add_parser(
        "client", help="talk to a running evaluation service"
    )
    # Shared by every client subcommand (so '--url' may follow the
    # subcommand, where people naturally type it).
    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument(
        "--url",
        default=None,
        help=(
            "service base URL (default: $REPRO_SERVICE_URL or"
            " http://127.0.0.1:8765)"
        ),
    )
    client_common.add_argument(
        "--timeout", type=float, default=60.0, help="request timeout seconds"
    )
    client_sub = client_parser.add_subparsers(dest="client_command", required=True)
    client_sub.add_parser("health", help="GET /healthz", parents=[client_common])
    client_sub.add_parser("specs", help="GET /v1/specs", parents=[client_common])
    client_sub.add_parser("hardware", help="GET /v1/hardware", parents=[client_common])

    client_evaluate = client_sub.add_parser(
        "evaluate",
        help="POST /v1/evaluate: one spec's speedup curve",
        parents=[client_common],
    )
    client_evaluate.add_argument(
        "spec", help="a builtin scenario name or a local JSON file (sent inline)"
    )
    client_evaluate.add_argument("--workers", metavar="GRID", default=None)
    client_evaluate.add_argument(
        "--backend", choices=("analytic", "simulated", "calibrated", "network"), default=None
    )

    client_sweep = client_sub.add_parser(
        "sweep",
        help="POST /v1/sweep: a whole sweep grid (may run as a job)",
        parents=[client_common],
    )
    client_sweep.add_argument(
        "spec", help="a builtin scenario name or a local JSON file (sent inline)"
    )
    client_sweep.add_argument("--workers", metavar="GRID", default=None)
    client_sweep.add_argument(
        "--backend", choices=("analytic", "simulated", "calibrated", "network"), default=None
    )
    client_sweep.add_argument("--mode", choices=("auto", "sync", "async"), default=None)
    client_sweep.add_argument(
        "--no-wait",
        action="store_true",
        help="print the 202 job handle instead of polling until done",
    )

    client_plan = client_sub.add_parser(
        "plan",
        help="POST /v1/plan: optimise a capacity plan (may run as a job)",
        parents=[client_common],
    )
    client_plan.add_argument(
        "spec", help="a builtin plan name or a local JSON file (sent inline)"
    )
    client_plan.add_argument(
        "--backend", choices=("analytic", "simulated", "calibrated", "network"), default=None
    )
    client_plan.add_argument("--mode", choices=("auto", "sync", "async"), default=None)
    client_plan.add_argument(
        "--no-wait",
        action="store_true",
        help="print the 202 job handle instead of polling until done",
    )

    client_calibrate = client_sub.add_parser(
        "calibrate",
        help="POST /v1/calibrate: measure, fit, rank feature families",
        parents=[client_common],
    )
    client_calibrate.add_argument(
        "spec", help="a builtin scenario name or a local JSON file (sent inline)"
    )
    client_calibrate.add_argument("--workers", metavar="GRID", default=None)
    client_calibrate.add_argument(
        "--source", choices=("analytic", "simulated"), default=None
    )
    client_calibrate.add_argument(
        "--features", metavar="NAME[,NAME...]", default=None
    )

    client_job = client_sub.add_parser(
        "job", help="GET /v1/jobs/<id>: poll a job", parents=[client_common]
    )
    client_job.add_argument("job_id", help="the job id a 202 answer returned")
    client_job.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    return parser


def _print_unknown_experiment(experiment: str) -> None:
    """A helpful unknown-id error: the valid ids, one per line."""
    print(f"error: unknown experiment {experiment!r}", file=sys.stderr)
    print("valid ids:", file=sys.stderr)
    for experiment_id in experiment_ids():
        print(f"  {experiment_id}", file=sys.stderr)


def _scenario_runner(args: argparse.Namespace):
    from repro.scenarios import SweepRunner

    return SweepRunner(
        mode=args.parallel,
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        refine=getattr(args, "refine", False),
    )


def _stats_line(stats: dict) -> str:
    mode = stats.get("mode", "?")
    points = stats.get("grid_points", "?")
    elapsed = stats.get("elapsed_s", 0.0)
    hit = " (cache hit)" if stats.get("cache_hit") else ""
    return f"[{points} grid point(s) via {mode}{hit} in {elapsed:.3f}s]"


def _store_stats_line(stats: dict) -> str:
    """The ``scenario sweep --stats`` line: store effectiveness."""
    reused = stats.get("points_reused", 0)
    computed = stats.get("points_computed", 0)
    line = f"[store: {reused} point(s) reused, {computed} computed]"
    if stats.get("mode") == "refine":
        evaluated = stats.get("evaluated_curve_points", 0)
        dense = stats.get("dense_total_curve_points", 0)
        fraction = stats.get("refine_fraction", 0.0)
        line += (
            f" [refine: evaluated {evaluated} of {dense} dense curve"
            f" point(s) ({fraction:.1%})]"
        )
    return line


def _phase_stats_line(stats: dict) -> str:
    """The ``--stats`` phase line: where the scheduler spent the run."""
    phases = stats.get("phases") or {}
    chunks = phases.get("chunk_count", 0)
    parts = [
        f"{chunks} chunk(s)",
        f"run {phases.get('chunk_run_s', 0.0):.3f}s",
        f"queue-wait {phases.get('chunk_queue_wait_s', 0.0):.3f}s",
        f"slowest {phases.get('slowest_chunk_s', 0.0):.3f}s",
    ]
    named = {
        name[:-len("_s")]: value
        for name, value in sorted(phases.items())
        if name.endswith("_s") and not name.startswith(("chunk_", "slowest_"))
    }
    for name, value in named.items():
        parts.append(f"{name} {value:.3f}s")
    return f"[tasks: {', '.join(parts)}]"


def _run_trace_command(args: argparse.Namespace) -> int:
    """``trace export|summary`` over a span file from ``--trace``."""
    import json

    from repro.obs import chrome_trace, load_spans, render_span_summary

    trace_id, records = load_spans(args.spans)
    if args.trace_command == "summary":
        print(f"== trace {trace_id}: {len(records)} span(s)")
        print()
        print(render_span_summary(records))
        return 0
    # export: Chrome trace-event JSON for chrome://tracing / Perfetto.
    out = args.out or f"{args.spans.removesuffix('.json')}.chrome.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records), handle)
    print(f"wrote {len(records)} span(s) to {out}")
    return 0


def _run_cache_command(args: argparse.Namespace) -> int:
    """``scenario cache stats|clear|gc`` over the columnar store."""
    from repro.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.cache_command == "stats":
        disk = store.disk_stats()
        print(f"store directory: {store.directory}")
        print(f"  families:      {disk['families']}")
        print(f"  views:         {disk['views']}")
        print(f"  points stored: {disk['points_stored']}")
        print(f"  bytes stored:  {disk['bytes_stored']}")
        print(f"  temp files:    {disk['temp_files']}")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    # gc: garbage only — live entries and fresh staging files survive.
    max_age = args.max_age if args.max_age is not None else 3600.0
    counts = store.gc(max_age_s=max_age)
    for name, count in counts.items():
        print(f"{name.replace('_', ' ')}: {count}")
    return 0


def _run_calibrate_command(args: argparse.Namespace, spec) -> int:
    from repro.scenarios.calibrate import calibrate_scenario

    features = None
    if args.features:
        features = tuple(name.strip() for name in args.features.split(",") if name.strip())
    report = calibrate_scenario(spec, source=args.source, features=features)
    print(f"== scenario calibrate: {spec.name} (measured via {report.source})")
    print()
    print(render_table(report.rows()))
    best = report.best
    print(
        f"best family: {best.features}"
        f" (MAPE {best.mape_pct:.2f}%, R² {best.r2:.4f})"
    )
    if args.export:
        target = report.to_json(args.export)
        print(f"exported to {target}")
    return 0


def _run_scenario_command(args: argparse.Namespace) -> int:
    from repro.scenarios import builtin_names, resolve_scenario, with_backend
    from repro.scenarios.bridge import scenario_experiment_result
    from repro.scenarios.grids import parse_worker_grid, with_workers
    from repro.scenarios.sweep import export_format

    if args.scenario_command == "list":
        for name in builtin_names():
            print(name)
        return 0
    if args.scenario_command == "cache":
        return _run_cache_command(args)

    spec = resolve_scenario(args.spec)
    if getattr(args, "workers", None):
        spec = with_workers(spec, parse_worker_grid(args.workers))
    if getattr(args, "backend", None):
        # Rewrites the spec's backend block, so the override flows into
        # the content hash (and hence the result cache) like any other
        # spec change.
        spec = with_backend(spec, args.backend)
    if args.scenario_command == "validate":
        print(
            f"ok: scenario {spec.name!r}"
            f" (algorithm {spec.algorithm.kind!r},"
            f" backend {spec.backend.kind!r},"
            f" {len(spec.workers)} worker counts,"
            f" {spec.grid_size} grid point(s))"
        )
        return 0
    if args.scenario_command == "calibrate":
        if args.export and export_format(args.export) != ".json":
            raise ReproError("calibration reports export as .json only")
        return _run_calibrate_command(args, spec)

    if args.export:
        # Fail before the run, not after: a rejected export target must
        # not cost a full (possibly expensive, uncached) sweep first.
        export_format(args.export)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs import tracer

        tracer().start()
    try:
        result = _scenario_runner(args).run(spec)
    finally:
        if trace_path:
            from repro.obs import render_span_summary, tracer, write_spans

            trace_id = tracer().trace_id
            records = tracer().drain()
            tracer().stop()
            if records:
                write_spans(trace_path, records, trace_id)
    if args.scenario_command == "run":
        print(scenario_experiment_result(spec, result).render())
    else:  # sweep
        print(f"== scenario sweep: {spec.name}")
        print()
        print(render_table(result.summary_rows()))
    print(_stats_line(result.stats))
    if getattr(args, "stats", False):
        print(_store_stats_line(result.stats))
        if result.stats.get("phases"):
            print(_phase_stats_line(result.stats))
    if trace_path:
        print(f"[trace: {len(records)} span(s) written to {trace_path}]")
        print(render_span_summary(records))
    if args.export:
        target = result.export(args.export)
        print(f"exported to {target}")
    return 0


def _run_plan_command(args: argparse.Namespace) -> int:
    import json

    from repro.planner import builtin_plan_names, resolve_plan, run_plan
    from repro.planner.report import export_format as plan_export_format
    from repro.scenarios import SweepRunner

    if args.plan_command == "list":
        for name in builtin_plan_names():
            print(name)
        return 0

    plan = resolve_plan(args.spec)
    if args.plan_command == "validate":
        constraints = plan.constraints.to_dict()
        print(
            f"ok: plan {plan.name!r}"
            f" (objective {plan.objective!r},"
            f" scenario {plan.scenario.name!r},"
            f" {plan.search.configurations} configuration(s) x"
            f" {len(plan.search.workers or plan.scenario.workers)} worker counts,"
            f" constraints {sorted(constraints) if constraints else 'none'})"
        )
        return 0

    if args.export:
        # Reject a bad export target before the (possibly expensive) run,
        # with the exact check Recommendation.export will apply after it.
        plan_export_format(args.export)
    runner = SweepRunner(
        mode=args.parallel,
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        refine=getattr(args, "refine", False),
    )
    recommendation = run_plan(plan, runner=runner, backend=args.backend)
    if args.format == "json":
        print(json.dumps(recommendation.payload(), indent=2))
    else:
        print(recommendation.render())
        print(_stats_line(recommendation.stats))
    if args.export:
        target = recommendation.export(args.export)
        print(f"exported to {target}")
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    from repro.service import serve, serve_sharded

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs import tracer

        # Started pre-fork in sharded mode: workers inherit the running
        # tracer across the fork, so every process records spans.
        tracer().start()
    service_options = dict(
        runner_mode=args.parallel,
        runner_jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        target_cache_size=args.target_cache,
        coalesce_window_s=args.coalesce_window,
        max_concurrency=args.max_concurrency,
        job_workers=args.job_workers,
        max_jobs=args.max_jobs,
        sync_grid_limit=args.sync_limit,
    )
    if args.workers > 1:
        return serve_sharded(
            host=args.host,
            port=args.port,
            workers=args.workers,
            control_dir=args.control_dir,
            drain_timeout_s=args.drain_timeout,
            **service_options,
        )
    return serve(host=args.host, port=args.port, **service_options)


def _run_client_command(args: argparse.Namespace) -> int:
    import os

    from repro.service import ServiceClient, canonical_json

    url = args.url or os.environ.get("REPRO_SERVICE_URL") or "http://127.0.0.1:8765"
    client = ServiceClient(url, timeout_s=args.timeout)
    command = args.client_command
    if command == "health":
        answer = client.health()
    elif command == "specs":
        answer = client.specs()
    elif command == "hardware":
        answer = client.hardware()
    elif command == "evaluate":
        answer = client.evaluate(args.spec, workers=args.workers, backend=args.backend)
    elif command == "sweep":
        answer = client.sweep(
            args.spec,
            workers=args.workers,
            backend=args.backend,
            mode=args.mode,
            wait=not args.no_wait,
        )
    elif command == "plan":
        answer = client.plan(
            args.spec, backend=args.backend, mode=args.mode, wait=not args.no_wait
        )
    elif command == "calibrate":
        features = None
        if args.features:
            features = [name.strip() for name in args.features.split(",") if name.strip()]
        answer = client.calibrate(
            args.spec, workers=args.workers, source=args.source, features=features
        )
    else:  # job
        answer = client.wait_job(args.job_id) if args.wait else client.job(args.job_id)
    print(canonical_json(answer), end="")
    return 0


def _run_hardware_command(args: argparse.Namespace) -> int:
    from repro.hardware import catalog_rows

    # args.hardware_command is always "list" today; argparse rejects
    # anything else before we get here.
    print(render_table(catalog_rows(), float_format="{:.4g}"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for experiment_id in experiment_ids():
                print(experiment_id)
            return 0
        if args.command == "run":
            try:
                result = run_experiment(args.experiment, quick=args.quick)
            except ExperimentError:
                # run_experiment is the single validator of experiment
                # ids; here we only reformat its unknown-id rejection
                # into a friendlier one-per-line listing.
                if args.experiment not in experiment_ids():
                    _print_unknown_experiment(args.experiment)
                    return 1
                raise
            print(result.render())
            return 0
        if args.command == "run-all":
            for result in run_all(quick=args.quick):
                print(result.render())
                print()
            return 0
        if args.command == "scenario":
            return _run_scenario_command(args)
        if args.command == "plan":
            return _run_plan_command(args)
        if args.command == "hardware":
            return _run_hardware_command(args)
        if args.command == "trace":
            return _run_trace_command(args)
        if args.command == "serve":
            return _run_serve_command(args)
        if args.command == "client":
            return _run_client_command(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # downstream closed early, e.g. `... | head`
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
