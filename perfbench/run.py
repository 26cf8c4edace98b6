#!/usr/bin/env python3
"""The repository benchmark: four workloads over the public entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytic-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to
the program.  ``--trace 1`` is a separate run that attaches per-layer
timing wrappers and prints the per-layer split instead.  Either way the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is a report with every workload-specific figure,
the ``output_digest`` and the machine facts.  See ``perfbench/README.md``
for the workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analytic-batch", "network-sweep", "serve-oneshot", "serve-fleet")

#: (name, unit, better) of the end-to-end metrics every workload prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
BATCH_SETUP_TRIALS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_facts(workload: str) -> dict:
    import numpy

    serving = workload.startswith("serve")
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.machine(),
        "generator_threads": 2 if serving else 1,
        "connections": 2 if serving else 0,
    }


def batch_setup_s(workload: str, seed: int) -> float:
    """Median wall time of fresh processes doing this workload's set-up."""
    samples = []
    for _trial in range(BATCH_SETUP_TRIALS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def probe(workload: str, seed: int, scratch: Path) -> None:
    """One set-up: imports, input generation, warm-up."""
    from perfbench import batch

    for index in range(batch.ROUND_OPS[workload]):
        batch.series(workload, seed, index)
    batch.warm_up(workload, seed, scratch)


def batch_untraced(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, dict, object]:
    from perfbench import batch

    setup_s = batch_setup_s(workload, seed)
    probe(workload, seed, scratch)
    run = batch.run_untraced(workload, seed, seconds, scratch)
    latency = run["latency_ms"]
    # analytic-batch: one plan; network-sweep: one round of its four sweeps,
    # whose families differ too much in cost for a per-sweep median.
    main = "plan" if workload == "analytic-batch" else "round"
    # Throughput is the median over rounds, so a slow spell of the machine
    # that spans a round or two does not move it.
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": run["round_points_per_s"],
        "p50_ms": latency[main]["p50"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = {
        "setup_s": setup_s,
        "points_per_s": run["points_per_s"],
        "round_points_per_s": run["round_points_per_s"],
        f"{main}_p50_ms": latency[main]["p50"],
        **{f"{kind}_latency_ms": summary for kind, summary in latency.items() if summary["n"]},
        "peak_rss_mb": run["peak_rss_mb"],
        "checks": run["extra"],
    }
    return metrics, report, run["tally"]


def tail_name(step: dict, rate: str) -> str:
    """``p99_ms.high`` and the like: the tail named by its percentile."""
    percentile = step["tail_pct"]
    return f"{'max' if percentile is None else f'p{percentile:g}'}_ms.{rate}"


def serve_untraced(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, dict, object]:
    from perfbench import serve

    run = serve.run_untraced(workload, ROOT, scratch, seed, seconds)
    low, high, ladder = run["low"], run["high"], run["ladder"]
    # The ladder's answer is a rung, and a probe near the knee passes or
    # fails by chance, so it flips between rungs from run to run; the
    # closed-loop rate (median over its blocks) is the steady figure.
    metrics = {
        "setup_s": run["setup_s"],
        "throughput_per_s": run["capacity_rps"],
        "p50_ms": high["p50_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    profile = serve.PROFILES[workload]
    report = {
        "setup_s": run["setup_s"],
        "rates_rps": {"low": profile.low_rps, "high": profile.high_rps},
        "p50_ms.low": low["p50_ms"],
        tail_name(low, "low"): low["tail_ms"],
        "p50_ms.high": high["p50_ms"],
        tail_name(high, "high"): high["tail_ms"],
        "requests": {"low": low["sent"], "high": high["sent"]},
        "evaluate_p50_ms": high["p50_by_kind"]["evaluate"],
        "sweep_p50_ms": high["p50_by_kind"]["sweep"],
        "max_rate_rps": ladder["rate"],
        "capacity_rps": run["capacity_rps"],
        "ladder": {"resolved": ladder["resolved"], "probes": ladder["probes"], "limit_ms": profile.limit_ms},
        "loadgen_lag_p99_ms": {"low": low["lag_p99_ms"], "high": high["lag_p99_ms"]},
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, report, run["verifier"]


def traced(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[dict, dict, object]:
    if workload.startswith("serve"):
        from perfbench import serve

        run = serve.run_traced(workload, ROOT, scratch, seed, seconds)
        return run["layers"], {}, run["verifier"]
    from perfbench import batch

    probe(workload, seed, scratch)
    run = batch.run_traced(workload, seed, seconds, scratch)
    metrics = dict(run["layers"], trace_overhead_frac=run["trace_overhead_frac"])
    return metrics, {}, run["tally"]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # The script's own directory would shadow top-level modules with the
    # benchmark's module names; import it as the ``perfbench`` package.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    # A SIGTERM from whoever runs the benchmark unwinds through the
    # ``finally`` blocks, which stop the server and remove the scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    try:
        import repro

        if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
            print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
            return 2
        if args.probe:
            probe(args.workload, args.seed, scratch)
            print("ready")
            return 0
        if args.trace:
            metrics, report, checked = traced(args.workload, args.seed, args.seconds, scratch)
            from perfbench.layers import PER_LAYER

            units = {name: unit for name, unit, _better in PER_LAYER}
        else:
            runner = serve_untraced if args.workload.startswith("serve") else batch_untraced
            metrics, report, checked = runner(args.workload, args.seed, args.seconds, scratch)
            units = {name: unit for name, unit, _better in END_TO_END}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = max(1, checked.attempted)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "report": report,
                "failed_frac": checked.failed / attempted,
                "failures": checked.failures,
                "output_digest": checked.ledger.output_digest(checked.digest_keys),
                "machine": machine_facts(args.workload),
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": checked.failed == 0,
                "attempted": attempted,
                "failed": checked.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
