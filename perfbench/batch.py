"""The closed-loop batch workloads: analytic-batch and network-sweep.

One caller runs the seeded series op after op through the public entry
points (``parse_scenario`` + ``SweepRunner.run``, or ``parse_plan`` +
``run_plan``), each op timed from the parse to the finished payload.
Output checks and hashing happen between ops, outside the timed region.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import checks, inputs, layers
from perfbench.stats import summarize

#: Ops in one round of each series.  A run measures whole rounds, so every
#: run does the same mix of work; its first round is the ``output_digest``
#: set (for analytic-batch including the store-hit repeat).
ROUND_OPS = {"analytic-batch": inputs.ANALYTIC_ROUND, "network-sweep": inputs.NETWORK_ROUND}


def payload_hash(value: object) -> str:
    """Canonical hash of a payload; long numeric lists hash as float64 bytes."""
    import hashlib

    digest = hashlib.sha256()

    def feed(item: object) -> None:
        if isinstance(item, dict):
            digest.update(b"{")
            for key in sorted(item):
                digest.update(checks.canonical(key))
                feed(item[key])
            digest.update(b"}")
        elif isinstance(item, (list, tuple)):
            if len(item) > 8 and type(item[0]) in (int, float):
                digest.update(b"f64")
                digest.update(np.asarray(item, dtype=np.float64).tobytes())
            else:
                digest.update(b"[")
                for inner in item:
                    feed(inner)
                digest.update(b"]")
        else:
            digest.update(checks.canonical(item))

    feed(value)
    return digest.hexdigest()


@dataclass
class Op:
    index: int
    kind: str  # sweep | plan
    document: dict
    key: str = ""

    def __post_init__(self) -> None:
        self.key = f"{self.kind}:{checks.digest(self.document)}"


def series(workload: str, seed: int, index: int) -> Op:
    if workload == "analytic-batch":
        kind, document = inputs.analytic_op(seed, index)
        return Op(index, kind, document)
    return Op(index, "sweep", inputs.network_sweep(seed, index))


@dataclass
class Outcome:
    elapsed_s: float
    points: int
    payload: dict | None
    error: str = ""


class Executor:
    """Runs ops through the program's public entry points."""

    def __init__(self, workload: str, store_dir: Path) -> None:
        from repro.scenarios.sweep import SweepRunner

        self.workload = workload
        if workload == "analytic-batch":
            self.runner = SweepRunner(mode="serial", cache_dir=store_dir)
        else:
            self.runner = SweepRunner(mode="process", max_workers=2, cache_dir=store_dir)

    def run(self, op: Op) -> Outcome:
        from repro.core.errors import ReproError
        from repro.planner.search import run_plan
        from repro.planner.spec import parse_plan
        from repro.scenarios.spec import parse_scenario

        started = time.perf_counter()
        try:
            if op.kind == "plan":
                recommendation = run_plan(parse_plan(op.document), runner=self.runner)
                payload = recommendation.payload()
                points = len(recommendation.candidates)
            else:
                spec = parse_scenario(op.document)
                payload = self.runner.run(spec).payload()
                points = spec.grid_size * len(spec.workers)
        except ReproError as error:
            return Outcome(time.perf_counter() - started, 0, None, f"{type(error).__name__}: {error}")
        return Outcome(time.perf_counter() - started, points, payload)


def check_payload(op: Op, payload: dict) -> str:
    """Structural checks; returns a failure description or ''."""
    if op.kind == "plan":
        expected = len(op.document["search"]["nodes"]) * len(op.document["search"]["links"])
        expected *= len(op.document["search"]["topologies"]) * inputs.PLAN_WORKERS
        if payload.get("candidates_total") != expected:
            return f"plan has {payload.get('candidates_total')} candidates, expected {expected}"
        return ""
    grid = 1
    for values in op.document["sweep"].values():
        grid *= len(values)
    points = payload.get("points", [])
    if len(points) != grid:
        return f"sweep has {len(points)} points, expected {grid}"
    for point in points:
        times = point["times_s"]
        if len(times) != len(point["workers"]) or not all(t > 0 for t in times):
            return "sweep point has missing or non-positive times"
    return ""


class Tally(checks.Checked):
    def check(self, workload: str, op: Op, outcome: Outcome) -> bool:
        self.attempted += 1
        problem = outcome.error or check_payload(op, outcome.payload)
        if not problem and not self.ledger.record(op.key, payload_hash(outcome.payload)):
            problem = "repeat of an input produced a different payload (cached != uncached)"
        if op.index < ROUND_OPS[workload]:
            self.digest_keys.add(op.key)
        if problem:
            self.fail(f"op {op.index}: {problem}")
        return not problem


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def warm_up(workload: str, seed: int, scratch: Path) -> None:
    """One op of each kind on a throwaway store: imports and lazy set-up."""
    store = scratch / "warm-store"
    executor = Executor(workload, store)
    count = 2 if workload == "analytic-batch" else 1
    for index in range(count):
        executor.run(series(workload, seed + 1_000_003, index))
    shutil.rmtree(store, ignore_errors=True)


def run_untraced(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    tally = Tally()
    executor = Executor(workload, scratch / "store")
    latencies: dict[str, list[float]] = {"sweep": [], "plan": [], "round": []}
    round_rates: list[float] = []
    points = round_points = 0
    busy = round_s = 0.0
    index = 0
    while busy < seconds or index % ROUND_OPS[workload]:
        op = series(workload, seed, index)
        outcome = executor.run(op)
        if tally.check(workload, op, outcome):
            busy += outcome.elapsed_s
            points += outcome.points
            round_points += outcome.points
            latencies[op.kind].append(outcome.elapsed_s * 1e3)
        round_s += outcome.elapsed_s
        index += 1
        if index % ROUND_OPS[workload] == 0:
            latencies["round"].append(round_s * 1e3)
            round_rates.append(round_points / round_s)
            round_points, round_s = 0, 0.0
    extra = verify_network(seed, scratch, tally) if workload == "network-sweep" else {}
    return {
        "tally": tally,
        "points_per_s": points / busy if busy else 0.0,
        "round_points_per_s": statistics.median(round_rates),
        "latency_ms": {kind: summarize(values) for kind, values in latencies.items()},
        "peak_rss_mb": peak_rss_mb(),
        "extra": extra,
    }


def verify_network(seed: int, scratch: Path, tally: Tally) -> dict:
    """serial = process and cached = uncached on the digest ops (untimed)."""
    from repro.scenarios.spec import parse_scenario
    from repro.scenarios.sweep import SweepRunner

    serial = SweepRunner(mode="serial", use_cache=False, cache_dir=scratch / "serial-store")
    checked = 0
    for index in range(ROUND_OPS["network-sweep"]):
        op = series("network-sweep", seed, index)
        payload = serial.run(parse_scenario(op.document)).payload()
        tally.attempted += 1
        if tally.ledger.hashes.get(op.key) != payload_hash(payload):
            tally.fail(f"op {index}: serial payload differs from the pooled one")
        checked += 1
    pooled = Executor("network-sweep", scratch / "store")
    op = series("network-sweep", seed, 0)
    outcome = pooled.run(op)
    tally.check("network-sweep", op, outcome)
    return {"serial_checked": checked, "store_hit_checked": 1}


def run_traced(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Alternate untraced and traced copies of each op on separate stores.

    Both copies do the same work (each store starts empty), so the
    ratio of their summed times is the tracing overhead, and the traced
    copies alone give the per-layer split.
    """
    dump_dir = scratch / "layers"
    clock = layers.LayerClock(dump_dir)
    plain = Executor(workload, scratch / "store-plain")
    traced = Executor(workload, scratch / "store-traced")
    tally = Tally()
    plain_s = traced_s = 0.0
    dumps: list[dict] = []
    index = 0
    while plain_s + traced_s < seconds or index % ROUND_OPS[workload]:
        op = series(workload, seed, index)
        first = plain.run(op)
        tally.check(workload, op, first)
        installation = layers.attach(clock)
        try:
            second = traced.run(op)
        finally:
            installation.uninstall()
        tally.check(workload, op, second)
        dumps.extend(layers.collect(dump_dir))
        plain_s += first.elapsed_s
        traced_s += second.elapsed_s
        index += 1
    dumps.insert(0, clock.snapshot())
    stores = [traced.runner.store]
    return {
        "tally": tally,
        "layers": layers.batch_split(dumps, traced_s, stores),
        "trace_overhead_frac": traced_s / plain_s - 1.0 if plain_s else 0.0,
    }
