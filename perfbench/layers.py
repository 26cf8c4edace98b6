"""Per-layer timing for the traced run, attached from outside the program.

The benchmark never edits the program.  For a traced run it replaces
public functions and methods of each layer with timing wrappers, and
puts the originals back afterwards.  A wrapper counts the call and
measures its *self* time: its duration minus the duration of wrapped
calls nested inside it on the same thread.  So the self times of one
thread add up to the time spent inside wrapped calls, and nothing is
counted twice.

Wrappers installed before a fork reach the forked processes (sweep pool
workers and shard workers, both ``multiprocessing`` children).  Each
forked process starts from zero and, when it exits, writes its totals as
JSON into the dump directory, where :func:`collect` reads them back.

Timed runs never install anything.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

#: Request-id header the load generator sends and the HTTP wrapper reads,
#: so client latency and server time can be matched per request.
REQUEST_ID_HEADER = "X-Perfbench-Id"


class LayerClock:
    """Call counts, self seconds and extra tallies for one process."""

    def __init__(self, dump_dir: str | Path) -> None:
        self.dump_dir = Path(dump_dir)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.active = False
        self._reset()

    def _reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tallies: dict[str, float] = defaultdict(float)
        self.requests: dict[str, tuple[str, float]] = {}
        self.pooled_runs: list[float] = []
        self.ready_at: float | None = None
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs):
        frames = self._local.__dict__.setdefault("frames", [])
        frames.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = frames.pop()
            if frames:
                frames[-1] += elapsed
            with self._lock:
                self.calls[name] += 1
                self.self_s[name] += elapsed - nested

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.tallies[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "tallies": dict(self.tallies),
                "requests": dict(self.requests),
                "pooled_runs": list(self.pooled_runs),
                "ready_at": self.ready_at,
            }

    def dump(self) -> None:
        """Write this process's totals (called at process exit)."""
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        target = self.dump_dir / f"layers-{os.getpid()}.json"
        temporary = target.with_suffix(".part")
        temporary.write_text(json.dumps(self.snapshot()))
        temporary.replace(target)

    def after_fork(self) -> None:
        """In a forked child: start from zero, dump at exit.

        Runs among ``multiprocessing``'s after-fork hooks: the child drops
        the exit finalizers it inherited just before running them, so one
        registered any earlier would be lost.
        """
        if not self.active:
            return
        self._lock = threading.Lock()
        self._reset()
        mp_util.Finalize(None, self.dump, exitpriority=10)


def _timed(clock: LayerClock, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        if after is None:
            return clock.call(name, fn, args, kwargs)
        started = time.perf_counter()
        result = clock.call(name, fn, args, kwargs)
        after(args, result, started)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(clock: LayerClock, name: str, fn):
    def wrapper(*args, **kwargs):
        clock.count(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _points(clock: LayerClock, name: str):
    def after(args, result, started):
        try:
            clock.count(name, len(args[2]))
        except TypeError:
            clock.count(name, len(tuple(args[2])))

    return after


def _schedule(clock: LayerClock):
    def after(args, report, started):
        scheduler = args[0]
        timings = report.timings
        clock.count("sched.queue_wait_s", sum(t.queue_wait_s for t in timings.values()))
        clock.count("sched.chunks", sum(1 for name in timings if name.startswith("chunk-")))
        if scheduler.executor is not None and any(t.pooled for t in timings.values()):
            with clock._lock:
                clock.pooled_runs.append(started)

    return after


def _encoded(clock: LayerClock):
    def after(args, result, started):
        clock.count("service.wire.encode.bytes", len(result))

    return after


def _worker_ready(clock: LayerClock):
    def after(args, result, started):
        clock.ready_at = time.perf_counter()

    return after


def _http(clock: LayerClock, fn):
    """do_GET/do_POST: server time per request, keyed by the request id."""

    def wrapper(handler, *args, **kwargs):
        started = time.perf_counter()
        try:
            return clock.call("service.http", fn, (handler, *args), kwargs)
        finally:
            request_id = handler.headers.get(REQUEST_ID_HEADER)
            if request_id is not None:
                elapsed = time.perf_counter() - started
                with clock._lock:
                    clock.requests[request_id] = (str(os.getpid()), elapsed)

    wrapper.__wrapped__ = fn
    return wrapper


# (layer name, module, attribute path, style).  Functions are replaced in
# every repro module that imported them by name; methods on their class.
TARGETS = (
    ("scenarios.parse", "repro.scenarios.spec", "parse_scenario", "timed"),
    ("scenarios.compile", "repro.scenarios.compile", "compile_point", "timed"),
    ("sweep.assemble", "repro.scenarios.sweep", "evaluate_point", "timed"),
    ("sweep.run", "repro.scenarios.sweep", "SweepRunner.run", "timed"),
    ("sweep.payload", "repro.scenarios.sweep", "SweepResult.payload", "timed"),
    ("backend.analytic", "repro.core.backend", "AnalyticBackend.evaluate", "points"),
    ("backend.simulated", "repro.simulate.backend", "SimulatedBackend.evaluate", "points"),
    ("backend.network", "repro.net.backend", "NetworkBackend.evaluate", "points"),
    ("simulate.bsp.runs", "repro.simulate.bsp", "BSPEngine.run", "counted"),
    ("net.bsp.runs", "repro.net.engine", "FlowBSPEngine.run", "counted"),
    ("net.batch", "repro.net.flows", "FlowNetwork.batch", "timed"),
    ("net.max_min_rates.calls", "repro.net.flows", "max_min_rates", "counted"),
    ("sched.run", "repro.sched.runner", "GraphScheduler.run", "schedule"),
    ("sched.worker_ready", "repro.sched.state", "seed_worker_store", "ready"),
    ("store.plan", "repro.store.columnar", "ResultStore.plan", "timed"),
    ("store.commit", "repro.store.columnar", "ResultStore.commit", "timed"),
    ("store.points", "repro.store.columnar", "ResultStore.points", "timed"),
    ("planner.run_plan", "repro.planner.search", "run_plan", "timed"),
    ("planner.pareto", "repro.planner.pareto", "pareto_frontier", "timed"),
    ("planner.refine", "repro.core.scaling", "refine_optimal_workers", "timed"),
    ("planner.payload", "repro.planner.report", "Recommendation.payload", "timed"),
    ("service.handle.evaluate", "repro.service.handlers", "EvaluationService.handle_evaluate", "timed"),
    ("service.handle.sweep", "repro.service.handlers", "EvaluationService.handle_sweep", "timed"),
    ("service.handle.health", "repro.service.handlers", "EvaluationService.handle_health", "timed"),
    ("service.coalesce", "repro.service.handlers", "Coalescer.evaluate", "timed"),
    ("service.handle.metrics", "repro.obs.export", "render_prometheus", "timed"),
    ("service.metrics_merge", "repro.service.shard", "aggregated_metrics", "timed"),
    ("service.wire.encode", "repro.service.wire", "encode", "encoded"),
    ("service.http", "repro.service.app", "ServiceRequestHandler.do_GET", "http"),
    ("service.http", "repro.service.app", "ServiceRequestHandler.do_POST", "http"),
)


class Installation:
    """The wrappers currently in place, and how to put the originals back."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, style: str, fn):
        clock = self.clock
        if style == "counted":
            return _counted(clock, name, fn)
        if style == "http":
            return _http(clock, fn)
        after = {
            "points": lambda: _points(clock, f"{name}.points"),
            "schedule": lambda: _schedule(clock),
            "encoded": lambda: _encoded(clock),
            "ready": lambda: _worker_ready(clock),
        }.get(style, lambda: None)()
        return _timed(clock, name, fn, after)

    def install(self) -> "Installation":
        for module_name in {module for _n, module, _a, _s in TARGETS} | {"repro.cli"}:
            importlib.import_module(module_name)
        for name, module_name, path, style in TARGETS:
            owner = sys.modules[module_name]
            *classes, attribute = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, style, original)
            if classes:
                self._set(owner, attribute, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        self.clock.active = True
        return self

    def _set(self, owner, attribute, value) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        self.clock.active = False
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()


_FORK_HOOKED: set[int] = set()


def attach(clock: LayerClock) -> Installation:
    """Install the wrappers and make forked children reset and dump."""
    if id(clock) not in _FORK_HOOKED:
        mp_util.register_after_fork(clock, LayerClock.after_fork)
        _FORK_HOOKED.add(id(clock))
    return Installation(clock).install()


def collect(dump_dir: str | Path) -> list[dict]:
    """Every process dump written so far (and removes them)."""
    dumps = []
    for path in sorted(Path(dump_dir).glob("layers-*.json")):
        dumps.append(json.loads(path.read_text()))
        path.unlink()
    return dumps


# -- the per-layer metrics a traced run prints -------------------------------

_TIMED = (
    "scenarios.parse", "scenarios.compile", "sweep.run", "backend.analytic",
    "backend.simulated", "backend.network", "net.batch", "sched.run",
    "store.plan", "store.commit", "store.points", "planner.run_plan",
    "planner.pareto", "planner.refine", "service.http",
    "service.handle.evaluate", "service.handle.sweep", "service.handle.metrics",
    "service.coalesce", "service.wire.encode",
)
_SELF_ONLY = ("sweep.assemble", "sweep.payload", "planner.payload", "service.metrics_merge")
_COUNTS = ("simulate.bsp.runs", "net.bsp.runs", "net.max_min_rates.calls")

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *(
        row
        for name in _TIMED
        for row in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))
    ),
    *((f"{name}.self_s", "s", "lower") for name in _SELF_ONLY),
    *((name, "count", "lower") for name in _COUNTS),
    ("backend.analytic.points", "count", "lower"),
    ("backend.simulated.points", "count", "lower"),
    ("backend.network.points", "count", "lower"),
    ("sched.queue_wait_s", "s", "lower"),
    ("sched.chunks", "count", "lower"),
    ("sched.pool_start_s", "s", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("service.request_cache.hit_ratio", "ratio", "higher"),
    ("service.target_cache.hit_ratio", "ratio", "higher"),
    ("service.wire.encode.bytes", "B", "lower"),
    ("service.transport_ms.p50", "ms", "lower"),
    ("shard.respawns", "count", "lower"),
    ("shard.balance", "ratio", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("unattributed_frac", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def merged(dumps: list[dict]) -> dict:
    """Calls, self seconds and tallies summed over process dumps."""
    total = {"calls": defaultdict(int), "self_s": defaultdict(float), "tallies": defaultdict(float)}
    for dump in dumps:
        for section in total:
            for name, value in dump[section].items():
                total[section][name] += value
    return total


def pool_start_s(dumps: list[dict]) -> float:
    """Per pooled scheduler run: start -> last of its workers ready; summed."""
    starts = sorted(start for dump in dumps for start in dump["pooled_runs"])
    ready = [dump["ready_at"] for dump in dumps if dump["ready_at"] is not None]
    latest: dict[float, float] = {}
    for moment in ready:
        owners = [start for start in starts if start <= moment]
        if owners:
            latest[owners[-1]] = max(latest.get(owners[-1], 0.0), moment - owners[-1])
    return sum(latest.values())


def layer_metrics(dumps: list[dict], extras: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric: measured totals, then ``extras``."""
    total = merged(dumps)
    values: dict[str, float] = {}
    for name in _TIMED:
        values[f"{name}.calls"] = total["calls"].get(name, 0)
        values[f"{name}.self_s"] = total["self_s"].get(name, 0.0)
    for name in _SELF_ONLY:
        values[f"{name}.self_s"] = total["self_s"].get(name, 0.0)
    for name, value in total["tallies"].items():
        values[name] = value
    values["sched.pool_start_s"] = pool_start_s(dumps)
    values.update(extras)
    return {name: float(values.get(name, 0.0)) for name, _unit, _better in PER_LAYER}


def batch_split(dumps: list[dict], wall_s: float, stores) -> dict[str, float]:
    """Per-layer metrics of a batch run; ``dumps[0]`` is the bench process.

    ``unattributed_frac`` compares the bench process's summed self time
    with the traced ops' wall time: pool workers run concurrently with
    the scheduler waiting on them, so only the caller's thread is summed.
    """
    attributed = sum(dumps[0]["self_s"].values())
    hits = misses = written = 0
    for store in stores:
        stats = store.stats()
        hits += stats["hits"]
        misses += stats["misses"] + stats["deltas"]
        written += store.disk_stats()["bytes_stored"]
    extras = {
        "store.bytes_written": written,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "unattributed_frac": 1.0 - attributed / wall_s if wall_s else 0.0,
    }
    return layer_metrics(dumps, extras)
