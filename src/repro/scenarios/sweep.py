"""The sweep engine: expand a scenario's grid and evaluate every point.

Each grid point is an independent compile-and-evaluate task — the
cartesian product of the spec's sweep axes applied as overrides.  A
sweep executes as a :mod:`repro.sched` task graph::

    reference        chunk-0000[0:N]  chunk-0001[N:2N]  ...
        \\                |                /
         \\               v               v
          +----------->  merge  <--------+
                           |
                           v
                      crossovers

Grid points are batched into contiguous *chunks* sized by what one
point costs (:func:`repro.sched.chunks.chunk_size_for`): big chunks for
cheap closed-form points so the vectorized ``times()`` path stays hot
inside each dispatched task, load-balancing slices for expensive
simulated or Monte-Carlo points.  In ``process`` mode the chunks run on
a :class:`~concurrent.futures.ProcessPoolExecutor` whose initializer
ships the compiled spec payload to each worker **once**, keyed by spec
content hash (see :mod:`repro.sched.state`) — a chunk task pickles only
its override dicts, not the whole spec per point as the old
point-at-a-time pool did.  ``serial`` mode runs the *same* graph inline.

:class:`SweepRunner` offers three modes:

``serial``
    Evaluate the graph in-process.  The fast path for closed-form
    models, where a point costs microseconds and pool startup would
    dominate.
``process``
    Chunks on a process pool.  Pays off when a point is expensive —
    Monte-Carlo-backed scenarios (the BP estimator re-samples
    assignments per point), simulated- or calibrated-backend points (a
    discrete-event run per worker count), or very large grids.
``auto``
    CPU- and cost-aware: ``serial`` on a single CPU (a pool can never
    beat serial without a second core), ``process`` for expensive
    scenarios with more than one point or cheap grids past
    :data:`PARALLEL_THRESHOLD` (enough points for at least two full
    cheap chunks), ``serial`` otherwise.

Simulated points are deterministic regardless of mode: engine seeds
derive from the spec content and the grid point (see
:func:`repro.scenarios.compile.compile_point`), never from pool-worker
identity, and chunks partition the grid in order — so serial and
process runs of the same spec produce byte-identical payloads, a
property the test suite pins across all three backends.

A failing grid point — however deep in the pool — surfaces as one clean
:class:`~repro.core.errors.ScenarioError` naming the failed chunk;
downstream tasks never run, so the cache (written only after a fully
successful run) can never hold a partial sweep.

Results persist in the columnar store (:mod:`repro.store.columnar`):
point curves land in memory-mapped structured arrays keyed at **point**
level, so a re-run of an identical spec is a pure file map, and a run
whose grid merely *overlaps* a stored one schedules only the missing
points and merges the rest column-wise (``stats["points_reused"]``
proves the delta).  ``refine`` mode trades grid density for targeted
evaluations instead (:mod:`repro.store.refine`).  The store is the
only persistence layer sweeps use; the service's sweeps go through it
too.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import ScenarioError
from repro.obs.trace import tracer
from repro.sched import (
    CHEAP_CHUNK_POINTS,
    Dep,
    ExecutionReport,
    GraphScheduler,
    TaskFailure,
    TaskGraph,
    chunk_size_for,
    partition,
    seed_worker_store,
    worker_store,
)
from repro.core.speedup import SpeedupCurve
from repro.scenarios.compile import compile_point, is_expensive
from repro.scenarios.spec import ScenarioSpec, parse_scenario
from repro.store.columnar import LazyPoints, ResultStore, StorePlan
from repro.store.refine import refine_worker_grid

#: Cheap-grid size at which ``auto`` mode reaches for the pool: below
#: two full chunks of closed-form points, dispatch cannot amortise.
PARALLEL_THRESHOLD = 2 * CHEAP_CHUNK_POINTS

MODES = ("auto", "serial", "process")

#: Recognised structured-export formats, by file suffix.
EXPORT_SUFFIXES = (".json", ".csv")


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-linux fallback
        return os.cpu_count() or 1


def export_format(path: str | Path) -> str:
    """The export suffix for ``path``, validated.

    Shared by :meth:`SweepResult.export` and the CLI's pre-run check, so
    a rejected target fails *before* a possibly expensive sweep runs and
    both layers agree on what counts as a valid target.
    """
    suffix = Path(path).suffix.lower()
    if suffix not in EXPORT_SUFFIXES:
        raise ScenarioError(
            f"cannot infer export format from {str(path)!r};"
            f" use {' or '.join(EXPORT_SUFFIXES)}"
        )
    return suffix


def expand_grid(spec: ScenarioSpec) -> list[dict[str, object]]:
    """The cartesian product of the sweep axes, as override dicts.

    A sweep-free scenario yields a single empty override: the base point.
    """
    if not spec.sweep:
        return [{}]
    axes = [axis for axis, _values in spec.sweep]
    value_lists = [values for _axis, values in spec.sweep]
    return [dict(zip(axes, combo)) for combo in itertools.product(*value_lists)]


def curve_record(curve: SpeedupCurve) -> dict:
    """A curve's eight payload keys, ``workers`` … ``is_scalable``, in wire order.

    Every curve-bearing payload — sweep points, refined points and the
    service's ``/v1/evaluate`` result — splices these in right after
    ``backend_config``; exports and wire bytes serialise in insertion
    order, and :func:`repro.store.columnar.materialize_point` rebuilds
    the same order from a stored row.
    """
    return {
        "workers": list(curve.workers),
        "times_s": list(curve.times),
        "speedups": list(curve.speedups),
        "efficiencies": list(curve.efficiencies),
        "baseline_workers": curve.baseline_workers,
        "optimal_workers": curve.optimal_workers,
        "peak_speedup": curve.peak_speedup,
        "is_scalable": curve.is_scalable,
    }


def evaluate_point(spec: ScenarioSpec, overrides: Mapping[str, object]) -> dict:
    """Compile one grid point and evaluate its speedup curve.

    Returns a JSON-serialisable record: the overrides, the full curve,
    and the headline scalars (optimal workers, peak speedup, whether the
    point is scalable at all).  Evaluation goes through the point's
    :class:`~repro.core.backend.EvaluationBackend` — one batched
    cost-tree call on the analytic path, a discrete-event run per worker
    count on the simulated path, a measure-and-fit on the calibrated
    path.
    """
    target, backend = compile_point(spec, overrides)
    curve = backend.curve(
        target, spec.workers, spec.baseline_workers, label=spec.name
    )
    return {
        "overrides": dict(overrides),
        "backend": backend.name,
        "backend_config": backend.config(),
        **curve_record(curve),
    }


# --------------------------------------------------------------------------
# Task-graph building blocks.  The pool-destined entry points are
# module-level (they must pickle); the spec itself never rides in a task —
# workers fetch it from their seeded payload store by content hash.
# --------------------------------------------------------------------------


def _evaluate_chunk(spec_key: str, chunk: tuple[dict, ...]) -> list[dict]:
    """Process-pool chunk task: evaluate a contiguous run of grid points.

    The spec was shipped to this worker once, by the pool initializer;
    it is parsed on the worker's first chunk and cached for its lifetime
    (see :class:`repro.sched.state.WorkerPayloadStore`), so a chunk task
    carries only its override dicts over the pipe.
    """
    spec = worker_store().value(spec_key, parse_scenario)
    return [evaluate_point(spec, overrides) for overrides in chunk]


def _evaluate_chunk_inline(spec: ScenarioSpec, chunk: tuple[dict, ...]) -> list[dict]:
    """Serial-mode chunk task: same batch shape, no transport."""
    return [evaluate_point(spec, overrides) for overrides in chunk]


def _init_pool_worker(payloads: dict[str, dict]) -> None:
    """Pool initializer: seed the payload store, reset inherited telemetry.

    Fork-started workers inherit the parent's tracer buffer; without the
    reset a traced chunk would re-export the parent's spans (duplicate
    span ids in the tree).  Traced chunk tasks then re-join the parent's
    trace per task via :func:`_evaluate_chunk_traced`.
    """
    seed_worker_store(payloads)
    tracer().reset()


def _evaluate_chunk_traced(
    spec_key: str,
    chunk: tuple[dict, ...],
    name: str,
    context: tuple[str, str | None],
) -> dict:
    """Pool chunk task under tracing: adopt the submitting trace.

    ``context`` carries ``(trace_id, parent_span_id)`` captured when the
    graph was built; the worker's spans (this chunk, its compiles, its
    backend batches) re-parent under the submitting sweep and ride home
    with the points, where the traced merge absorbs them.
    """
    trace = tracer()
    trace.adopt(*context)
    with trace.span("sched.task", {"task": name, "pooled": True, "points": len(chunk)}):
        points = _evaluate_chunk(spec_key, chunk)
    return {"points": points, "spans": [r.to_dict() for r in trace.drain()]}


def _merge_chunks(*chunks: list[dict]) -> list[dict]:
    """Concatenate chunk results back into grid order.

    Chunks partition the grid contiguously and arrive here as
    dependency results in chunk-index order, so the merge is exactly the
    serial ordering whatever order the pool finished in.
    """
    return [point for chunk in chunks for point in chunk]


def _merge_chunks_traced(*chunks: dict) -> list[dict]:
    """Merge traced pool chunks: fold worker spans back, keep grid order."""
    trace = tracer()
    points: list[dict] = []
    for chunk in chunks:
        trace.absorb(chunk["spans"])
        points.extend(chunk["points"])
    return points


def _merged_with_crossovers(points: list[dict], reference: dict | None) -> list[dict]:
    _attach_crossovers(points, reference)
    return points


def build_sweep_graph(
    spec: ScenarioSpec,
    grid: list[dict[str, object]],
    *,
    chunk_size: int,
    pooled: bool,
    attach_crossovers: bool = True,
) -> tuple[TaskGraph, str]:
    """The task graph of one sweep; returns ``(graph, final_task_name)``.

    ``compile → N chunk-evaluate → merge → crossovers``: the reference
    point (a swept scenario's own declared configuration) evaluates
    inline and in parallel with the pool's chunks; the merge and the
    crossover annotation depend on everything before them.

    A delta run (computing only a stored grid's missing points) passes
    ``attach_crossovers=False``: its ``grid`` is a subset, so crossovers
    are attached later, over the merged full grid.  The reference task
    still runs — every grid signature needs its own reference.
    """
    graph = TaskGraph()
    if spec.sweep:
        # Headline metrics and crossovers are measured against the
        # spec's own configuration, not an arbitrary grid corner.
        graph.add("reference", evaluate_point, spec, {})
    chunk_results = []
    key = spec.content_hash()
    # Under tracing, pooled chunks carry the sweep's (trace id, parent
    # span) so worker-side spans land in the submitting trace; serial
    # chunks need nothing — the scheduler's inline spans nest naturally.
    traced = pooled and tracer().enabled
    if traced:
        current = tracer().current()
        context = current if current is not None else (tracer().trace_id, None)
    for i, (start, stop) in enumerate(partition(len(grid), chunk_size)):
        name = f"chunk-{i:04d}[{start}:{stop}]"
        chunk = tuple(grid[start:stop])
        if traced:
            graph.add(name, _evaluate_chunk_traced, key, chunk, name, context, pool=True)
        elif pooled:
            graph.add(name, _evaluate_chunk, key, chunk, pool=True)
        else:
            graph.add(name, _evaluate_chunk_inline, spec, chunk)
        chunk_results.append(Dep(name))
    merge = _merge_chunks_traced if traced else _merge_chunks
    final = graph.add("merge", merge, *chunk_results)
    if spec.sweep and attach_crossovers:
        final = graph.add(
            "crossovers", _merged_with_crossovers, Dep("merge"), Dep("reference")
        )
    return graph, final


def _attach_crossovers(points: list[dict], reference: dict | None) -> None:
    """Annotate each grid point with its crossover against the reference.

    ``crossover_workers`` is the smallest worker count at which the point
    becomes faster than the reference — the scenario's own declared
    configuration — or ``None`` if it never does.  This is the
    who-wins-where question sweeps exist to answer.
    """
    if reference is None:
        return
    reference_times = reference["times_s"]
    for point in points:
        crossover = None
        for n, t, reference_t in zip(point["workers"], point["times_s"], reference_times):
            if t < reference_t:
                crossover = n
                break
        point["crossover_workers"] = crossover


def _attach_refined_crossovers(points: list[dict], reference: dict) -> None:
    """Crossovers between refined curves with *different* worker subsets.

    Dense sweeps compare positionally — every point shares the grid.
    Refined points each evaluated their own subset, so comparison runs
    over the worker counts both curves actually contain; the semantics
    are unchanged (smallest shared count where the point beats the
    reference, else ``None``).
    """
    reference_times = dict(zip(reference["workers"], reference["times_s"]))
    for point in points:
        crossover = None
        for n, t in zip(point["workers"], point["times_s"]):
            reference_t = reference_times.get(n)
            if reference_t is not None and t < reference_t:
                crossover = n
                break
        point["crossover_workers"] = crossover


def _task_stats(report: ExecutionReport) -> dict:
    """Aggregate the scheduler's per-task timings into a phase breakdown.

    Chunk tasks aggregate (a big sweep has hundreds); the named phases
    (reference, merge, crossovers) report individually.  This rides in
    ``stats`` — never in the payload — so it is free to evolve.
    """
    phases: dict[str, object] = {
        "chunk_count": 0,
        "chunk_run_s": 0.0,
        "chunk_queue_wait_s": 0.0,
        "slowest_chunk_s": 0.0,
    }
    for name, timing in report.timings.items():
        if name.startswith("chunk-"):
            phases["chunk_count"] += 1
            phases["chunk_run_s"] += timing.run_s
            phases["chunk_queue_wait_s"] += timing.queue_wait_s
            phases["slowest_chunk_s"] = max(phases["slowest_chunk_s"], timing.run_s)
        else:
            phases[f"{name}_s"] = timing.run_s
    return phases


@dataclass(frozen=True)
class SweepResult:
    """The outcome of running one scenario sweep.

    ``points`` holds one record per grid point (see
    :func:`evaluate_point`); ``stats`` records how the run happened
    (mode, cache hit, elapsed seconds, chunk plan).
    """

    #: ``points`` is a sequence of per-grid-point dicts: a tuple on a
    #: fresh compute, a :class:`repro.store.LazyPoints` view over the
    #: memory-mapped chunk on a store hit (materialised per point, on
    #: access — indexing, iteration and equality all behave identically).
    scenario: str
    content_hash: str
    points: tuple[dict, ...] | LazyPoints
    reference: dict | None = None
    stats: dict = field(default_factory=dict)

    @property
    def base_point(self) -> dict:
        """The spec's own declared configuration.

        For swept scenarios this is the separately evaluated reference
        point (no overrides applied); for sweep-free scenarios it is the
        single grid point.
        """
        return self.reference if self.reference is not None else self.points[0]

    def rows(self) -> list[dict[str, object]]:
        """Flat per-point-per-worker rows (the CSV payload).

        Per-point scalars (optimal workers, crossover vs the reference)
        repeat on every worker row so the CSV alone answers the headline
        questions.
        """
        rows = []
        for index, point in enumerate(self.points):
            for n, t, s, e in zip(
                point["workers"],
                point["times_s"],
                point["speedups"],
                point["efficiencies"],
            ):
                row: dict[str, object] = {"point": index}
                row.update(point["overrides"])
                row.update({"workers": n, "time_s": t, "speedup": s, "efficiency": e})
                row["optimal_workers"] = point["optimal_workers"]
                if "crossover_workers" in point:
                    row["crossover_workers"] = point["crossover_workers"]
                rows.append(row)
        return rows

    def summary_rows(self) -> list[dict[str, object]]:
        """One row per grid point: overrides plus headline scalars."""
        rows = []
        for index, point in enumerate(self.points):
            row: dict[str, object] = {"point": index}
            row.update(point["overrides"])
            row.update(
                {
                    "optimal_workers": point["optimal_workers"],
                    "peak_speedup": point["peak_speedup"],
                    "scalable": point["is_scalable"],
                }
            )
            if "crossover_workers" in point:
                crossover = point["crossover_workers"]
                row["crossover_workers"] = "-" if crossover is None else crossover
            rows.append(row)
        return rows

    def payload(self) -> dict:
        """JSON-serialisable form (also the cache entry)."""
        return {
            "scenario": self.scenario,
            "content_hash": self.content_hash,
            "points": list(self.points),
            "reference": self.reference,
        }

    @classmethod
    def from_payload(cls, payload: dict, stats: dict | None = None) -> "SweepResult":
        try:
            return cls(
                scenario=payload["scenario"],
                content_hash=payload["content_hash"],
                points=tuple(payload["points"]),
                reference=payload.get("reference"),
                stats=stats or {},
            )
        except (KeyError, TypeError) as error:
            raise ScenarioError(f"malformed sweep payload: {error}")

    def to_json(self, path: str | Path) -> Path:
        """Write the structured result (curves, optima, crossovers)."""
        target = Path(path)
        document = self.payload()
        document["stats"] = self.stats
        target.write_text(json.dumps(document, indent=2) + "\n")
        return target

    def to_csv(self, path: str | Path) -> Path:
        """Write the flat per-worker rows as CSV."""
        target = Path(path)
        rows = self.rows()
        fieldnames: list[str] = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        with target.open("w", newline="") as stream:
            writer = csv.DictWriter(stream, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return target

    def export(self, path: str | Path) -> Path:
        """Dispatch on suffix: ``.json`` or ``.csv``."""
        if export_format(path) == ".json":
            return self.to_json(path)
        return self.to_csv(path)


class SweepRunner:
    """Evaluates scenario sweeps with caching and optional parallelism.

    Every run — serial or pooled — executes through the
    :mod:`repro.sched` task graph, so the planner's derived-scenario
    sweeps and the service's jobs inherit chunked scheduling for free.

    Parameters
    ----------
    mode:
        ``"auto"`` (default), ``"serial"`` or ``"process"``.
    max_workers:
        Pool size for process mode; ``None`` uses the CPU count.
    cache_dir:
        Directory the result store lives under; ``None`` uses the
        store's default (``$REPRO_SCENARIO_CACHE`` or
        ``~/.cache/repro/scenarios``, see :mod:`repro.store.columnar`).
    use_cache:
        Set ``False`` to always recompute (results are still not written).
    cpus:
        CPUs ``auto`` mode and the chunk planner assume; ``None``
        detects the affinity-aware count.  Tests pin it for
        deterministic mode resolution on any machine.
    refine:
        Progressive refinement: evaluate a coarse log-spaced worker
        subset per grid point and densify only around the time minimum
        and the speedup knee (see :mod:`repro.store.refine`).  Points
        then carry *subsets* of ``spec.workers``; refined results bypass
        the store (every refined value equals its dense-grid value, but
        views index full grids).  Pointwise backends only.
    store:
        Share a :class:`repro.store.ResultStore` (and its counters) with
        other runners — the service passes its own; ``None`` builds one
        over ``cache_dir``.
    """

    def __init__(
        self,
        mode: str = "auto",
        max_workers: int | None = None,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        cpus: int | None = None,
        refine: bool = False,
        store: ResultStore | None = None,
    ) -> None:
        if mode not in MODES:
            raise ScenarioError(f"unknown sweep mode {mode!r}; known: {', '.join(MODES)}")
        if max_workers is not None and max_workers < 1:
            raise ScenarioError(f"max_workers must be >= 1, got {max_workers}")
        if cpus is not None and cpus < 1:
            raise ScenarioError(f"cpus must be >= 1, got {cpus}")
        self.mode = mode
        self.max_workers = max_workers
        self.use_cache = use_cache
        self.store = store if store is not None else ResultStore(cache_dir)
        self.refine = refine
        self.cpus = cpus if cpus is not None else available_cpus()

    def resolve_mode(self, spec: ScenarioSpec, grid_size: int) -> str:
        """The concrete mode ``auto`` picks for this spec.

        Cost-class- and CPU-aware: a pool can never beat serial without
        a second core, an expensive (simulating / Monte-Carlo) grid
        parallelises from two points up, and a cheap closed-form grid
        only past :data:`PARALLEL_THRESHOLD` — below that the whole grid
        fits in one or two chunks and dispatch cannot amortise.
        """
        if self.mode != "auto":
            return self.mode
        if self.cpus < 2:
            return "serial"
        if is_expensive(spec):
            return "process" if grid_size > 1 else "serial"
        return "process" if grid_size >= PARALLEL_THRESHOLD else "serial"

    def chunk_size(self, spec: ScenarioSpec, grid_size: int) -> int:
        """Points per chunk for this spec's cost class and this pool."""
        return chunk_size_for(
            grid_size,
            expensive=is_expensive(spec),
            workers=self.max_workers or self.cpus,
        )

    def run(self, spec: ScenarioSpec) -> SweepResult:
        """Evaluate every grid point of ``spec`` (or load it from the store).

        With caching on, the columnar store plans the run first: an
        exact-grid **hit** memory-maps the stored chunk (no evaluation at
        all), a **delta** schedules only the missing grid points and
        merges them with the stored columns, and a **miss** computes the
        full grid and commits it.  Every path yields byte-identical
        payloads — the store keeps points, not artifacts, and
        re-materialises them exactly as :func:`evaluate_point` built them.

        When tracing is on, the whole run records under one
        ``sweep.run`` root span; telemetry never changes the payload.
        """
        with tracer().span("sweep.run", {"scenario": spec.name}) as span:
            result = self._run(spec)
            span.set(
                mode=result.stats.get("mode", ""),
                grid_points=result.stats.get("grid_points", 0),
                cache_hit=bool(result.stats.get("cache_hit", False)),
            )
            return result

    def _run(self, spec: ScenarioSpec) -> SweepResult:
        key = spec.content_hash()
        started = time.perf_counter()
        if self.refine:
            return self._run_refined(spec, key, started)
        plan = self.store.plan(spec) if self.use_cache else None
        if plan is not None and plan.state == "hit":
            return SweepResult(
                scenario=spec.name,
                content_hash=key,
                points=self.store.points(spec, plan.chunk),
                reference=plan.reference,
                stats={
                    "cache_hit": True,
                    "mode": "store",
                    "grid_points": plan.n_rows,
                    "points_reused": plan.n_rows,
                    "points_computed": 0,
                    "elapsed_s": time.perf_counter() - started,
                },
            )
        if plan is not None and plan.state == "delta":
            return self._run_delta(spec, key, started, plan)
        return self._run_full(spec, key, started, plan)

    def _execute(
        self, spec: ScenarioSpec, key: str, graph: TaskGraph, mode: str
    ) -> "GraphScheduler.Report":
        """Run one sweep graph in the resolved mode, with clean failure."""
        try:
            if mode == "process":
                # The spec ships to each worker exactly once, keyed by
                # content hash — chunk tasks carry only their overrides.
                # The initializer also resets each worker's telemetry so
                # fork-inherited spans are never re-exported.
                with ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_init_pool_worker,
                    initargs=({key: spec.to_dict()},),
                ) as pool:
                    return GraphScheduler(pool).run(graph)
            return GraphScheduler().run(graph)
        except TaskFailure as failure:
            cause = failure.cause
            raise ScenarioError(
                f"sweep of scenario {spec.name!r} failed at task"
                f" {failure.task!r}: {type(cause).__name__}: {cause}"
            ) from cause

    def _run_full(
        self, spec: ScenarioSpec, key: str, started: float, plan: StorePlan | None
    ) -> SweepResult:
        """Evaluate the whole grid; commit the view when caching is on."""
        grid = expand_grid(spec)
        mode = self.resolve_mode(spec, len(grid))
        if mode == "process" and len(grid) <= 1:
            mode = "serial"  # a pool for one task is pure overhead
        chunk_size = self.chunk_size(spec, len(grid))
        graph, final = build_sweep_graph(
            spec, grid, chunk_size=chunk_size, pooled=(mode == "process")
        )
        report = self._execute(spec, key, graph, mode)
        points = report.values[final]
        reference = report.values.get("reference")

        result = SweepResult(
            scenario=spec.name,
            content_hash=key,
            points=tuple(points),
            reference=reference,
            stats={
                "cache_hit": False,
                "mode": mode,
                "grid_points": len(grid),
                "scheduler": "task-graph",
                "chunks": len(graph) - (3 if spec.sweep else 1),
                "chunk_size": chunk_size,
                "points_reused": 0,
                "points_computed": len(grid),
                "elapsed_s": time.perf_counter() - started,
                "phases": _task_stats(report),
            },
        )
        if plan is not None:
            # Only after a fully successful run — a failed chunk raised
            # above, so the store can never hold a partial sweep.
            self.store.commit(spec, plan, dict(enumerate(points)), reference)
        return result

    def _run_delta(
        self, spec: ScenarioSpec, key: str, started: float, plan: StorePlan
    ) -> SweepResult:
        """Compute only the grid points the store is missing.

        The missing points run through the same chunked task graph as a
        full sweep (minus the crossover stage — crossovers need the full
        merged grid); the reference re-evaluates regardless, because a
        reference's identity includes the sweep block, so each grid
        signature owns its own reference times (and hence crossovers).
        """
        grid = expand_grid(spec)
        missing_grid = [grid[i] for i in plan.missing]
        reference = None
        chunks = 0
        chunk_size = 0
        mode = "store"
        phases: dict | None = None
        if missing_grid:
            mode = self.resolve_mode(spec, len(missing_grid))
            if mode == "process" and len(missing_grid) <= 1:
                mode = "serial"
            chunk_size = self.chunk_size(spec, len(missing_grid))
            graph, final = build_sweep_graph(
                spec,
                missing_grid,
                chunk_size=chunk_size,
                pooled=(mode == "process"),
                attach_crossovers=False,
            )
            report = self._execute(spec, key, graph, mode)
            new_points = report.values[final]
            reference = report.values.get("reference")
            chunks = len(graph) - (2 if spec.sweep else 1)
            phases = _task_stats(report)
        else:
            new_points = []
            if spec.sweep:
                reference = evaluate_point(spec, {})
        chunk = self.store.commit(
            spec, plan, dict(zip(plan.missing, new_points)), reference
        )
        stats = {
            "cache_hit": False,
            "mode": mode,
            "grid_points": len(grid),
            "scheduler": "task-graph",
            "chunks": chunks,
            "chunk_size": chunk_size,
            "points_reused": len(grid) - len(missing_grid),
            "points_computed": len(missing_grid),
            "elapsed_s": time.perf_counter() - started,
        }
        if phases is not None:
            stats["phases"] = phases
        return SweepResult(
            scenario=spec.name,
            content_hash=key,
            points=self.store.points(spec, chunk),
            reference=reference,
            stats=stats,
        )

    def _run_refined(
        self, spec: ScenarioSpec, key: str, started: float
    ) -> SweepResult:
        """Progressively refine each grid point's worker subset.

        Results bypass the store: refined points carry per-point worker
        *subsets*, while store views index full grids.  Every refined
        value still equals its dense-grid value exactly — refinement
        chooses which points to evaluate, never what they evaluate to —
        a property the differential suite pins per backend.
        """
        grid = expand_grid(spec)
        dense = len(spec.workers)
        evaluated = 0

        def refined_point(overrides: Mapping[str, object]) -> dict:
            nonlocal evaluated
            target, backend = compile_point(spec, overrides)
            if not getattr(backend, "pointwise", True):
                raise ScenarioError(
                    f"cannot refine scenario {spec.name!r}: the"
                    f" {backend.name!r} backend fits against its whole"
                    " grid, so a refined subset would change its answers"
                )
            refined = refine_worker_grid(
                lambda subset: backend.evaluate(target, subset),
                spec.workers,
                spec.baseline_workers,
            )
            evaluated += refined.evaluations
            curve = SpeedupCurve(
                workers=refined.workers,
                times=refined.times_s,
                baseline_time=refined.baseline_time,
                baseline_workers=spec.baseline_workers,
                label=spec.name,
            )
            return {
                "overrides": dict(overrides),
                "backend": backend.name,
                "backend_config": backend.config(),
                **curve_record(curve),
            }

        points = [refined_point(overrides) for overrides in grid]
        reference = None
        if spec.sweep:
            reference = refined_point({})
            _attach_refined_crossovers(points, reference)
        curves = len(grid) + (1 if spec.sweep else 0)
        return SweepResult(
            scenario=spec.name,
            content_hash=key,
            points=tuple(points),
            reference=reference,
            stats={
                "cache_hit": False,
                "mode": "refine",
                "grid_points": len(grid),
                "dense_curve_points": dense,
                "dense_total_curve_points": dense * curves,
                "evaluated_curve_points": evaluated,
                "refine_fraction": evaluated / (dense * curves),
                "points_reused": 0,
                "points_computed": len(grid),
                "elapsed_s": time.perf_counter() - started,
            },
        )


def run_scenario(
    spec: ScenarioSpec, runner: SweepRunner | None = None
) -> SweepResult:
    """Convenience wrapper: run ``spec`` with a default runner."""
    return (runner or SweepRunner()).run(spec)
