"""The evaluation service's logic, independent of HTTP.

:class:`EvaluationService` maps parsed request bodies to wire payloads;
:mod:`repro.service.app` is only a thin HTTP adapter over it, which
keeps every behaviour here testable without sockets.

The hot path (``/v1/evaluate``) is engineered to amortise everything a
one-shot CLI invocation pays per call:

* a **request LRU** maps the canonical request body straight to its
  parsed, override-applied :class:`~repro.scenarios.spec.ScenarioSpec`,
  skipping schema validation on repeats;
* a **compiled-target LRU** maps a point spec's content hash to its
  compiled ``(target, backend)`` pair, skipping model construction —
  the expensive step for Monte-Carlo-backed scenarios, where compiling
  means generating a graph and building an estimator;
* a **coalescer** batches concurrent requests that differ only in their
  worker grids into one union-grid
  :meth:`~repro.core.backend.EvaluationBackend.curves` call — one
  vectorized ``times()`` evaluation answers the whole batch.

Security posture: requests name *builtin* scenarios/plans or carry the
spec inline as JSON.  The service never resolves request strings against
its own filesystem — a serving layer must not let callers read paths.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.core.backend import EvaluationBackend, EvaluationTarget
from repro.core.calibration import FEATURE_LIBRARIES
from repro.obs.metrics import MetricsRegistry
from repro.planner.spec import PLANNER_VERSION, PlanSpec, parse_plan
from repro.scenarios import (
    BACKEND_KINDS,
    TOPOLOGIES,
    SweepRunner,
    algorithm_kinds,
    builtin_names,
    compile_point,
    is_expensive,
    is_stochastic,
    load_builtin,
    parse_scenario,
    with_backend,
)
from repro.scenarios.grids import parse_worker_grid, with_workers
from repro.scenarios.spec import ENGINE_VERSION, SCHEMA_VERSION, ScenarioSpec
from repro.scenarios.sweep import curve_record
from repro.service.jobs import (
    JobStore,
    ServiceError,
    ServiceNotFound,
    ServiceOverloaded,
)
from repro.service.wire import WIRE_VERSION
from repro.store import ResultStore

#: Body keys each POST endpoint accepts (unknown keys are rejected —
#: a typo'd option must fail, not be silently ignored).
EVALUATE_KEYS = ("scenario", "workers", "backend")
SWEEP_KEYS = ("scenario", "workers", "backend", "mode")
PLAN_KEYS = ("plan", "backend", "mode")
CALIBRATE_KEYS = ("scenario", "workers", "source", "features")

#: Recognised values of the sweep/plan ``mode`` field.
MODES = ("auto", "sync", "async")


@dataclass(frozen=True)
class Outcome:
    """One endpoint's answer: deterministic result, volatile meta, status.

    ``status`` is the HTTP status the app layer sends — 200 for a
    completed answer, 202 for an accepted async job.
    """

    result: dict
    meta: dict = field(default_factory=dict)
    status: int = 200


class LRUCache:
    """A thread-safe LRU with hit/miss/eviction counters.

    Deliberately tiny: the service needs bounded memory and observable
    stats (``/healthz`` reports them; the acceptance test asserts the
    hit counter), not a general caching framework.  Counters live on a
    metrics registry (private by default); ``name`` namespaces them, so
    a service exporting two caches through one registry gets
    ``repro_service_request_cache_hits_total`` and
    ``repro_service_target_cache_hits_total`` rather than a collision.
    """

    def __init__(
        self,
        maxsize: int,
        name: str = "cache",
        registry: MetricsRegistry | None = None,
    ) -> None:
        if maxsize < 1:
            raise ServiceError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, object] = OrderedDict()
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(
            f"repro_service_{name}_hits_total", f"{name} lookups answered"
        )
        self._misses = registry.counter(
            f"repro_service_{name}_misses_total", f"{name} lookups missed"
        )
        self._evictions = registry.counter(
            f"repro_service_{name}_evictions_total", f"{name} entries evicted"
        )

    def get(self, key: str) -> object | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits.inc()
                return self._entries[key]
            self._misses.inc()
            return None

    def put(self, key: str, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": int(self._hits.value),
                "misses": int(self._misses.value),
                "evictions": int(self._evictions.value),
            }


@dataclass
class _Member:
    """One request waiting inside a coalesced batch."""

    grid: tuple[int, ...]
    baseline: int
    curve: object | None = None


@dataclass
class _Batch:
    """A group of concurrent same-spec requests answered together."""

    members: list[_Member] = field(default_factory=list)
    event: threading.Event = field(default_factory=threading.Event)
    closed: bool = False
    backend: EvaluationBackend | None = None
    error: BaseException | None = None


class Coalescer:
    """Batch concurrent worker-grid requests for the same spec.

    The first request for a coalesce key becomes the batch *leader*: it
    compiles the target (through the caller-supplied ``compile_fn``, so
    the compiled-target LRU still sees every batch exactly once), then
    closes the batch and evaluates the union of all member grids in one
    :meth:`~repro.core.backend.EvaluationBackend.curves` call.  Requests
    arriving while the leader compiles join as *followers* and merely
    wait.  ``window_s`` optionally stretches the join window — useful
    for deterministic tests and for deliberately latency-trading
    deployments; the default of 0 adds no latency.
    """

    def __init__(
        self, window_s: float = 0.0, registry: MetricsRegistry | None = None
    ) -> None:
        if window_s < 0:
            raise ServiceError(f"coalesce window must be >= 0, got {window_s}")
        self.window_s = window_s
        self._lock = threading.Lock()
        self._pending: dict[str, _Batch] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._batches = registry.counter(
            "repro_service_coalesce_batches_total", "Coalesced evaluation batches"
        )
        self._requests = registry.counter(
            "repro_service_coalesce_requests_total", "Requests seen by the coalescer"
        )
        self._coalesced = registry.counter(
            "repro_service_coalesce_coalesced_requests_total",
            "Requests answered by another request's evaluation",
        )
        self._shared_points = registry.counter(
            "repro_service_coalesce_shared_buffer_points_total",
            "Union-grid points served from a shared buffer",
        )
        self._batch_size = registry.histogram(
            "repro_service_coalesce_batch_size",
            "Members per coalesced batch",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        )

    def evaluate(self, key, grid, baseline, compile_fn, label=""):
        """One request's curve, possibly answered by another's evaluation.

        Returns ``(curve, backend, batch_size)``.
        """
        member = _Member(grid=tuple(grid), baseline=int(baseline))
        with self._lock:
            self._requests.inc()
            batch = self._pending.get(key)
            if batch is not None and not batch.closed:
                batch.members.append(member)
                self._coalesced.inc()
                is_leader = False
            else:
                batch = _Batch(members=[member])
                self._pending[key] = batch
                self._batches.inc()
                is_leader = True
        if not is_leader:
            batch.event.wait()
            if batch.error is not None:
                raise batch.error
            assert member.curve is not None and batch.backend is not None
            return member.curve, batch.backend, len(batch.members)

        try:
            target, backend = compile_fn()
            if self.window_s > 0:
                time.sleep(self.window_s)
        except BaseException as error:
            self._close(key, batch)
            batch.error = error
            batch.event.set()
            raise
        members = self._close(key, batch)
        try:
            requests = [(m.grid, m.baseline) for m in members]
            curves = backend.curves(target, requests, label=label)
            if getattr(backend, "pointwise", True):
                # curves() evaluated the union of grids and baselines in
                # one shared buffer (a calibrated fit couples every point
                # of its grid, so it evaluates each member on its own).
                union = {m.baseline for m in members}
                for waiting in members:
                    union.update(waiting.grid)
                self._shared_points.inc(len(union))
            for waiting, curve in zip(members, curves):
                waiting.curve = curve
            batch.backend = backend
        except BaseException as error:
            batch.error = error
            raise
        finally:
            batch.event.set()
        assert member.curve is not None
        return member.curve, backend, len(members)

    def _close(self, key: str, batch: _Batch) -> list[_Member]:
        """Stop accepting followers; returns the final member list."""
        with self._lock:
            batch.closed = True
            if self._pending.get(key) is batch:
                del self._pending[key]
            self._batch_size.observe(float(len(batch.members)))
            return list(batch.members)

    def stats(self) -> dict:
        return {
            "batches": int(self._batches.value),
            "requests": int(self._requests.value),
            "coalesced_requests": int(self._coalesced.value),
            "shared_buffer_points": int(self._shared_points.value),
        }


def _canonical_request_key(body: Mapping) -> str:
    """A stable hash of a request body (the request-LRU key)."""
    try:
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ServiceError(f"request body is not plain JSON data: {error}")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _reject_unknown_keys(body: Mapping, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ServiceError(
            f"unknown {context} fields {unknown}; allowed: {sorted(allowed)}"
        )


def _worker_count(entry: object) -> int:
    """One ``workers`` list entry as a count (``int()`` semantics)."""
    try:
        return int(entry)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            f"'workers' entries must be worker counts; got {entry!r}"
        ) from None


def _require_body(body: object, context: str) -> Mapping:
    if not isinstance(body, Mapping):
        raise ServiceError(f"{context} body must be a JSON object")
    return body


class EvaluationService:
    """Request bodies in, wire payloads out — everything but HTTP.

    Parameters mirror the ``repro-experiments serve`` flags; see
    ``docs/service.md``.
    """

    def __init__(
        self,
        *,
        runner_mode: str = "auto",
        runner_jobs: int | None = None,
        cache_dir: str | None = None,
        use_cache: bool = True,
        request_cache_size: int = 1024,
        target_cache_size: int = 256,
        coalesce_window_s: float = 0.0,
        max_concurrency: int = 8,
        job_workers: int = 2,
        max_jobs: int = 32,
        sync_grid_limit: int = 64,
        job_id_prefix: str = "",
        jobs_state_dir: str | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ServiceError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if sync_grid_limit < 1:
            raise ServiceError(f"sync_grid_limit must be >= 1, got {sync_grid_limit}")
        self.runner_mode = runner_mode
        self.runner_jobs = runner_jobs
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.sync_grid_limit = sync_grid_limit
        # One registry spans every serving component, so ``GET /metrics``
        # exports caches, coalescer, jobs and store in a single scrape.
        self.metrics = MetricsRegistry()
        self.request_cache = LRUCache(
            request_cache_size, name="request_cache", registry=self.metrics
        )
        self.target_cache = LRUCache(
            target_cache_size, name="target_cache", registry=self.metrics
        )
        self.coalescer = Coalescer(coalesce_window_s, registry=self.metrics)
        self.jobs = JobStore(
            workers=job_workers,
            max_jobs=max_jobs,
            registry=self.metrics,
            id_prefix=job_id_prefix,
            state_dir=jobs_state_dir,
        )
        # Set by repro.service.shard when this service runs inside a
        # sharded worker; single-process mode leaves it None.  The app
        # layer and /healthz only duck-type against it, so there is no
        # import cycle with the shard module.
        self.shard = None
        # One columnar store shared by every runner this service builds,
        # so /healthz reports hit/miss/delta counters across requests.
        self.store = ResultStore(cache_dir, registry=self.metrics)
        self.max_concurrency = max_concurrency
        self._slots = threading.BoundedSemaphore(max_concurrency)
        self._counters_lock = threading.Lock()
        self.request_seconds = self.metrics.histogram(
            "repro_service_request_seconds", "HTTP request handling duration"
        )
        self._started_monotonic = time.monotonic()
        # Validate the runner configuration eagerly: a serve process must
        # refuse to start with a bad mode, not fail on the first request.
        self._runner()

    # -- plumbing ----------------------------------------------------------

    @contextmanager
    def request_slot(self):
        """Admission control: at most ``max_concurrency`` in-flight
        requests; past that, reject with 429 instead of queueing."""
        if not self._slots.acquire(blocking=False):
            self.count("rejected")
            raise ServiceOverloaded(
                f"service is at its concurrency limit ({self.max_concurrency}"
                " in-flight requests); retry shortly",
                retry_after_s=0.5,
            )
        try:
            yield
        finally:
            self._slots.release()

    def count(self, counter: str) -> None:
        """Bump a request-kind counter (created on first use, so the
        ``/healthz`` ``requests`` map only lists kinds actually seen)."""
        with self._counters_lock:
            self.metrics.counter(
                f"repro_service_requests_{counter}_total",
                f"'{counter}' requests served",
            ).inc()

    def request_counts(self) -> dict:
        """The ``/healthz`` ``requests`` map, read back off the registry."""
        prefix = "repro_service_requests_"
        return {
            metric.name[len(prefix):-len("_total")]: int(metric.value)
            for metric in self.metrics.metrics()
            if metric.kind == "counter" and metric.name.startswith(prefix)
        }

    def _runner(self) -> SweepRunner:
        return SweepRunner(
            mode=self.runner_mode,
            max_workers=self.runner_jobs,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            store=self.store,
        )

    def close(self) -> None:
        self.jobs.shutdown(wait=False)

    # -- request resolution ------------------------------------------------

    def _resolve_scenario(self, ref: object) -> ScenarioSpec:
        """A builtin name or an inline spec mapping — never a file path."""
        if isinstance(ref, Mapping):
            return parse_scenario(ref)
        if isinstance(ref, str):
            if "/" in ref or "\\" in ref or ref.endswith(".json"):
                raise ServiceError(
                    f"scenario {ref!r} looks like a file path; the service"
                    " resolves builtin names or inline spec objects only"
                    " (load the file client-side and send its contents)"
                )
            return load_builtin(ref)
        raise ServiceError(
            "'scenario' must be a builtin name or an inline spec object"
        )

    def _resolve_plan(self, ref: object) -> PlanSpec:
        if isinstance(ref, Mapping):
            return parse_plan(ref)
        if isinstance(ref, str):
            if "/" in ref or "\\" in ref or ref.endswith(".json"):
                raise ServiceError(
                    f"plan {ref!r} looks like a file path; the service"
                    " resolves builtin names or inline plan objects only"
                )
            from repro.planner.spec import load_builtin_plan

            return load_builtin_plan(ref)
        raise ServiceError("'plan' must be a builtin name or an inline plan object")

    def _apply_overrides(self, spec: ScenarioSpec, body: Mapping) -> ScenarioSpec:
        workers = body.get("workers")
        if workers is not None:
            if isinstance(workers, str):
                spec = with_workers(spec, parse_worker_grid(workers))
            elif isinstance(workers, Sequence):
                if not workers:
                    raise ServiceError("'workers' must list at least one count")
                spec = with_workers(spec, [_worker_count(n) for n in workers])
            else:
                raise ServiceError(
                    "'workers' must be a grid string (e.g. 'log:1:64:12') or"
                    " a list of counts"
                )
        backend = body.get("backend")
        if backend is not None:
            if isinstance(backend, str):
                spec = with_backend(spec, backend)
            elif isinstance(backend, Mapping):
                data = spec.to_dict()
                data["backend"] = dict(backend)
                spec = parse_scenario(data)
            else:
                raise ServiceError(
                    "'backend' must be a backend kind or a backend object"
                )
        return spec

    def _spec_from(self, body: Mapping, allowed: Sequence[str], context: str):
        """Parse/override the request's scenario, through the request LRU."""
        _reject_unknown_keys(body, allowed, context)
        if "scenario" not in body:
            raise ServiceError(f"a {context} request needs a 'scenario'")
        key = _canonical_request_key({k: body.get(k) for k in allowed})
        cached = self.request_cache.get(key)
        if cached is not None:
            return cached, "hit"
        spec = self._apply_overrides(self._resolve_scenario(body["scenario"]), body)
        self.request_cache.put(key, spec)
        return spec, "miss"

    def _mode(self, body: Mapping) -> str:
        mode = body.get("mode", "auto")
        if mode not in MODES:
            raise ServiceError(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
        return str(mode)

    # -- endpoints ---------------------------------------------------------

    def handle_evaluate(self, body: object) -> Outcome:
        """``POST /v1/evaluate`` — one spec's speedup curve, served hot.

        Evaluates the spec's *base point* (sweeps belong to
        ``/v1/sweep``).
        """
        started = time.perf_counter()
        request = _require_body(body, "evaluate")
        spec, request_cache_state = self._spec_from(request, EVALUATE_KEYS, "evaluate")
        # The point identity excludes the sweep axes: two specs that
        # differ only in a sweep block share the same base point, and
        # must share the same compiled target.
        point = replace(spec, sweep=())
        point_hash = point.content_hash()

        target_cache_state = {"state": "miss"}

        def compile_cached() -> tuple[EvaluationTarget, EvaluationBackend]:
            cached = self.target_cache.get(point_hash)
            if cached is not None:
                target_cache_state["state"] = "hit"
                return cached
            pair = compile_point(point)
            self.target_cache.put(point_hash, pair)
            return pair

        if is_stochastic(point):
            # Monte-Carlo models are tabulated on their spec's worker
            # grid — evaluating a union grid from another request's spec
            # would be invalid, so stochastic points never coalesce
            # (they still enjoy both LRUs).
            target, backend = compile_cached()
            curve = backend.curve(
                target, point.workers, point.baseline_workers, label=point.name
            )
            batch_size = 1
        else:
            coalesce_key = self._coalesce_key(point)
            curve, backend, batch_size = self.coalescer.evaluate(
                coalesce_key,
                point.workers,
                point.baseline_workers,
                compile_cached,
                label=point.name,
            )
        result = {
            "scenario": point.name,
            "content_hash": point_hash,
            "backend": backend.name,
            "backend_config": backend.config(),
            **curve_record(curve),
        }
        meta = {
            "cache": {"request": request_cache_state, "target": target_cache_state["state"]},
            "coalesced": batch_size > 1,
            "batch_size": batch_size,
            "elapsed_ms": (time.perf_counter() - started) * 1e3,
        }
        return Outcome(result, meta)

    @staticmethod
    def _coalesce_key(point: ScenarioSpec) -> str:
        """The spec identity with the worker grid factored out."""
        data = point.to_dict()
        data.pop("workers", None)
        data.pop("baseline_workers", None)
        payload = json.dumps(
            {"engine": ENGINE_VERSION, "spec": data},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def handle_sweep(self, body: object) -> Outcome:
        """``POST /v1/sweep`` — run or enqueue a whole sweep grid.

        Small grids answer inline (200); large or simulator-driven grids
        (or an explicit ``"mode": "async"``) are accepted as jobs (202).
        """
        started = time.perf_counter()
        request = _require_body(body, "sweep")
        spec, request_cache_state = self._spec_from(request, SWEEP_KEYS, "sweep")
        mode = self._mode(request)
        work = spec.grid_size * len(spec.workers)
        go_async = mode == "async" or (
            mode == "auto" and (work > self.sync_grid_limit or is_expensive(spec))
        )
        runner = self._runner()
        if go_async:
            job = self.jobs.submit("sweep", lambda: runner.run(spec).payload())
            return Outcome(job.payload(), {"poll": f"/v1/jobs/{job.id}"}, status=202)
        result = runner.run(spec)
        meta = {
            "cache": {"request": request_cache_state},
            "stats": result.stats,
            "elapsed_ms": (time.perf_counter() - started) * 1e3,
        }
        return Outcome(result.payload(), meta)

    def handle_plan(self, body: object) -> Outcome:
        """``POST /v1/plan`` — optimise a capacity plan (sync or job)."""
        from repro.planner.search import run_plan
        from repro.planner.spec import derived_scenario

        started = time.perf_counter()
        request = _require_body(body, "plan")
        _reject_unknown_keys(request, PLAN_KEYS, "plan")
        if "plan" not in request:
            raise ServiceError("a plan request needs a 'plan'")
        backend = request.get("backend")
        if backend is not None and backend not in BACKEND_KINDS:
            raise ServiceError(
                f"unknown backend {backend!r}; known: {', '.join(BACKEND_KINDS)}"
            )
        plan = self._resolve_plan(request["plan"])
        mode = self._mode(request)
        derived = derived_scenario(plan, backend=backend)
        work = derived.grid_size * len(derived.workers)
        go_async = mode == "async" or (
            mode == "auto" and (work > self.sync_grid_limit or is_expensive(derived))
        )
        runner = self._runner()
        if go_async:
            job = self.jobs.submit(
                "plan",
                lambda: run_plan(plan, runner=runner, backend=backend).payload(),
            )
            return Outcome(job.payload(), {"poll": f"/v1/jobs/{job.id}"}, status=202)
        recommendation = run_plan(plan, runner=runner, backend=backend)
        meta = {
            "stats": recommendation.stats,
            "elapsed_ms": (time.perf_counter() - started) * 1e3,
        }
        return Outcome(recommendation.payload(), meta)

    def handle_calibrate(self, body: object) -> Outcome:
        """``POST /v1/calibrate`` — measure, fit and rank feature families."""
        from repro.scenarios.calibrate import calibrate_scenario

        started = time.perf_counter()
        request = _require_body(body, "calibrate")
        spec, request_cache_state = self._spec_from(
            request, CALIBRATE_KEYS, "calibrate"
        )
        source = request.get("source")
        if source is not None and not isinstance(source, str):
            raise ServiceError("'source' must be a backend name string")
        features = request.get("features")
        if features is not None:
            if isinstance(features, str):
                features = [features]
            if not isinstance(features, Sequence) or not all(
                isinstance(name, str) for name in features
            ):
                raise ServiceError("'features' must be a family name or a list of names")
        calibration = calibrate_scenario(spec, source=source, features=features)
        meta = {
            "cache": {"request": request_cache_state},
            "elapsed_ms": (time.perf_counter() - started) * 1e3,
        }
        return Outcome(calibration.payload(), meta)

    def handle_specs(self) -> dict:
        """``GET /v1/specs`` — what this server can evaluate."""
        from repro.planner.spec import builtin_plan_names

        return {
            "scenarios": list(builtin_names()),
            "plans": list(builtin_plan_names()),
            "algorithm_kinds": list(algorithm_kinds()),
            "topologies": sorted(TOPOLOGIES),
            "backends": list(BACKEND_KINDS),
            "feature_libraries": sorted(FEATURE_LIBRARIES),
            "schema_version": SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "planner_version": PLANNER_VERSION,
            "wire_version": WIRE_VERSION,
        }

    def handle_hardware(self) -> dict:
        """``GET /v1/hardware`` — the priced catalog."""
        from repro.hardware import catalog_rows

        return {"catalog": [dict(row) for row in catalog_rows()]}

    def handle_job(self, job_id: str) -> Outcome:
        """``GET /v1/jobs/<id>`` — poll an async sweep or plan.

        Resolution goes through :meth:`JobStore.lookup`, so in sharded
        mode a poll landing on any worker finds jobs owned by a sibling
        through the shared state mirror.
        """
        record = self.jobs.lookup(job_id)
        if record is None:
            raise ServiceNotFound(f"unknown job {job_id!r}")
        return Outcome(record["payload"], {"timings": record["timings"]})

    def handle_health(self) -> dict:
        """``GET /healthz`` — liveness plus the serving counters.

        In sharded mode the payload gains a ``workers`` block (answering
        slot, fleet size, alive count, respawns) read from the shard
        control directory.
        """
        health = {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_monotonic,
            "requests": self.request_counts(),
            "caches": {
                "request": self.request_cache.stats(),
                "target": self.target_cache.stats(),
            },
            "coalescer": self.coalescer.stats(),
            "store": self.store.stats(),
            "jobs": self.jobs.stats(),
            "versions": {
                "schema": SCHEMA_VERSION,
                "engine": ENGINE_VERSION,
                "planner": PLANNER_VERSION,
                "wire": WIRE_VERSION,
            },
        }
        if self.shard is not None:
            health["workers"] = self.shard.health_block()
        return health
