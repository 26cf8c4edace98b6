"""Async job handles for work that exceeds the synchronous budget.

Sweeps and plans can expand to thousands of grid points or drive the
discrete-event simulator; holding an HTTP connection open for minutes is
the wrong shape for that.  The service instead answers ``202 Accepted``
with a job id, runs the work on a small bounded thread pool, and serves
the result from ``GET /v1/jobs/<id>`` when it lands.

The store is deliberately bounded in both directions:

* **Admission** — at most ``max_jobs`` jobs may be queued or running;
  past that, :meth:`JobStore.submit` raises :class:`ServiceOverloaded`,
  which the app layer turns into ``429`` + ``Retry-After``.  Shedding
  load at admission keeps the accepted jobs' latency predictable instead
  of letting an unbounded queue grow.
* **History** — finished jobs are kept for ``history`` entries so
  clients can fetch results, then evicted oldest-first.  A serving
  process must not grow without bound because clients forget to collect.

Job ids are sequential (``j000001``, ...) — deterministic within a
server lifetime, which keeps the job endpoints golden-testable.  A
sharded worker prepends its slot (``w2-j000001`` via ``id_prefix``) so
ids stay unique across the fleet, and mirrors every status transition to
``state_dir`` so ``GET /v1/jobs/<id>`` works no matter which worker the
poll lands on (see :mod:`repro.service.shard`).

With a ``state_dir`` the counter is also *seeded* at construction from
whatever that prefix already issued (mirror files plus a high-water
sequence file written on every submit): a respawned worker inherits its
dead predecessor's slot and prefix, and restarting at ``j000001`` would
re-issue ids that live 202 handles still point at — ``_persist`` would
then silently overwrite another job's mirror.
"""

from __future__ import annotations

import logging
import re
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import tracer
from repro.sched import TaskFailure, run_single_task
from repro.store.files import read_json, unlink_quiet, write_json


class ServiceError(ReproError):
    """A request the service rejects (bad input, unknown resource)."""


class ServiceNotFound(ServiceError):
    """An unknown route or job id (HTTP 404)."""


class ServiceOverloaded(ServiceError):
    """Backpressure: the service is at capacity; retry after a delay."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


logger = logging.getLogger("repro.service")

#: The job lifecycle; a job only ever moves rightward.
JOB_STATUSES = ("queued", "running", "done", "failed")

#: Job ids (and id prefixes) stay in this alphabet; ``lookup`` uses ids
#: as file names under ``state_dir``, so anything resembling a path
#: component separator must never pass.
_JOB_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")


@dataclass
class Job:
    """One asynchronous unit of work and its (eventual) outcome."""

    id: str
    kind: str
    status: str = "queued"
    result: dict | None = None
    error: str = ""
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: float | None = None
    finished_monotonic: float | None = None

    def payload(self) -> dict:
        """The deterministic part of the job's wire form.

        ``status`` is read exactly once: a concurrent worker may flip it
        mid-call, and a payload mixing the old status with the new
        outcome fields would be self-contradictory.  Workers write
        ``result``/``error`` *before* ``status`` (see
        :meth:`JobStore._run`), so whatever status this snapshot sees,
        its outcome fields are already in place.
        """
        status = self.status
        body: dict = {"job": self.id, "kind": self.kind, "status": status}
        if status == "done":
            body["result"] = self.result
        elif status == "failed":
            body["error"] = self.error
        return body

    def timings(self) -> dict:
        """Volatile wall-clock facts (wire ``meta``, never golden)."""
        now = time.monotonic()
        queued_s = (self.started_monotonic or now) - self.submitted_monotonic
        timings: dict = {"queued_s": queued_s}
        if self.started_monotonic is not None:
            timings["ran_s"] = (self.finished_monotonic or now) - self.started_monotonic
        return timings


class JobStore:
    """A bounded thread-pool executor with queryable job handles."""

    def __init__(
        self,
        workers: int = 2,
        max_jobs: int = 32,
        history: int = 256,
        registry: MetricsRegistry | None = None,
        id_prefix: str = "",
        state_dir: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"job workers must be >= 1, got {workers}")
        if id_prefix and not _JOB_ID_RE.match(id_prefix):
            raise ServiceError(f"invalid job id prefix {id_prefix!r}")
        if max_jobs < 1:
            raise ServiceError(f"max_jobs must be >= 1, got {max_jobs}")
        if history < max_jobs:
            # Finished jobs must survive at least as long as the active
            # window, or a result could be evicted before its 202 client
            # ever polls.
            raise ServiceError(
                f"history ({history}) must be >= max_jobs ({max_jobs})"
            )
        self.max_jobs = max_jobs
        self.history = history
        self.id_prefix = id_prefix
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._active = 0
        self._counter = self._seed_counter()
        self._seq_lock = threading.Lock()
        self._seq_written = self._counter
        # Lifecycle counters and the queue-depth gauge live on a metrics
        # registry (private by default; the service shares its own so
        # /metrics exports them).
        registry = registry if registry is not None else MetricsRegistry()
        self._submitted = registry.counter(
            "repro_service_jobs_submitted_total", "Async jobs admitted"
        )
        self._completed = registry.counter(
            "repro_service_jobs_completed_total", "Async jobs finished successfully"
        )
        self._failed = registry.counter(
            "repro_service_jobs_failed_total", "Async jobs that raised"
        )
        self._queue_depth = registry.gauge(
            "repro_service_jobs_queue_depth", "Jobs queued or running right now"
        )

    @property
    def _seq_path(self) -> Path | None:
        """The high-water sequence file for this prefix.

        The leading dot keeps it outside both the ``<prefix>j*.json``
        mirror namespace and ``lookup``'s id alphabet.
        """
        if self.state_dir is None:
            return None
        return self.state_dir / f".seq-{self.id_prefix}.json"

    def _seed_counter(self) -> int:
        """The highest counter this prefix has ever issued, per disk.

        A respawned sharded worker reuses its slot's prefix; starting
        below a live id would collide with handles clients still hold.
        Mirror files alone are not enough — eviction deletes them — so
        the max also covers the high-water file written on every submit.
        """
        if self.state_dir is None:
            return 0
        highest = 0
        pattern = re.compile(rf"^{re.escape(self.id_prefix)}j(\d+)\.json$")
        for path in self.state_dir.glob(f"{self.id_prefix}j*.json"):
            match = pattern.match(path.name)
            if match:
                highest = max(highest, int(match.group(1)))
        record = read_json(self._seq_path)
        if record is not None and isinstance(record.get("counter"), int):
            highest = max(highest, record["counter"])
        return highest

    def submit(self, kind: str, work: Callable[[], dict]) -> Job:
        """Admit ``work`` or raise :class:`ServiceOverloaded` at capacity."""
        with self._lock:
            if self._active >= self.max_jobs:
                raise ServiceOverloaded(
                    f"job queue is full ({self._active} of {self.max_jobs}"
                    " jobs in flight); retry shortly",
                    retry_after_s=1.0,
                )
            self._counter += 1
            job = Job(id=f"{self.id_prefix}j{self._counter:06d}", kind=kind)
            self._jobs[job.id] = job
            self._active += 1
            self._queue_depth.set(self._active)
            evicted = self._evict_locked()
        self._submitted.inc()
        # Persist the high-water mark, then "queued", BEFORE the pool
        # may run the job: the 202 response races the worker thread, a
        # sharded client polling a sibling must find the id from its
        # very first poll, and a successor store must never re-issue it.
        # The mark lands before evicted mirrors are deleted so a crash
        # in between can never shrink what a successor seeds from.
        self._persist_seq()
        self._discard_mirror(evicted)
        self._persist(job)
        self._pool.submit(self._run, job, work)
        return job

    def _persist_seq(self) -> None:
        """Advance the on-disk high-water mark to the current counter.

        Guarded by its own lock so two racing submits cannot land their
        writes out of order and leave the file *below* an issued id.
        """
        seq = self._seq_path
        if seq is None:
            return
        with self._seq_lock:
            counter = self._counter
            if counter <= self._seq_written:
                return
            try:
                write_json(seq, {"counter": counter})
            except OSError:
                logger.exception("failed to persist job sequence high-water")
                return
            self._seq_written = counter

    def _run(self, job: Job, work: Callable[[], dict]) -> None:
        with self._lock:
            job.status = "running"
            job.started_monotonic = time.monotonic()
        # Outcome fields are written BEFORE the status flips: readers
        # (Job.payload) snapshot the status lock-free, so the status
        # must be the last thing that changes.
        #
        # The work runs through repro.sched as a one-task graph: job
        # failures get the scheduler's fail-fast semantics and the same
        # named-task shape as a failed sweep chunk, while the wire error
        # string stays "ExceptionType: message" for the original cause.
        try:
            with tracer().span("service.job", {"kind": job.kind, "job": job.id}):
                result = run_single_task(f"{job.kind}:{job.id}", work)
        except TaskFailure as failure:
            cause = failure.cause
            with self._lock:
                job.error = f"{type(cause).__name__}: {cause}"
                job.finished_monotonic = time.monotonic()
                job.status = "failed"
                self._active -= 1
                self._queue_depth.set(self._active)
            self._failed.inc()
            self._persist(job)
        else:
            with self._lock:
                job.result = result
                job.finished_monotonic = time.monotonic()
                job.status = "done"
                self._active -= 1
                self._queue_depth.set(self._active)
            self._completed.inc()
            self._persist(job)

    def _evict_locked(self) -> list[str]:
        """Drop the oldest *finished* jobs past the history bound.

        Returns the evicted ids so the caller can delete their mirror
        files *outside* the lock — an evicted job is past its retention
        window everywhere, and keeping the file would grow ``state_dir``
        without bound over a long-lived shard.
        """
        evicted: list[str] = []
        while len(self._jobs) > self.history:
            for job_id, job in self._jobs.items():
                if job.status in ("done", "failed"):
                    del self._jobs[job_id]
                    evicted.append(job_id)
                    break
            else:
                break  # everything retained is still in flight
        return evicted

    def _discard_mirror(self, job_ids: list[str]) -> None:
        """Remove evicted jobs' mirror files (missing files are fine)."""
        if self.state_dir is None:
            return
        for job_id in job_ids:
            unlink_quiet(self.state_dir / f"{job_id}.json")

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def _persist(self, job: Job) -> None:
        """Mirror a job's wire form to ``state_dir`` (atomic replace).

        A persistence failure must not fail the job itself — the result
        was computed and is servable from this worker's memory — so disk
        errors are logged and swallowed.
        """
        if self.state_dir is None:
            return
        payload = {"payload": job.payload(), "timings": job.timings()}
        try:
            write_json(self.state_dir / f"{job.id}.json", payload)
        except OSError:
            logger.exception("failed to persist job %s state", job.id)

    def lookup(self, job_id: str) -> dict | None:
        """Resolve a job to ``{"payload", "timings"}``, local or mirrored.

        Jobs owned by this process come from memory (fresh timings);
        jobs owned by a sibling worker come from the shared ``state_dir``
        mirror.  Unknown, unparseable, or path-shaped ids are ``None``
        (the handler's 404), never an exception.
        """
        job = self.get(job_id)
        if job is not None:
            return {"payload": job.payload(), "timings": job.timings()}
        if self.state_dir is None or not _JOB_ID_RE.match(job_id):
            return None
        raw = read_json(self.state_dir / f"{job_id}.json")
        if raw is None or not isinstance(raw.get("payload"), dict):
            return None
        timings = raw.get("timings")
        return {
            "payload": raw["payload"],
            "timings": timings if isinstance(timings, dict) else {},
        }

    def flush(self) -> int:
        """Persist every retained job; returns how many were written.

        Called by a draining sharded worker so in-flight 202 handles
        survive the process: after the respawn, polls served by any
        sibling still resolve from the mirror.
        """
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            self._persist(job)
        return len(jobs)

    def stats(self) -> dict:
        with self._lock:
            queued = sum(1 for job in self._jobs.values() if job.status == "queued")
            running = sum(1 for job in self._jobs.values() if job.status == "running")
            return {
                "queued": queued,
                "running": running,
                "completed": int(self._completed.value),
                "failed": int(self._failed.value),
                "capacity": self.max_jobs,
                "retained": len(self._jobs),
            }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; an impatient shutdown also drops queued jobs.

        Without ``cancel_futures`` a Ctrl-C'd server would still run
        every queued sweep to completion at interpreter exit (executor
        threads are joined by the atexit hook), turning shutdown into
        minutes of invisible work.
        """
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
