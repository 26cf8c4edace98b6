"""Sharded multi-process serving: N workers behind one listening port.

``repro serve --workers N`` escapes the single-interpreter ceiling that
caps :class:`~repro.service.app.ServiceServer` at roughly one core: a
:class:`ShardSupervisor` binds the listening socket once, forks N worker
processes that all ``accept()`` on the inherited fd (classic pre-fork,
one shared kernel accept queue — a dying worker never strands a backlog
the way per-worker SO_REUSEPORT queues can), and each worker runs the
exact single-process handler stack.  The wire format is untouched: the
same goldens pin both modes, and the sharded-vs-single differential
suite in ``tests/test_service.py`` holds payloads byte-identical no
matter which worker answers.

What is shared, and how:

* **Compiled targets / results** — workers point at one cache directory;
  the mmap-backed :class:`~repro.store.ResultStore` treats files as the
  source of truth, so a spec compiled by one worker is a content-hash
  hit in all others (the same seam ``repro.sched`` uses to seed pool
  workers via ``WorkerPayloadStore``).
* **Job handles** — each worker's :class:`~repro.service.jobs.JobStore`
  gets a slot-unique id prefix (``w2-j000001``) and mirrors every status
  transition into ``<control_dir>/jobs/``, so ``GET /v1/jobs/<id>``
  resolves on any worker.
* **Telemetry** — every worker also serves a private loopback "control"
  port.  ``GET /metrics`` on the shared port scrapes the siblings'
  control ports (``?scope=local`` stops the recursion), merges the
  exposition text via :func:`repro.obs.export.merge_parsed`, and adds
  ``repro_service_workers{state=...}`` fleet gauges.

Failure policy: the supervisor respawns dead workers with capped
exponential backoff (``0.1 s * 2^k``, capped at 2 s, reset after 5 s of
uptime).  SIGTERM drains gracefully — workers stop accepting, finish
in-flight requests, flush job state, and exit 0.  Because the
supervisor's socket stays open throughout, a client connecting while a
worker is mid-respawn queues in the backlog instead of seeing a refused
connection.

POSIX only (requires the ``fork`` start method): the inherited-fd
topology cannot be expressed with ``spawn``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import socket
import socketserver
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import (
    merge_parsed,
    parse_prometheus,
    render_parsed,
    render_prometheus,
)
from repro.obs.metrics import get_registry
from repro.service.app import ServiceRequestHandler, ServiceServer
from repro.service.handlers import EvaluationService
from repro.service.jobs import ServiceError
from repro.store.files import read_json, sweep_temps, unlink_quiet, write_json

__all__ = [
    "ShardContext",
    "ShardSupervisor",
    "WorkerServer",
    "aggregated_metrics",
    "serve_sharded",
    "supervisor_record",
    "worker_records",
]

logger = logging.getLogger("repro.service.shard")

WORKER_FILE_PREFIX = "worker-"
SUPERVISOR_FILE = "supervisor.json"
JOBS_SUBDIR = "jobs"

#: Respawn backoff: first respawn after ``BACKOFF_BASE_S``, doubling per
#: consecutive death of the same slot, capped at ``BACKOFF_CAP_S``; a
#: worker alive longer than ``BACKOFF_RESET_S`` resets its slot.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 2.0
BACKOFF_RESET_S = 5.0

#: Sibling control-port scrapes fail fast: a freshly killed sibling must
#: not stall the aggregated ``/metrics`` response.
SIBLING_TIMEOUT_S = 2.0


# -- control-directory records ----------------------------------------


def worker_records(control_dir: str | Path) -> list[dict]:
    """The live worker registry: one record per registered slot."""
    records = []
    for path in sorted(Path(control_dir).glob(f"{WORKER_FILE_PREFIX}*.json")):
        record = read_json(path)
        if record is not None and isinstance(record.get("slot"), int):
            records.append(record)
    return records


def supervisor_record(control_dir: str | Path) -> dict | None:
    return read_json(Path(control_dir) / SUPERVISOR_FILE)


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# -- per-worker plumbing ----------------------------------------------


@dataclass
class ShardContext:
    """What one worker knows about the fleet it belongs to.

    Attached to ``EvaluationService.shard``; the app layer and
    ``/healthz`` read it duck-typed so :mod:`repro.service.handlers`
    never imports this module.
    """

    slot: int
    control_dir: Path
    control_url: str = ""

    def siblings(self) -> list[dict]:
        return worker_records(self.control_dir)

    def health_block(self) -> dict:
        """The ``workers`` block of a sharded ``/healthz`` payload."""
        supervisor = supervisor_record(self.control_dir) or {}
        records = self.siblings()
        alive = sum(1 for r in records if _pid_alive(int(r.get("pid", -1))))
        return {
            "slot": self.slot,
            "count": int(supervisor.get("workers", len(records))),
            "alive": alive,
            "respawns": int(supervisor.get("respawns", 0)),
            "draining": bool(supervisor.get("draining", False)),
        }


def aggregated_metrics(service: EvaluationService) -> str:
    """Fleet-wide ``/metrics``: local registry + sibling scrapes, merged.

    Each sibling's control port is scraped with ``?scope=local`` (its
    own registry only — without the scope guard two workers would scrape
    each other forever).  Unreachable siblings are skipped, not errors:
    mid-respawn is a normal fleet state, and the
    ``repro_service_workers`` gauges report it.
    """
    shard = service.shard
    scrapes = [parse_prometheus(render_prometheus(service.metrics, get_registry()))]
    records = shard.siblings()
    reachable = 1  # ourselves
    for record in records:
        if record.get("slot") == shard.slot:
            continue
        url = str(record.get("control_url", ""))
        if not url.startswith("http://"):
            continue
        try:
            with urllib.request.urlopen(
                f"{url}/metrics?scope=local", timeout=SIBLING_TIMEOUT_S
            ) as response:
                scrapes.append(parse_prometheus(response.read().decode("utf-8")))
            reachable += 1
        except (OSError, ValueError):
            continue
    merged = merge_parsed(*scrapes)
    supervisor = supervisor_record(shard.control_dir) or {}
    desired = int(supervisor.get("workers", len(records) or 1))
    fleet = [
        "# TYPE repro_service_workers gauge",
        f'repro_service_workers{{state="alive"}} {reachable}',
        f'repro_service_workers{{state="dead"}} {max(0, desired - reachable)}',
        f'repro_service_workers{{state="respawned"}} '
        f"{int(supervisor.get('respawns', 0))}",
    ]
    return render_parsed(merged) + "\n".join(fleet) + "\n"


class WorkerServer(ServiceServer):
    """A :class:`ServiceServer` accepting on a socket it did not bind.

    The supervisor already called ``bind()``/``listen()``; this server
    only races its siblings on ``accept()``.  The listening socket is
    non-blocking, so a lost accept race surfaces as ``BlockingIOError``,
    which ``socketserver`` already treats as "no request after all".

    It also counts in-flight requests so a draining worker can finish
    them before exiting (``daemon_threads`` would otherwise kill handler
    threads mid-response at interpreter exit).
    """

    def __init__(
        self, listen_socket: socket.socket, service: EvaluationService
    ) -> None:
        # Deliberately skip TCPServer.__init__'s bind/activate path.
        socketserver.BaseServer.__init__(
            self, listen_socket.getsockname()[:2], ServiceRequestHandler
        )
        self.socket = listen_socket
        host, port = listen_socket.getsockname()[:2]
        self.server_name = host
        self.server_port = port
        self.service = service
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    def process_request_thread(self, request, client_address):
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no request is in flight (drain step 2)."""
        return self._idle.wait(timeout=timeout_s)


def _worker_main(
    slot: int,
    listen_socket: socket.socket,
    control_dir: str,
    drain_timeout_s: float,
    service_options: dict,
) -> None:
    """Body of one forked worker process."""
    directory = Path(control_dir)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    service = EvaluationService(
        job_id_prefix=f"w{slot}-",
        jobs_state_dir=str(directory / JOBS_SUBDIR),
        **service_options,
    )
    shared = WorkerServer(listen_socket, service)
    control = ServiceServer(("127.0.0.1", 0), service)
    service.shard = ShardContext(
        slot=slot, control_dir=directory, control_url=control.url
    )

    threading.Thread(
        target=shared.serve_forever, name="repro-shard-shared", daemon=True
    ).start()
    threading.Thread(
        target=control.serve_forever, name="repro-shard-control", daemon=True
    ).start()

    # If the supervisor dies without signalling (SIGKILL), orphaned
    # workers must not linger on the port forever.
    parent = os.getppid()

    def _watch_parent() -> None:
        while not stop.wait(1.0):
            if os.getppid() != parent:
                stop.set()

    threading.Thread(target=_watch_parent, name="repro-shard-watchdog", daemon=True).start()

    # Registration is the readiness signal: written only after both
    # servers are accepting.
    write_json(
        directory / f"{WORKER_FILE_PREFIX}{slot}.json",
        {
            "slot": slot,
            "pid": os.getpid(),
            "control_url": control.url,
            "shared_port": shared.server_port,
        },
    )

    stop.wait()

    # Drain: stop accepting, finish in-flight, flush job state, exit 0.
    shared.shutdown()
    control.shutdown()
    if not shared.wait_idle(drain_timeout_s):
        logger.warning(
            "worker %d drain timed out with %d requests in flight",
            slot,
            shared.inflight,
        )
    service.jobs.flush()
    unlink_quiet(directory / f"{WORKER_FILE_PREFIX}{slot}.json")
    control.server_close()
    shared.server_close()
    sys.exit(0)


# -- the supervisor ---------------------------------------------------


@dataclass
class _Slot:
    slot: int
    process: object = None
    started_monotonic: float = 0.0
    consecutive_failures: int = 0
    respawn_at: float | None = field(default=None)


class ShardSupervisor:
    """Owns the listening socket and the worker fleet.

    Programmatic lifecycle: ``start()`` → (serve) → ``stop()``; the CLI
    wraps it in :func:`serve_sharded` for signal-driven operation.

    ``**service_options`` are forwarded verbatim to each worker's
    :class:`EvaluationService` (the shard reserves ``job_id_prefix`` and
    ``jobs_state_dir`` for itself) and validated eagerly in the
    supervisor process, so a bad flag fails at start instead of in every
    forked worker's stderr.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        control_dir: str | Path | None = None,
        drain_timeout_s: float = 10.0,
        backoff_base_s: float = BACKOFF_BASE_S,
        backoff_cap_s: float = BACKOFF_CAP_S,
        daemon_workers: bool = False,
        **service_options,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"worker count must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServiceError(
                "sharded serving needs the 'fork' start method (POSIX only)"
            )
        for reserved in ("job_id_prefix", "jobs_state_dir"):
            if reserved in service_options:
                raise ServiceError(f"{reserved} is managed by the shard")
        EvaluationService(**service_options).close()
        self._ctx = multiprocessing.get_context("fork")
        self.workers = workers
        self.drain_timeout_s = drain_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.daemon_workers = daemon_workers
        self.service_options = dict(service_options)
        if control_dir is None:
            self.control_dir = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        else:
            self.control_dir = Path(control_dir)
            self.control_dir.mkdir(parents=True, exist_ok=True)
        # A reused control dir may still hold the previous run's fleet
        # records; a stale pid that os.kill(pid, 0) happens to accept
        # (pid reuse, an old fleet) would let wait_ready return before
        # *this* run's workers registered and would pad the /healthz and
        # repro_service_workers counts with phantom siblings.  Job
        # mirrors are deliberately kept: old handles stay resolvable and
        # they seed the respawn-safe id counters.  No worker of this
        # fleet is writing yet, so every temp here or under jobs/ is a
        # crashed writer's.
        for stale in (
            *self.control_dir.glob(f"{WORKER_FILE_PREFIX}*.json"),
            self.control_dir / SUPERVISOR_FILE,
        ):
            unlink_quiet(stale)
        jobs_dir = self.control_dir / JOBS_SUBDIR
        jobs_dir.mkdir(exist_ok=True)
        for directory in (self.control_dir, jobs_dir):
            sweep_temps(directory, max_age_s=0.0)

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(128)
        # Non-blocking is load-bearing: with N workers racing accept(),
        # a blocking socket would park the losers inside accept() until
        # the *next* connection instead of returning to their selectors.
        self._sock.setblocking(False)

        self._slots = [_Slot(slot=index) for index in range(workers)]
        self.respawns = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = False
        self._monitor: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._write_supervisor_record()
        for slot in self._slots:
            self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-supervisor", daemon=True
        )
        self._monitor.start()

    def wait_ready(self, timeout_s: float = 10.0) -> None:
        """Block until every slot has registered (written its record)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            records = worker_records(self.control_dir)
            alive = [r for r in records if _pid_alive(int(r.get("pid", -1)))]
            if len(alive) >= self.workers:
                return
            time.sleep(0.02)
        raise ServiceError(
            f"shard workers not ready after {timeout_s:.1f}s "
            f"({len(worker_records(self.control_dir))} of {self.workers} registered)"
        )

    def _spawn(self, slot: _Slot) -> None:
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                slot.slot,
                self._sock,
                str(self.control_dir),
                self.drain_timeout_s,
                self.service_options,
            ),
            name=f"repro-shard-worker-{slot.slot}",
            daemon=self.daemon_workers,
        )
        process.start()
        slot.process = process
        slot.started_monotonic = time.monotonic()
        slot.respawn_at = None

    def _write_supervisor_record(self) -> None:
        write_json(
            self.control_dir / SUPERVISOR_FILE,
            {
                "pid": os.getpid(),
                "workers": self.workers,
                "respawns": self.respawns,
                "draining": self._draining,
                "url": self.url,
            },
        )

    def _fail_orphaned_jobs(self, slot: int) -> None:
        """Mark a dead worker's unfinished mirrored jobs as failed.

        A SIGKILLed worker leaves its queued/running jobs frozen in the
        mirror; without a terminal transition, any client polling such a
        handle would spin until its own timeout.  The respawned worker
        seeds its id counter from these files, so the ids are never
        reused and the failed verdict stays authoritative.
        """
        jobs_dir = self.control_dir / JOBS_SUBDIR
        for path in jobs_dir.glob(f"w{slot}-j*.json"):
            record = read_json(path)
            if record is None or not isinstance(record.get("payload"), dict):
                continue
            payload = dict(record["payload"])
            if payload.get("status") in ("done", "failed"):
                continue
            payload.pop("result", None)
            payload["status"] = "failed"
            payload["error"] = (
                f"WorkerDied: worker slot {slot} exited before finishing this job"
            )
            timings = record.get("timings")
            try:
                write_json(
                    path,
                    {
                        "payload": payload,
                        "timings": timings if isinstance(timings, dict) else {},
                    },
                )
            except OSError:
                logger.exception("failed to fail-mark orphaned job %s", path.name)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(0.05):
            with self._lock:
                if self._draining:
                    continue
                now = time.monotonic()
                for slot in self._slots:
                    process = slot.process
                    if process is not None and process.is_alive():
                        healthy_for = now - slot.started_monotonic
                        if slot.consecutive_failures and healthy_for > BACKOFF_RESET_S:
                            slot.consecutive_failures = 0
                        continue
                    if slot.respawn_at is None:
                        if process is not None:
                            process.join(timeout=0)
                            logger.warning(
                                "worker %d (pid %s) died with exit code %s",
                                slot.slot,
                                process.pid,
                                process.exitcode,
                            )
                        self._fail_orphaned_jobs(slot.slot)
                        delay = min(
                            self.backoff_base_s * (2**slot.consecutive_failures),
                            self.backoff_cap_s,
                        )
                        slot.respawn_at = now + delay
                        slot.consecutive_failures += 1
                    elif now >= slot.respawn_at:
                        self.respawns += 1
                        self._spawn(slot)
                        self._write_supervisor_record()

    def stop(self, graceful: bool = True) -> int:
        """Drain (or kill) the fleet and close the socket.

        Returns 0 when every worker that was alive at drain start exited
        cleanly within the drain timeout, 1 otherwise (stragglers get
        SIGKILL so stop always terminates).
        """
        with self._lock:
            self._draining = True
        self._write_supervisor_record()
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        with self._lock:
            draining = [
                slot.process
                for slot in self._slots
                if slot.process is not None and slot.process.is_alive()
            ]
        send = signal.SIGTERM if graceful else signal.SIGKILL
        for process in draining:
            try:
                os.kill(process.pid, send)
            except OSError:
                pass
        deadline = time.monotonic() + (self.drain_timeout_s if graceful else 2.0)
        clean = True
        for process in draining:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                clean = False
                logger.warning(
                    "worker pid %s ignored drain; killing", process.pid
                )
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except OSError:
                    pass
                process.join(timeout=2.0)
            elif graceful and process.exitcode != 0:
                clean = False
        self._sock.close()
        return 0 if clean else 1


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    control_dir: str | None = None,
    drain_timeout_s: float = 10.0,
    **service_options,
) -> int:
    """CLI entry: run a shard until SIGTERM/SIGINT, then drain.

    Returns the process exit code (0 on a clean drain).
    """
    supervisor = ShardSupervisor(
        host=host,
        port=port,
        workers=workers,
        control_dir=control_dir,
        drain_timeout_s=drain_timeout_s,
        **service_options,
    )
    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda *_: stop.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    supervisor.start()
    supervisor.wait_ready()
    print(
        f"repro evaluation service listening on {supervisor.url} "
        f"({workers} workers)",
        flush=True,
    )
    print(f"shard control directory: {supervisor.control_dir}", flush=True)
    print(
        "endpoints: /healthz /metrics /v1/specs /v1/hardware /v1/evaluate "
        "/v1/sweep /v1/plan /v1/calibrate /v1/jobs/<id>",
        flush=True,
    )
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("draining workers", flush=True)
        code = supervisor.stop(graceful=True)
    return code
