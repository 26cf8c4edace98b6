"""The HTTP face of the evaluation service (stdlib only).

A :class:`ThreadingHTTPServer` whose request handler is a thin adapter:
parse the body, call the matching :class:`EvaluationService` method,
encode the :class:`~repro.service.handlers.Outcome` through the wire
module.  All behaviour lives in :mod:`repro.service.handlers`; this
module owns exactly the HTTP-shaped concerns:

* routing (the table below) and 404/405 for everything else;
* status mapping — domain validation errors are 400, unknown resources
  404, :class:`~repro.service.jobs.ServiceOverloaded` is 429 with a
  ``Retry-After`` header, anything unexpected is 500;
* admission control — every request passes through the service's
  bounded semaphore before any work happens, so an overloaded server
  sheds load in microseconds instead of queueing minutes of sweeps.

Endpoints::

    GET  /healthz          liveness + serving counters
    GET  /metrics          Prometheus text exposition of every registry
    GET  /v1/specs         builtins, kinds, topologies, versions
    GET  /v1/hardware      the priced hardware catalog
    GET  /v1/jobs/<id>     poll an async sweep/plan job
    POST /v1/evaluate      one spec's speedup curve (hot path)
    POST /v1/sweep         a sweep grid (200 inline or 202 job)
    POST /v1/plan          a capacity plan (200 inline or 202 job)
    POST /v1/calibrate     measure + fit + rank feature families
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.errors import ReproError
from repro.obs.export import render_prometheus
from repro.obs.metrics import get_registry
from repro.obs.trace import tracer
from repro.service import wire
from repro.service.handlers import EvaluationService, Outcome
from repro.service.jobs import ServiceNotFound, ServiceOverloaded

logger = logging.getLogger("repro.service")

#: Largest request body the server will read, in bytes.  Inline specs
#: are a few KB; anything near this limit is not a scenario.
MAX_BODY_BYTES = 4 * 1024 * 1024

JOB_ROUTE_PREFIX = "/v1/jobs/"


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the attached :class:`EvaluationService`."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    # Keep-alive needs TCP_NODELAY: a response goes out as two sends
    # (headers, then body), and with Nagle on the body waits for the
    # client's delayed ACK of the headers, ~40 ms on every reused
    # connection.
    disable_nagle_algorithm = True

    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        # BaseHTTPRequestHandler writes to stderr per request; a serving
        # process logs through `logging` (silent unless configured).
        logger.debug("%s %s", self.address_string(), format % args)

    # -- responses ---------------------------------------------------------

    def _send(self, status: int, body: dict, headers: dict | None = None) -> None:
        payload = wire.encode(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_outcome(self, kind: str, outcome: Outcome) -> None:
        self.service.count(kind)
        self._send(outcome.status, wire.envelope(kind, outcome.result, outcome.meta))

    def _send_error(self, status: int, code: str, message: str, headers=None) -> None:
        self.service.count("errors")
        merged = dict(headers or {})
        if self.command == "POST" and not getattr(self, "_body_consumed", False):
            # The request body was never read (unknown route, 405, bad
            # Content-Length).  On a keep-alive connection those unread
            # bytes would be parsed as the *next* request line, so the
            # connection must close after this answer.
            self.close_connection = True
            merged["Connection"] = "close"
        self._send(status, wire.error_envelope(code, message), merged)

    # -- request plumbing --------------------------------------------------

    def _read_body(self) -> object:
        declared = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(declared)
        except ValueError:
            raise ReproError(f"Content-Length must be an integer, got {declared!r}") from None
        if length <= 0:
            raise ReproError("request needs a JSON body (Content-Length missing)")
        if length > MAX_BODY_BYTES:
            raise ReproError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        self._body_consumed = True
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ReproError(f"request body is not valid JSON: {error}")
        except RecursionError:
            raise ReproError("request body nests too deeply to parse") from None

    def _dispatch(self, kind: str, handle, metered: bool = True) -> None:
        """Admission, execution, and the full error-to-status mapping."""
        started = time.perf_counter()
        # A caller-supplied trace id roots this request's span in the
        # caller's trace, so a client-side sweep and the server work it
        # triggers export as one tree.
        span = tracer().span(
            "service.request",
            {"endpoint": kind},
            trace_id=self.headers.get("X-Repro-Trace-Id") or None,
        )
        try:
            with span:
                if metered:
                    with self.service.request_slot():
                        outcome = handle()
                else:
                    outcome = handle()
            self._send_outcome(kind, outcome)
        except ServiceOverloaded as error:
            self._send_error(
                429,
                "overloaded",
                str(error),
                headers={"Retry-After": format(error.retry_after_s, "g")},
            )
        except ServiceNotFound as error:
            self._send_error(404, "not-found", str(error))
        except ReproError as error:
            self._send_error(400, "bad-request", str(error))
        except BrokenPipeError:
            pass  # client went away; nothing to answer
        except Exception as error:  # noqa: BLE001 - a server must answer
            logger.exception("internal error serving %s", kind)
            self._send_error(500, "internal", f"{type(error).__name__}: {error}")
        finally:
            self.service.request_seconds.observe(time.perf_counter() - started)

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            # Unmetered: a health probe must answer even when the
            # admission semaphore is exhausted — that is precisely when
            # an operator needs the counters.
            self._dispatch(
                "healthz", lambda: Outcome(self.service.handle_health()), metered=False
            )
        elif path == "/metrics":
            # Prometheus scrape: raw text exposition, unmetered for the
            # same reason as /healthz.  The service registry (caches,
            # coalescer, jobs, store) merges with the process-global one
            # (scheduler, backends, compile) into a single page.  A
            # sharded worker additionally merges its siblings' scrapes
            # unless the caller asked for ``?scope=local`` — which is
            # exactly what sibling scrapes ask for, stopping recursion.
            self.service.count("metrics")
            query = self.path.partition("?")[2]
            local_only = "scope=local" in query.split("&")
            if self.service.shard is not None and not local_only:
                from repro.service.shard import aggregated_metrics

                text = aggregated_metrics(self.service)
            else:
                text = render_prometheus(self.service.metrics, get_registry())
            self._send_text(
                200, text, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif path == "/v1/specs":
            self._dispatch("specs", lambda: Outcome(self.service.handle_specs()))
        elif path == "/v1/hardware":
            self._dispatch("hardware", lambda: Outcome(self.service.handle_hardware()))
        elif path.startswith(JOB_ROUTE_PREFIX):
            job_id = path[len(JOB_ROUTE_PREFIX):]
            self._dispatch("job", lambda: self.service.handle_job(job_id))
        elif path in ("/v1/evaluate", "/v1/sweep", "/v1/plan", "/v1/calibrate"):
            self._send_error(405, "method-not-allowed", f"POST to {path}")
        else:
            self._send_error(404, "not-found", f"unknown route {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        routes = {
            "/v1/evaluate": ("evaluate", self.service.handle_evaluate),
            "/v1/sweep": ("sweep", self.service.handle_sweep),
            "/v1/plan": ("plan", self.service.handle_plan),
            "/v1/calibrate": ("calibrate", self.service.handle_calibrate),
        }
        if path not in routes:
            if path in ("/healthz", "/metrics", "/v1/specs", "/v1/hardware"):
                self._send_error(405, "method-not-allowed", f"GET {path}")
            else:
                self._send_error(404, "not-found", f"unknown route {path!r}")
            return
        kind, handler = routes[path]

        def handle() -> Outcome:
            return handler(self._read_body())

        self._dispatch(kind, handle)


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server owning one :class:`EvaluationService`."""

    daemon_threads = True  # worker threads must not block process exit

    def __init__(self, address: tuple[str, int], service: EvaluationService) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        self.service.close()
        super().server_close()


def create_server(
    host: str = "127.0.0.1", port: int = 0, service: EvaluationService | None = None,
    **service_options,
) -> ServiceServer:
    """Bind a service server (``port=0`` picks an ephemeral port).

    ``service_options`` are forwarded to :class:`EvaluationService` when
    no pre-built service is given.
    """
    if service is None:
        service = EvaluationService(**service_options)
    return ServiceServer((host, port), service)


def serve(host: str = "127.0.0.1", port: int = 8765, **service_options) -> int:
    """Run the service until interrupted (the ``repro serve`` command)."""
    server = create_server(host, port, **service_options)
    print(f"repro evaluation service listening on {server.url}")
    print("endpoints: /healthz /metrics /v1/specs /v1/hardware /v1/evaluate"
          " /v1/sweep /v1/plan /v1/calibrate /v1/jobs/<id>")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0
