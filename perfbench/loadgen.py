"""Open-loop HTTP load generator: one process, two threads, two connections.

A step is a list of requests, each with a due time fixed before the step
starts (by seed and rate, never by how the server is doing).  Two
threads — the caller's and one helper — take requests in due order; a
free thread sleeps until the next request is due, a busy one sends it
late.  Every latency is measured from the request's due time, so a
server stall also counts against the requests queued behind it.

The generator's own lateness is reported separately: ``lag`` is how long
after it could have been sent (its due time, or the moment a thread
became free, whichever is later) a request actually went out.  A step
whose lag is high measured the generator, not the server.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field

from perfbench.layers import REQUEST_ID_HEADER
from perfbench.stats import summarize


@dataclass
class Request:
    kind: str  # evaluate | sweep | metrics
    method: str
    path: str
    body: bytes | None
    due: float  # seconds after the step starts
    request_id: str = ""


@dataclass
class Result:
    request: Request
    due: float
    picked: float
    sent: float
    done: float
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - max(self.due, self.picked)) * 1e3

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.status != 200


def paced(items: list[tuple[str, str, str, bytes | None]], rate: float, start: float = 0.0) -> list[Request]:
    """Evenly spaced due times at ``rate`` requests per second."""
    return [
        Request(kind, method, path, body, start + index / rate)
        for index, (kind, method, path, body) in enumerate(items)
    ]


@dataclass
class Connection:
    """One client connection slot: persistent (keep-alive) or one-shot."""

    host: str
    port: int
    keep_alive: bool
    timeout_s: float
    _conn: http.client.HTTPConnection | None = field(default=None, repr=False)

    def send(self, request: Request) -> tuple[int, bytes]:
        headers = {REQUEST_ID_HEADER: request.request_id}
        if request.body is not None:
            headers["Content-Type"] = "application/json"
        if not self.keep_alive:
            headers["Connection"] = "close"
        conn = self._conn
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request(request.method, request.path, body=request.body, headers=headers)
            response = conn.getresponse()
            body = response.read()
        except BaseException:
            conn.close()
            self._conn = None
            raise
        if self.keep_alive and not response.will_close:
            self._conn = conn
        else:
            conn.close()
            self._conn = None
        return response.status, body

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class LoadGenerator:
    """Sends steps of due-timed requests over two connection slots."""

    THREADS = 2

    def __init__(self, host: str, port: int, keep_alive: bool, timeout_s: float = 30.0) -> None:
        self.slots = [Connection(host, port, keep_alive, timeout_s) for _ in range(self.THREADS)]
        self._ids = 0

    def close(self) -> None:
        for slot in self.slots:
            slot.close()

    def run(self, requests: list[Request], abort_late_s: float = float("inf")) -> list[Result]:
        """Send one step; returns results in due order.

        Requests are never sent more than ``abort_late_s`` after their due
        time: once the next request is that late the step stops, and the
        unsent rest are left out of the results (the caller sees a short
        step, which its verdict counts as a growing backlog).
        """
        for request in requests:
            self._ids += 1
            request.request_id = str(self._ids)
        results: list[Result | None] = [None] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()
        aborted = threading.Event()
        start = time.perf_counter() + 0.005
        errors: list[BaseException] = []

        def work(slot: Connection) -> None:
            try:
                while not aborted.is_set():
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    request = requests[index]
                    due = start + request.due
                    picked = time.perf_counter()
                    if picked - due > abort_late_s:
                        aborted.set()
                        return
                    if picked < due:
                        time.sleep(due - picked)
                    sent = time.perf_counter()
                    result = Result(request, due, picked, sent, sent)
                    try:
                        result.status, result.body = slot.send(request)
                    except (OSError, http.client.HTTPException) as error:
                        result.error = f"{type(error).__name__}: {error}"
                    result.done = time.perf_counter()
                    results[index] = result
            except BaseException as error:  # surfaced by the caller below
                errors.append(error)
                aborted.set()

        helper = threading.Thread(target=work, args=(self.slots[1],), name="perfbench-loadgen")
        helper.start()
        try:
            work(self.slots[0])
        finally:
            helper.join()
        if errors:
            raise errors[0]
        return [result for result in results if result is not None]


def step_summary(results: list[Result], planned: int) -> dict:
    """Latency, lag and backlog figures of one step."""
    latencies = [result.latency_ms for result in results]
    summary = summarize(latencies)
    lags = summarize([result.lag_ms for result in results], 99.0)
    waits = [(result.sent - result.due) * 1e3 for result in results]
    quarter = max(1, len(waits) // 4)
    growth = sum(waits[-quarter:]) / quarter - sum(waits[:quarter]) / quarter if waits else 0.0
    unsent = planned - len(results)
    return {
        "planned": planned,
        "sent": len(results),
        "failed": sum(1 for result in results if result.failed) + unsent,
        "p50_ms": summary["p50"],
        "tail_ms": summary["tail"],
        "tail_pct": summary["tail_pct"],
        "lag_p99_ms": lags["tail"] if lags["tail"] is not None else 0.0,
        "backlog_growth_ms": float("inf") if unsent else growth,
    }
