"""Keep-alive transport checks shared by the single-process and sharded
service tests.

Both take the ``host`` and ``port`` of a running service and talk to it
over raw ``http.client`` connections, so the server's connection
handling (not a client library's) is what is under test.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

#: Sequential requests timed per route on one connection.
ROUND_TRIPS = 15

#: Median round-trip ceiling.  A response held back by Nagle until the
#: client's delayed ACK takes ~40 ms; an unstalled one takes ~1-2 ms.
MAX_MEDIAN_MS = 20.0

EVALUATE_BODY = json.dumps({"scenario": "figure2"})


def _round_trip_ms(connection, method: str, path: str, body=None) -> float:
    start = time.perf_counter()
    connection.request(method, path, body=body)
    response = connection.getresponse()
    response.read()
    elapsed_ms = (time.perf_counter() - start) * 1e3
    assert response.status == 200, (path, response.status)
    return elapsed_ms


def assert_keepalive_round_trips_are_fast(host: str, port: int) -> None:
    """Sequential requests on one reused connection must not stall."""
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        # Untimed: opens the socket and fills the request caches, so
        # the timed evaluates are cache hits.
        _round_trip_ms(connection, "POST", "/v1/evaluate", EVALUATE_BODY)
        socket = connection.sock
        medians = {}
        for method, path, body in (
            ("GET", "/healthz", None),
            ("POST", "/v1/evaluate", EVALUATE_BODY),
        ):
            medians[path] = statistics.median(
                _round_trip_ms(connection, method, path, body)
                for _ in range(ROUND_TRIPS)
            )
        # A reconnect per request would dodge the stall being tested.
        assert connection.sock is socket
    finally:
        connection.close()
    assert all(ms < MAX_MEDIAN_MS for ms in medians.values()), medians


def assert_unread_error_body_closes(host: str, port: int) -> None:
    """A response that leaves the request body unread must close.

    A POST to an unknown route is answered 404 without the body being
    read; on a keep-alive connection the unread bytes would otherwise be
    parsed as the next request line.  The server must close such
    connections (``Connection: close``) so the next request on a fresh
    connection is answered normally.
    """
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("POST", "/v1/nope", body=EVALUATE_BODY)
        response = connection.getresponse()
        assert response.status == 404
        assert response.headers.get("Connection") == "close"
        response.read()
        # http.client reopens the closed connection transparently; the
        # follow-up must be a clean 200, not request-line soup.
        connection.request("GET", "/healthz")
        follow_up = connection.getresponse()
        assert follow_up.status == 200
        follow_up.read()
    finally:
        connection.close()
