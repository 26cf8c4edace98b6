"""End-to-end and unit tests of the evaluation service.

The acceptance path runs a real :class:`ThreadingHTTPServer` on an
ephemeral port and talks to it over actual HTTP through
:class:`ServiceClient` — every endpoint round-trips, a repeated
``/v1/evaluate`` hits the compiled-target LRU (hit counter asserted),
coalescing batches concurrent same-spec requests, and backpressure
answers 429 with ``Retry-After``.  Unit tests cover the LRU, the
coalescer, the job store and the request-body validation without
sockets.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.core.errors import ScenarioError
from repro.service import (
    EvaluationService,
    LRUCache,
    ServiceClient,
    ServiceClientError,
    ServiceOverloaded,
    create_server,
)
from repro.service.jobs import JobStore, ServiceError
from tests.keepalive import (
    assert_keepalive_round_trips_are_fast,
    assert_unread_error_body_closes,
)

SMALL_SWEEP = {
    "name": "service-test-sweep",
    "description": "a tiny analytic sweep",
    "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
    "algorithm": {
        "kind": "bsp",
        "params": {
            "operations_per_superstep": 1e10,
            "payload_bits": 2.5e8,
            "topology": "tree",
        },
    },
    "workers": [1, 2, 4, 8],
    "sweep": {"bandwidth_bps": [1e9, 1e10]},
}

SIMULATED_POINT = {
    "name": "service-test-simulated",
    "description": "a tiny simulated point (expensive => async sweep)",
    "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
    "algorithm": {
        "kind": "bsp",
        "params": {
            "operations_per_superstep": 1e9,
            "payload_bits": 1e6,
            "topology": "tree",
        },
    },
    "workers": [1, 2, 4],
    "backend": {"kind": "simulated", "simulation": {"iterations": 1, "seed": 0}},
}


OVERFLOWING_POINT = {
    "name": "service-test-overflow",
    "description": "valid parameters whose modelled times overflow to inf",
    "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
    "algorithm": {
        "kind": "gradient_descent",
        "params": {
            "operations_per_sample": 1e300,
            "parameters": 1e300,
            "batch_size": 10**10,
        },
    },
    "workers": [1, 2, 4],
}


#: A small two-node plan; OVERFLOWING_PLAN_CASES each change one field so
#: that pricing leaves the float range.
PRICED_PLAN = {
    "plan": 1,
    "name": "service-test-plan-overflow",
    "scenario": {
        "name": "service-test-plan-bsp",
        "hardware": {"node": "xeon-e3-1240", "link": "1gbe"},
        "algorithm": {
            "kind": "bsp",
            "params": {
                "operations_per_superstep": 1e13,
                "payload_bits": 1e9,
                "topology": "tree",
            },
        },
        "workers": [1, 2, 4, 8],
    },
    "search": {"nodes": ["xeon-e3-1240", "nvidia-k40"]},
    "objective": "min-cost",
    "constraints": {"deadline_s": 100.0},
    "runs": 10,
}

OVERFLOWING_PLAN_CASES = {
    "price": (
        {"prices": {"xeon-e3-1240": 1e308, "nvidia-k40": 1e308}},
        "non-finite cost or throughput",
    ),
    "runs-product": ({"runs": 10**308}, "non-finite cost or throughput"),
    "runs-int": ({"runs": 10**400}, "'runs' must fit in a float"),
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    instance = create_server(
        port=0,
        cache_dir=str(cache_dir),
        runner_mode="serial",  # in-server sweeps stay in-process for tests
        job_workers=1,
        max_jobs=4,
        sync_grid_limit=64,
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, timeout_s=30.0)


class TestEndToEndRoundTrip:
    """Every endpoint answers over real HTTP (the acceptance property)."""

    def test_healthz(self, client):
        answer = client.health()
        assert answer["result"]["status"] == "ok"
        assert answer["result"]["versions"]["wire"] == 1
        assert answer["kind"] == "healthz"
        store = answer["result"]["store"]
        for counter in (
            "hits",
            "misses",
            "deltas",
            "delta_points",
            "points_reused",
            "points_computed",
            "bytes_mapped",
        ):
            assert isinstance(store[counter], int) and store[counter] >= 0

    def test_specs(self, client):
        result = client.specs()["result"]
        assert "figure2" in result["scenarios"]
        assert "plan-gd-deadline" in result["plans"]
        assert set(result["backends"]) == {
            "analytic",
            "simulated",
            "calibrated",
            "network",
        }

    def test_hardware(self, client):
        result = client.hardware()["result"]
        slugs = {row["slug"] for row in result["catalog"]}
        assert "xeon-e3-1240" in slugs

    def test_evaluate_builtin(self, client):
        answer = client.evaluate("figure2")
        result = answer["result"]
        assert result["scenario"] == "figure2"
        assert result["backend"] == "analytic"
        assert len(result["workers"]) == len(result["times_s"])
        assert result["optimal_workers"] == 9  # the paper's N for Figure 2

    def test_evaluate_with_overrides(self, client):
        answer = client.evaluate("figure2", workers=[1, 2, 4], backend="simulated")
        result = answer["result"]
        assert result["backend"] == "simulated"
        assert result["workers"] == [1, 2, 4]

    def test_sweep_inline(self, client):
        answer = client.sweep(SMALL_SWEEP)
        result = answer["result"]
        assert len(result["points"]) == 2
        assert result["reference"] is not None
        assert "job" not in answer["meta"]

    def test_healthz_store_counters_track_sweeps(self, client):
        """The columnar store's hit/miss/delta counters are observable."""
        spec = {
            **SMALL_SWEEP,
            "name": "store-counter-sweep",
            "sweep": {"bandwidth_bps": [1e9, 2e9, 4e9]},
        }
        before = client.health()["result"]["store"]
        client.sweep(spec)  # fresh grid: a miss
        client.sweep(spec)  # identical grid: a pure store hit
        grown = {**spec, "sweep": {"bandwidth_bps": [1e9, 2e9, 4e9, 8e9]}}
        client.sweep(grown)  # one new point: a delta commit
        after = client.health()["result"]["store"]
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["deltas"] == before["deltas"] + 1
        assert after["delta_points"] == before["delta_points"] + 1
        assert after["points_reused"] >= before["points_reused"] + 6
        assert after["bytes_mapped"] > before["bytes_mapped"]

    def test_sweep_async_job_roundtrip(self, client):
        # An expensive (simulated) spec in auto mode becomes a 202 job;
        # the client polls /v1/jobs/<id> to the finished payload.
        answer = client.sweep(SIMULATED_POINT)
        assert answer["meta"]["job"].startswith("j")
        assert len(answer["result"]["points"]) == 1
        assert answer["kind"] == "sweep"

    def test_plan(self, client):
        answer = client.plan("plan-gd-deadline")
        result = answer["result"]
        assert result["plan"] == "plan-gd-deadline"
        assert result["recommendation"] is not None
        assert result["pareto"]

    def test_calibrate(self, client):
        answer = client.calibrate("figure2", source="analytic", features=["amdahl"])
        result = answer["result"]
        assert result["source"] == "analytic"
        assert result["ranking"][0][0] == "amdahl"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

    def test_unknown_route_is_404(self, client, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/nope")
        assert excinfo.value.code == 404

    def test_file_path_scenario_is_rejected(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.evaluate({"scenario": 1})  # not a valid spec mapping
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError, match="file path"):
            # Bypass client-side resolution to hit the server's guard.
            client._request(
                "POST", "/v1/evaluate", {"scenario": "../../etc/passwd.json"}
            )

    def test_unknown_body_field_is_rejected(self, client):
        with pytest.raises(ServiceClientError, match="unknown evaluate fields"):
            client._request(
                "POST", "/v1/evaluate", {"scenario": "figure2", "worker": [1]}
            )

    def test_unread_error_body_does_not_corrupt_keepalive(self, server):
        assert_unread_error_body_closes(*server.server_address[:2])

    def test_keepalive_round_trips_do_not_stall(self, server):
        assert_keepalive_round_trips_are_fast(*server.server_address[:2])

    def test_validation_errors_keep_the_connection_alive(self, server):
        # Errors raised *after* the body was consumed must not force a
        # close: the connection stays clean and reusable.
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/evaluate",
                body=json.dumps({"scenario": "figure2", "typo": 1}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers.get("Connection") != "close"
            response.read()
            connection.request("GET", "/healthz")  # same socket, still clean
            follow_up = connection.getresponse()
            assert follow_up.status == 200
            follow_up.read()
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "body,content_length,message",
        [
            (b"{not json", None, "not valid JSON"),
            (b"\xff\xfe{}", None, "not valid JSON"),
            (b"[" * 50000 + b"]" * 50000, None, "nests too deeply"),
            (b'{"scenario": "figure2"}', "abc", "Content-Length must be an integer"),
        ],
        ids=["syntax", "not-utf8", "deep-nesting", "content-length-not-numeric"],
    )
    @pytest.mark.parametrize(
        "path", ["/v1/evaluate", "/v1/sweep", "/v1/plan", "/v1/calibrate"]
    )
    def test_malformed_body_is_400(self, server, path, body, content_length, message):
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Type", "application/json")
            connection.putheader(
                "Content-Length", content_length or str(len(body))
            )
            connection.endheaders(body)
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad-request"
        assert message in payload["error"]["message"]

    @pytest.mark.parametrize(
        "workers,named",
        [(["a"], "'a'"), ([2, None], "None"), ([[1]], "[1]"), ([], "at least one")],
        ids=["text", "null", "nested", "empty"],
    )
    @pytest.mark.parametrize("method", ["evaluate", "sweep"])
    def test_bad_worker_entries_are_400(self, client, method, workers, named):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request(
                "POST", f"/v1/{method}", {"scenario": "figure2", "workers": workers}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"
        assert named in str(excinfo.value)

    @pytest.mark.parametrize("method", ["evaluate", "sweep"])
    def test_overflowing_times_are_400(self, client, method):
        # A valid spec whose every time overflows to inf: the curve
        # refuses it instead of deriving inf/inf = NaN speedups.
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", f"/v1/{method}", {"scenario": OVERFLOWING_POINT})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"
        assert "times must be finite, got inf at 1 workers" in str(excinfo.value)


    @pytest.mark.parametrize(
        "change,message",
        OVERFLOWING_PLAN_CASES.values(),
        ids=OVERFLOWING_PLAN_CASES.keys(),
    )
    def test_overflowing_plan_costs_are_400(self, client, change, message):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request(
                "POST", "/v1/plan", {"plan": {**PRICED_PLAN, **change}, "mode": "sync"}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"
        assert message in str(excinfo.value)

    def test_overflowing_plan_cost_fails_its_job(self, client):
        change, message = OVERFLOWING_PLAN_CASES["price"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.plan({**PRICED_PLAN, **change}, mode="async", timeout_s=30.0)
        assert "failed: PlanError" in str(excinfo.value)
        assert message in str(excinfo.value)


class TestHotPathCaching:
    """The acceptance criterion: repeats hit the compiled-target LRU."""

    def test_repeated_evaluate_hits_target_lru(self, client):
        spec = {**SMALL_SWEEP, "name": "lru-probe"}
        first = client.evaluate(spec)
        assert first["meta"]["cache"]["target"] == "miss"
        before = client.health()["result"]["caches"]["target"]["hits"]
        again = client.evaluate(spec)
        assert again["meta"]["cache"]["target"] == "hit"
        assert again["meta"]["cache"]["request"] == "hit"
        after = client.health()["result"]["caches"]["target"]["hits"]
        assert after >= before + 1
        assert again["result"]["times_s"] == first["result"]["times_s"]

    def test_sweep_and_evaluate_share_the_base_point_target(self, client):
        # A spec with a sweep block and the same spec without one share
        # the same compiled base-point target.
        spec = {**SMALL_SWEEP, "name": "shared-base-point"}
        client.evaluate(spec)
        bare = {key: value for key, value in spec.items() if key != "sweep"}
        answer = client.evaluate(bare)
        assert answer["meta"]["cache"]["target"] == "hit"


class TestCoalescing:
    def test_concurrent_same_spec_requests_coalesce(self):
        service = EvaluationService(coalesce_window_s=0.25, use_cache=False)
        try:
            outcomes: dict[str, object] = {}

            def hit(grid_name, grid):
                outcomes[grid_name] = service.handle_evaluate(
                    {"scenario": "figure2", "workers": grid}
                )

            leader = threading.Thread(target=hit, args=("a", [1, 2, 4, 8]))
            leader.start()
            time.sleep(0.05)  # leader is inside its coalesce window
            followers = [
                threading.Thread(target=hit, args=(name, grid))
                for name, grid in (("b", [1, 2, 13]), ("c", [1, 4, 9]))
            ]
            for thread in followers:
                thread.start()
            leader.join()
            for thread in followers:
                thread.join()

            stats = service.coalescer.stats()
            assert stats["batches"] == 1
            assert stats["coalesced_requests"] == 2
            assert outcomes["b"].meta["batch_size"] == 3
            # Zero-copy serving: the batch landed in one shared buffer
            # sized to the union of the three grids (plus baselines).
            assert stats["shared_buffer_points"] == len(
                {1, 2, 4, 8, 13, 9}
            )

            # Bit-identity: a coalesced answer equals a solo evaluation.
            solo = service.handle_evaluate(
                {"scenario": "figure2", "workers": [1, 2, 13]}
            )
            assert solo.result["times_s"] == outcomes["b"].result["times_s"]
        finally:
            service.close()

    def test_stochastic_specs_do_not_coalesce(self):
        service = EvaluationService(use_cache=False)
        try:
            outcome = service.handle_evaluate({"scenario": "bp-dns-16k"})
            assert outcome.meta["batch_size"] == 1
            assert service.coalescer.stats()["requests"] == 0
        finally:
            service.close()


class TestBackpressure:
    def test_request_slots_reject_when_exhausted(self):
        service = EvaluationService(max_concurrency=1)
        try:
            with service.request_slot():
                with pytest.raises(ServiceOverloaded):
                    with service.request_slot():
                        pass  # pragma: no cover
        finally:
            service.close()

    def test_http_429_with_retry_after(self):
        instance = create_server(
            port=0, max_concurrency=1, coalesce_window_s=0.6, use_cache=False
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(instance.url, timeout_s=30.0)
            errors: list[ServiceClientError] = []

            def occupy():
                client.evaluate("figure2")  # holds the only slot ~0.6 s

            holder = threading.Thread(target=occupy)
            holder.start()
            time.sleep(0.2)
            # healthz is unmetered: it must answer while the slot is held.
            assert client.health()["result"]["status"] == "ok"
            try:
                client._request("POST", "/v1/evaluate", {"scenario": "capacity-sweep"})
            except ServiceClientError as error:
                errors.append(error)
            holder.join()
            assert errors, "second request should have been shed"
            assert errors[0].status == 429
            assert errors[0].code == "overloaded"
            rejected = client.health()["result"]["requests"].get("rejected", 0)
            assert rejected >= 1
        finally:
            instance.shutdown()
            instance.server_close()

    def test_job_store_sheds_past_max_jobs(self):
        store = JobStore(workers=1, max_jobs=1, history=8)
        release = threading.Event()
        try:
            store.submit("sweep", lambda: release.wait(10) or {"ok": True})
            with pytest.raises(ServiceOverloaded):
                store.submit("sweep", lambda: {})
        finally:
            release.set()
            store.shutdown()


class TestJobStore:
    def test_job_lifecycle_and_result(self):
        store = JobStore(workers=1, max_jobs=4, history=8)
        try:
            job = store.submit("sweep", lambda: {"answer": 42})
            deadline = time.monotonic() + 10
            while job.status != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert job.payload()["result"] == {"answer": 42}
            assert store.get(job.id) is job
        finally:
            store.shutdown()

    def test_failed_job_reports_its_error(self):
        store = JobStore(workers=1, max_jobs=4, history=8)

        def explode():
            raise ScenarioError("boom")

        try:
            job = store.submit("plan", explode)
            deadline = time.monotonic() + 10
            while job.status != "failed":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert "boom" in job.payload()["error"]
            assert store.stats()["failed"] == 1
        finally:
            store.shutdown()

    def test_history_must_cover_active_window(self):
        with pytest.raises(ServiceError, match="history"):
            JobStore(workers=1, max_jobs=8, history=4)


class TestLRUCache:
    def test_eviction_and_counters(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes 'a'
        cache.put("c", 3)  # evicts 'b', the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats == {
            "size": 2, "maxsize": 2, "hits": 2, "misses": 1, "evictions": 1,
        }

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ServiceError):
            LRUCache(0)


class TestWirePinning:
    def test_floats_are_pinned_and_keys_sorted(self):
        from repro.service import canonical_json

        text = canonical_json({"b": 0.1 + 0.2, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["b"] == 0.3  # 0.30000000000000004 pinned away

    def test_non_finite_floats_fail_loudly(self):
        from repro.service import canonical_json

        with pytest.raises(ValueError):
            canonical_json({"bad": float("nan")})


class TestMetricsEndpoint:
    """``GET /metrics``: one scrape covers every instrumented subsystem."""

    def test_scrape_parses_and_spans_subsystems(self, client, server):
        from repro.obs import parse_prometheus

        client.evaluate("figure2")  # traffic through compile/backends/store
        client.sweep(SMALL_SWEEP, mode="sync")  # traffic through sched
        text = (
            urllib.request.urlopen(f"{server.url}/metrics").read().decode("utf-8")
        )
        parsed = parse_prometheus(text)
        subsystems = {name.split("_")[1] for name in parsed}
        assert {"sched", "store", "service", "backends"} <= subsystems
        assert parsed["repro_service_requests_metrics_total"]["value"] >= 1
        assert parsed["repro_service_requests_evaluate_total"]["value"] >= 1
        assert parsed["repro_sched_tasks_total"]["value"] >= 1
        assert parsed["repro_backends_evaluations_total"]["value"] >= 1
        assert parsed["repro_service_request_seconds"]["count"] >= 1

    def test_healthz_counters_read_through_the_registry(self, client, server):
        urllib.request.urlopen(f"{server.url}/metrics").read()
        health = client.health()["result"]
        requests = health["requests"]
        assert requests["metrics"] >= 1
        value = server.service.metrics.value("repro_service_requests_metrics_total")
        assert requests["metrics"] == int(value)

    def test_post_to_metrics_is_405(self, server):
        request = urllib.request.Request(
            f"{server.url}/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405

    def test_trace_header_roots_request_span_in_caller_trace(self, server):
        from repro.obs import tracer

        trace = tracer()
        trace.reset()
        trace.start()
        try:
            request = urllib.request.Request(
                f"{server.url}/v1/specs",
                headers={"X-Repro-Trace-Id": "cafe0123cafe0123"},
            )
            urllib.request.urlopen(request).read()
            records = trace.drain()
        finally:
            trace.reset()
        spans = [
            r
            for r in records
            if r.name == "service.request" and r.trace_id == "cafe0123cafe0123"
        ]
        assert spans and spans[0].attrs["endpoint"] == "specs"


# -- sharded-vs-single differential ------------------------------------
#
# The sharding consistency contract (Petuum-style: explicit, pinned):
# the SAME request battery against a single-process server and a
# 4-worker shard produces byte-identical wire payloads, across all four
# backends, no matter which worker answers.

CALIBRATED_SWEEP = {
    "name": "service-test-calibrated",
    "description": "a tiny calibrated sweep",
    "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
    "algorithm": {
        "kind": "bsp",
        "params": {
            "operations_per_superstep": 1e10,
            "payload_bits": 2.5e8,
            "topology": "tree",
        },
    },
    "workers": [1, 2, 4, 8, 16],
    "backend": {
        "kind": "calibrated",
        "calibration": {"source": "analytic", "features": "ernest"},
    },
    "sweep": {"flops": [1e9, 2e9]},
}

NETWORK_SWEEP = {
    "name": "service-test-network",
    "description": "a tiny network-contention sweep",
    "hardware": {"node": "xeon-e3-1240", "link": "1gbe"},
    "algorithm": {
        "kind": "gradient_descent",
        "params": {
            "operations_per_sample": 1e5,
            "batch_size": 10000.0,
            "parameters": 1e6,
        },
    },
    "workers": [1, 2, 4, 8],
    "baseline_workers": 1,
    "backend": {
        "kind": "network",
        "topology": {"kind": "oversubscribed-racks", "racks": 2},
        "simulation": {"iterations": 2, "seed": 5},
    },
    "sweep": {"oversubscription_ratio": [1.0, 4.0]},
}

SIMULATED_SWEEP = {
    **SIMULATED_POINT,
    "name": "service-test-simulated-sweep",
    "sweep": {"bandwidth_bps": [1e9, 2e9]},
}


def _request_battery(client: ServiceClient) -> list[tuple[str, bytes]]:
    """Evaluate/sweep/plan across all four backends; golden bytes out.

    Sweeps force ``mode="sync"``: auto mode would answer expensive
    backends with 202 job envelopes whose ids differ per worker slot —
    a *deliberate* wire difference, tested separately.
    """
    from repro.service import golden_bytes

    answers = [
        ("evaluate-analytic", client.evaluate(SMALL_SWEEP)),
        ("evaluate-simulated", client.evaluate(SIMULATED_POINT)),
        ("evaluate-calibrated", client.evaluate(CALIBRATED_SWEEP)),
        ("evaluate-network", client.evaluate(NETWORK_SWEEP)),
        ("sweep-analytic", client.sweep(SMALL_SWEEP, mode="sync")),
        ("sweep-simulated", client.sweep(SIMULATED_SWEEP, mode="sync")),
        ("sweep-calibrated", client.sweep(CALIBRATED_SWEEP, mode="sync")),
        ("sweep-network", client.sweep(NETWORK_SWEEP, mode="sync")),
        ("plan", client.plan("plan-gd-deadline", mode="sync")),
    ]
    return [(label, golden_bytes(answer)) for label, answer in answers]


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="sharded serving requires the fork start method",
)
class TestShardedDifferential:
    @pytest.fixture(scope="class")
    def shard(self, tmp_path_factory):
        from repro.service.shard import ShardSupervisor

        base = tmp_path_factory.mktemp("shard-diff")
        supervisor = ShardSupervisor(
            port=0,
            workers=4,
            control_dir=str(base / "control"),
            cache_dir=str(base / "cache"),
            runner_mode="serial",
            daemon_workers=True,
        )
        supervisor.start()
        supervisor.wait_ready()
        try:
            yield supervisor
        finally:
            supervisor.stop()

    def test_battery_is_byte_identical_across_modes(self, shard, tmp_path_factory):
        single_dir = tmp_path_factory.mktemp("single-diff")
        instance = create_server(
            port=0, cache_dir=str(single_dir), runner_mode="serial"
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            single = _request_battery(ServiceClient(instance.url, timeout_s=60.0))
            # urllib opens a fresh connection per request, so these
            # spread across all four workers' accept() races.
            sharded = _request_battery(ServiceClient(shard.url, timeout_s=60.0))
        finally:
            instance.shutdown()
            instance.server_close()
        for (label_a, bytes_a), (label_b, bytes_b) in zip(single, sharded):
            assert label_a == label_b
            assert bytes_a == bytes_b, f"{label_a} differs between modes"

    def test_concurrent_same_spec_requests_are_each_correct(self, shard):
        from repro.service import golden_bytes

        grids = [[1, 2, 4], [1, 2, 8], [1, 4, 8], [1, 2, 4, 8]] * 2
        reference_client = ServiceClient(shard.url, timeout_s=60.0)
        expected = {
            tuple(grid): golden_bytes(
                reference_client.evaluate(SMALL_SWEEP, workers=grid)
            )
            for grid in grids
        }
        results: dict[int, bytes] = {}
        errors: list[Exception] = []

        def hit(index: int, grid: list[int]) -> None:
            try:
                client = ServiceClient(shard.url, timeout_s=60.0)
                results[index] = golden_bytes(
                    client.evaluate(SMALL_SWEEP, workers=grid)
                )
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                errors.append(error)

        threads = [
            threading.Thread(target=hit, args=(index, grid))
            for index, grid in enumerate(grids)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == len(grids)
        for index, grid in enumerate(grids):
            assert results[index] == expected[tuple(grid)]

    def test_cross_worker_store_dedup(self, shard):
        """A sweep computed by one worker is a store hit on another.

        Coalescing is per-worker, but result dedup crosses workers
        through the shared columnar store: worker B's *own* hit counter
        moves when it sweeps a spec worker A already committed.
        """
        from repro.service.shard import worker_records

        spec = {**SMALL_SWEEP, "name": "service-test-xworker-dedup"}
        records = sorted(worker_records(shard.control_dir), key=lambda r: r["slot"])
        assert len(records) >= 2
        first = ServiceClient(records[0]["control_url"], timeout_s=60.0)
        second = ServiceClient(records[1]["control_url"], timeout_s=60.0)
        baseline = second.health()["result"]["store"]["hits"]
        answer_a = first.sweep(spec, mode="sync")
        answer_b = second.sweep(spec, mode="sync")
        from repro.service import golden_bytes

        assert golden_bytes(answer_a) == golden_bytes(answer_b)
        assert second.health()["result"]["store"]["hits"] > baseline

    def test_sharded_healthz_reports_the_fleet(self, shard):
        health = ServiceClient(shard.url).health()["result"]
        workers = health["workers"]
        assert workers["count"] == 4
        assert workers["alive"] == 4
        assert workers["respawns"] == 0
        assert workers["slot"] in (0, 1, 2, 3)

    def test_sharded_metrics_aggregate_the_fleet(self, shard):
        from repro.obs import parse_prometheus

        # Touch every worker's own /metrics so per-slot counters exist,
        # then check the shared-port scrape saw all of them.
        from repro.service.shard import worker_records

        for record in worker_records(shard.control_dir):
            urllib.request.urlopen(
                f"{record['control_url']}/metrics?scope=local"
            ).read()
        text = urllib.request.urlopen(f"{shard.url}/metrics").read().decode("utf-8")
        parsed = parse_prometheus(text)
        gauge = parsed["repro_service_workers"]["samples"]
        assert gauge['state="alive"'] == 4
        assert gauge['state="dead"'] == 0
        assert parsed["repro_service_requests_metrics_total"]["value"] >= 4
