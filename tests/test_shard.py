"""Crash-injection, drain and soak tests for sharded serving.

The failure contract under test (ISSUE 10):

* a worker killed mid-request gives the client a clean, retryable
  connection error — never a hang and never a truncated-but-200 body;
* a worker killed mid-cache-write leaves the columnar store consistent
  (``ResultStore.verify`` clean; orphan temps collectable by ``gc``);
* the supervisor respawns dead workers within backoff bounds;
* SIGTERM drains gracefully: in-flight requests finish, the process
  exits 0;
* async job handles survive worker boundaries: a job created on one
  worker polls on any other (and ids never escape the state directory).
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import parse_prometheus
from repro.service import (
    ServiceClient,
    ServiceClientError,
    golden_bytes,
)
from repro.service.jobs import JobStore
from repro.service.shard import (
    ShardSupervisor,
    supervisor_record,
    worker_records,
)
from repro.service.wire import canonical_json
from repro.store import ResultStore
from tests.keepalive import (
    assert_keepalive_round_trips_are_fast,
    assert_unread_error_body_closes,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded serving requires the fork start method",
)

SMALL_SWEEP = {
    "name": "shard-test-sweep",
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

SIMULATED_SWEEP = {
    "name": "shard-test-simulated",
    "description": "a tiny simulated sweep (async job vehicle)",
    "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
    "algorithm": {
        "kind": "bsp",
        "params": {
            "operations_per_superstep": 1e9,
            "payload_bits": 1e6,
            "topology": "tree",
        },
    },
    "workers": [1, 2],
    "backend": {"kind": "simulated", "simulation": {"iterations": 1, "seed": 0}},
    "sweep": {"bandwidth_bps": [1e9, 2e9]},
}

#: Overrides that make a SIMULATED_SWEEP job run for seconds, so the
#: jobs queued behind it cannot finish before a test kills its worker.
LONG_SIMULATED_GRID = {
    "workers": list(range(1, 65)),
    "backend": {"kind": "simulated", "simulation": {"iterations": 200, "seed": 0}},
    "sweep": {"bandwidth_bps": [1e9, 2e9, 4e9, 8e9]},
}


def make_supervisor(tmp_path: Path, workers: int = 2, **options) -> ShardSupervisor:
    options.setdefault("runner_mode", "serial")
    options.setdefault("cache_dir", str(tmp_path / "cache"))
    supervisor = ShardSupervisor(
        port=0,
        workers=workers,
        control_dir=str(tmp_path / "control"),
        daemon_workers=True,  # a failed test must not leak processes
        **options,
    )
    supervisor.start()
    supervisor.wait_ready()
    return supervisor


def wait_for(predicate, timeout_s: float, message: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {message}")


def slot_pids(control_dir) -> dict[int, int]:
    return {r["slot"]: r["pid"] for r in worker_records(control_dir)}


class TestSupervisorLifecycle:
    def test_workers_register_and_serve(self, tmp_path):
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            records = worker_records(supervisor.control_dir)
            assert sorted(r["slot"] for r in records) == [0, 1]
            assert len(set(r["pid"] for r in records)) == 2
            health = ServiceClient(supervisor.url).health()["result"]
            assert health["status"] == "ok"
            assert health["workers"]["alive"] == 2
            # Each control port answers as its own slot.
            slots = set()
            for record in records:
                block = ServiceClient(record["control_url"]).health()["result"]
                slots.add(block["workers"]["slot"])
            assert slots == {0, 1}
        finally:
            assert supervisor.stop() == 0

    def test_keepalive_transport(self, tmp_path):
        # The WorkerServer path: answers on a reused connection must not
        # stall, and an unread error body must still close it.
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            host, port = supervisor.url.removeprefix("http://").split(":")
            assert_keepalive_round_trips_are_fast(host, int(port))
            assert_unread_error_body_closes(host, int(port))
        finally:
            assert supervisor.stop() == 0

    def test_rejects_bad_worker_count_and_reserved_options(self):
        from repro.service.jobs import ServiceError

        with pytest.raises(ServiceError, match="worker count"):
            ShardSupervisor(workers=0)
        with pytest.raises(ServiceError, match="managed by the shard"):
            ShardSupervisor(workers=2, job_id_prefix="x-")

    def test_bad_service_option_fails_at_start_not_in_workers(self):
        from repro.service.jobs import ServiceError

        with pytest.raises(ServiceError, match="max_concurrency"):
            ShardSupervisor(workers=2, max_concurrency=0)


class TestCrashInjection:
    def test_kill_mid_request_is_a_clean_close_then_respawn(self, tmp_path):
        # The coalescing window holds every evaluate open ~1s — a wide,
        # deterministic kill window.
        supervisor = make_supervisor(tmp_path, workers=2, coalesce_window_s=1.0)
        try:
            host, port = supervisor.url.removeprefix("http://").split(":")
            # HTTP/1.1 keep-alive pins a connection to the worker that
            # accepted it: ask /healthz who owns this one, then kill
            # that exact worker mid-evaluate on the same connection.
            connection = http.client.HTTPConnection(host, int(port), timeout=15)
            connection.request("GET", "/healthz")
            owner_slot = json.loads(connection.getresponse().read())["result"][
                "workers"
            ]["slot"]
            owner_pid = slot_pids(supervisor.control_dir)[owner_slot]

            outcome: dict = {}

            def slow_request() -> None:
                body = json.dumps({"scenario": "figure2"}).encode()
                try:
                    connection.request(
                        "POST",
                        "/v1/evaluate",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    outcome["body"] = response.read()
                    outcome["status"] = response.status
                except (ConnectionError, http.client.HTTPException, OSError) as err:
                    outcome["error"] = err

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.4)  # inside the 1s coalesce window
            os.kill(owner_pid, signal.SIGKILL)
            thread.join(timeout=10)
            assert not thread.is_alive(), "client hung after worker kill"
            if "error" in outcome:
                # The clean-close arm: a distinct exception, not a hang.
                assert isinstance(
                    outcome["error"], (ConnectionError, http.client.HTTPException)
                )
            else:
                # The response-won-the-race arm: body must be complete.
                assert outcome["status"] == 200
                payload = json.loads(outcome["body"])
                assert payload["result"]["optimal_workers"] == 9

            # Supervisor respawns the slot; service keeps answering.
            wait_for(
                lambda: slot_pids(supervisor.control_dir).get(owner_slot)
                not in (None, owner_pid),
                timeout_s=10,
                message="slot respawn",
            )
            assert supervisor.respawns >= 1
            fresh = ServiceClient(supervisor.url, timeout_s=30).health()["result"]
            assert fresh["status"] == "ok"
            assert fresh["workers"]["alive"] == 2
        finally:
            supervisor.stop()

    def test_kill_during_store_write_leaves_store_consistent(self, tmp_path):
        # Forked workers inherit this patched class attribute: every
        # chunk commit drops a marker temp, then stalls long enough for
        # the test to SIGKILL the writer mid-commit.
        original = ResultStore._write_chunk

        def stalling_write(self, plan, array):
            plan.directory.mkdir(parents=True, exist_ok=True)
            marker = plan.directory / ".tmp-crashtest.part"
            marker.write_bytes(b"incomplete")
            time.sleep(2.0)
            return original(self, plan, array)

        ResultStore._write_chunk = stalling_write
        try:
            supervisor = make_supervisor(tmp_path, workers=2)
        finally:
            ResultStore._write_chunk = original
        cache_dir = tmp_path / "cache"
        spec = {**SMALL_SWEEP, "name": "shard-crash-write"}
        try:
            records = sorted(
                worker_records(supervisor.control_dir), key=lambda r: r["slot"]
            )
            target = records[0]
            failure: list = []

            def doomed_sweep() -> None:
                try:
                    ServiceClient(target["control_url"], timeout_s=30).sweep(
                        spec, mode="sync"
                    )
                except ServiceClientError as error:
                    failure.append(error)

            thread = threading.Thread(target=doomed_sweep)
            thread.start()
            wait_for(
                lambda: list(cache_dir.rglob(".tmp-crashtest.part")),
                timeout_s=10,
                message="the stalled chunk write",
            )
            os.kill(target["pid"], signal.SIGKILL)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert failure and failure[0].code == "connection-closed"
            assert failure[0].retryable

            # The store is structurally intact: the crash left at most
            # an orphan temp, never a broken manifest or view.
            store = ResultStore(str(cache_dir))
            report = store.verify()
            assert report["broken_manifests"] == 0
            assert report["broken_chunks"] == 0
            assert report["temp_files"] >= 1
            collected = store.gc(max_age_s=0.0)
            assert collected["stale_temps"] >= 1
            assert store.verify()["temp_files"] == 0

            # And the retry computes the right answer through the same
            # store (the surviving/respawned workers still share it).
            wait_for(
                lambda: len(slot_pids(supervisor.control_dir)) == 2,
                timeout_s=10,
                message="slot respawn",
            )
            from repro.scenarios import SweepRunner, parse_scenario

            ResultStore._write_chunk = original  # paranoia: already restored
            answer = ServiceClient(supervisor.url, timeout_s=60).sweep(
                spec, mode="sync"
            )
            local = SweepRunner(mode="serial", use_cache=False).run(
                parse_scenario(spec)
            )
            assert canonical_json(answer["result"]) == canonical_json(
                local.payload()
            )
        finally:
            supervisor.stop()

    def test_respawns_stay_within_backoff_bounds(self, tmp_path):
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            for round_number in (1, 2):
                pids = slot_pids(supervisor.control_dir)
                victim = pids[0]
                killed_at = time.monotonic()
                os.kill(victim, signal.SIGKILL)
                wait_for(
                    lambda: slot_pids(supervisor.control_dir).get(0)
                    not in (None, victim),
                    timeout_s=10,
                    message=f"respawn round {round_number}",
                )
                elapsed = time.monotonic() - killed_at
                # Backoff cap (2s) + monitor poll + fork/registration
                # slack; generous but still far below "never".
                assert elapsed < 8.0
                assert supervisor.respawns == round_number
            record = supervisor_record(supervisor.control_dir)
            assert record["respawns"] == 2
            health = ServiceClient(supervisor.url).health()["result"]
            assert health["workers"]["respawns"] == 2
            assert health["workers"]["alive"] == 2
        finally:
            supervisor.stop()


class TestSigtermDrain:
    def test_sigterm_finishes_inflight_and_exits_zero(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--workers",
                "2",
                "--port",
                "0",
                "--parallel",
                "serial",
                "--coalesce-window",
                "1.0",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--control-dir",
                str(tmp_path / "control"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            url = line.split("listening on ")[1].split(" ")[0].strip()

            answer: dict = {}

            def inflight() -> None:
                answer.update(
                    ServiceClient(url, timeout_s=30).evaluate("figure2")
                )

            thread = threading.Thread(target=inflight)
            thread.start()
            time.sleep(0.4)  # request now inside the coalesce window
            process.send_signal(signal.SIGTERM)
            thread.join(timeout=15)
            assert not thread.is_alive(), "in-flight request abandoned by drain"
            assert answer["result"]["optimal_workers"] == 9
            assert process.wait(timeout=20) == 0
            remaining = process.stdout.read()
            assert "draining workers" in remaining
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestJobRouting:
    def test_job_created_on_one_worker_polls_on_another(self, tmp_path):
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            records = sorted(
                worker_records(supervisor.control_dir), key=lambda r: r["slot"]
            )
            owner, other = records[0], records[1]
            submit = ServiceClient(owner["control_url"], timeout_s=30)
            accepted = submit.sweep(SIMULATED_SWEEP, mode="async", wait=False)
            job_id = accepted["result"]["job"]
            assert job_id.startswith(f"w{owner['slot']}-j")
            # The regression: poll the job on a worker that never saw it.
            poller = ServiceClient(other["control_url"], timeout_s=30)
            final = poller.wait_job(job_id, timeout_s=30)
            assert final["result"]["status"] == "done"
            assert final["result"]["result"]["points"]
            # And byte-identical to the owner's own view of the job.
            assert golden_bytes(final) == golden_bytes(submit.job(job_id))
        finally:
            supervisor.stop()

    def test_job_state_survives_worker_death(self, tmp_path):
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            records = sorted(
                worker_records(supervisor.control_dir), key=lambda r: r["slot"]
            )
            owner = records[0]
            client = ServiceClient(owner["control_url"], timeout_s=30)
            accepted = client.sweep(SIMULATED_SWEEP, mode="async", wait=False)
            job_id = accepted["result"]["job"]
            # Let the job land, then kill its owner: the mirrored state
            # keeps the handle resolvable fleet-wide.
            shared = ServiceClient(supervisor.url, timeout_s=30, retries=3)
            done = shared.wait_job(job_id, timeout_s=30)
            os.kill(owner["pid"], signal.SIGKILL)
            wait_for(
                lambda: slot_pids(supervisor.control_dir).get(owner["slot"])
                not in (None, owner["pid"]),
                timeout_s=10,
                message="owner respawn",
            )
            after = shared.wait_job(job_id, timeout_s=30)
            assert golden_bytes(after) == golden_bytes(done)
        finally:
            supervisor.stop()

    def test_respawned_worker_never_reuses_job_ids(self, tmp_path):
        # The collision the mirror exists to prevent: kill a worker,
        # then SUBMIT on its respawn.  Without counter seeding the new
        # JobStore would restart at w<slot>-j000001 and os.replace() the
        # pre-crash job's mirror, so a client polling the old handle
        # would silently read a different job's payload.
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            records = sorted(
                worker_records(supervisor.control_dir), key=lambda r: r["slot"]
            )
            owner = records[0]
            client = ServiceClient(owner["control_url"], timeout_s=30)
            accepted = client.sweep(SIMULATED_SWEEP, mode="async", wait=False)
            old_id = accepted["result"]["job"]
            shared = ServiceClient(supervisor.url, timeout_s=30, retries=3)
            before = shared.wait_job(old_id, timeout_s=30)
            assert before["result"]["status"] == "done"

            os.kill(owner["pid"], signal.SIGKILL)
            wait_for(
                lambda: slot_pids(supervisor.control_dir).get(owner["slot"])
                not in (None, owner["pid"]),
                timeout_s=10,
                message="owner respawn",
            )
            respawned = slot_pids(supervisor.control_dir)[owner["slot"]]
            record = next(
                r
                for r in worker_records(supervisor.control_dir)
                if r["pid"] == respawned
            )
            fresh = ServiceClient(record["control_url"], timeout_s=30).sweep(
                {**SIMULATED_SWEEP, "name": "shard-respawn-submit"},
                mode="async",
                wait=False,
            )
            new_id = fresh["result"]["job"]
            assert new_id.startswith(f"w{owner['slot']}-j")
            assert new_id != old_id
            # The pre-crash handle still answers with ITS payload.
            after = shared.wait_job(old_id, timeout_s=30)
            assert golden_bytes(after) == golden_bytes(before)
        finally:
            supervisor.stop()

    def test_dead_worker_jobs_reach_a_terminal_state(self, tmp_path):
        # Jobs that die with their worker must be fail-marked by the
        # supervisor, not left 'queued'/'running' in the mirror forever
        # (a poll would spin until the client's own timeout).
        supervisor = make_supervisor(tmp_path, workers=2, job_workers=1)
        try:
            records = sorted(
                worker_records(supervisor.control_dir), key=lambda r: r["slot"]
            )
            owner = records[0]
            client = ServiceClient(owner["control_url"], timeout_s=30)
            # job_workers=1: the second and third submits queue behind
            # the first.  The first runs for seconds (a large grid), so
            # once one of them reads 'queued' it is still non-terminal
            # when the owner dies.
            specs = [
                {**SIMULATED_SWEEP, **LONG_SIMULATED_GRID, "name": "shard-orphan-0"},
                {**SIMULATED_SWEEP, "name": "shard-orphan-1"},
                {**SIMULATED_SWEEP, "name": "shard-orphan-2"},
            ]
            job_ids = [
                client.sweep(spec, mode="async", wait=False)["result"]["job"]
                for spec in specs
            ]
            wait_for(
                lambda: any(
                    client.job(job_id)["result"]["status"] == "queued"
                    for job_id in job_ids
                ),
                timeout_s=10,
                message="a queued job on the owner",
            )
            os.kill(owner["pid"], signal.SIGKILL)
            wait_for(
                lambda: slot_pids(supervisor.control_dir).get(owner["slot"])
                not in (None, owner["pid"]),
                timeout_s=10,
                message="owner respawn",
            )
            shared = ServiceClient(supervisor.url, timeout_s=30, retries=3)
            outcomes = []
            for job_id in job_ids:
                try:
                    final = shared.wait_job(job_id, timeout_s=15)
                    outcomes.append(final["result"]["status"])
                except ServiceClientError as error:
                    assert "WorkerDied" in str(error), error
                    outcomes.append("failed")
            assert all(status in ("done", "failed") for status in outcomes)
            assert "failed" in outcomes  # the kill landed mid-queue
        finally:
            supervisor.stop()

    def test_stale_control_dir_records_are_cleared_on_start(self, tmp_path):
        # A reused --control-dir may hold a previous run's records whose
        # pids pass os.kill(pid, 0) (pid reuse, an old fleet).  The
        # supervisor must not count them: wait_ready would return before
        # this run's workers registered, and /healthz would report
        # phantom siblings.
        control = tmp_path / "control"
        control.mkdir()
        (control / "worker-7.json").write_text(
            json.dumps(
                {
                    "slot": 7,
                    "pid": os.getpid(),  # very much alive, never ours
                    "control_url": "http://127.0.0.1:1/",
                    "shared_port": 1,
                }
            )
        )
        (control / "supervisor.json").write_text(
            json.dumps({"pid": os.getpid(), "workers": 99, "respawns": 41})
        )
        supervisor = make_supervisor(tmp_path, workers=2)
        try:
            records = worker_records(supervisor.control_dir)
            assert sorted(r["slot"] for r in records) == [0, 1]
            record = supervisor_record(supervisor.control_dir)
            assert record["workers"] == 2
            assert record["respawns"] == 0
            health = ServiceClient(supervisor.url).health()["result"]
            assert health["workers"]["alive"] == 2
            assert health["workers"]["count"] == 2
        finally:
            supervisor.stop()

    def test_eviction_deletes_mirror_files_but_not_the_sequence(self, tmp_path):
        state = tmp_path / "jobs"
        store = JobStore(
            workers=1, max_jobs=2, history=2, state_dir=state, id_prefix="w0-"
        )
        ids = []
        try:
            for _ in range(3):
                job = store.submit("evaluate", lambda: {"ok": True})
                wait_for(
                    lambda: job.status == "done",
                    timeout_s=10,
                    message="job completion",
                )
                ids.append(job.id)
        finally:
            store.shutdown()
        # The third submit evicted the first job AND its mirror file.
        assert not (state / f"{ids[0]}.json").exists()
        assert (state / f"{ids[1]}.json").exists()
        assert (state / f"{ids[2]}.json").exists()
        fresh = JobStore(workers=1, state_dir=state, id_prefix="w0-")
        try:
            assert fresh.lookup(ids[0]) is None
            # Even with mirror files gone, the high-water file stops a
            # successor from re-issuing any of the three ids.
            job = fresh.submit("evaluate", lambda: {"ok": True})
            assert job.id == "w0-j000004"
        finally:
            fresh.shutdown()

    def test_fresh_store_continues_the_id_sequence(self, tmp_path):
        state = tmp_path / "jobs"
        first = JobStore(workers=1, state_dir=state, id_prefix="w0-")
        try:
            job = first.submit("evaluate", lambda: {"n": 1})
            wait_for(
                lambda: job.status == "done", timeout_s=10, message="job completion"
            )
            assert job.id == "w0-j000001"
        finally:
            first.shutdown()
        # Same prefix (a respawned slot) continues; a different prefix
        # (a sibling slot) is an independent sequence.
        respawned = JobStore(workers=1, state_dir=state, id_prefix="w0-")
        sibling = JobStore(workers=1, state_dir=state, id_prefix="w1-")
        try:
            assert respawned.submit("evaluate", lambda: {"n": 2}).id == "w0-j000002"
            assert sibling.submit("evaluate", lambda: {"n": 3}).id == "w1-j000001"
        finally:
            respawned.shutdown()
            sibling.shutdown()

    def test_lookup_never_escapes_the_state_dir(self, tmp_path):
        store = JobStore(workers=1, state_dir=tmp_path / "jobs")
        try:
            (tmp_path / "secret.json").write_text('{"payload": {"x": 1}}')
            assert store.lookup("../secret") is None
            assert store.lookup("..%2Fsecret") is None
            assert store.lookup("no-such-job") is None
        finally:
            store.shutdown()

    def test_persisted_jobs_resolve_from_a_fresh_store(self, tmp_path):
        state = tmp_path / "jobs"
        first = JobStore(workers=1, state_dir=state, id_prefix="w0-")
        try:
            job = first.submit("sweep", lambda: {"points": [1, 2, 3]})
            wait_for(
                lambda: job.status == "done", timeout_s=10, message="job completion"
            )
        finally:
            first.shutdown()
        second = JobStore(workers=1, state_dir=state, id_prefix="w1-")
        try:
            record = second.lookup(job.id)
            assert record is not None
            assert record["payload"]["status"] == "done"
            assert record["payload"]["result"] == {"points": [1, 2, 3]}
        finally:
            second.shutdown()


@pytest.mark.slow
class TestSoak:
    def test_soak_with_midpoint_worker_kill(self, tmp_path):
        supervisor = make_supervisor(
            tmp_path,
            workers=4,
            max_concurrency=32,
            max_jobs=64,
            job_workers=2,
        )
        try:
            url = supervisor.url
            records = sorted(
                worker_records(supervisor.control_dir), key=lambda r: r["slot"]
            )
            # A job owned by a worker we will NOT kill must complete and
            # stay pollable across the kill.  It runs for seconds (a
            # large grid), so it is unfinished when the hammer stops:
            # only finished jobs age out of a worker's bounded history,
            # and the hammer's own jobs could push a finished one out.
            survivor = records[1]
            survivor_client = ServiceClient(survivor["control_url"], timeout_s=30)
            pinned_spec = {
                **SIMULATED_SWEEP,
                **LONG_SIMULATED_GRID,
                "name": "shard-soak-pinned",
            }
            pinned_job = survivor_client.sweep(
                pinned_spec, mode="async", wait=False
            )["result"]["job"]
            victim = records[0]

            stop_at = time.monotonic() + 8.0
            failures: list[str] = []
            lock = threading.Lock()

            def fail(note: str) -> None:
                with lock:
                    failures.append(note)

            def hammer(index: int) -> None:
                rng = random.Random(index)
                client = ServiceClient(url, timeout_s=30, retries=3)
                while time.monotonic() < stop_at:
                    op = rng.randrange(5)
                    try:
                        if op == 0:
                            grid = [1, 2, 2 ** rng.randrange(2, 5)]
                            answer = client.evaluate(SMALL_SWEEP, workers=grid)
                            assert answer["result"]["speedups"]
                        elif op == 1:
                            answer = client.sweep(SMALL_SWEEP, mode="sync")
                            assert answer["result"]["points"]
                        elif op == 2:
                            assert client.health()["result"]["status"] == "ok"
                        elif op == 3:
                            try:
                                text = (
                                    urllib.request.urlopen(
                                        f"{url}/metrics", timeout=10
                                    )
                                    .read()
                                    .decode("utf-8")
                                )
                            except (
                                ConnectionError,
                                http.client.HTTPException,
                                urllib.error.URLError,
                            ):
                                continue  # scrape hit the dying worker
                            assert parse_prometheus(text)
                        else:
                            spec = {
                                **SIMULATED_SWEEP,
                                "name": f"shard-soak-{index}-{rng.randrange(4)}",
                            }
                            answer = client.sweep(
                                spec, mode="async", wait=True, timeout_s=25
                            )
                            assert answer["result"]["points"]
                    except ServiceClientError as error:
                        if error.retryable:
                            continue
                        # A job that died with the killed worker is the
                        # one tolerated loss; anything else is failure.
                        text = str(error)
                        lost_with_victim = (
                            "job w0-" in text or text.startswith("job w0-")
                        )
                        if not lost_with_victim:
                            fail(f"thread {index}: {error!r}")
                    except AssertionError as error:
                        fail(f"thread {index}: bad payload: {error}")
                    except Exception as error:  # noqa: BLE001
                        fail(f"thread {index}: {type(error).__name__}: {error}")

            threads = [
                threading.Thread(target=hammer, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            time.sleep(4.0)
            os.kill(victim["pid"], signal.SIGKILL)
            pinned = survivor_client.job(pinned_job)["result"]["status"]
            assert pinned in ("queued", "running", "done"), pinned
            for thread in threads:
                thread.join(timeout=60)
            assert all(not thread.is_alive() for thread in threads)
            assert not failures, failures[:10]

            # The fleet recovered, the pinned job remained pollable, and
            # the aggregated scrape still parses with respawn evidence.
            wait_for(
                lambda: len(slot_pids(supervisor.control_dir)) == 4,
                timeout_s=15,
                message="fleet recovery",
            )
            shared = ServiceClient(url, timeout_s=30, retries=3)
            final = shared.wait_job(pinned_job, timeout_s=30)
            assert final["result"]["status"] == "done"
            text = (
                urllib.request.urlopen(f"{url}/metrics", timeout=10)
                .read()
                .decode("utf-8")
            )
            parsed = parse_prometheus(text)
            assert parsed["repro_service_workers"]["samples"]['state="alive"'] == 4
            assert supervisor.respawns >= 1
        finally:
            supervisor.stop()
