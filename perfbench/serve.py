"""The open-loop serving workloads: serve-oneshot and serve-fleet.

The benchmark owns the server: it starts ``repro-experiments serve`` (or
``serve --workers 2``) on an ephemeral port with a fresh cache directory,
waits for ``/healthz``, warms it with every pooled request once, runs
fixed-rate steps, closed-loop capacity blocks and a rate ladder, and
stops it with SIGTERM.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks, inputs, layers, stats
from perfbench.loadgen import LoadGenerator, Request, Result, paced, step_summary


@dataclass(frozen=True)
class Profile:
    """The fixed rates and limit of one serving workload."""

    workers: int
    keep_alive: bool
    low_rps: float
    high_rps: float
    limit_ms: float  # tail-latency limit of a passing ladder step
    ceiling_rps: float  # highest ladder rung searched


PROFILES = {
    "serve-oneshot": Profile(1, False, 60.0, 120.0, 100.0, 480.0),
    "serve-fleet": Profile(2, True, 10.0, 32.0, 100.0, 160.0),
}
#: Shares of ``--seconds`` spent at the low rate, the high rate, in the
#: closed loop and on the ladder (split evenly over its probes).
LOW_SHARE, HIGH_SHARE, CAPACITY_SHARE, LADDER_SHARE = 0.15, 0.45, 0.10, 0.30
LADDER_PROBES = 6
#: Blocks the low, high and closed-loop phases are split into, in turn.
BLOCKS = 8
#: Requests drawn per second of a closed-loop block: more than two
#: connections can complete, so the block ends on time, not on input.
CAPACITY_DRAW_RPS = 2000
#: A ladder probe stops sending once a request is this late.
ABORT_LATE_S = 1.0
#: Generator lag (p99) past which a step measured the generator.
LAG_LIMIT_MS = 10.0
#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_TRIALS = 3
EVALUATE, SWEEP, METRICS = "/v1/evaluate", "/v1/sweep", "/metrics"


def _die_with_parent() -> None:
    """In the server's child process: SIGTERM it if the benchmark dies."""
    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Server:
    """One ``repro-experiments serve`` process and how to reach it."""

    def __init__(self, root: Path, scratch: Path, profile: Profile, name: str, dump_dir: Path | None = None):
        self.directory = scratch / name
        self.directory.mkdir(parents=True)
        self.control_dir = self.directory / "control"
        arguments = ["serve", "--port", "0", "--cache-dir", str(self.directory / "cache"), "--coalesce-window", "0"]
        if profile.workers > 1:
            arguments += ["--workers", str(profile.workers), "--control-dir", str(self.control_dir)]
        if dump_dir is None:
            command = [sys.executable, "-m", "repro.cli", *arguments]
        else:
            command = [sys.executable, str(root / "perfbench" / "serve_launcher.py"), str(dump_dir), *arguments]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        self.log = open(self.directory / "server.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            preexec_fn=_die_with_parent,
        )
        self.host, self.port = "127.0.0.1", 0
        self.exit_code: int | None = None

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        line = b""
        while self.port == 0:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("server did not announce its address")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"server exited with {self.process.wait()} before listening")
            line += chunk
            for text in line.decode(errors="replace").splitlines():
                if "listening on http://" in text:
                    address = text.split("http://", 1)[1].split()[0]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
        while True:
            try:
                with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def health(self) -> list[dict]:
        """``/healthz`` of every worker (its control port when sharded)."""
        urls = [self.url]
        if self.control_dir.exists():
            urls = [
                json.loads(path.read_text())["control_url"]
                for path in sorted(self.control_dir.glob("worker-*.json"))
            ]
        answers = []
        for url in urls:
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
                answers.append(json.loads(response.read())["result"])
        return answers

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS (VmHWM) of the server and its workers."""
        total_kb = 0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                pending += [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> bool:
        """SIGTERM, then wait; ``True`` when the server stopped cleanly.

        Sharded serving drains and exits 0.  Single-process serving has no
        SIGTERM handler, so the signal itself ends it; that is its normal
        stop, and exiting by SIGTERM is the clean outcome there.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.exit_code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.exit_code = self.process.wait()
        self.process.stdout.close()
        self.log.close()
        clean = (0,) if self.control_dir.exists() else (0, -signal.SIGTERM)
        return self.exit_code in clean


@dataclass
class Traffic:
    """Seeded request bodies, encoded once, in send order."""

    seed: int
    next_index: int = 0

    def items(self, count: int) -> list[tuple[str, str, str, bytes]]:
        items = []
        for index in range(self.next_index, self.next_index + count):
            kind, body = inputs.serve_request(self.seed, index)
            items.append((kind, "POST", EVALUATE if kind == "evaluate" else SWEEP, checks.canonical(body)))
        self.next_index += count
        return items

    def closed_loop(self, seconds: float) -> list[Request]:
        """Requests all due at once: two connections send back to back."""
        return paced(self.items(math.ceil(CAPACITY_DRAW_RPS * seconds)), math.inf)

    def step(self, rate: float, seconds: float) -> list[Request]:
        """Requests at ``rate`` for ``seconds``, plus one /metrics per second."""
        requests = paced(self.items(max(1, round(rate * seconds))), rate)
        scrapes = range(math.ceil(seconds))
        requests += [Request("metrics", "GET", METRICS, None, float(second)) for second in scrapes]
        return sorted(requests, key=lambda request: request.due)


def warm_requests(seed: int) -> list[Request]:
    return [
        Request(kind, "POST", EVALUATE if kind == "evaluate" else SWEEP, checks.canonical(body), 0.0)
        for kind, body in inputs.warm_requests(seed)
    ]


@dataclass
class Verifier(checks.Checked):
    """Checks every answer; the first answer per distinct body is compared
    with an in-process computation after the run (served = direct)."""

    first: dict[str, tuple[str, bytes, dict]] = field(default_factory=dict)

    def check(self, results: list[Result], in_digest: bool) -> None:
        for result in results:
            self.attempted += 1
            request = result.request
            if result.failed:
                self.fail(f"{request.kind}: status {result.status} {result.error}".strip())
                continue
            if request.kind == "metrics":
                if b"repro_" not in result.body:
                    self.fail("/metrics answer has no repro_ samples")
                continue
            answer = json.loads(result.body)
            if answer.get("wire") != 1 or answer.get("kind") != request.kind or "result" not in answer:
                self.fail(f"{request.kind}: malformed envelope")
                continue
            key = f"{request.kind}:{checks.digest(json.loads(request.body))}"
            if not self.ledger.record(key, checks.digest(answer["result"])):
                self.fail(f"{request.kind}: a repeated body got a different answer")
            self.first.setdefault(key, (request.kind, request.body, answer["result"]))
            if in_digest:
                self.digest_keys.add(key)

    def verify_direct(self) -> int:
        """Served = direct, for the first answer to each distinct body."""
        from repro.scenarios.spec import parse_scenario
        from repro.scenarios.sweep import SweepRunner, evaluate_point

        runner = SweepRunner(mode="serial", use_cache=False, cache_dir=None)
        for kind, body, served in self.first.values():
            spec = parse_scenario(json.loads(body)["scenario"])
            if kind == "evaluate":
                direct = evaluate_point(spec, {})
                direct.pop("overrides")
                direct["scenario"] = spec.name
                served = {key: served.get(key) for key in direct}
            else:
                direct = runner.run(spec).payload()
            if checks.digest(checks.pinned(direct)) != checks.digest(served):
                self.fail(f"{kind}: served answer differs from the in-process computation")
        return len(self.first)


def start_server(root: Path, scratch: Path, profile: Profile, name: str, seed: int, verifier: Verifier, dump_dir=None):
    """Launch, wait for /healthz, warm up; returns ``(server, seconds, warm-up results)``."""
    started = time.perf_counter()
    server = Server(root, scratch, profile, name, dump_dir)
    try:
        server.wait_ready()
        # Warm-up opens a connection per request on both workloads: it only
        # fills the caches, and must not pay the keep-alive delays it measures.
        generator = LoadGenerator(server.host, server.port, keep_alive=False)
        warm = generator.run(warm_requests(seed))
        verifier.check(warm, in_digest=True)
        generator.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, warm


def setup(root: Path, scratch: Path, profile: Profile, seed: int, verifier: Verifier):
    """``SETUP_TRIALS`` launches; the last one stays up for the timed steps."""
    samples = []
    for trial in range(SETUP_TRIALS):
        server, seconds, _warm = start_server(root, scratch, profile, f"server-{trial}", seed, verifier)
        samples.append(seconds)
        if trial < SETUP_TRIALS - 1 and not server.stop():
            verifier.fail(f"server exited with {server.exit_code} on SIGTERM")
    return server, sorted(samples)[len(samples) // 2]


def finish(server: Server, verifier: Verifier) -> None:
    if not server.stop():
        verifier.fail(f"server exited with {server.exit_code} on SIGTERM")


def run_untraced(workload: str, root: Path, scratch: Path, seed: int, seconds: float) -> dict:
    profile = PROFILES[workload]
    verifier = Verifier()
    server, setup_s = setup(root, scratch, profile, seed, verifier)
    try:
        generator = LoadGenerator(server.host, server.port, profile.keep_alive)
        traffic = Traffic(seed)
        low: list[Result] = []
        high: list[Result] = []
        closed: list[Result] = []
        capacity: list[float] = []
        # The phases take turns in blocks, so a slow spell of the machine
        # lands on all of them rather than on whichever one it overlaps.
        for _block in range(BLOCKS):
            low += generator.run(traffic.step(profile.low_rps, seconds * LOW_SHARE / BLOCKS))
            high += generator.run(traffic.step(profile.high_rps, seconds * HIGH_SHARE / BLOCKS))
            block_s = seconds * CAPACITY_SHARE / BLOCKS
            block = generator.run(traffic.closed_loop(block_s), abort_late_s=block_s)
            closed += block
            capacity.append(len(block) / (max(r.done for r in block) - min(r.sent for r in block)))
        verifier.check(low, in_digest=True)
        verifier.check(high, in_digest=True)
        verifier.check(closed, in_digest=False)
        probe_s = seconds * LADDER_SHARE / LADDER_PROBES

        def probe(index: int) -> str:
            rate = stats.ladder_rate(index)
            results = generator.run(traffic.step(rate, probe_s), abort_late_s=ABORT_LATE_S)
            verifier.check(results, in_digest=False)
            planned = max(1, round(rate * probe_s)) + math.ceil(probe_s)
            time.sleep(0.2)
            return stats.step_verdict(step_summary(results, planned), profile.limit_ms, LAG_LIMIT_MS)

        ladder = stats.search_ladder(
            probe,
            stats.ladder_index(profile.low_rps),
            stats.ladder_index(profile.ceiling_rps),
            LADDER_PROBES,
        )
        generator.close()
        peak_rss = server.peak_rss_mb()
    finally:
        finish(server, verifier)
    verifier.verify_direct()
    return {
        "verifier": verifier,
        "setup_s": setup_s,
        "low": summarize_step(low),
        "high": summarize_step(high),
        "ladder": ladder,
        "capacity_rps": statistics.median(capacity),
        "peak_rss_mb": peak_rss,
    }


def summarize_step(results: list[Result]) -> dict:
    summary = step_summary(results, len(results))
    by_kind = {}
    for kind in ("evaluate", "sweep"):
        latencies = [r.latency_ms for r in results if r.request.kind == kind]
        by_kind[kind] = stats.summarize(latencies)["p50"]
    summary["p50_by_kind"] = by_kind
    return summary


def run_traced(workload: str, root: Path, scratch: Path, seed: int, seconds: float) -> dict:
    """The high step against a plain server, then against a traced one."""
    profile = PROFILES[workload]
    verifier = Verifier()
    dump_dir = scratch / "layers"
    spans: dict[str, list[Result]] = {}
    warm: list[Result] = []
    health: list[dict] = []
    for mode in ("plain", "traced"):
        server, _, warm = start_server(
            root, scratch, profile, f"server-{mode}", seed, verifier,
            dump_dir if mode == "traced" else None,
        )
        try:
            generator = LoadGenerator(server.host, server.port, profile.keep_alive)
            results = generator.run(Traffic(seed).step(profile.high_rps, seconds / 2))
            generator.close()
            verifier.check(results, in_digest=True)
            spans[mode] = results
            if mode == "traced":
                health = server.health()
        finally:
            finish(server, verifier)
    verifier.verify_direct()
    dumps = layers.collect(dump_dir)
    return {
        "verifier": verifier,
        "layers": serve_split(dumps, spans, warm, health),
    }


def _service_time(results: list[Result]) -> float:
    return sum(result.done - result.sent for result in results)


def serve_split(dumps: list[dict], spans: dict[str, list[Result]], warm: list[Result], health: list[dict]) -> dict:
    """Per-layer metrics of a traced serving run.

    Transport is each request's client-side time (send to last byte)
    minus the server's time in ``do_GET``/``do_POST`` for the same
    request id: connection set-up, request parsing before the handler,
    and delivery of the response.  The server's totals cover the traced
    server's warm-up too, so the unattributed share is taken over the
    warm-up and the timed step together.
    """
    server_time: dict[str, tuple[str, float]] = {}
    for dump in dumps:
        server_time.update(dump["requests"])
    traced = spans["traced"]

    def transport_ms(results: list[Result]) -> list[float]:
        return [
            (result.done - result.sent - server_time[result.request.request_id][1]) * 1e3
            for result in results
            if result.request.request_id in server_time
        ]

    transport = transport_ms(traced)
    per_worker: dict[str, int] = {}
    for result in traced:
        if result.request.request_id in server_time:
            pid = server_time[result.request.request_id][0]
            per_worker[pid] = per_worker.get(pid, 0) + 1
    client_s = _service_time(traced) + _service_time(warm)
    attributed_s = (sum(transport) + sum(transport_ms(warm))) / 1e3
    attributed_s += sum(sum(dump["self_s"].values()) for dump in dumps)

    def ratio(section: str, hit: str, miss: str) -> float:
        hits = sum(h[section][hit] for h in health)
        total = hits + sum(h[section][miss] for h in health)
        return hits / total if total else 0.0

    caches = [{"request": h["caches"]["request"], "target": h["caches"]["target"]} for h in health]
    request_hits = sum(c["request"]["hits"] for c in caches)
    request_total = request_hits + sum(c["request"]["misses"] for c in caches)
    target_hits = sum(c["target"]["hits"] for c in caches)
    target_total = target_hits + sum(c["target"]["misses"] for c in caches)
    lags = stats.summarize([result.lag_ms for result in traced], 99.0)
    extras = {
        "service.transport_ms.p50": stats.summarize(transport)["p50"] or 0.0,
        "service.request_cache.hit_ratio": request_hits / request_total if request_total else 0.0,
        "service.target_cache.hit_ratio": target_hits / target_total if target_total else 0.0,
        "service.coalesced_ratio": ratio("coalescer", "coalesced_requests", "batches"),
        "store.hit_ratio": ratio("store", "hits", "misses"),
        "shard.respawns": max((h.get("workers", {}).get("respawns", 0) for h in health), default=0),
        "shard.balance": max(per_worker.values()) / sum(per_worker.values()) if per_worker else 0.0,
        "loadgen.lag_p99_ms": lags["tail"] or 0.0,
        "loadgen.sent": len(traced),
        "unattributed_frac": 1.0 - attributed_s / client_s if client_s else 0.0,
        "trace_overhead_frac": _service_time(traced) / _service_time(spans["plain"]) - 1.0,
    }
    return layers.layer_metrics(dumps, extras)
