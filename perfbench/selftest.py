"""Tests of the benchmark's own logic (not collected by the repo's suite).

Run from the checkout root::

    python3 -m pytest -q perfbench/selftest.py

The smoke tests at the end run every workload for about a second, plain
and traced, in subprocesses (about a minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, inputs, loadgen, run, stats  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402


# -- the tail rule ------------------------------------------------------------


@pytest.mark.parametrize(
    ("count", "expected"),
    [(1000, 99.0), (999, 98.0), (500, 98.0), (200, 95.0), (100, 90.0), (99, 80.0),
     (40, 75.0), (31, 67.0), (30, 50.0), (20, 50.0), (19, None), (1, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        _value, beyond = stats.nearest_rank(list(range(count)), expected)
        assert beyond >= stats.BEYOND


def test_summarize_falls_back_to_a_supported_percentile():
    values = [float(v) for v in range(1, 101)]
    summary = stats.summarize(values, 99.0)
    assert summary["tail_pct"] == 90.0 and summary["tail"] == 90.0
    assert summary["p50"] == 50.5 and summary["n"] == 100
    assert stats.summarize(values, 80.0)["tail"] == 80.0
    tiny = stats.summarize([3.0, 1.0, 2.0])
    assert tiny["tail_pct"] is None and tiny["tail"] == 3.0


# -- the ladder -----------------------------------------------------------------


def test_ladder_rungs_are_at_most_ten_percent_apart():
    assert 1.0 < stats.LADDER_RATIO <= 1.10
    for index in range(10, 80):
        assert stats.ladder_index(stats.ladder_rate(index)) == index
        assert stats.ladder_index(stats.ladder_rate(index) * 1.01) == index


def _probe_until(knee: int, log: list[int], invalid: tuple[int, ...] = ()):
    def probe(index: int) -> str:
        log.append(index)
        if index in invalid:
            return "invalid"
        return "pass" if index <= knee else "fail"

    return probe


@pytest.mark.parametrize("knee", [10, 11, 17, 25, 39])
def test_ladder_finds_the_highest_passing_rung(knee):
    log: list[int] = []
    result = stats.search_ladder(_probe_until(knee, log), 10, 40, max_probes=6)
    assert result["index"] == knee and result["resolved"]
    assert result["rate"] == stats.ladder_rate(knee)
    assert len(log) <= 5 and len(set(log)) == len(log)


def test_ladder_stops_after_its_probe_budget_unresolved():
    log: list[int] = []
    result = stats.search_ladder(_probe_until(33, log), 0, 63, max_probes=3)
    assert len(log) == 3 and not result["resolved"]
    assert result["index"] <= 33


def test_ladder_keeps_the_floor_when_every_probe_fails():
    result = stats.search_ladder(_probe_until(-1, []), 10, 20, max_probes=6)
    assert result["index"] == 10 and result["resolved"]


def test_an_invalid_probe_counts_as_not_passing():
    log: list[int] = []
    result = stats.search_ladder(_probe_until(30, log, invalid=(25,)), 10, 40, max_probes=8)
    assert 25 in log and result["index"] < 25


def _step(**changes):
    step = {"failed": 0, "tail_ms": 10.0, "lag_p99_ms": 1.0, "backlog_growth_ms": 0.0}
    step.update(changes)
    return step


def test_step_verdict_rules():
    assert stats.step_verdict(_step(), 25.0, 5.0) == "pass"
    assert stats.step_verdict(_step(failed=1), 25.0, 5.0) == "fail"
    assert stats.step_verdict(_step(tail_ms=26.0), 25.0, 5.0) == "fail"
    assert stats.step_verdict(_step(tail_ms=None), 25.0, 5.0) == "fail"
    assert stats.step_verdict(_step(backlog_growth_ms=13.0), 25.0, 5.0) == "fail"
    assert stats.step_verdict(_step(lag_p99_ms=6.0, failed=3), 25.0, 5.0) == "invalid"


# -- due-time accounting ----------------------------------------------------------


class _SlowConnection:
    """Stands in for an HTTP connection: every send takes ``service_s``."""

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s

    def send(self, request):
        time.sleep(self.service_s)
        return 200, b"{}"

    def close(self) -> None:
        pass


def _generator(service_s: float) -> loadgen.LoadGenerator:
    generator = loadgen.LoadGenerator("127.0.0.1", 9, keep_alive=False)
    generator.slots = [_SlowConnection(service_s), _SlowConnection(service_s)]
    return generator


def test_latency_is_timed_from_the_due_time():
    # Two slots, 40 ms per request, one due every 10 ms: the slots fall
    # behind, and the wait for a free slot counts in the latency.
    requests = loadgen.paced([("evaluate", "POST", "/", b"{}")] * 12, rate=100.0)
    results = _generator(0.04).run(requests)
    assert [r.request.due for r in results] == [r.due for r in requests]
    for result in results:
        assert result.latency_ms == pytest.approx((result.done - result.due) * 1e3)
        assert result.done - result.sent >= 0.039
    late = results[-1]
    assert late.sent - late.due > 0.1  # queued behind busy slots
    assert late.latency_ms > 140.0
    # A busy slot is the server's doing, not the generator's: no lag.
    assert max(r.lag_ms for r in results) < 20.0


def test_an_idle_generator_sends_on_time():
    requests = loadgen.paced([("evaluate", "POST", "/", b"{}")] * 10, rate=50.0)
    results = _generator(0.001).run(requests)
    for result in results:
        assert result.sent >= result.due
        assert result.latency_ms < 25.0
    summary = loadgen.step_summary(results, len(requests))
    assert summary["failed"] == 0 and summary["sent"] == 10


def test_a_hopelessly_late_step_aborts_and_counts_its_unsent_requests():
    requests = loadgen.paced([("evaluate", "POST", "/", b"{}")] * 40, rate=200.0)
    results = _generator(0.1).run(requests, abort_late_s=0.15)
    assert len(results) < len(requests)
    summary = loadgen.step_summary(results, len(requests))
    assert summary["failed"] == len(requests) - len(results)
    assert stats.step_verdict(summary, 25.0, 1e9) == "fail"


# -- inputs and outputs -----------------------------------------------------------


def test_inputs_are_seeded_and_valid():
    from repro.planner.spec import parse_plan
    from repro.scenarios.spec import parse_scenario

    assert inputs.analytic_op(4, 7) == inputs.analytic_op(4, 7)
    assert inputs.analytic_op(4, 7) != inputs.analytic_op(5, 7)
    for seed in (0, 1, 99):
        for index in range(34):
            kind, document = inputs.analytic_op(seed, index)
            (parse_plan if kind == "plan" else parse_scenario)(document)
        for index in range(8):
            parse_scenario(inputs.network_sweep(seed, index))
        for index in range(60):
            parse_scenario(inputs.serve_request(seed, index)[1]["scenario"])
    # The last op of every analytic round repeats one of its sweeps.
    per_round = inputs.ANALYTIC_ROUND
    repeat = inputs.analytic_op(3, per_round - 1)
    assert repeat[0] == "sweep"
    assert repeat in [inputs.analytic_op(3, index) for index in range(per_round - 1)]
    # The seed picks values, never the structure of a round.
    for index in range(2 * per_round):
        one, two = inputs.analytic_op(1, index), inputs.analytic_op(2, index)
        assert one[0] == two[0]
        if one[0] == "sweep":
            assert one[1]["algorithm"]["kind"] == two[1]["algorithm"]["kind"]
            assert one[1]["workers"] == two[1]["workers"]


def test_ledger_flags_a_repeat_with_another_answer():
    ledger = checks.Ledger()
    assert ledger.record("a", "1") and ledger.record("a", "1")
    assert not ledger.record("a", "2")
    ledger.record("b", "3")
    assert ledger.output_digest({"a"}) != ledger.output_digest()
    assert checks.pinned(1 / 3) == 0.333333333333


def test_benchmark_json_matches_the_code():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in document["workloads"]]
    assert listed == [name for name in run.WORKLOADS if name in listed]
    assert set(run.WORKLOADS) - set(listed) == {"serve-oneshot"}  # see README.md
    assert [(m["name"], m["unit"], m["better"]) for m in document["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == list(PER_LAYER)


# -- smoke runs -------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_runs_small_and_checks_out(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    *_, report_line, result_line = completed.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [name for name, _u, _b in (PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    report = json.loads(report_line)
    assert report["failed_frac"] == 0.0 and len(report["output_digest"]) == 64
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in names)
