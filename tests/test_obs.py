"""The telemetry layer: registry semantics, tracer, exporters, integration.

Three properties carry the suite:

* **well-formed trace trees** — a traced sweep (serial AND process-pool)
  exports one tree: every parent id resolves, no cycles, worker spans
  re-parent under the submitting chunk task;
* **telemetry neutrality** — payloads and on-disk cache contents are
  byte-identical with tracing on and off (instrumentation must never
  leak into the wire format or the cache keys);
* **naming discipline** — every metric the stack registers obeys the
  ``repro_<subsystem>_<name>`` scheme, counters end ``_total``.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.obs import (
    MetricError,
    MetricsRegistry,
    NOOP_SPAN,
    Tracer,
    chrome_trace,
    get_registry,
    load_spans,
    metrics_enabled,
    parse_prometheus,
    render_prometheus,
    set_enabled,
    span_summary,
    tracer,
    validate_span_tree,
    write_spans,
)
from repro.scenarios import SweepRunner, parse_scenario
from repro.sched import Dep, GraphScheduler, TaskGraph

#: A small analytic sweep: 4 grid points x 8 worker counts, cheap
#: enough for the process-pool tests to stay fast.
SWEEP_DOC = {
    "name": "obs-test-sweep",
    "description": "a tiny analytic sweep for telemetry tests",
    "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
    "algorithm": {
        "kind": "bsp",
        "params": {
            "operations_per_superstep": 1e10,
            "payload_bits": 2.5e8,
            "topology": "tree",
        },
    },
    "workers": [1, 2, 4, 8, 12, 16, 24, 32],
    "sweep": {"bandwidth_bps": [1e9, 2e9, 4e9, 8e9]},
}


@pytest.fixture
def clean_tracer():
    """Leave the process-global tracer off, whatever a test does."""
    tracer().reset()
    yield tracer()
    tracer().reset()


class TestMetricsRegistry:
    def test_counter_get_or_create_shares_one_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_test_things_total", "help text")
        b = registry.counter("repro_test_things_total")
        assert a is b
        a.inc()
        b.inc(2)
        assert a.value == 3
        assert registry.value("repro_test_things_total") == 3

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("repro_test_depth")
        with pytest.raises(MetricError, match="already registered"):
            registry.histogram("repro_test_depth")

    def test_naming_scheme_enforced_at_registration(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="scheme"):
            registry.counter("requests_total")  # no repro_ prefix
        with pytest.raises(MetricError, match="scheme"):
            registry.counter("repro_Bad_name_total")  # uppercase
        with pytest.raises(MetricError, match="_total"):
            registry.counter("repro_test_requests")  # counter suffix
        with pytest.raises(MetricError, match="_total"):
            registry.gauge("repro_test_requests_total")  # gauge suffix

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("repro_test_ticks_total")
        with pytest.raises(MetricError, match="decrease"):
            counter.inc(-1)

    def test_histogram_buckets_and_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_test_latency_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        counts, total, count = hist.snapshot()
        assert counts == (1, 1, 1, 1)  # one per bucket incl. +Inf
        assert count == 4
        assert total == pytest.approx(55.55)
        with pytest.raises(MetricError, match="increasing"):
            registry.histogram("repro_test_bad_seconds", buckets=(1.0, 1.0))

    def test_kill_switch_silences_every_recorder(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_off_total")
        gauge = registry.gauge("repro_test_off_depth")
        hist = registry.histogram("repro_test_off_seconds")
        assert metrics_enabled()
        set_enabled(False)
        try:
            counter.inc()
            gauge.set(7)
            hist.observe(1.0)
        finally:
            set_enabled(True)
        assert counter.value == 0
        assert gauge.value == 0
        assert hist.count == 0


class TestPrometheusExposition:
    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_requests_total", "requests").inc(3)
        registry.gauge("repro_test_depth", "queue depth").set(2)
        hist = registry.histogram("repro_test_wait_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["repro_test_requests_total"] == {
            "type": "counter", "value": 3,
        }
        assert parsed["repro_test_depth"] == {"type": "gauge", "value": 2}
        wait = parsed["repro_test_wait_seconds"]
        assert wait["type"] == "histogram"
        assert wait["count"] == 2
        assert wait["buckets"]["0.1"] == 1
        assert wait["buckets"]["+Inf"] == 2  # cumulative

    def test_multi_registry_merge_sums_same_names(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_test_hits_total").inc(2)
        second.counter("repro_test_hits_total").inc(5)
        second.counter("repro_test_only_total").inc()
        parsed = parse_prometheus(render_prometheus(first, second))
        assert parsed["repro_test_hits_total"]["value"] == 7
        assert parsed["repro_test_only_total"]["value"] == 1

    def test_merge_rejects_mismatched_histogram_buckets(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("repro_test_wait_seconds", buckets=(0.1, 1.0))
        second.histogram("repro_test_wait_seconds", buckets=(0.5, 5.0))
        with pytest.raises(MetricError, match="bucket"):
            render_prometheus(first, second)


class TestTracer:
    def test_disabled_tracer_hands_out_the_shared_noop(self):
        trace = Tracer()
        assert trace.span("anything") is NOOP_SPAN
        with trace.span("anything") as span:
            span.set(points=3)  # must not raise
        assert span.span_id is None

    def test_nested_spans_link_parents(self, clean_tracer):
        trace = clean_tracer
        trace_id = trace.start()
        with trace.span("outer") as outer:
            with trace.span("inner"):
                pass
        records = trace.stop()
        by_name = {r.name: r for r in records}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == outer.span_id
        assert {r.trace_id for r in records} == {trace_id}
        assert validate_span_tree(records) == []

    def test_adopt_reparents_under_the_submitting_span(self, clean_tracer):
        trace = clean_tracer
        trace.adopt("deadbeefdeadbeef", "cafe0123cafe0123")
        with trace.span("worker-side"):
            pass
        record = trace.drain()[0]
        assert record.trace_id == "deadbeefdeadbeef"
        assert record.parent_id == "cafe0123cafe0123"

    def test_buffer_is_bounded_and_counts_drops(self):
        trace = Tracer(max_spans=2)
        trace.start()
        for index in range(5):
            with trace.span(f"span-{index}"):
                pass
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_exceptions_stamp_an_error_attr(self, clean_tracer):
        trace = clean_tracer
        trace.start()
        with pytest.raises(ValueError):
            with trace.span("doomed"):
                raise ValueError("boom")
        record = trace.stop()[0]
        assert record.attrs["error"] == "ValueError"

    def test_absorb_roundtrips_serialised_records(self, clean_tracer):
        trace = clean_tracer
        trace.start()
        with trace.span("local"):
            pass
        shipped = [r.to_dict() for r in trace.drain()]
        trace.absorb(shipped)
        records = trace.stop()
        assert [r.name for r in records] == ["local"]
        assert records[0].to_dict() == shipped[0]


class TestSpanFiles:
    def test_write_load_validate_and_chrome_export(self, tmp_path, clean_tracer):
        trace = clean_tracer
        trace_id = trace.start()
        with trace.span("parent", {"kind": "test"}):
            with trace.span("child"):
                pass
        records = trace.stop()
        path = tmp_path / "spans.json"
        write_spans(path, records, trace_id)
        loaded_id, loaded = load_spans(path)
        assert loaded_id == trace_id
        assert validate_span_tree(loaded) == []
        events = chrome_trace(loaded)["traceEvents"]
        assert {e["name"] for e in events} == {"parent", "child"}
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        rows = span_summary(loaded)
        assert {row["name"] for row in rows} == {"parent", "child"}

    def test_validator_flags_orphans_and_duplicates(self, clean_tracer):
        trace = clean_tracer
        trace.start()
        with trace.span("a"):
            pass
        (record,) = trace.stop()
        orphan = record.to_dict() | {"parent_id": "0000000000000000"}
        problems = validate_span_tree(
            [record, type(record).from_dict(orphan)]
        )
        assert problems  # duplicate span id AND missing parent
        assert any("parent" in p or "duplicate" in p for p in problems)


class TestTracedSweeps:
    """The acceptance property: one well-formed tree across the pipeline."""

    def _run_traced(self, mode: str, tmp_path: Path):
        trace = tracer()
        trace_id = trace.start()
        runner = SweepRunner(
            mode=mode, max_workers=2, cache_dir=str(tmp_path / "cache")
        )
        result = runner.run(parse_scenario(SWEEP_DOC))
        records = trace.stop()
        return trace_id, records, result

    def test_serial_sweep_exports_one_well_formed_tree(
        self, tmp_path, clean_tracer
    ):
        trace_id, records, _ = self._run_traced("serial", tmp_path)
        assert validate_span_tree(records) == []
        assert {r.trace_id for r in records} == {trace_id}
        names = {r.name for r in records}
        assert {
            "sweep.run",
            "sched.task",
            "scenarios.compile",
            "backends.evaluate",
            "store.plan",
            "store.commit",
        } <= names

    def test_process_sweep_reparents_worker_spans(self, tmp_path, clean_tracer):
        trace_id, records, result = self._run_traced("process", tmp_path)
        assert result.stats["mode"] == "process"
        assert validate_span_tree(records) == []
        assert {r.trace_id for r in records} == {trace_id}
        worker_records = [r for r in records if r.pid != os.getpid()]
        assert worker_records, "pool workers must contribute spans"
        chunk_spans = {
            r.span_id: r
            for r in records
            if r.name == "sched.task" and r.attrs.get("pooled") is True
        }
        assert chunk_spans, "pooled chunk tasks must record spans"
        # Every worker-side span hangs under a chunk task (directly or
        # through another worker span) — the tree is one trace, not a
        # forest of per-process fragments.
        by_id = {r.span_id: r for r in records}
        for record in worker_records:
            chain = {record.span_id}
            node = record
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                chain.add(node.span_id)
            assert chain & set(chunk_spans), record.name
        # Chunk evaluation happens in the workers, under the chunk span.
        assert any(
            r.name == "backends.evaluate" and r.pid != os.getpid()
            for r in records
        )


class TestTelemetryNeutrality:
    """Tracing on/off must never change payloads or cache bytes."""

    def _payload(self, cache_dir: Path) -> dict:
        runner = SweepRunner(mode="serial", cache_dir=str(cache_dir))
        return runner.run(parse_scenario(SWEEP_DOC)).payload()

    @staticmethod
    def _tree_bytes(root: Path) -> dict:
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    def test_payload_and_cache_bytes_identical(self, tmp_path, clean_tracer):
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        plain = self._payload(plain_dir)
        tracer().start()
        traced = self._payload(traced_dir)
        tracer().stop()
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )
        assert self._tree_bytes(plain_dir) == self._tree_bytes(traced_dir)

    def test_metrics_kill_switch_is_payload_neutral(self, tmp_path):
        on = self._payload(tmp_path / "on")
        set_enabled(False)
        try:
            off = self._payload(tmp_path / "off")
        finally:
            set_enabled(True)
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


class TestExecutionReportTimings:
    def test_inline_and_pooled_tasks_report_timings(self):
        graph = TaskGraph()
        graph.add("produce", lambda: 2)
        graph.add("pooled-double", lambda v: v * 2, Dep("produce"), pool=True)
        graph.add("consume", lambda v: v + 1, Dep("pooled-double"))
        with ThreadPoolExecutor(max_workers=1) as pool:
            report = GraphScheduler(pool).run(graph)
        assert report.values["consume"] == 5
        assert set(report.timings) == {"produce", "pooled-double", "consume"}
        for timing in report.timings.values():
            assert timing.run_s >= 0.0
            assert timing.queue_wait_s >= 0.0
        assert report.timings["pooled-double"].pooled is True
        assert report.timings["produce"].pooled is False

    def test_sweep_stats_carry_a_phase_breakdown(self, tmp_path):
        runner = SweepRunner(mode="serial", cache_dir=str(tmp_path))
        stats = runner.run(parse_scenario(SWEEP_DOC)).stats
        phases = stats["phases"]
        assert phases["chunk_count"] >= 1
        assert phases["chunk_run_s"] >= 0.0
        assert phases["slowest_chunk_s"] <= phases["chunk_run_s"] + 1e-9
        assert "merge_s" in phases


class TestMetricNameLint:
    def test_every_registered_metric_obeys_the_scheme(self, tmp_path):
        from repro.obs.metrics import _NAME_RE
        from repro.service import EvaluationService

        # Touch the instrumented layers so their metrics exist.
        SweepRunner(mode="serial", cache_dir=str(tmp_path / "sweep")).run(
            parse_scenario(SWEEP_DOC)
        )
        service = EvaluationService(
            runner_mode="serial", cache_dir=str(tmp_path / "service")
        )
        try:
            service.count("health")
            metrics = list(get_registry().metrics()) + list(
                service.metrics.metrics()
            )
        finally:
            service.close()
        assert metrics
        for metric in metrics:
            assert _NAME_RE.match(metric.name), metric.name
            if metric.kind == "counter":
                assert metric.name.endswith("_total"), metric.name
            else:
                assert not metric.name.endswith("_total"), metric.name

    def test_store_disk_stats_use_canonical_names_only(self, tmp_path):
        from repro.store import ResultStore

        disk = ResultStore(str(tmp_path)).disk_stats()
        assert {"points_stored", "bytes_stored"} <= set(disk)
        assert "grid_points" not in disk
        assert "chunk_bytes" not in disk
