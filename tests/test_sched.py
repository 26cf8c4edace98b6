"""Unit tests for the task-graph scheduler (``repro.sched``).

Pins the correctness contract the sweep engine rides on: graph
validation (names, dependencies, cycles), deterministic topological
ordering, dependency-result substitution, fail-fast execution, the
cost-class-aware chunk planner, and the build-once worker payload
store.  The chunk pins at the bottom fix the exact chunking chosen for
representative scenario specs, so a heuristic change shows up as a
failing number, not a silent perf regression.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.scenarios import SweepRunner, load_builtin, parse_scenario
from repro.scenarios.sweep import build_sweep_graph, expand_grid
from repro.sched import (
    CHEAP_CHUNK_POINTS,
    Dep,
    GraphScheduler,
    SchedulerError,
    Task,
    TaskFailure,
    TaskGraph,
    WorkerPayloadStore,
    chunk_size_for,
    partition,
    run_single_task,
)

from tests.test_scenarios import minimal_spec


class TestTaskGraph:
    def test_add_returns_name_and_registers(self):
        graph = TaskGraph()
        assert graph.add("a", len, ()) == "a"
        assert "a" in graph
        assert len(graph) == 1
        assert isinstance(graph["a"], Task)

    def test_duplicate_name_rejected(self):
        graph = TaskGraph()
        graph.add("a", len, ())
        with pytest.raises(SchedulerError, match="duplicate"):
            graph.add("a", len, ())

    def test_empty_name_rejected(self):
        with pytest.raises(SchedulerError, match="non-empty"):
            TaskGraph().add("", len, ())

    def test_non_callable_rejected(self):
        with pytest.raises(SchedulerError, match="callable"):
            TaskGraph().add("a", 42)

    def test_self_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(SchedulerError, match="itself"):
            graph.add("a", len, Dep("a"))
        with pytest.raises(SchedulerError, match="itself"):
            graph.add("b", len, (), deps=("b",))

    def test_deps_merge_markers_and_explicit(self):
        graph = TaskGraph()
        graph.add("a", lambda: 1)
        graph.add("b", lambda: 2)
        graph.add("c", lambda x: x, Dep("a"), deps=("b", "a"))
        # Union, de-duplicated, first-mention order (explicit deps first).
        assert graph["c"].deps == ("b", "a")

    def test_unknown_dependency_named_in_error(self):
        graph = TaskGraph()
        graph.add("a", lambda x: x, Dep("ghost"))
        with pytest.raises(SchedulerError, match="ghost"):
            graph.order()

    def test_cycle_named_in_error(self):
        graph = TaskGraph()
        graph.add("a", lambda x: x, deps=("b",))
        graph.add("b", lambda x: x, deps=("a",))
        graph.add("free", lambda: 0)
        with pytest.raises(SchedulerError, match="cycle") as excinfo:
            graph.order()
        assert "a" in str(excinfo.value) and "b" in str(excinfo.value)
        assert "free" not in str(excinfo.value)

    def test_order_is_topological_and_insertion_stable(self):
        graph = TaskGraph()
        graph.add("z", lambda: 0)
        graph.add("a", lambda: 0)
        graph.add("m", lambda x, y: 0, Dep("z"), Dep("a"))
        # Both roots are ready at once: insertion order breaks the tie.
        assert graph.order() == ("z", "a", "m")

    def test_dependents_is_reverse_adjacency(self):
        graph = TaskGraph()
        graph.add("a", lambda: 0)
        graph.add("b", lambda x: 0, Dep("a"))
        graph.add("c", lambda x: 0, Dep("a"))
        assert graph.dependents()["a"] == ("b", "c")
        assert graph.dependents()["c"] == ()


class TestGraphScheduler:
    def test_dependency_results_substituted(self):
        graph = TaskGraph()
        graph.add("two", lambda: 2)
        graph.add("three", lambda: 3)
        graph.add("product", lambda a, b: a * b, Dep("two"), Dep("three"))
        report = GraphScheduler().run(graph)
        assert report.values["product"] == 6
        assert set(report.finished) == {"two", "three", "product"}

    def test_started_respects_dependencies(self):
        graph = TaskGraph()
        graph.add("root", lambda: 1)
        graph.add("mid", lambda x: x + 1, Dep("root"))
        graph.add("leaf", lambda x: x + 1, Dep("mid"))
        report = GraphScheduler().run(graph)
        assert report.started == ("root", "mid", "leaf")
        assert report.finished == ("root", "mid", "leaf")

    def test_pool_tasks_run_on_executor(self):
        graph = TaskGraph()
        graph.add("a", lambda: 5, pool=True)
        graph.add("b", lambda: 7, pool=True)
        graph.add("sum", lambda x, y: x + y, Dep("a"), Dep("b"))
        with ThreadPoolExecutor(max_workers=2) as pool:
            report = GraphScheduler(pool).run(graph)
        assert report.values["sum"] == 12
        assert report.finished[-1] == "sum"

    def test_pool_marked_tasks_run_inline_without_executor(self):
        graph = TaskGraph()
        graph.add("a", lambda: 5, pool=True)
        report = GraphScheduler().run(graph)
        assert report.values["a"] == 5

    def test_empty_graph_runs_to_empty_report(self):
        report = GraphScheduler().run(TaskGraph())
        assert report.values == {}
        assert report.started == ()

    def test_failure_names_task_and_keeps_cause(self):
        boom = ValueError("boom")

        def explode():
            raise boom

        graph = TaskGraph()
        graph.add("explode", explode)
        with pytest.raises(TaskFailure) as excinfo:
            GraphScheduler().run(graph)
        assert excinfo.value.task == "explode"
        assert excinfo.value.cause is boom
        assert "explode" in str(excinfo.value)
        assert "boom" in str(excinfo.value)

    def test_dependents_of_a_failure_never_start(self):
        ran = []

        def explode():
            raise RuntimeError("no")

        graph = TaskGraph()
        graph.add("explode", explode)
        graph.add("after", lambda x: ran.append("after"), Dep("explode"))
        with pytest.raises(TaskFailure):
            GraphScheduler().run(graph)
        assert ran == []

    def test_pool_failure_surfaces_and_drains(self):
        def explode():
            raise RuntimeError("pool boom")

        graph = TaskGraph()
        for i in range(6):
            graph.add(f"ok-{i}", lambda: 1, pool=True)
        graph.add("explode", explode, pool=True)
        graph.add("merge", lambda *xs: sum(xs), *(Dep(f"ok-{i}") for i in range(6)), Dep("explode"))
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(TaskFailure) as excinfo:
                GraphScheduler(pool).run(graph)
        assert excinfo.value.task == "explode"

    def test_run_single_task_returns_value(self):
        assert run_single_task("job", lambda: {"ok": True}) == {"ok": True}

    def test_run_single_task_wraps_failures(self):
        def explode():
            raise KeyError("missing")

        with pytest.raises(TaskFailure) as excinfo:
            run_single_task("sweep:j000001", explode)
        assert excinfo.value.task == "sweep:j000001"
        assert isinstance(excinfo.value.cause, KeyError)


class TestChunkPlanner:
    def test_cheap_chunks_are_large(self):
        # 1000 cheap points on 4 workers: one big slab per worker.
        assert chunk_size_for(1000, expensive=False, workers=4) == 250

    def test_cheap_chunks_cap(self):
        # Past the cap the pool gets more, still-large, chunks.
        assert chunk_size_for(100_000, expensive=False, workers=4) == CHEAP_CHUNK_POINTS

    def test_expensive_chunks_slice_for_balance(self):
        # 12 expensive points on 2 workers: 4 slices per worker -> size 2.
        assert chunk_size_for(12, expensive=True, workers=2) == 2

    def test_tiny_grids_never_chunk_below_one(self):
        assert chunk_size_for(1, expensive=True, workers=8) == 1
        assert chunk_size_for(1, expensive=False, workers=8) == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SchedulerError):
            chunk_size_for(0, expensive=False, workers=1)
        with pytest.raises(SchedulerError):
            chunk_size_for(4, expensive=False, workers=0)
        with pytest.raises(SchedulerError):
            partition(0, 1)
        with pytest.raises(SchedulerError):
            partition(4, 0)

    def test_partition_covers_in_order(self):
        assert partition(10, 4) == ((0, 4), (4, 8), (8, 10))
        assert partition(4, 8) == ((0, 4),)


class TestChunkPinsForRepresentativeSpecs:
    """The chunking actually chosen for real spec shapes, pinned.

    These numbers are the fix for the old ``len(grid) // 32`` heuristic:
    expensive grids get load-balancing slices, cheap grids get slabs.
    """

    def test_simulated_spec_twelve_points_two_workers(self):
        spec = parse_scenario(
            minimal_spec(
                backend={"kind": "simulated"},
                sweep={"jitter_sigma": [0.0, 0.05, 0.1, 0.15]},
            )
        )
        runner = SweepRunner(mode="process", max_workers=2, cpus=2)
        # Expensive: 12 points -> size 2 -> 6 chunks (old heuristic: 12
        # single-point tasks, maximum dispatch overhead).
        assert runner.chunk_size(spec, 12) == 2

    def test_stochastic_builtin_small_grid(self):
        spec = load_builtin("bp-dns-16k")
        runner = SweepRunner(mode="process", max_workers=2, cpus=2)
        assert runner.chunk_size(spec, 4) == 1  # one point per slice

    def test_closed_form_thousand_points_four_cpus(self):
        spec = parse_scenario(minimal_spec(sweep={"flops": [1e9, 2e9]}))
        runner = SweepRunner(mode="auto", cpus=4)
        # Cheap: 1000 points -> 250-point slabs, 4 chunks (old heuristic:
        # 32-point tasks whose pickling dwarfed the work).
        assert runner.chunk_size(spec, 1000) == 250

    def test_closed_form_huge_grid_hits_cap(self):
        spec = parse_scenario(minimal_spec())
        runner = SweepRunner(mode="auto", cpus=4)
        assert runner.chunk_size(spec, 100_000) == CHEAP_CHUNK_POINTS


class TestWorkerPayloadStore:
    def test_seed_then_value_builds_once(self):
        store = WorkerPayloadStore()
        store.seed({"k": {"n": 2}})
        assert store.value("k", lambda p: p["n"] * 10) == 20
        assert store.value("k", lambda p: p["n"] * 999) == 20  # cached
        assert store.stats()["builds"] == 1

    def test_missing_key_is_a_clean_error(self):
        store = WorkerPayloadStore()
        with pytest.raises(SchedulerError, match="initializer"):
            store.payload("absent")
        with pytest.raises(SchedulerError, match="absent"):
            store.value("absent", lambda p: p)

    def test_reseeding_same_payload_keeps_built_value(self):
        store = WorkerPayloadStore()
        store.seed({"k": {"n": 2}})
        store.value("k", lambda p: p["n"])
        store.seed({"k": {"n": 2}})
        store.value("k", lambda p: p["n"])
        assert store.stats()["builds"] == 1

    def test_reseeding_changed_payload_rebuilds(self):
        store = WorkerPayloadStore()
        store.seed({"k": {"n": 2}})
        assert store.value("k", lambda p: p["n"]) == 2
        store.seed({"k": {"n": 5}})
        assert store.value("k", lambda p: p["n"]) == 5
        assert store.stats()["builds"] == 2

    def test_failed_build_is_retryable(self):
        store = WorkerPayloadStore()
        store.seed({"k": 1})
        with pytest.raises(RuntimeError):
            store.value("k", lambda p: (_ for _ in ()).throw(RuntimeError("bad")))
        assert store.value("k", lambda p: p + 1) == 2

    def test_clear_resets_everything(self):
        store = WorkerPayloadStore()
        store.seed({"k": 1})
        store.value("k", lambda p: p)
        store.clear()
        assert store.stats() == {"payloads": 0, "values": 0, "builds": 0}


class TestSweepStatsRecordChunking:
    def test_stats_carry_the_chunk_plan(self):
        spec = parse_scenario(minimal_spec(sweep={"flops": [1e9, 2e9, 3e9]}))
        result = SweepRunner(mode="serial", use_cache=False, cpus=1).run(spec)
        assert result.stats["scheduler"] == "task-graph"
        assert result.stats["chunks"] == 1  # 3 cheap points, one slab
        assert result.stats["chunk_size"] == 3
        assert result.stats["grid_points"] == 3

    def test_graph_ends_at_merge(self):
        """``reference + N chunks -> merge``: crossovers are the runner's
        job, after the graph, so a delta's subset grid builds the same
        shape."""
        spec = parse_scenario(minimal_spec(sweep={"flops": [1e9, 2e9, 3e9]}))
        graph, final = build_sweep_graph(
            spec, expand_grid(spec), chunk_size=2, pooled=False
        )
        assert [t.name for t in graph.tasks] == [
            "reference", "chunk-0000[0:2]", "chunk-0001[2:3]", "merge",
        ]
        assert final == "merge"
        sweep_free = parse_scenario(minimal_spec())
        graph, final = build_sweep_graph(
            sweep_free, expand_grid(sweep_free), chunk_size=2, pooled=False
        )
        assert [t.name for t in graph.tasks] == ["chunk-0000[0:1]", "merge"]
        assert final == "merge"
