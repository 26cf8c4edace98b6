"""Tests for the columnar result store and refinement.

Three contracts under test:

* **point-level keys** — incremental sweeps reuse stored points and
  compute only the delta, byte-identically to a full recompute (the
  hypothesis differential pins this across all four backends);
* **coalesced serving** — a curve answered from a coalesced batch's
  shared union evaluation serialises byte-identically to a standalone
  :class:`~repro.core.speedup.SpeedupCurve` evaluation;
* **progressive refinement** — refined curves match the dense grid at
  every evaluated point, and on dense grids locate the same optimum and
  knee while evaluating a fraction of the points (golden-pinned).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import AnalyticBackend
from repro.core.errors import ScenarioError
from repro.scenarios import SweepRunner, compile_point, load_builtin, parse_scenario
from repro.scenarios.grids import with_workers
from repro.scenarios.sweep import curve_record
from repro.service.handlers import Coalescer
from repro.store import LazyPoints, ResultStore, default_cache_dir, refine_worker_grid
from repro.store.columnar import _axis_token, chunk_name, family_key, sweep_signature
from tests.strategies import network_documents, simulatable_documents

GOLDEN_REFINE = Path(__file__).parent / "golden" / "refine.json"


def minimal_document(**overrides) -> dict:
    """A small closed-form scenario document, tweakable per test."""
    document = {
        "scenario": 1,
        "name": "store-unit",
        "description": "columnar store unit fixture",
        "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
        "algorithm": {
            "kind": "gradient_descent",
            "params": {
                "operations_per_sample": 1e7,
                "batch_size": 1000,
                "parameters": 7812500,
            },
        },
        "workers": {"min": 1, "max": 8},
    }
    document.update(overrides)
    return document


def swept(values, axis="batch_size", **overrides) -> dict:
    return minimal_document(sweep={axis: list(values)}, **overrides)


def payload_json(result) -> str:
    return json.dumps(result.payload())


class TestStorePlanCommit:
    def test_miss_then_hit_round_trip(self, tmp_path):
        spec = parse_scenario(swept([100, 200, 400]))
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        first = runner.run(spec)
        assert first.stats["cache_hit"] is False
        assert first.stats["points_computed"] == 3
        second = runner.run(spec)
        assert second.stats["cache_hit"] is True
        assert second.stats["mode"] == "store"
        assert second.stats["points_reused"] == 3
        assert payload_json(second) == payload_json(first)
        counters = runner.store.stats()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["bytes_mapped"] > 0

    def test_delta_computes_only_missing_points(self, tmp_path):
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(parse_scenario(swept([100, 200, 400])))
        grown = parse_scenario(swept([100, 200, 400, 800]))
        delta = runner.run(grown)
        assert delta.stats["cache_hit"] is False
        assert delta.stats["points_reused"] == 3
        assert delta.stats["points_computed"] == 1
        fresh = SweepRunner(mode="serial", use_cache=False).run(grown)
        assert payload_json(delta) == payload_json(fresh)
        assert runner.store.stats()["delta_points"] == 1

    def test_subset_grid_computes_nothing(self, tmp_path):
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(parse_scenario(swept([100, 200, 400])))
        subset = parse_scenario(swept([100, 400]))
        result = runner.run(subset)
        assert result.stats["points_computed"] == 0
        assert result.stats["points_reused"] == 2
        fresh = SweepRunner(mode="serial", use_cache=False).run(subset)
        assert payload_json(result) == payload_json(fresh)

    def test_two_axis_delta_is_byte_identical(self, tmp_path):
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(
            parse_scenario(
                minimal_document(sweep={"batch_size": [100, 200], "flops": [1e9, 2e9]})
            )
        )
        grown = parse_scenario(
            minimal_document(
                sweep={"batch_size": [100, 200, 300], "flops": [5e8, 1e9, 2e9]}
            )
        )
        delta = runner.run(grown)
        assert delta.stats["points_reused"] == 4  # the original 2x2 block
        assert delta.stats["points_computed"] == 5
        fresh = SweepRunner(mode="serial", use_cache=False).run(grown)
        assert payload_json(delta) == payload_json(fresh)

    def test_serial_and_process_delta_agree(self, tmp_path):
        """Delta sweeps are byte-identical across execution modes."""
        values = [100, 200, 300, 400, 500, 600]
        seeded = parse_scenario(swept(values[:3]))
        grown = parse_scenario(swept(values))
        serial_dir, process_dir = tmp_path / "serial", tmp_path / "process"
        serial = SweepRunner(mode="serial", cache_dir=serial_dir)
        serial.run(seeded)
        process = SweepRunner(mode="process", max_workers=2, cache_dir=process_dir)
        process.run(seeded)
        a = serial.run(grown)
        b = process.run(grown)
        assert a.stats["points_computed"] == b.stats["points_computed"] == 3
        assert payload_json(a) == payload_json(b)

    def test_sweep_free_spec_round_trips(self, tmp_path):
        spec = parse_scenario(minimal_document())
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        first = runner.run(spec)
        second = runner.run(spec)
        assert second.stats["cache_hit"] is True
        assert second.reference is None
        assert payload_json(second) == payload_json(first)

    def test_reference_and_crossovers_recomputed_per_grid(self, tmp_path):
        """A reused point's crossover is *not* carried over: it compares
        against the new grid's own reference point."""
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(parse_scenario(swept([1e9, 2e9], axis="flops")))
        grown = parse_scenario(swept([5e8, 1e9, 2e9], axis="flops"))
        delta = runner.run(grown)
        fresh = SweepRunner(mode="serial", use_cache=False).run(grown)
        assert [p["crossover_workers"] for p in delta.points] == [
            p["crossover_workers"] for p in fresh.points
        ]
        assert delta.reference == fresh.reference

    def test_families_share_points_across_sweep_blocks(self, tmp_path):
        """Two specs differing only in their sweep share a family dir."""
        a = parse_scenario(swept([100, 200]))
        b = parse_scenario(swept([200, 400]))
        assert a.content_hash() != b.content_hash()
        assert family_key(a) == family_key(b)
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(a)
        result = runner.run(b)
        assert result.stats["points_reused"] == 1  # batch_size 200

    def test_no_cache_leaves_no_files(self, tmp_path):
        runner = SweepRunner(mode="serial", cache_dir=tmp_path, use_cache=False)
        runner.run(parse_scenario(swept([100, 200])))
        assert not list(tmp_path.iterdir())
        assert runner.store.stats()["misses"] == 0


class TestStoreMaintenance:
    def _seed(self, tmp_path) -> SweepRunner:
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(parse_scenario(swept([100, 200])))
        runner.run(parse_scenario(minimal_document(name="other")))
        return runner

    def test_clear_counts_entries_not_files(self, tmp_path):
        runner = self._seed(tmp_path)
        family_dir = next((tmp_path / "store").iterdir())
        (family_dir / ".tmp-stale.part").write_bytes(b"junk")
        old = time.time() - 7200
        os.utime(family_dir / ".tmp-stale.part", (old, old))
        (family_dir / ".tmp-fresh.part").write_bytes(b"in flight")
        removed = runner.store.clear()
        assert removed == 2  # two families, regardless of stray files
        assert not (family_dir / ".tmp-stale.part").exists()
        assert (family_dir / ".tmp-fresh.part").exists()
        rerun = runner.run(parse_scenario(swept([100, 200])))
        assert rerun.stats["cache_hit"] is False

    def test_gc_removes_garbage_only(self, tmp_path):
        runner = self._seed(tmp_path)
        store = runner.store
        family_dir = next((tmp_path / "store").iterdir())
        old = time.time() - 7200
        stale = family_dir / ".tmp-stale.part"
        stale.write_bytes(b"junk")
        os.utime(stale, (old, old))
        orphan = family_dir / chunk_name("f" * 64)
        orphan.write_bytes(b"orphan chunk")
        os.utime(orphan, (old, old))
        young_orphan = family_dir / chunk_name("e" * 64)
        young_orphan.write_bytes(b"commit in flight")
        counts = store.gc()
        assert counts["stale_temps"] == 1
        assert counts["orphan_chunks"] == 1
        assert counts["corrupt_manifests"] == 0
        assert young_orphan.exists()  # too young to condemn
        # Live data is untouched: both specs still hit.
        assert runner.run(parse_scenario(swept([100, 200]))).stats["cache_hit"]

    def test_gc_removes_corrupt_manifest_and_empty_dirs(self, tmp_path):
        runner = self._seed(tmp_path)
        store_dir = tmp_path / "store"
        family_dir = next(store_dir.iterdir())
        (family_dir / "manifest.json").write_text("{corrupt")
        counts = runner.store.gc()
        assert counts["corrupt_manifests"] == 1
        empty = store_dir / "deadbeef"
        empty.mkdir()
        assert runner.store.gc()["empty_dirs"] >= 1
        assert not empty.exists()

    def test_disk_stats_reports_views_and_rows(self, tmp_path):
        runner = self._seed(tmp_path)
        disk = runner.store.disk_stats()
        assert disk["families"] == 2
        assert disk["views"] == 2
        assert disk["points_stored"] == 3
        assert disk["bytes_stored"] > 0
        assert disk["temp_files"] == 0

    def test_axis_tokens_distinguish_int_from_float(self):
        assert _axis_token(6000) != _axis_token(6000.0)
        assert sweep_signature(("a",), ([6000],)) != sweep_signature(
            ("a",), ([6000.0],)
        )


class TestLazyPoints:
    @pytest.fixture()
    def results(self, tmp_path):
        spec = parse_scenario(swept([100, 200, 400]))
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        eager = runner.run(spec)
        lazy = runner.run(spec)
        assert isinstance(lazy.points, LazyPoints)
        return eager, lazy

    def test_sequence_protocol(self, results):
        eager, lazy = results
        points = lazy.points
        assert len(points) == 3
        assert points[0] == eager.points[0]
        assert points[-1] == eager.points[-1]
        assert points[0:2] == list(eager.points[0:2])
        assert list(points) == list(eager.points)
        with pytest.raises(IndexError):
            points[3]

    def test_equality_both_directions(self, results):
        eager, lazy = results
        assert lazy.points == eager.points
        assert eager.points == lazy.points
        assert lazy.points != tuple(eager.points[:2])
        assert (lazy.points == 42) is False

    def test_key_order_matches_fresh_evaluation(self, results):
        eager, lazy = results
        for fresh, stored in zip(eager.points, lazy.points):
            assert list(fresh) == list(stored)  # dict key order, exactly


def _coalesced(target, backend, requests, coalescer):
    """Answer ``requests`` as one coalesced batch; curves in request order.

    The leader's compile step waits until every request has joined the
    batch, so the batch always holds all of them, whichever thread leads.
    """

    def compile_fn():
        deadline = time.monotonic() + 30.0
        while coalescer.stats()["requests"] < len(requests):
            assert time.monotonic() < deadline, "followers never joined"
            time.sleep(0.001)
        return target, backend

    answers: list = [None] * len(requests)
    errors: list[BaseException] = []

    def ask(index):
        grid, baseline = requests[index]
        try:
            answers[index] = coalescer.evaluate(
                "unit", grid, baseline, compile_fn, label="unit"
            )
        except BaseException as error:  # noqa: BLE001 - collected for assert
            errors.append(error)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors, errors
    assert [answer[2] for answer in answers] == [len(requests)] * len(requests)
    return [answer[0] for answer in answers]


class TestCoalescedCurveByteIdentity:
    """Coalesced requests are served by ``backend.curves()`` over the
    union grid; each member's curve equals a standalone evaluation."""

    def test_coalesced_curves_match_standalone_curves_exactly(self):
        spec = parse_scenario(minimal_document(workers={"min": 1, "max": 64}))
        target, backend = compile_point(spec)
        assert isinstance(backend, AnalyticBackend)
        requests = [
            (tuple(range(1, 17)), 1),
            ((1, 2, 4, 8, 16, 32, 64), 2),
            ((3, 9, 27), 3),
        ]
        coalescer = Coalescer()
        curves = _coalesced(target, backend, requests, coalescer)
        stats = coalescer.stats()
        assert stats["batches"] == 1
        assert stats["coalesced_requests"] == len(requests) - 1
        # One shared evaluation over the union of grids and baselines.
        assert stats["shared_buffer_points"] == len(
            {n for grid, _ in requests for n in grid} | {1, 2, 3}
        )
        for coalesced, (grid, baseline) in zip(curves, requests):
            solo = backend.curve(target, grid, baseline, label="unit")
            assert coalesced.workers == solo.workers
            assert coalesced.baseline_time == solo.baseline_time
            assert list(coalesced.times) == list(solo.times)
            assert list(coalesced.speedups) == list(solo.speedups)
            assert list(coalesced.efficiencies) == list(solo.efficiencies)
            assert coalesced.optimal_workers == solo.optimal_workers
            assert coalesced.peak_speedup == solo.peak_speedup
            assert coalesced.is_scalable == solo.is_scalable

    @pytest.mark.parametrize(
        "backend_block, shared_points",
        (
            ({"kind": "analytic"}, 32),
            # A calibrated fit couples every point of its grid: each
            # member is evaluated on its own, no shared union buffer.
            ({"kind": "calibrated", "calibration": {"features": "amdahl"}}, 0),
        ),
        ids=("analytic", "calibrated"),
    )
    def test_coalesced_curves_serialise_byte_identically(
        self, backend_block, shared_points
    ):
        spec = parse_scenario(
            minimal_document(workers={"min": 1, "max": 32}, backend=backend_block)
        )
        target, backend = compile_point(spec)
        requests = [(tuple(range(1, 33)), 1), ((1, 4, 8, 13), 1)]
        coalescer = Coalescer()
        curves = _coalesced(target, backend, requests, coalescer)
        assert coalescer.stats()["shared_buffer_points"] == shared_points
        for coalesced, (grid, baseline) in zip(curves, requests):
            solo = backend.curve(target, grid, baseline)
            assert json.dumps(curve_record(coalesced)) == json.dumps(curve_record(solo))


class TestDefaultCacheDir:
    def test_scenarios_reexport_the_store_default(self):
        import repro.scenarios
        import repro.store

        assert repro.scenarios.default_cache_dir is repro.store.default_cache_dir

    def test_env_override_and_home_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        assert ResultStore().directory.parent == tmp_path / "override"
        assert SweepRunner(mode="serial").store.directory.parent == tmp_path / "override"
        monkeypatch.delenv("REPRO_SCENARIO_CACHE")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert default_cache_dir() == tmp_path / "home" / ".cache" / "repro" / "scenarios"


class TestRefinement:
    def test_refined_values_match_dense_exactly(self):
        grid = list(range(1, 129))
        dense = {n: 100.0 / n + 0.05 * n for n in grid}
        refined = refine_worker_grid(
            lambda subset: [dense[n] for n in subset], grid, 1
        )
        assert refined.workers[0] == 1 and refined.workers[-1] == 128
        for n, t in zip(refined.workers, refined.times_s):
            assert t == dense[n]
        assert refined.evaluations == len(refined.workers)
        assert refined.evaluations < len(grid) // 2

    def test_refinement_locates_the_exact_minimum(self):
        grid = list(range(1, 257))
        dense = {n: 100.0 / n + 0.02 * n for n in grid}
        refined = refine_worker_grid(
            lambda subset: [dense[n] for n in subset], grid, 1
        )
        best_dense = min(grid, key=lambda n: (dense[n], n))
        best_refined = min(
            zip(refined.times_s, refined.workers), key=lambda pair: pair
        )[1]
        assert best_refined == best_dense

    def test_plateau_ties_break_to_smallest_worker_count(self):
        grid = list(range(1, 65))
        dense = {n: max(10.0 / n, 1.0) for n in grid}  # flat past n = 10
        refined = refine_worker_grid(
            lambda subset: [dense[n] for n in subset], grid, 1
        )
        evaluated = dict(zip(refined.workers, refined.times_s))
        floor = min(refined.times_s)
        assert min(n for n, t in evaluated.items() if t == floor) == 10

    def test_off_grid_baseline_is_one_extra_evaluation(self):
        grid = [2, 4, 8, 16]
        calls = []

        def evaluate(subset):
            calls.append(tuple(subset))
            return [100.0 / n for n in subset]

        refined = refine_worker_grid(evaluate, grid, baseline_workers=1)
        assert refined.baseline_time == 100.0
        assert (1,) in calls
        assert refined.evaluations == len(refined.workers) + 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            refine_worker_grid(lambda s: [], [], 1)
        with pytest.raises(ScenarioError, match="increasing"):
            refine_worker_grid(lambda s: [1.0] * len(s), [4, 2, 1], 1)
        with pytest.raises(ScenarioError, match="knee_fraction"):
            refine_worker_grid(lambda s: [1.0] * len(s), [1, 2], 1, knee_fraction=0.0)

    def test_calibrated_backend_refuses_refinement(self):
        spec = parse_scenario(
            minimal_document(backend={"kind": "calibrated"})
        )
        runner = SweepRunner(mode="serial", use_cache=False, refine=True)
        with pytest.raises(ScenarioError, match="calibrated"):
            runner.run(spec)

    def test_refined_sweep_crossovers_use_shared_worker_counts(self):
        spec = parse_scenario(
            swept([1e9, 2e9], axis="flops", workers={"min": 1, "max": 64})
        )
        result = SweepRunner(mode="serial", use_cache=False, refine=True).run(spec)
        same, faster = result.points
        assert same["crossover_workers"] is None
        assert faster["crossover_workers"] == 1
        assert result.stats["mode"] == "refine"


class TestRefinementGolden:
    """Dense builtin specs: <= 25 % of the grid, same optimum and knee.

    Pinned on the smooth builtins (analytic ``figure1``/``figure3`` and
    the network ``geo-training``).  Refinement only *guarantees* feature
    recovery on roughly unimodal curves: ``figure2``'s quantisation
    spike at n = 9 and the jittered simulated builtins have isolated
    local extrema that any sparse sampler can miss — for those, the
    differential pin above still guarantees every evaluated point is
    exact; only the knee/optimum shortcut needs a smooth curve.
    """

    DENSE = list(range(1, 257))

    @staticmethod
    def _knee(point: dict, fraction: float = 0.95) -> int:
        threshold = fraction * max(point["speedups"])
        return min(
            n
            for n, s in zip(point["workers"], point["speedups"])
            if s >= threshold
        )

    def test_refinement_matches_dense_headlines(self):
        observed = {}
        for name in ("figure1", "figure3", "geo-training"):
            spec = with_workers(load_builtin(name), self.DENSE)
            refined = SweepRunner(mode="serial", use_cache=False, refine=True).run(spec)
            dense = SweepRunner(mode="serial", use_cache=False).run(spec)
            assert refined.stats["refine_fraction"] <= 0.25
            headline = []
            for point, dense_point in zip(refined.points, dense.points):
                dense_times = dict(
                    zip(dense_point["workers"], dense_point["times_s"])
                )
                assert all(
                    dense_times[n] == t
                    for n, t in zip(point["workers"], point["times_s"])
                )
                assert point["optimal_workers"] == dense_point["optimal_workers"]
                assert self._knee(point) == self._knee(dense_point)
                headline.append(
                    {
                        "optimal_workers": point["optimal_workers"],
                        "knee": self._knee(point),
                    }
                )
            observed[name] = {
                "points": headline,
                "evaluated_curve_points": refined.stats["evaluated_curve_points"],
                "dense_total_curve_points": refined.stats["dense_total_curve_points"],
            }
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_REFINE.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_REFINE.write_text(json.dumps(observed, indent=2) + "\n")
        assert GOLDEN_REFINE.exists(), (
            f"missing golden file {GOLDEN_REFINE};"
            " regenerate with REPRO_UPDATE_GOLDEN=1"
        )
        assert observed == json.loads(GOLDEN_REFINE.read_text()), (
            "refinement drifted from the golden headline numbers; if"
            " intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
        )


class TestIncrementalDifferential:
    """Full sweep == incremental sweep, byte for byte, per backend."""

    FLOPS_VALUES = [2.5e8, 5e8, 1e9, 2e9, 4e9, 8e9]

    @staticmethod
    def _assert_incremental_matches_full(document: dict, keep: int, tmp_path):
        values = TestIncrementalDifferential.FLOPS_VALUES
        full_doc = {**document, "sweep": {"flops": list(values)}}
        sub_doc = {**document, "sweep": {"flops": list(values[:keep])}}
        full_spec = parse_scenario(full_doc)
        sub_spec = parse_scenario(sub_doc)
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(sub_spec)
        incremental = runner.run(full_spec)
        assert incremental.stats["points_reused"] == keep
        assert incremental.stats["points_computed"] == len(values) - keep
        fresh = SweepRunner(mode="serial", use_cache=False).run(full_spec)
        assert payload_json(incremental) == payload_json(fresh)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        document=simulatable_documents(max_workers=8),
        keep=st.integers(min_value=1, max_value=5),
    )
    def test_simulated_incremental_equals_full(self, document, keep, tmp_path_factory):
        self._assert_incremental_matches_full(
            document, keep, tmp_path_factory.mktemp("store")
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        document=simulatable_documents(max_workers=16).map(
            lambda d: {**d, "backend": {"kind": "analytic"}}
        ),
        keep=st.integers(min_value=1, max_value=5),
    )
    def test_analytic_incremental_equals_full(self, document, keep, tmp_path_factory):
        self._assert_incremental_matches_full(
            document, keep, tmp_path_factory.mktemp("store")
        )

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        document=simulatable_documents(max_workers=16).map(
            lambda d: {
                **d,
                "backend": {
                    "kind": "calibrated",
                    "calibration": {"source": "analytic", "features": "ernest"},
                },
                "workers": [1, 2, 4, 8, 16],
                "baseline_workers": 1,
            }
        ),
        keep=st.integers(min_value=1, max_value=5),
    )
    def test_calibrated_incremental_equals_full(self, document, keep, tmp_path_factory):
        self._assert_incremental_matches_full(
            document, keep, tmp_path_factory.mktemp("store")
        )

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        document=network_documents(max_workers=8),
        keep=st.integers(min_value=1, max_value=5),
    )
    def test_network_incremental_equals_full(self, document, keep, tmp_path_factory):
        self._assert_incremental_matches_full(
            document, keep, tmp_path_factory.mktemp("store")
        )

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(document=simulatable_documents(max_workers=16))
    def test_refined_curve_matches_dense_at_every_evaluated_point(self, document):
        spec = parse_scenario(document)
        refined = SweepRunner(mode="serial", use_cache=False, refine=True).run(spec)
        dense = SweepRunner(mode="serial", use_cache=False).run(spec)
        for refined_point, dense_point in zip(refined.points, dense.points):
            dense_times = dict(
                zip(dense_point["workers"], dense_point["times_s"])
            )
            for n, t in zip(refined_point["workers"], refined_point["times_s"]):
                assert dense_times[n] == t
            assert refined_point["baseline_workers"] == dense_point["baseline_workers"]
