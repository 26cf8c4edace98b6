"""Tests for the pluggable evaluation backends.

Covers the protocol surface (analytic, simulated, calibrated), the
scenario backend block (parsing, validation, sweep axes, cache keys),
seed-derivation determinism across serial and process sweep modes, and
the straggler jitter model.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.backend import AnalyticBackend, CalibratedBackend, EvaluationTarget
from repro.core.errors import (
    CalibrationError,
    ModelError,
    ScenarioError,
    SimulationError,
)
from repro.models.deep_learning import spark_mnist_figure2_model
from repro.scenarios import (
    SweepRunner,
    calibrate_scenario,
    compile_backend,
    compile_point,
    compile_scenario,
    compile_workload,
    is_expensive,
    load_builtin,
    needs_simulation,
    parse_scenario,
    simulation_issue,
    with_backend,
)
from repro.core.speedup import WorkerGrid
from repro.scenarios.sweep import curve_record
from repro.simulate.backend import SimulatedBackend
from repro.simulate.overhead import SPARK_LIKE_OVERHEAD
from repro.simulate.rng import StragglerJitter, derive_seed, stream
from tests.strategies import ALL_KINDS, scenario_documents


def minimal_spec(**overrides) -> dict:
    document = {
        "scenario": 1,
        "name": "unit-backend",
        "description": "backend unit-test scenario",
        "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
        "algorithm": {
            "kind": "bsp",
            "params": {
                "operations_per_superstep": 1e10,
                "payload_bits": 2.5e8,
                "topology": "tree",
            },
        },
        "workers": {"min": 1, "max": 8},
    }
    document.update(overrides)
    return document


class TestBackendSpecParsing:
    def test_default_backend_is_analytic(self):
        spec = parse_scenario(minimal_spec())
        assert spec.backend.kind == "analytic"

    def test_backend_roundtrips_through_to_dict(self):
        spec = parse_scenario(
            minimal_spec(
                backend={
                    "kind": "simulated",
                    "simulation": {"iterations": 4, "jitter_sigma": 0.1},
                }
            )
        )
        again = parse_scenario(spec.to_dict())
        assert again == spec
        assert again.backend.simulation_dict == {"iterations": 4, "jitter_sigma": 0.1}

    def test_unknown_backend_kind_rejected(self):
        with pytest.raises(ScenarioError, match="backend kind"):
            parse_scenario(minimal_spec(backend={"kind": "quantum"}))

    def test_unknown_simulation_key_rejected(self):
        with pytest.raises(ScenarioError, match="backend.simulation"):
            parse_scenario(
                minimal_spec(backend={"kind": "simulated", "simulation": {"bogus": 1}})
            )

    def test_bad_simulation_values_rejected(self):
        for bad in (
            {"iterations": 0},
            {"seed": -1},
            {"jitter_sigma": -0.1},
            {"straggler_fraction": 1.5},
            {"straggler_slowdown": 0.5},
            {"overhead": "warp-drive"},
        ):
            with pytest.raises(ScenarioError):
                parse_scenario(
                    minimal_spec(backend={"kind": "simulated", "simulation": bad})
                )

    def test_inline_overhead_mapping_accepted(self):
        spec = parse_scenario(
            minimal_spec(
                backend={
                    "kind": "simulated",
                    "simulation": {"overhead": {"superstep_seconds": 0.1}},
                }
            )
        )
        backend = compile_backend(spec)
        assert backend.overhead.superstep_seconds == pytest.approx(0.1)

    def test_unknown_calibration_features_rejected_at_validate(self):
        with pytest.raises(ScenarioError, match="feature library"):
            parse_scenario(
                minimal_spec(
                    backend={"kind": "calibrated", "calibration": {"features": "bogus"}}
                )
            )

    def test_calibrated_needs_enough_worker_counts(self):
        with pytest.raises(ScenarioError, match="worker counts"):
            parse_scenario(
                minimal_spec(
                    workers=[1, 2],
                    backend={"kind": "calibrated", "calibration": {"features": "ernest"}},
                )
            )

    def test_simulated_backend_on_bp_rejected(self):
        document = minimal_spec(
            algorithm={
                "kind": "belief_propagation",
                "params": {"graph": {"generator": "dns-like", "scale": "16k"}},
            },
            hardware={"node": "dl980"},
            backend={"kind": "simulated"},
        )
        with pytest.raises(ScenarioError, match="BSP-expressible"):
            parse_scenario(document)

    def test_unsimulatable_topology_rejected(self):
        document = minimal_spec(backend={"kind": "simulated"})
        document["algorithm"]["params"]["topology"] = "shuffle"
        with pytest.raises(ScenarioError, match="transfer-level"):
            parse_scenario(document)

    def test_backend_block_changes_content_hash(self):
        plain = parse_scenario(minimal_spec())
        simulated = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        assert plain.content_hash() != simulated.content_hash()

    def test_with_backend_merges_simulation_overrides(self):
        spec = parse_scenario(
            minimal_spec(
                backend={"kind": "analytic", "simulation": {"jitter_sigma": 0.3}}
            )
        )
        switched = with_backend(spec, "simulated", iterations=7)
        assert switched.backend.kind == "simulated"
        assert switched.backend.simulation_dict == {
            "iterations": 7,
            "jitter_sigma": 0.3,
        }


class TestBackendSweepAxes:
    def test_jitter_axis_sweepable_under_simulated_backend(self):
        spec = parse_scenario(
            minimal_spec(
                backend={"kind": "simulated"},
                sweep={"jitter_sigma": [0.0, 0.1]},
            )
        )
        assert spec.grid_size == 2

    def test_jitter_axis_rejected_on_analytic_backend(self):
        with pytest.raises(ScenarioError, match="not sweepable"):
            parse_scenario(minimal_spec(sweep={"jitter_sigma": [0.0, 0.1]}))

    def test_swept_backend_values_are_range_checked(self):
        with pytest.raises(ScenarioError, match="straggler_fraction"):
            parse_scenario(
                minimal_spec(
                    backend={"kind": "simulated"},
                    sweep={"straggler_fraction": [0.0, 1.5]},
                )
            )

    def test_overrides_reach_the_compiled_backend(self):
        spec = parse_scenario(
            minimal_spec(
                backend={"kind": "simulated"},
                sweep={"jitter_sigma": [0.0, 0.25]},
            )
        )
        _target, backend = compile_point(spec, {"jitter_sigma": 0.25})
        assert backend.jitter_sigma == pytest.approx(0.25)


class TestCompilePoint:
    def test_analytic_point_has_no_workload(self):
        target, backend = compile_point(parse_scenario(minimal_spec()))
        assert backend.name == "analytic"
        assert target.workload is None

    def test_simulated_point_carries_workload_and_key(self):
        spec = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        target, backend = compile_point(spec)
        assert backend.name == "simulated"
        assert target.workload is not None
        assert target.key == spec.content_hash()

    def test_compile_workload_reports_unsupported_kinds(self):
        spec = load_builtin("bp-dns-16k")
        with pytest.raises(ScenarioError, match="BSP-expressible"):
            compile_workload(spec)
        assert simulation_issue(spec) is not None

    def test_expensive_classification(self):
        assert not is_expensive(parse_scenario(minimal_spec()))
        assert is_expensive(parse_scenario(minimal_spec(backend={"kind": "simulated"})))
        assert needs_simulation(
            parse_scenario(
                minimal_spec(
                    backend={
                        "kind": "calibrated",
                        "calibration": {"source": "simulated"},
                    }
                )
            )
        )


class TestSimulatedBackend:
    def test_requires_a_workload(self):
        target = EvaluationTarget(model=spark_mnist_figure2_model(), label="fig2")
        with pytest.raises(SimulationError, match="workload"):
            SimulatedBackend().evaluate(target, [1, 2])

    def test_zero_noise_evaluation_is_deterministic(self):
        spec = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        target, backend = compile_point(spec)
        first = backend.evaluate(target, spec.workers)
        second = backend.evaluate(target, spec.workers)
        np.testing.assert_array_equal(first, second)

    def test_jitter_changes_with_seed_but_not_with_call_order(self):
        spec = parse_scenario(
            minimal_spec(
                backend={"kind": "simulated", "simulation": {"jitter_sigma": 0.2}}
            )
        )
        target, backend = compile_point(spec)
        forward = backend.evaluate(target, spec.workers)
        backward = backend.evaluate(target, list(reversed(spec.workers)))
        np.testing.assert_allclose(forward, backward[::-1])
        reseeded_spec = parse_scenario(
            minimal_spec(
                backend={
                    "kind": "simulated",
                    "simulation": {"jitter_sigma": 0.2, "seed": 99},
                }
            )
        )
        reseeded_target, reseeded = compile_point(reseeded_spec)
        assert not np.allclose(forward, reseeded.evaluate(reseeded_target, spec.workers))

    def test_overhead_preset_slows_supersteps(self):
        plain_spec = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        overhead_spec = parse_scenario(
            minimal_spec(
                backend={
                    "kind": "simulated",
                    "simulation": {"overhead": "spark-like"},
                }
            )
        )
        plain_target, plain = compile_point(plain_spec)
        overhead_target, loaded = compile_point(overhead_spec)
        gap = loaded.evaluate(overhead_target, [4]) - plain.evaluate(plain_target, [4])
        assert gap[0] == pytest.approx(SPARK_LIKE_OVERHEAD.delay(4))

    def test_stragglers_slow_the_barrier(self):
        base_spec = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        straggler_spec = parse_scenario(
            minimal_spec(
                backend={
                    "kind": "simulated",
                    "simulation": {
                        "straggler_fraction": 0.5,
                        "straggler_slowdown": 3.0,
                    },
                }
            )
        )
        base_target, base = compile_point(base_spec)
        straggler_target, stragglers = compile_point(straggler_spec)
        assert np.all(
            stragglers.evaluate(straggler_target, [8])
            >= base.evaluate(base_target, [8])
        )


class TestSweepDeterminismAcrossModes:
    def test_serial_and_process_payloads_identical(self):
        """Seeds derive from spec + grid point, never from pool workers."""
        document = minimal_spec(
            backend={
                "kind": "simulated",
                "simulation": {"jitter_sigma": 0.15, "seed": 3},
            },
            sweep={"jitter_sigma": [0.05, 0.15], "straggler_fraction": [0.0, 0.2]},
        )
        spec = parse_scenario(document)
        serial = SweepRunner(mode="serial", use_cache=False).run(spec)
        pooled = SweepRunner(mode="process", use_cache=False).run(spec)
        assert serial.payload() == pooled.payload()

    def test_simulated_sweep_auto_picks_process(self):
        spec = parse_scenario(
            minimal_spec(
                backend={"kind": "simulated"},
                sweep={"jitter_sigma": [0.0, 0.1]},
            )
        )
        # cpus pinned: auto is CPU-aware and would stay serial on 1 CPU.
        assert SweepRunner(mode="auto", cpus=4).resolve_mode(spec, 2) == "process"
        assert SweepRunner(mode="auto", cpus=1).resolve_mode(spec, 2) == "serial"

    def test_points_record_their_backend(self):
        spec = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        result = SweepRunner(mode="serial", use_cache=False).run(spec)
        assert result.points[0]["backend"] == "simulated"


class TestCalibratedBackend:
    def test_fit_recovers_model_in_family(self):
        target, _ = compile_point(load_builtin("figure2"))
        backend = CalibratedBackend(source=AnalyticBackend(), features="spark")
        outcome = backend.calibrate(target, range(1, 14))
        # The figure2 model *is* in the spark family, so the fit is exact.
        assert outcome.result.mape_pct < 1e-6
        assert outcome.result.r2 == pytest.approx(1.0)

    def test_evaluate_returns_fitted_times(self):
        target, _ = compile_point(load_builtin("figure2"))
        backend = CalibratedBackend(source=AnalyticBackend(), features="spark")
        fitted = backend.evaluate(target, range(1, 14))
        model_times = AnalyticBackend().evaluate(target, range(1, 14))
        np.testing.assert_allclose(fitted, model_times, rtol=1e-6)

    def test_off_grid_baseline_extrapolates_the_fit(self):
        target, _ = compile_point(load_builtin("figure2"))
        backend = CalibratedBackend(source=AnalyticBackend(), features="spark")
        curve = backend.curve(target, range(2, 14), baseline_workers=1)
        assert curve.baseline_time == pytest.approx(
            target.model.time(1), rel=1e-6
        )

    def test_calibrated_scenario_runs_end_to_end(self):
        spec = load_builtin("calibrated-bp")
        result = SweepRunner(mode="serial", use_cache=False).run(spec)
        point = result.points[0]
        assert point["backend"] == "calibrated"
        # The fitted family is smooth and positive across the grid.
        assert all(t > 0 for t in point["times_s"])

    def test_calibrate_scenario_ranks_families(self):
        report = calibrate_scenario(load_builtin("figure2"), source="analytic")
        assert report.source == "analytic"
        assert report.best.features == report.ranking[0][0]
        names = [fit.features for fit in report.fits]
        assert "spark" in names and "ernest" in names
        assert report.best.mape_pct < 2.0

    def test_calibrate_scenario_rejects_unknown_source(self):
        with pytest.raises(ScenarioError, match="calibration source"):
            calibrate_scenario(load_builtin("figure2"), source="oracle")

    def test_calibrate_scenario_rejects_unknown_features(self):
        with pytest.raises(CalibrationError, match="feature library"):
            calibrate_scenario(
                load_builtin("figure2"), source="analytic", features=("bogus",)
            )


class TestStragglerJitter:
    def test_zero_noise_is_identity(self):
        rng = stream(0, "test")
        jitter = StragglerJitter()
        assert jitter.sample(rng) == 1.0

    def test_straggler_multiplies(self):
        rng = stream(0, "test")
        jitter = StragglerJitter(straggler_fraction=1.0, straggler_slowdown=3.0)
        assert jitter.sample(rng) == pytest.approx(3.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            StragglerJitter(sigma=-1.0)
        with pytest.raises(SimulationError):
            StragglerJitter(straggler_fraction=1.5)
        with pytest.raises(SimulationError):
            StragglerJitter(straggler_slowdown=0.9)


class TestDeriveSeed:
    def test_deterministic_and_name_sensitive(self):
        assert derive_seed(0, "a", "b") == derive_seed(0, "a", "b")
        assert derive_seed(0, "a", "b") != derive_seed(0, "a", "c")
        assert derive_seed(0, "a", "b") != derive_seed(1, "a", "b")

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError):
            derive_seed(-1, "a")


class TestCompileScenarioStillWorks:
    def test_model_only_compilation_unchanged(self):
        spec = parse_scenario(minimal_spec(backend={"kind": "simulated"}))
        model = compile_scenario(spec)
        assert model.time(1) > model.time(4)


class TestWorkerGridCheck:
    """Every backend's ``evaluate`` checks its worker grid at the same
    boundary, with the same errors."""

    @pytest.mark.parametrize(
        "backend_block",
        (
            {"kind": "analytic"},
            {"kind": "simulated"},
            {"kind": "calibrated"},
            {"kind": "network"},
        ),
        ids=lambda block: block["kind"],
    )
    @pytest.mark.parametrize(
        "workers, message",
        (
            ((), "at least one worker count"),
            ((4, 0, 2), "worker counts must be >= 1, got 0"),
        ),
        ids=("empty", "zero"),
    )
    def test_bad_grids_raise_model_error(self, backend_block, workers, message):
        target, backend = compile_point(
            parse_scenario(minimal_spec(backend=backend_block))
        )
        with pytest.raises(ModelError, match=message):
            backend.evaluate(target, workers)


class TestCurvesBatch:
    """The union-grid coalescing primitive behind the service hot path."""

    REQUESTS = (((1, 2, 4, 8), 1), ((2, 4), 2), ((1, 8, 13), 1))

    #: Wider grids with off-1 baselines, one of them off every grid.
    WIDE_REQUESTS = (
        (tuple(range(1, 17)), 1),
        ((1, 2, 4, 8, 16, 32, 64), 2),
        ((3, 9, 27), 3),
    )

    def _target(self, backend_block):
        spec = parse_scenario(
            minimal_spec(workers={"min": 1, "max": 13}, backend=backend_block)
        )
        return compile_point(spec)

    @pytest.mark.parametrize(
        "backend_block, requests",
        (
            ({"kind": "analytic"}, REQUESTS),
            (
                {"kind": "simulated", "simulation": {"iterations": 2, "seed": 3}},
                REQUESTS,
            ),
            ({"kind": "analytic"}, WIDE_REQUESTS),
        ),
        ids=("analytic", "simulated", "analytic-wide"),
    )
    def test_sliced_curves_are_bit_identical_to_solo(self, backend_block, requests):
        """The coalesced service path: every member's curve, field by
        field and as serialised JSON, equals a solo evaluation."""
        target, backend = self._target(backend_block)
        batched = backend.curves(target, requests)
        for (grid, baseline), curve in zip(requests, batched):
            solo = backend.curve(target, grid, baseline)
            assert curve.times == solo.times  # exact, not approx
            assert curve.baseline_time == solo.baseline_time
            assert curve.workers == tuple(grid)
            assert curve.baseline_workers == baseline
            assert curve.speedups == solo.speedups
            assert curve.efficiencies == solo.efficiencies
            assert curve.optimal_workers == solo.optimal_workers
            assert curve.peak_speedup == solo.peak_speedup
            assert curve.is_scalable == solo.is_scalable
            assert json.dumps(curve_record(curve)) == json.dumps(curve_record(solo))

    def test_calibrated_backend_fits_each_grid_separately(self):
        # A calibrated fit couples every point of its grid, so curves()
        # must not share a union evaluation across requests.
        target, backend = self._target(
            {"kind": "calibrated", "calibration": {"features": "amdahl"}}
        )
        requests = (((1, 2, 4, 8), 1), ((1, 4, 8, 13), 1))
        batched = backend.curves(target, requests)
        for (grid, baseline), curve in zip(requests, batched):
            solo = backend.curve(target, grid, baseline)
            assert curve.times == solo.times

    def test_empty_request_list_is_empty(self):
        target, backend = self._target({"kind": "analytic"})
        assert backend.curves(target, []) == []


class TestCheckOnce:
    """A spec's worker grid is checked where it is parsed, and nowhere
    downstream: no per-element pass runs per sweep point."""

    @pytest.fixture
    def cast_calls(self, monkeypatch):
        """The inputs that took ``WorkerGrid.cast``'s element-wise branch."""
        calls = []
        original = WorkerGrid.cast

        def counting(workers):
            if not isinstance(workers, WorkerGrid):
                calls.append(workers)
            return original(workers)

        monkeypatch.setattr(WorkerGrid, "cast", staticmethod(counting))
        return calls

    def test_spec_grids_are_checked_grids(self):
        ranged = parse_scenario(minimal_spec())
        listed = parse_scenario(minimal_spec(workers=[1, 3, 9]))
        assert isinstance(ranged.workers, WorkerGrid)
        assert isinstance(listed.workers, WorkerGrid)
        assert listed.workers == (1, 3, 9)

    def test_serial_analytic_sweep_runs_no_unchecked_pass(self, cast_calls):
        spec = parse_scenario(
            minimal_spec(
                workers={"min": 1, "max": 512},
                sweep={"flops": [1e9, 2e9, 4e9], "bandwidth_bps": [1e9, 1e10]},
            )
        )
        result = SweepRunner(mode="serial", use_cache=False).run(spec)
        assert len(result.points) == 6
        assert cast_calls == []

    def test_service_style_batches_cast_only_their_baselines(self, cast_calls):
        spec = parse_scenario(minimal_spec())
        target, backend = compile_point(spec)
        backend.curve(target, spec.workers, spec.baseline_workers)
        (curve,) = backend.curves(target, [(spec.workers, spec.baseline_workers)])
        # The one cast: the request's baselines, not its grid.
        assert cast_calls == [[1]]
        assert isinstance(curve.workers, WorkerGrid)

    def test_a_served_evaluate_keeps_the_checked_grid(self, cast_calls):
        from repro.service.handlers import EvaluationService

        service = EvaluationService(use_cache=False)
        try:
            outcome = service.handle_evaluate({"scenario": minimal_spec()})
        finally:
            service.close()
        assert outcome.result["workers"] == list(range(1, 9))
        assert cast_calls == [[1]]

    def test_unchecked_input_takes_the_unchecked_path(self, cast_calls):
        target, backend = compile_point(parse_scenario(minimal_spec()))
        backend.curve(target, [1, 2, 4])
        assert cast_calls == [[1, 2, 4]]


#: Unchecked grids and the exact errors they raised before grids were
#: checked once; ``None`` means the call succeeds.
GRID_CASES = {
    "empty": ([], "a backend evaluation needs at least one worker count"),
    "zero": ([4, 0, 2], "worker counts must be >= 1, got 0"),
    "negative": ([1, -3, 2], "worker counts must be >= 1, got -3"),
    "duplicate": ([1, 2, 2], None),
}


class TestGridErrorParity:
    @pytest.fixture(scope="class")
    def point(self):
        return compile_point(parse_scenario(minimal_spec()))

    def _raises(self, call, message):
        if message is None:
            return call()
        with pytest.raises(ModelError) as excinfo:
            call()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_evaluate(self, point, case):
        target, backend = point
        workers, message = GRID_CASES[case]
        result = self._raises(lambda: backend.evaluate(target, workers), message)
        if message is None:  # a repeated count still evaluates point by point
            assert result.shape == (3,) and result[1] == result[2]

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_curve_and_curves(self, point, case):
        target, backend = point
        workers, message = GRID_CASES[case]
        message = message or "worker counts must be unique"
        self._raises(lambda: backend.curve(target, workers), message)
        self._raises(lambda: backend.curves(target, [(workers, 1)]), message)

    @pytest.mark.parametrize("baseline", [0, -3])
    def test_curves_checks_baselines(self, point, baseline):
        target, backend = point
        self._raises(
            lambda: backend.curves(target, [([1, 2], baseline)]),
            f"worker counts must be >= 1, got {baseline}",
        )


#: Deterministic kinds only: a Monte-Carlo model is tabulated on its
#: spec's own grid, so it cannot answer an arbitrary range.
DETERMINISTIC_KINDS = tuple(kind for kind in ALL_KINDS if kind != "belief_propagation")


class TestGridFormsAgree:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(scenario_documents(kinds=DETERMINISTIC_KINDS, max_workers=64))
    def test_every_grid_form_gives_the_checked_grid_bytes(self, document):
        spec = parse_scenario(document)
        target, backend = compile_point(spec)
        baseline = spec.baseline_workers

        def record_bytes(workers):
            return json.dumps(curve_record(backend.curve(target, workers, baseline)))

        checked = record_bytes(spec.workers)
        assert record_bytes(list(spec.workers)) == checked
        assert record_bytes(n for n in spec.workers) == checked
        assert record_bytes(np.array(spec.workers, dtype=np.int64)) == checked
        span = range(1, len(spec.workers) + 1)
        assert record_bytes(span) == record_bytes(WorkerGrid(span))


class TestGridLint:
    """The per-element passes over a grid live on one unchecked path."""

    CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"

    def test_no_per_element_float_loops(self):
        for name in ("backend.py", "speedup.py"):
            assert "float(t) for t in" not in (self.CORE / name).read_text(), name

    def test_one_per_element_int_cast(self):
        import inspect

        counts = {
            name: (self.CORE / name).read_text().count("int(n) for n in")
            for name in ("backend.py", "speedup.py")
        }
        assert counts == {"backend.py": 0, "speedup.py": 1}
        assert "int(n) for n in" in inspect.getsource(WorkerGrid.cast)
