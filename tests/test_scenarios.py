"""Tests for the declarative scenario engine.

Covers spec validation errors, compilation equivalence with the
hand-coded paper models, sweep-grid expansion, cache hit/miss behaviour,
parallel-vs-serial equivalence and structured export.
"""

import csv
import json

import pytest

from repro.core.errors import ScenarioError
from repro.models.deep_learning import (
    chen_inception_figure3_model,
    spark_mnist_figure2_model,
)
from repro.scenarios import (
    SweepRunner,
    builtin_names,
    compile_scenario,
    evaluate_point,
    expand_grid,
    is_stochastic,
    load_builtin,
    load_scenario,
    parse_scenario,
    resolve_scenario,
)
from repro.scenarios.spec import ScenarioSpec


def minimal_spec(**overrides) -> dict:
    """A small valid closed-form scenario, tweakable per test."""
    document = {
        "scenario": 1,
        "name": "unit",
        "description": "unit-test scenario",
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


class TestSpecValidation:
    def test_minimal_spec_parses(self):
        spec = parse_scenario(minimal_spec())
        assert spec.name == "unit"
        assert spec.workers == tuple(range(1, 9))
        assert spec.grid_size == 1

    def test_missing_name_rejected(self):
        document = minimal_spec()
        del document["name"]
        with pytest.raises(ScenarioError, match="name"):
            parse_scenario(document)

    def test_missing_algorithm_rejected(self):
        document = minimal_spec()
        del document["algorithm"]
        with pytest.raises(ScenarioError, match="algorithm"):
            parse_scenario(document)

    def test_missing_workers_rejected(self):
        document = minimal_spec()
        del document["workers"]
        with pytest.raises(ScenarioError, match="workers"):
            parse_scenario(document)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            parse_scenario(minimal_spec(extra=1))

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(ScenarioError, match="schema version"):
            parse_scenario(minimal_spec(scenario=99))

    def test_unknown_algorithm_kind_lists_known(self):
        document = minimal_spec(algorithm={"kind": "quantum", "params": {}})
        with pytest.raises(ScenarioError, match="gradient_descent"):
            parse_scenario(document)

    def test_unknown_algorithm_param_lists_allowed(self):
        document = minimal_spec()
        document["algorithm"]["params"]["bogus"] = 1
        with pytest.raises(ScenarioError, match="bogus"):
            parse_scenario(document)

    def test_missing_required_param_rejected_at_compile(self):
        document = minimal_spec()
        del document["algorithm"]["params"]["batch_size"]
        spec = parse_scenario(document)
        with pytest.raises(ScenarioError, match="batch_size"):
            compile_scenario(spec)

    def test_bad_workers_range_rejected(self):
        with pytest.raises(ScenarioError, match="workers"):
            parse_scenario(minimal_spec(workers={"min": 5, "max": 2}))

    def test_workers_list_validated(self):
        with pytest.raises(ScenarioError, match="unique"):
            parse_scenario(minimal_spec(workers=[1, 2, 2]))
        with pytest.raises(ScenarioError, match=">= 1"):
            parse_scenario(minimal_spec(workers=[0, 1]))

    def test_workers_range_with_step(self):
        spec = parse_scenario(minimal_spec(workers={"min": 1, "max": 9, "step": 2}))
        assert spec.workers == (1, 3, 5, 7, 9)

    def test_baseline_must_be_on_grid(self):
        with pytest.raises(ScenarioError, match="baseline"):
            parse_scenario(minimal_spec(baseline_workers=99))

    def test_unknown_sweep_axis_rejected(self):
        with pytest.raises(ScenarioError, match="sweepable"):
            parse_scenario(minimal_spec(sweep={"bogus_axis": [1, 2]}))

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ScenarioError, match="empty"):
            parse_scenario(minimal_spec(sweep={"batch_size": []}))

    def test_duplicate_sweep_values_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(minimal_spec(sweep={"batch_size": [10, 10]}))

    def test_unknown_hardware_key_rejected(self):
        with pytest.raises(ScenarioError, match="hardware"):
            parse_scenario(minimal_spec(hardware={"flops": 1e9, "cpus": 4}))

    def test_unknown_catalog_node_rejected(self):
        document = minimal_spec(hardware={"node": "cray-1", "bandwidth_bps": 1e9})
        with pytest.raises(ScenarioError, match="cray-1"):
            compile_scenario(parse_scenario(document))

    def test_link_slug_in_node_slot_rejected(self):
        document = minimal_spec(hardware={"node": "1gbe", "bandwidth_bps": 1e9})
        with pytest.raises(ScenarioError, match="not a compute node"):
            compile_scenario(parse_scenario(document))

    def test_missing_flops_rejected(self):
        document = minimal_spec(hardware={"bandwidth_bps": 1e9})
        with pytest.raises(ScenarioError, match="flops"):
            compile_scenario(parse_scenario(document))

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="mapping"):
            parse_scenario([1, 2, 3])

    def test_content_hash_stable_and_sensitive(self):
        a = parse_scenario(minimal_spec())
        b = parse_scenario(minimal_spec())
        assert a.content_hash() == b.content_hash()
        c = parse_scenario(minimal_spec(workers={"min": 1, "max": 9}))
        assert a.content_hash() != c.content_hash()

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="does not exist"):
            load_scenario(tmp_path / "nope.json")

    def test_load_scenario_directory_rejected_cleanly(self, tmp_path):
        target = tmp_path / "a-directory.json"
        target.mkdir()
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(target)

    def test_nan_and_infinity_rejected(self):
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario(minimal_spec(hardware={"flops": float("nan")}))
        document = minimal_spec()
        document["algorithm"]["params"]["batch_size"] = float("inf")
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario(document)
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario(minimal_spec(sweep={"batch_size": [float("nan")]}))

    def test_unresolvable_hardware_caught_at_parse_time(self):
        # 'scenario validate' must reject specs that can never run.
        with pytest.raises(ScenarioError, match="unknown hardware"):
            parse_scenario(minimal_spec(hardware={"node": "cray-1"}))
        with pytest.raises(ScenarioError, match="flops"):
            parse_scenario(minimal_spec(hardware={"bandwidth_bps": 1e9}))

    def test_sweep_axis_may_supply_missing_hardware(self):
        # No base flops, but the sweep provides one per grid point.
        spec = parse_scenario(
            minimal_spec(hardware={"bandwidth_bps": 1e9}, sweep={"flops": [1e9, 2e9]})
        )
        assert spec.grid_size == 2

    def test_bridge_module_imports_standalone(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-c", "import repro.scenarios.bridge"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_resolve_scenario_dispatch(self, tmp_path):
        assert resolve_scenario("figure2").name == "figure2"
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(minimal_spec()))
        assert resolve_scenario(path).name == "unit"
        assert resolve_scenario(minimal_spec()).name == "unit"
        with pytest.raises(ScenarioError, match="known:"):
            resolve_scenario("no-such-builtin")

    def test_builtin_name_wins_over_cwd_artifacts(self, tmp_path, monkeypatch):
        # A stray 'figure2' file or directory in cwd must not shadow the
        # bundled spec of the same name.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "figure2").mkdir()
        assert resolve_scenario("figure2").name == "figure2"
        (tmp_path / "figure1").write_text("not json at all")
        assert resolve_scenario("figure1").algorithm.kind == "gradient_descent"
        # Explicit path syntax still reaches the local file.
        (tmp_path / "local.json").write_text(json.dumps(minimal_spec()))
        assert resolve_scenario("./local.json").name == "unit"

    def test_non_positive_params_rejected_at_parse_time(self):
        # 'scenario validate' must not pass specs that crash mid-sweep.
        document = minimal_spec()
        document["algorithm"]["params"]["batch_size"] = 0
        with pytest.raises(ScenarioError, match="positive"):
            parse_scenario(document)
        document = minimal_spec()
        document["algorithm"]["params"]["operations_per_sample"] = -1e7
        with pytest.raises(ScenarioError, match="positive"):
            parse_scenario(document)

    def test_zero_allowed_where_meaningful(self):
        document = minimal_spec()
        document["algorithm"] = {
            "kind": "bsp",
            "params": {"operations_per_superstep": 1e9, "payload_bits": 0},
        }
        assert parse_scenario(document).algorithm.kind == "bsp"

    def test_every_swept_slug_validated_not_just_the_first(self):
        document = minimal_spec(
            hardware={"flops": 1e9, "link": "1gbe"},
            sweep={"link": ["1gbe", "bogus-link"]},
        )
        with pytest.raises(ScenarioError, match="bogus-link"):
            parse_scenario(document)

    def test_non_positive_sweep_values_rejected(self):
        with pytest.raises(ScenarioError, match="positive"):
            parse_scenario(minimal_spec(sweep={"batch_size": [100, 0]}))

    def test_absurd_workers_range_fails_fast(self):
        with pytest.raises(ScenarioError, match="limit"):
            parse_scenario(minimal_spec(workers={"min": 1, "max": 2_000_000_000}))

    def test_missing_network_rejected_for_communicating_kinds(self):
        document = minimal_spec(hardware={"node": "xeon-e3-1240"})
        with pytest.raises(ScenarioError, match="bandwidth_bps"):
            parse_scenario(document)

    def test_communication_free_kinds_need_no_network(self):
        document = minimal_spec(hardware={"flops": 1e9})
        document["algorithm"] = {
            "kind": "bsp",
            "params": {"operations_per_superstep": 1e9, "topology": "none"},
        }
        model = compile_scenario(parse_scenario(document))
        assert model.time(4) == pytest.approx(0.25)
        bp = load_builtin("bp-dns-16k")
        assert bp.hardware.link is None  # shared-memory: no network section


class TestCompile:
    def test_figure2_matches_hand_coded_model(self):
        model = compile_scenario(load_builtin("figure2"))
        reference = spark_mnist_figure2_model()
        for n in range(1, 14):
            assert model.time(n) == pytest.approx(reference.time(n), rel=1e-12)

    def test_figure3_matches_hand_coded_model(self):
        model = compile_scenario(load_builtin("figure3"))
        reference = chen_inception_figure3_model()
        for n in (25, 50, 100, 200):
            assert model.time(n) == pytest.approx(reference.time(n), rel=1e-12)

    def test_architecture_expansion(self):
        document = minimal_spec()
        document["algorithm"] = {
            "kind": "spark_gradient_descent",
            "params": {"architecture": "mnist-fc", "batch_size": 60000},
        }
        model = compile_scenario(parse_scenario(document))
        assert model.parameters == pytest.approx(11_972_510.0)
        assert model.operations_per_sample == pytest.approx(6 * 11_972_510.0)

    def test_unknown_architecture_lists_known(self):
        document = minimal_spec()
        document["algorithm"] = {
            "kind": "gradient_descent",
            "params": {"architecture": "resnet-9000", "batch_size": 10},
        }
        with pytest.raises(ScenarioError, match="mnist-fc"):
            compile_scenario(parse_scenario(document))

    def test_bsp_kind_with_topology(self):
        document = minimal_spec()
        document["algorithm"] = {
            "kind": "bsp",
            "params": {
                "operations_per_superstep": 1e10,
                "payload_bits": 32e6,
                "topology": "ring-allreduce",
                "iterations": 3,
            },
        }
        model = compile_scenario(parse_scenario(document))
        # One worker: pure compute, three iterations.
        assert model.time(1) == pytest.approx(3 * 1e10 / 1e9)
        assert model.time(4) < model.time(1)

    def test_bsp_unknown_topology_lists_known(self):
        document = minimal_spec()
        document["algorithm"] = {
            "kind": "bsp",
            "params": {"operations_per_superstep": 1e9, "topology": "telepathy"},
        }
        with pytest.raises(ScenarioError, match="ring-allreduce"):
            compile_scenario(parse_scenario(document))

    def test_belief_propagation_is_stochastic(self):
        spec = load_builtin("bp-dns-16k")
        assert is_stochastic(spec)
        assert not is_stochastic(parse_scenario(minimal_spec()))

    def test_inline_hardware_overrides_catalog(self):
        document = minimal_spec(
            hardware={"node": "xeon-e3-1240", "link": "1gbe", "flops": 5e9}
        )
        model = compile_scenario(parse_scenario(document))
        assert model.flops == 5e9
        assert model.bandwidth_bps == 1e9


class TestSweepGrid:
    def test_no_sweep_is_single_point(self):
        assert expand_grid(parse_scenario(minimal_spec())) == [{}]

    def test_cartesian_product(self):
        spec = parse_scenario(
            minimal_spec(
                sweep={"batch_size": [10, 20, 30], "bandwidth_bps": [1e9, 1e10]}
            )
        )
        grid = expand_grid(spec)
        assert len(grid) == spec.grid_size == 6
        assert {"batch_size": 20, "bandwidth_bps": 1e10} in grid

    def test_overrides_change_the_model(self):
        spec = parse_scenario(minimal_spec(sweep={"batch_size": [1000, 2000]}))
        base = evaluate_point(spec, {"batch_size": 1000})
        bigger = evaluate_point(spec, {"batch_size": 2000})
        assert bigger["times_s"][0] == pytest.approx(2 * base["times_s"][0])

    def test_link_slug_sweep(self):
        spec = parse_scenario(
            minimal_spec(
                hardware={"flops": 1e9, "link": "1gbe"},
                sweep={"link": ["1gbe", "10gbe"]},
            )
        )
        points = SweepRunner(mode="serial", use_cache=False).run(spec).points
        assert points[0]["times_s"][1] > points[1]["times_s"][1]


class TestSweepRunner:
    def test_serial_and_process_agree(self, tmp_path):
        spec = parse_scenario(
            minimal_spec(sweep={"batch_size": [100, 200, 400], "flops": [1e9, 2e9]})
        )
        serial = SweepRunner(mode="serial", use_cache=False).run(spec)
        process = SweepRunner(mode="process", max_workers=2, use_cache=False).run(spec)
        assert serial.points == process.points
        assert serial.stats["mode"] == "serial"
        assert process.stats["mode"] == "process"

    def test_serial_and_process_agree_for_monte_carlo(self):
        spec = load_builtin("bp-dns-16k")
        serial = SweepRunner(mode="serial", use_cache=False).run(spec)
        process = SweepRunner(mode="process", max_workers=2, use_cache=False).run(spec)
        assert serial.points == process.points

    def test_cache_miss_then_hit(self, tmp_path):
        spec = parse_scenario(minimal_spec())
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        first = runner.run(spec)
        assert first.stats["cache_hit"] is False
        second = runner.run(spec)
        assert second.stats["cache_hit"] is True
        assert second.points == first.points

    def test_changed_spec_misses_cache(self, tmp_path):
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(parse_scenario(minimal_spec()))
        changed = runner.run(parse_scenario(minimal_spec(workers={"min": 1, "max": 4})))
        assert changed.stats["cache_hit"] is False

    def test_no_cache_never_reads_or_writes(self, tmp_path):
        spec = parse_scenario(minimal_spec())
        runner = SweepRunner(mode="serial", cache_dir=tmp_path, use_cache=False)
        runner.run(spec)
        assert not list(tmp_path.iterdir())

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = parse_scenario(minimal_spec())
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(spec)
        manifest = next((tmp_path / "store").rglob("manifest.json"))
        manifest.write_text("{corrupt")
        rerun = runner.run(spec)
        assert rerun.stats["cache_hit"] is False

    def test_corrupt_chunk_is_a_miss(self, tmp_path):
        spec = parse_scenario(minimal_spec(sweep={"batch_size": [500, 2000]}))
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        first = runner.run(spec)
        chunk = next((tmp_path / "store").rglob("grid-*.npy"))
        chunk.write_bytes(b"not a numpy file")
        rerun = runner.run(spec)
        assert rerun.stats["cache_hit"] is False
        assert list(rerun.points) == list(first.points)

    def test_hundred_point_grid_with_process_pool(self, tmp_path):
        """The acceptance criterion: >= 100 points through the pool, then a hit."""
        spec = load_builtin("capacity-sweep")
        assert spec.grid_size >= 100
        runner = SweepRunner(mode="process", max_workers=2, cache_dir=tmp_path)
        first = runner.run(spec)
        assert first.stats["mode"] == "process"
        assert len(first.points) == spec.grid_size
        second = runner.run(spec)
        assert second.stats["cache_hit"] is True
        assert second.points == first.points

    def test_auto_mode_choices(self):
        closed_form = parse_scenario(minimal_spec())
        runner = SweepRunner(mode="auto", cpus=4)  # pinned: auto is CPU-aware
        assert runner.resolve_mode(closed_form, 1) == "serial"
        assert runner.resolve_mode(closed_form, 1000) == "process"
        # Cheap grids below the threshold stay serial: the whole grid
        # fits in one or two chunks, so dispatch cannot amortise.
        assert runner.resolve_mode(closed_form, 100) == "serial"
        stochastic = load_builtin("bp-dns-16k")
        assert runner.resolve_mode(stochastic, 4) == "process"
        assert runner.resolve_mode(stochastic, 1) == "serial"

    def test_auto_mode_is_serial_on_one_cpu(self):
        """A pool can never beat serial without a second core."""
        runner = SweepRunner(mode="auto", cpus=1)
        closed_form = parse_scenario(minimal_spec())
        assert runner.resolve_mode(closed_form, 100000) == "serial"
        assert runner.resolve_mode(load_builtin("bp-dns-16k"), 64) == "serial"
        # An explicit mode request is never second-guessed.
        assert SweepRunner(mode="process", cpus=1).resolve_mode(closed_form, 4) == "process"

    def test_bad_mode_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            SweepRunner(mode="gpu")
        with pytest.raises(ScenarioError, match="max_workers"):
            SweepRunner(max_workers=0)

    def test_crossovers_computed_against_declared_reference(self):
        spec = parse_scenario(
            minimal_spec(
                workers={"min": 1, "max": 16}, sweep={"flops": [1e9, 2e9]}
            )
        )
        result = SweepRunner(mode="serial", use_cache=False).run(spec)
        # The reference is the spec's own configuration (flops 1e9).
        assert result.reference is not None
        assert result.reference["overrides"] == {}
        same, faster = result.points
        assert same["crossover_workers"] is None  # identical to the reference
        assert faster["crossover_workers"] == 1  # 2x flops wins immediately
        assert result.base_point is result.reference

    def test_single_point_process_request_reports_serial(self):
        # A pool is never spun up for one task; stats must say so.
        spec = parse_scenario(minimal_spec())
        result = SweepRunner(mode="process", use_cache=False).run(spec)
        assert result.stats["mode"] == "serial"

    def test_reference_round_trips_through_cache(self, tmp_path):
        spec = parse_scenario(minimal_spec(sweep={"batch_size": [500, 2000]}))
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        first = runner.run(spec)
        second = runner.run(spec)
        assert second.stats["cache_hit"] is True
        assert second.reference == first.reference
        assert second.base_point == first.base_point


class TestExport:
    @pytest.fixture()
    def result(self):
        spec = parse_scenario(minimal_spec(sweep={"batch_size": [100, 200]}))
        return SweepRunner(mode="serial", use_cache=False).run(spec)

    def test_json_round_trip(self, result, tmp_path):
        target = result.export(tmp_path / "out.json")
        document = json.loads(target.read_text())
        assert document["scenario"] == "unit"
        assert len(document["points"]) == 2
        assert document["points"][0]["optimal_workers"] >= 1

    def test_csv_rows(self, result, tmp_path):
        target = result.export(tmp_path / "out.csv")
        with target.open() as stream:
            rows = list(csv.DictReader(stream))
        assert len(rows) == 2 * 8  # 2 points x 8 worker counts
        assert {
            "point",
            "batch_size",
            "workers",
            "time_s",
            "speedup",
            "optimal_workers",
            "crossover_workers",
        } <= set(rows[0])

    def test_unknown_suffix_rejected(self, result, tmp_path):
        with pytest.raises(ScenarioError, match=".json or .csv"):
            result.export(tmp_path / "out.xml")

    def test_summary_rows_have_headline_columns(self, result):
        rows = result.summary_rows()
        assert len(rows) == 2
        assert {
            "optimal_workers",
            "peak_speedup",
            "scalable",
            "crossover_workers",
        } <= set(rows[0])


class TestRegistryEquivalence:
    """The scenario engine subsumes the hard-coded registry entries."""

    def test_scenario_figure2_reproduces_registry_headline_metrics(self):
        from repro.experiments import run_experiment

        registry = run_experiment("figure2", quick=True)
        scenario = run_experiment("scenario-figure2", quick=True)
        assert (
            scenario.metrics["optimal_workers"]
            == registry.metrics["model_optimal_workers"]
            == 9
        )
        assert scenario.metrics["peak_speedup"] == pytest.approx(
            registry.metrics["model_peak_speedup"], rel=1e-12
        )
        registry_speedups = [row["model_speedup"] for row in registry.rows]
        scenario_speedups = [row["speedup"] for row in scenario.rows]
        assert scenario_speedups == pytest.approx(registry_speedups, rel=1e-12)

    def test_scenario_figure1_reproduces_registry_knee(self):
        from repro.experiments import run_experiment

        registry = run_experiment("figure1")
        scenario = run_experiment("scenario-figure1")
        assert scenario.metrics["optimal_workers"] == registry.metrics["peak_workers"]
        registry_speedups = [row["speedup"] for row in registry.rows]
        scenario_speedups = [row["speedup"] for row in scenario.rows]
        assert scenario_speedups == pytest.approx(registry_speedups, rel=1e-12)


class TestBuiltins:
    def test_all_builtins_parse(self):
        names = builtin_names()
        assert {"figure1", "figure2", "figure3", "bp-dns-16k", "capacity-sweep"} <= set(
            names
        )
        for name in names:
            spec = load_builtin(name)
            assert isinstance(spec, ScenarioSpec)
            assert spec.name == name

    def test_figure1_scenario_reproduces_knee(self):
        result = SweepRunner(mode="serial", use_cache=False).run(load_builtin("figure1"))
        assert result.base_point["optimal_workers"] == pytest.approx(14, abs=1)
