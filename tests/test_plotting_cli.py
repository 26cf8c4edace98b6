"""Tests for text rendering and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.errors import ExperimentError
from repro.experiments.plotting import render_chart, render_table


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table([{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.125}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_float_formatting(self):
        text = render_table([{"x": 0.123456789}], float_format="{:.2f}")
        assert "0.12" in text

    def test_missing_keys_render_empty(self):
        text = render_table([{"a": 1, "b": 2}, {"a": 3}])
        assert text.splitlines()[3].split() == ["3"]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            render_table([])


class TestRenderChart:
    def test_contains_markers_and_legend(self):
        chart = render_chart(
            {"model": [(1, 1.0), (2, 1.8), (4, 3.0)], "exp": [(1, 1.0), (4, 2.5)]}
        )
        assert "*" in chart
        assert "o" in chart
        assert "model" in chart and "exp" in chart

    def test_dimensions(self):
        chart = render_chart({"s": [(1, 1.0), (10, 5.0)]}, width=40, height=10)
        lines = chart.splitlines()
        assert len(lines) == 10 + 3  # grid + axis + labels + legend

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            render_chart({})
        with pytest.raises(ExperimentError):
            render_chart({"s": []})

    def test_constant_series_does_not_crash(self):
        chart = render_chart({"flat": [(1, 2.0), (5, 2.0)]})
        assert "flat" in chart


class TestCli:
    def test_list_prints_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure2" in output
        assert "table1" in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Inception" in output

    def test_run_unknown_fails_cleanly(self, capsys):
        assert main(["run", "figure99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_lists_valid_ids(self, capsys):
        assert main(["run", "figure99"]) == 1
        err = capsys.readouterr().err
        assert "valid ids:" in err
        assert "figure2" in err
        assert "table1" in err
        assert "scenario-figure2" in err

    def test_run_quick_figure1(self, capsys):
        assert main(["run", "figure1", "--quick"]) == 0
        assert "peak_workers" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestScenarioCli:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        assert "figure2" in output
        assert "capacity-sweep" in output

    def test_scenario_validate_builtin(self, capsys):
        assert main(["scenario", "validate", "figure2"]) == 0
        output = capsys.readouterr().out
        assert "ok:" in output
        assert "spark_gradient_descent" in output

    def test_scenario_validate_bad_spec_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        assert main(["scenario", "validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scenario_validate_unknown_name_lists_builtins(self, capsys):
        assert main(["scenario", "validate", "no-such"]) == 1
        err = capsys.readouterr().err
        assert "known:" in err
        assert "figure2" in err

    def test_scenario_run_figure2(self, capsys):
        assert main(["scenario", "run", "figure2", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "optimal_workers = 9" in output
        assert "speedup" in output

    def test_scenario_run_registered_as_experiment(self, capsys):
        assert main(["run", "scenario-figure2"]) == 0
        assert "optimal_workers = 9" in capsys.readouterr().out

    def test_scenario_sweep_with_export(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
        target = tmp_path / "out.csv"
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "bp-dns-16k",
                    "--parallel",
                    "serial",
                    "--export",
                    str(target),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "optimal_workers" in output
        assert target.exists()

    def test_scenario_sweep_second_run_hits_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
        assert main(["scenario", "run", "figure1"]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", "figure1"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_cache_commands_cover_the_store_only(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["scenario", "run", "figure1", "--cache-dir", str(cache_dir)]) == 0
        # A file in the old top-level blob layout is not the store's.
        legacy = cache_dir / ("0" * 64 + ".json")
        legacy.write_text("{}")
        capsys.readouterr()

        assert main(["scenario", "cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert f"store directory: {cache_dir / 'store'}" in output
        assert "families:      1" in output
        assert "blob" not in output

        assert main(["scenario", "cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "blob" not in capsys.readouterr().out

        assert main(["scenario", "cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert capsys.readouterr().out.strip() == "removed 1 entry"
        assert legacy.exists()
        assert main(["scenario", "cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "families:      0" in capsys.readouterr().out


class TestScenarioBackendCli:
    def test_run_with_simulated_backend(self, capsys):
        assert main(["scenario", "run", "figure2", "--backend", "simulated", "--no-cache"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_backend_override_misses_analytic_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
        assert main(["scenario", "run", "figure1"]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", "figure1", "--backend", "simulated"]) == 0
        # A different backend is a different content hash: no cache hit.
        assert "cache hit" not in capsys.readouterr().out

    def test_simulated_backend_on_bp_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "bp-dns-16k", "--backend", "simulated"]) == 1
        assert "BSP-expressible" in capsys.readouterr().err

    def test_validate_reports_backend_kind(self, capsys):
        assert main(["scenario", "validate", "straggler-sweep"]) == 0
        assert "backend 'simulated'" in capsys.readouterr().out

    def test_straggler_sweep_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
        assert main(["scenario", "sweep", "straggler-sweep", "--parallel", "serial"]) == 0
        output = capsys.readouterr().out
        assert "straggler_fraction" in output

    def test_calibrate_builtin(self, capsys, tmp_path):
        target = tmp_path / "calibration.json"
        assert (
            main(
                [
                    "scenario",
                    "calibrate",
                    "figure2",
                    "--source",
                    "simulated",
                    "--export",
                    str(target),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "measured via simulated" in output
        assert "mape_pct" in output
        assert "best family:" in output
        document = json.loads(target.read_text())
        assert document["scenario"] == "figure2"
        assert document["ranking"]

    def test_calibrate_restricts_features(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "calibrate",
                    "figure2",
                    "--source",
                    "analytic",
                    "--features",
                    "spark,amdahl",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "spark" in output and "amdahl" in output
        assert "ernest" not in output

    def test_calibrate_unknown_features_fails_cleanly(self, capsys):
        assert (
            main(["scenario", "calibrate", "figure2", "--features", "bogus"]) == 1
        )
        assert "feature library" in capsys.readouterr().err

    def test_calibrate_csv_export_rejected(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert (
            main(["scenario", "calibrate", "figure2", "--export", str(target)]) == 1
        )
        assert ".json" in capsys.readouterr().err
