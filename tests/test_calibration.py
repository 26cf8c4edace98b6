"""Tests for repro.core.calibration."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import SparksModel
from repro.core.calibration import (
    compare_models,
    fit_linear_features,
    fit_time_family,
)
from repro.core.errors import CalibrationError
from repro.core.model import CallableModel


def log_family(workers: np.ndarray, params: np.ndarray) -> np.ndarray:
    """t(n) = a/n + b*log2(n) + c — the shape of the paper's GD model."""
    a, b, c = params
    return a / workers + b * np.log2(workers) + c


class TestFitTimeFamily:
    def test_recovers_known_parameters(self):
        workers = np.arange(1, 21)
        truth = (50.0, 1.5, 2.0)
        times = log_family(workers.astype(float), np.array(truth))
        result = fit_time_family(log_family, (1.0, 1.0, 1.0), workers, times)
        assert result.params == pytest.approx(truth, rel=1e-4)
        assert result.mape_pct < 1e-6
        assert result.r2 == pytest.approx(1.0)

    def test_calibrated_model_predicts_off_grid(self):
        workers = [1, 2, 4, 8, 16]
        times = [log_family(np.array([float(n)]), np.array([50.0, 1.5, 2.0]))[0] for n in workers]
        result = fit_time_family(log_family, (1.0, 1.0, 1.0), workers, times)
        expected = 50.0 / 12 + 1.5 * math.log2(12) + 2.0
        assert result.model.time(12) == pytest.approx(expected, rel=1e-3)

    def test_noisy_fit_reports_error(self):
        rng = np.random.default_rng(7)
        workers = np.arange(1, 31)
        clean = log_family(workers.astype(float), np.array([50.0, 1.5, 2.0]))
        noisy = clean * (1.0 + rng.normal(0, 0.05, clean.shape))
        result = fit_time_family(log_family, (1.0, 1.0, 1.0), workers, noisy)
        assert 0.0 < result.mape_pct < 15.0

    def test_too_few_points_rejected(self):
        with pytest.raises(CalibrationError):
            fit_time_family(log_family, (1.0, 1.0, 1.0), [1, 2], [3.0, 2.0])

    def test_nonpositive_times_rejected(self):
        with pytest.raises(CalibrationError):
            fit_time_family(log_family, (1.0, 1.0, 1.0), [1, 2, 3], [1.0, -2.0, 1.0])


class TestFitLinearFeatures:
    def test_ernest_style_fit(self):
        features = [
            lambda n: 1.0,
            lambda n: 1.0 / n,
            lambda n: math.log2(n) if n > 1 else 0.0,
        ]
        workers = [1, 2, 4, 8, 16, 32]
        times = [3.0 + 60.0 / n + 0.4 * (math.log2(n) if n > 1 else 0.0) for n in workers]
        result = fit_linear_features(features, workers, times)
        assert result.params == pytest.approx((3.0, 60.0, 0.4), rel=1e-6)

    def test_nnls_clamps_to_nonnegative(self):
        features = [lambda n: 1.0, lambda n: float(n)]
        workers = [1, 2, 3, 4]
        times = [10.0 - 0.1 * n for n in workers]  # would need a negative slope
        result = fit_linear_features(features, workers, times)
        assert all(p >= 0 for p in result.params)

    def test_empty_features_rejected(self):
        with pytest.raises(CalibrationError):
            fit_linear_features([], [1, 2], [1.0, 1.0])


class TestCompareModels:
    def test_ranks_by_mape(self):
        truth = lambda n: 100.0 / n + 2.0 * n
        workers = list(range(1, 11))
        times = [truth(n) for n in workers]
        good = CallableModel(truth)
        bad = SparksModel(compute_seconds=100.0, communication_seconds=4.0)
        ranking = compare_models({"good": good, "bad": bad}, workers, times)
        assert ranking[0][0] == "good"
        assert ranking[0][1] < ranking[1][1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(CalibrationError):
            compare_models({}, [1], [1.0])


class TestLazyScipyLint:
    """scipy is imported by the fits that use it, never at import time."""

    def test_scipy_imported_only_inside_functions(self):
        src = Path(__file__).resolve().parent.parent / "src"
        eager = []
        for path in src.rglob("*.py"):
            tree = ast.parse(path.read_text())
            nested = {
                id(node)
                for function in ast.walk(tree)
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(function)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "scipy" for m in modules) and id(node) not in nested:
                    eager.append(f"{path.relative_to(src)}:{node.lineno}")
        assert eager == []

    def test_entry_points_do_not_load_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys, repro.cli, repro.service.app, repro.planner.search;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
