"""Calibration: fit model parameters from measured runs.

The paper deliberately avoids profiling ("does not require any test runs"),
but its conclusion names *incorporating a feedback loop from experiments*
as future work — they found the BP model benefits from it.  This module is
that feedback loop: given measured ``(workers, seconds)`` pairs, fit free
parameters of an analytical model by least squares, and compare candidate
models by MAPE.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import CalibrationError
from repro.core.metrics import mape, r_squared, rmse
from repro.core.model import CallableModel, ScalabilityModel

#: A parametric time family: ``family(workers, params) -> seconds``.
TimeFamily = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Named feature sets for :func:`fit_linear_features`, used by the
#: calibrated evaluation backend and the ``scenario calibrate`` CLI.
#: Each is a tuple of scalar ``n -> value`` features; the fit finds
#: non-negative coefficients for ``t(n) = sum_j theta_j * f_j(n)``.
FEATURE_LIBRARIES: dict[str, tuple[Callable[[float], float], ...]] = {
    # Venkataraman et al.'s Ernest features: fixed cost, perfectly
    # parallel work, tree communication, serialised communication.
    "ernest": (
        lambda n: 1.0,
        lambda n: 1.0 / n,
        lambda n: math.log2(n) if n > 1 else 0.0,
        lambda n: float(n),
    ),
    # The paper's generic gradient-descent shape (Section IV-A).
    "gd-log": (
        lambda n: 1.0 / n,
        lambda n: math.log2(n) if n > 1 else 0.0,
    ),
    # The Figure 2 Spark shape: torrent log plus two-wave sqrt waves.
    "spark": (
        lambda n: 1.0 / n,
        lambda n: math.log2(n) if n > 1 else 0.0,
        lambda n: math.ceil(math.sqrt(n)),
    ),
    # Amdahl's law: serial fraction plus parallel remainder.
    "amdahl": (
        lambda n: 1.0,
        lambda n: 1.0 / n,
    ),
}


def feature_library(name: str) -> tuple[Callable[[float], float], ...]:
    """The named feature set, with the valid names listed on a miss."""
    try:
        return FEATURE_LIBRARIES[name]
    except KeyError:
        known = ", ".join(sorted(FEATURE_LIBRARIES))
        raise CalibrationError(f"unknown feature library {name!r}; known: {known}")


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of fitting a parametric family to measurements."""

    params: tuple[float, ...]
    mape_pct: float
    rmse_s: float
    r2: float
    model: ScalabilityModel

    def __str__(self) -> str:
        params = ", ".join(f"{p:.4g}" for p in self.params)
        return f"CalibrationResult(params=[{params}], MAPE={self.mape_pct:.2f}%, R2={self.r2:.4f})"


def _validate(workers: Sequence[int], times: Sequence[float], n_params: int) -> tuple[np.ndarray, np.ndarray]:
    workers_arr = np.asarray(workers, dtype=float)
    times_arr = np.asarray(times, dtype=float)
    if workers_arr.ndim != 1 or times_arr.ndim != 1 or workers_arr.size != times_arr.size:
        raise CalibrationError("workers and times must be equal-length vectors")
    if workers_arr.size < n_params:
        raise CalibrationError(
            f"need at least {n_params} measurements to fit {n_params} parameters, got {workers_arr.size}"
        )
    if np.any(workers_arr < 1):
        raise CalibrationError("worker counts must be >= 1")
    if np.any(times_arr <= 0):
        raise CalibrationError("measured times must be positive")
    return workers_arr, times_arr


def fit_time_family(
    family: TimeFamily,
    initial_params: Sequence[float],
    workers: Sequence[int],
    times: Sequence[float],
    bounds: tuple[Sequence[float], Sequence[float]] | None = None,
) -> CalibrationResult:
    """Fit ``family`` to measurements with non-linear least squares.

    ``family`` receives a vector of worker counts and the parameter vector
    and returns predicted seconds.  ``bounds`` defaults to non-negative
    parameters, which is the right prior for time coefficients.
    """
    import scipy.optimize  # ~0.6 s on first import; only fits pay it

    initial = np.asarray(initial_params, dtype=float)
    workers_arr, times_arr = _validate(workers, times, initial.size)
    if bounds is None:
        bounds = (np.zeros_like(initial), np.full_like(initial, np.inf))

    def residuals(params: np.ndarray) -> np.ndarray:
        predicted = np.asarray(family(workers_arr, params), dtype=float)
        # Relative residuals: calibration should weight small-time points
        # (large worker counts) as much as the single-node run, the same
        # reason the paper analyses speedup instead of raw time.
        return (predicted - times_arr) / times_arr

    solution = scipy.optimize.least_squares(residuals, initial, bounds=bounds)
    if not solution.success:
        raise CalibrationError(f"least-squares fit failed: {solution.message}")
    params = tuple(float(p) for p in solution.x)
    predicted = np.asarray(family(workers_arr, solution.x), dtype=float)
    if np.any(predicted <= 0):
        raise CalibrationError("fitted family predicts non-positive times on the data grid")

    fitted_params = np.array(params)
    model = CallableModel(
        fn=lambda n: float(family(np.asarray([float(n)]), fitted_params)[0]),
        label="calibrated",
    )
    r2 = r_squared(times_arr, predicted) if np.unique(times_arr).size > 1 else 1.0
    return CalibrationResult(
        params=params,
        mape_pct=mape(times_arr, predicted),
        rmse_s=rmse(times_arr, predicted),
        r2=r2,
        model=model,
    )


def fit_linear_features(
    features: Sequence[Callable[[float], float]],
    workers: Sequence[int],
    times: Sequence[float],
) -> CalibrationResult:
    """Fit ``t(n) = sum_j theta_j * feature_j(n)`` with theta >= 0 (NNLS).

    This is the Ernest-style fit: the family is linear in its parameters,
    so non-negative least squares finds the global optimum directly.  The
    residuals are *relative* (each row is scaled by its measured time),
    for the same reason :func:`fit_time_family` uses relative residuals:
    the small-time points at large worker counts must weigh as much as
    the single-node run, or the fit ignores exactly the regime scaling
    studies care about.
    """
    import scipy.optimize  # ~0.6 s on first import; only fits pay it

    if not features:
        raise CalibrationError("need at least one feature")
    workers_arr, times_arr = _validate(workers, times, len(features))
    matrix = np.array([[f(float(n)) for f in features] for n in workers_arr], dtype=float)
    # Row-scaling by 1/t turns ||A0 - t|| into the relative objective
    # ||A0/t - 1|| while keeping the problem NNLS-solvable.
    coeffs, _ = scipy.optimize.nnls(
        matrix / times_arr[:, np.newaxis], np.ones_like(times_arr)
    )
    predicted = matrix @ coeffs
    if np.any(predicted <= 0):
        raise CalibrationError("NNLS fit predicts non-positive times on the data grid")

    feature_tuple = tuple(features)
    coeff_arr = coeffs.copy()
    model = CallableModel(
        fn=lambda n: float(sum(c * f(float(n)) for c, f in zip(coeff_arr, feature_tuple))),
        label="nnls",
    )
    r2 = r_squared(times_arr, predicted) if np.unique(times_arr).size > 1 else 1.0
    return CalibrationResult(
        params=tuple(float(c) for c in coeffs),
        mape_pct=mape(times_arr, predicted),
        rmse_s=rmse(times_arr, predicted),
        r2=r2,
        model=model,
    )


def compare_models(
    models: dict[str, ScalabilityModel],
    workers: Sequence[int],
    times: Sequence[float],
) -> list[tuple[str, float]]:
    """Rank candidate models by MAPE against measurements (best first)."""
    if not models:
        raise CalibrationError("need at least one candidate model")
    workers_arr, times_arr = _validate(workers, times, 1)
    ranking = []
    for name, model in models.items():
        # One batched evaluation per candidate — the cost-algebra path —
        # instead of the deprecated per-point scalar time() loop.
        predicted = np.asarray(model.times(workers_arr), dtype=float)
        ranking.append((name, mape(times_arr, predicted)))
    ranking.sort(key=lambda pair: pair[1])
    return ranking
