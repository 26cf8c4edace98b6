"""Pluggable evaluation backends: one protocol from algebra to simulator.

The paper validates its closed-form models against cluster experiments
and names "a feedback loop from experiments" as future work.  This
module is the seam that makes both first-class: an
:class:`EvaluationBackend` answers "how long does this workload take at
``n`` workers, for a whole grid of ``n``" — and *how* it answers is
interchangeable:

* :class:`AnalyticBackend` evaluates the model's cost-term tree (one
  vectorized numpy call — the paper's no-test-runs approach);
* :class:`~repro.simulate.backend.SimulatedBackend` runs the workload on
  the discrete-event cluster (the "experiment", with jitter, stragglers
  and framework overhead);
* :class:`CalibratedBackend` closes the loop: it measures through
  another backend, fits a parametric family to the measurements via
  :mod:`repro.core.calibration`, and evaluates the fitted family.

Backends evaluate an :class:`EvaluationTarget` — the analytical model
plus, when the workload is BSP-expressible, its transfer-level
:class:`~repro.simulate.workload.SimulationWorkload` — so the same
target flows through scenario sweeps, figure experiments and the CLI
regardless of which backend answers.
"""

from __future__ import annotations

import functools
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.calibration import CalibrationResult, feature_library, fit_linear_features
from repro.core.errors import ModelError
from repro.core.model import ScalabilityModel
from repro.core.speedup import SpeedupCurve
from repro.obs.metrics import get_registry
from repro.obs.trace import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps core import-light
    from repro.simulate.workload import SimulationWorkload

# Every concrete backend's ``evaluate`` is wrapped (see
# ``EvaluationBackend.__init_subclass__``) to feed these: batch spans
# when tracing is on, counters + a latency histogram always.
_REG = get_registry()
_EVALUATIONS = _REG.counter(
    "repro_backends_evaluations_total", "Backend evaluate() batches"
)
_POINTS = _REG.counter(
    "repro_backends_points_total", "Grid points evaluated across all backends"
)
_EVAL_SECONDS = _REG.histogram(
    "repro_backends_evaluate_seconds", "Wall time of backend evaluate() batches"
)
_KIND_COUNTERS: dict[str, object] = {}


def _kind_counter(name: str):
    counter = _KIND_COUNTERS.get(name)
    if counter is None:
        counter = _REG.counter(
            f"repro_backends_{name}_evaluations_total",
            f"evaluate() batches answered by the {name} backend",
        )
        _KIND_COUNTERS[name] = counter
    return counter


def _instrumented(fn):
    """Wrap a backend ``evaluate`` with telemetry.

    Tracing off costs one attribute check plus two counter increments
    per *batch* (a batch is a whole worker grid, >= 100us of numpy
    work), which is what keeps the disabled-overhead bench under its
    2% floor.
    """

    @functools.wraps(fn)
    def evaluate(self, target, workers):
        start = time.perf_counter()
        span = tracer().span(
            "backends.evaluate",
            {"backend": self.name, "target": target.label or target.key},
        )
        with span:
            result = fn(self, target, workers)
            span.set(points=int(np.size(result)))
        _EVAL_SECONDS.observe(time.perf_counter() - start)
        _EVALUATIONS.inc()
        _POINTS.inc(int(np.size(result)))
        _kind_counter(self.name).inc()
        return result

    evaluate.__instrumented__ = True
    return evaluate


@dataclass(frozen=True)
class EvaluationTarget:
    """What a backend evaluates: a model, and optionally its simulation.

    ``workload`` is ``None`` when the scenario is not BSP-expressible
    (e.g. the shared-memory belief-propagation estimator); only the
    analytic and calibrated-over-analytic backends can evaluate such
    targets.  ``key`` is a stable content identity for the grid point —
    the simulated backend folds it into its seed derivation so results
    do not depend on which process evaluates the point.
    """

    model: ScalabilityModel
    workload: "SimulationWorkload | None" = None
    key: str = ""
    label: str = ""


def _as_grid(workers: Iterable[int]) -> tuple[int, ...]:
    grid = tuple(int(n) for n in workers)
    if not grid:
        raise ModelError("a backend evaluation needs at least one worker count")
    if any(n < 1 for n in grid):
        raise ModelError(f"worker counts must be >= 1, got {min(grid)}")
    return grid


class EvaluationBackend(ABC):
    """Maps an :class:`EvaluationTarget` and a worker grid to seconds."""

    #: Short identifier, also used in scenario specs and cache keys.
    name: ClassVar[str] = "abstract"

    #: True when a grid point's time depends only on its own worker
    #: count — the property that makes union evaluation (``curves``, the
    #: service coalescer's one shared evaluation per batch) and
    #: progressive refinement (:mod:`repro.store.refine`) sound.  The
    #: calibrated backend opts out: its fit couples every point of a grid.
    pointwise: ClassVar[bool] = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("evaluate")
        if impl is not None and not getattr(impl, "__instrumented__", False):
            cls.evaluate = _instrumented(impl)

    @abstractmethod
    def evaluate(self, target: EvaluationTarget, workers: Iterable[int]) -> np.ndarray:
        """Execution time at every grid point, in the model's units."""

    def config(self) -> dict:
        """JSON-serialisable description of this backend's knobs.

        Recorded in every sweep-point payload (and hence in exports), so
        a result file states how it was produced.  Cache *keys* do not
        read it — they come from the spec's content hash, whose backend
        block already encodes the same knobs.
        """
        return {"backend": self.name}

    def curve(
        self,
        target: EvaluationTarget,
        workers: Iterable[int],
        baseline_workers: int = 1,
        label: str = "",
    ) -> SpeedupCurve:
        """Evaluate the target and wrap the result as a speedup curve.

        The baseline time comes from the grid when the baseline count is
        on it, and from one extra single-point evaluation otherwise —
        never from a different backend.
        """
        grid = _as_grid(workers)
        times = tuple(float(t) for t in self.evaluate(target, grid))
        if baseline_workers in grid:
            baseline_time = times[grid.index(baseline_workers)]
        else:
            baseline_time = float(self.evaluate(target, (baseline_workers,))[0])
        return SpeedupCurve(
            workers=grid,
            times=times,
            baseline_time=baseline_time,
            baseline_workers=baseline_workers,
            label=label or target.label,
        )

    def curves(
        self,
        target: EvaluationTarget,
        requests: Iterable[tuple[Iterable[int], int]],
        label: str = "",
    ) -> list[SpeedupCurve]:
        """Answer several ``(workers, baseline_workers)`` queries at once.

        The coalescing primitive behind the evaluation service: all
        requested grids (and their baselines) merge into one sorted union
        grid, the target is evaluated *once*, and each request's curve is
        sliced out of the union.  Sound whenever a grid point's time
        depends only on its own worker count — true for the analytic
        backend (element-wise cost trees) and the simulated backend
        (per-``n`` engines with per-``n`` derived seeds), so the sliced
        curves are bit-identical to individually evaluated ones.  The
        calibrated backend overrides this: its fit couples every point of
        a grid, so its queries must not share evaluations.
        """
        queries = [(_as_grid(grid), int(baseline)) for grid, baseline in requests]
        if not queries:
            return []
        union: set[int] = set()
        for grid, baseline in queries:
            union.update(grid)
            union.add(baseline)
        union_grid = tuple(sorted(union))
        times = {
            n: float(t)
            for n, t in zip(union_grid, self.evaluate(target, union_grid))
        }
        return [
            SpeedupCurve(
                workers=grid,
                times=tuple(times[n] for n in grid),
                baseline_time=times[baseline],
                baseline_workers=baseline,
                label=label or target.label,
            )
            for grid, baseline in queries
        ]


class AnalyticBackend(EvaluationBackend):
    """The closed-form path: one batched cost-tree evaluation per grid."""

    name: ClassVar[str] = "analytic"

    def evaluate(self, target: EvaluationTarget, workers: Iterable[int]) -> np.ndarray:
        grid = _as_grid(workers)
        return np.asarray(target.model.times(np.asarray(grid, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CalibrationOutcome:
    """A calibrated backend's fit, with everything the report needs."""

    features: str
    workers: tuple[int, ...]
    measured: tuple[float, ...]
    result: CalibrationResult

    @property
    def fitted(self) -> tuple[float, ...]:
        """The fitted family evaluated back on the measurement grid."""
        return tuple(self.result.model.time(n) for n in self.workers)


@dataclass(frozen=True)
class CalibratedBackend(EvaluationBackend):
    """The paper's future-work feedback loop, as a backend.

    Measures the target through ``source`` (any other backend), fits the
    named non-negative linear feature family (see
    :data:`~repro.core.calibration.FEATURE_LIBRARIES`) to the measured
    ``(workers, seconds)`` pairs, and evaluates the *fitted* family —
    a smooth, extrapolatable curve even when the source is stochastic.
    """

    source: EvaluationBackend = field(default_factory=AnalyticBackend)
    features: str = "ernest"

    name: ClassVar[str] = "calibrated"

    #: A fit couples every point of its grid: which workers are
    #: requested changes the fitted family, so union grids, shared
    #: buffers and refinement subsets would all change the answers.
    pointwise: ClassVar[bool] = False

    def calibrate(
        self, target: EvaluationTarget, workers: Iterable[int]
    ) -> CalibrationOutcome:
        """Measure through the source backend and fit the feature family."""
        grid = _as_grid(workers)
        measured = self.source.evaluate(target, grid)
        result = fit_linear_features(feature_library(self.features), grid, measured)
        return CalibrationOutcome(
            features=self.features,
            workers=grid,
            measured=tuple(float(t) for t in measured),
            result=result,
        )

    def evaluate(self, target: EvaluationTarget, workers: Iterable[int]) -> np.ndarray:
        outcome = self.calibrate(target, workers)
        return np.asarray(outcome.fitted, dtype=float)

    def curve(
        self,
        target: EvaluationTarget,
        workers: Iterable[int],
        baseline_workers: int = 1,
        label: str = "",
    ) -> SpeedupCurve:
        """Fit once on the grid; an off-grid baseline extrapolates the fit.

        The base implementation would re-*fit* on the single baseline
        point (impossible: a fit needs as many measurements as
        parameters); the fitted family itself is the right instrument
        for off-grid queries.
        """
        grid = _as_grid(workers)
        outcome = self.calibrate(target, grid)
        times = outcome.fitted
        if baseline_workers in grid:
            baseline_time = times[grid.index(baseline_workers)]
        else:
            baseline_time = outcome.result.model.time(baseline_workers)
        return SpeedupCurve(
            workers=grid,
            times=times,
            baseline_time=baseline_time,
            baseline_workers=baseline_workers,
            label=label or target.label,
        )

    def curves(
        self,
        target: EvaluationTarget,
        requests: Iterable[tuple[Iterable[int], int]],
        label: str = "",
    ) -> list[SpeedupCurve]:
        """Each query fits on its own grid — union evaluation would let
        one request's worker counts change another's fitted family."""
        return [
            self.curve(target, grid, baseline, label=label)
            for grid, baseline in requests
        ]

    def config(self) -> dict:
        return {
            "backend": self.name,
            "source": self.source.config(),
            "features": self.features,
        }
