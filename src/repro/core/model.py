"""Scalability-model base classes.

A *scalability model* maps worker counts to execution times; everything
else (speedup curves, optimal node counts, planning) derives from it.
The primary evaluation API is batched — ``times(workers)`` answers a
whole grid in one vectorized numpy call — and models are *term trees*:
a subclass overrides :meth:`ScalabilityModel.cost` to return a
:class:`~repro.core.complexity.CostTerm`, and the base class derives
``times``, scalar ``time``, ``decompose`` and the speedup helpers from
it.  The paper's per-algorithm models in :mod:`repro.models` are all
expressed this way; :class:`BSPModel` covers the common ``t = tcp + tcm``
case directly.

Legacy subclasses that only override scalar ``time`` keep working: the
batched entry point falls back to a point-by-point loop for them.
"""

from __future__ import annotations

from abc import ABC
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.complexity import (
    CostTerm,
    NamedCost,
    ScaledCost,
    SumCost,
    TabulatedCost,
    as_worker_array,
    merge_components,
)
from repro.core.errors import ModelError
from repro.core.speedup import SpeedupCurve, speedup_grid


class ScalabilityModel(ABC):
    """Maps worker counts ``n`` to execution times ``t(n)`` in seconds.

    Subclasses override **either** :meth:`cost` (preferred — a composable
    term tree that vectorizes and decomposes for free) **or** scalar
    :meth:`time` (escape hatch for models with no closed-form term
    structure).
    """

    def cost(self) -> CostTerm:
        """The model's cost-term tree (see :mod:`repro.core.complexity`).

        Overriding this single method gives a model batched evaluation,
        generic decomposition and every speedup helper.
        """
        raise NotImplementedError(f"{type(self).__name__} does not define a cost tree")

    def _has_cost_tree(self) -> bool:
        return type(self).cost is not ScalabilityModel.cost

    def _cost_tree(self) -> CostTerm:
        """The model's cost tree, built once per (frozen) instance."""
        tree = self.__dict__.get("_cost_tree_cache")
        if tree is None:
            tree = self.cost()
            object.__setattr__(self, "_cost_tree_cache", tree)
        return tree

    def times(self, workers: Iterable[int] | np.ndarray) -> np.ndarray:
        """Modelled execution time at every grid point — one batched call."""
        grid = as_worker_array(workers)
        if self._has_cost_tree():
            return self._cost_tree()._times(grid)
        if type(self).time is ScalabilityModel.time:
            raise TypeError(
                f"{type(self).__name__} must override either cost() or time()"
            )
        return np.array([self.time(int(n)) for n in grid], dtype=float)

    def time(self, workers: int) -> float:
        """Modelled execution time on ``workers`` homogeneous nodes.

        A thin scalar wrapper over :meth:`times`, so scalar and batched
        evaluation cannot drift apart.
        """
        if workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        return float(self.times(np.asarray([workers], dtype=float))[0])

    def continuous_times(self, workers: Iterable[float] | np.ndarray) -> np.ndarray:
        """Evaluate the cost tree at *real-valued* worker counts ``>= 1``.

        The paper's closed forms are smooth functions of ``n`` (``c/n``,
        ``log2 n``, …), so between grid points they define the analytic
        continuation the planner's golden-section refinement searches
        (:func:`repro.core.scaling.refine_optimal_workers`).  Fractional
        counts are deliberately rejected by :meth:`times` — a grid
        evaluation must never silently accept what the scalar API refuses
        — so continuation is a separate, explicitly-named entry point.
        Only available for term-tree models; tabulated terms (measured or
        Monte-Carlo-backed grids) raise off their recorded counts.
        """
        array = np.asarray(workers, dtype=float)
        if array.ndim == 0:
            array = array.reshape(1)
        if array.ndim != 1 or array.size == 0:
            raise ModelError("continuous worker grids must be non-empty and 1-D")
        if not np.all(np.isfinite(array)) or np.any(array < 1):
            raise ModelError("continuous worker counts must be finite and >= 1")
        if not self._has_cost_tree():
            raise ModelError(
                f"{type(self).__name__} has no cost tree; continuous_times()"
                " is only available for term-tree models"
            )
        return self._cost_tree()._times(array)

    def decompose(self, workers: Iterable[int] | np.ndarray) -> dict[str, np.ndarray]:
        """Labeled component arrays summing to ``times(workers)``.

        Models with a cost tree decompose into their named terms (e.g.
        ``{"computation": ..., "communication": ...}``); models without
        one report a single ``"total"`` entry.
        """
        grid = as_worker_array(workers)
        if self._has_cost_tree():
            return merge_components(self._cost_tree()._components(grid))
        return {"total": self.times(grid)}

    def baseline_time(self, baseline_workers: int = 1) -> float:
        """``t(baseline)``, cached per instance.

        ``speedup`` is called in tight loops with the same baseline; the
        baseline evaluation is pure (models are frozen), so it is cached
        on first use instead of recomputed per call.
        """
        cache = self.__dict__.get("_baseline_cache")
        if cache is None:
            cache = {}
            # Works on frozen dataclasses too: the cache is not a field.
            object.__setattr__(self, "_baseline_cache", cache)
        if baseline_workers not in cache:
            cache[baseline_workers] = self.time(baseline_workers)
        return cache[baseline_workers]

    def speedup(self, workers: int, baseline_workers: int = 1) -> float:
        """``s(n) = t(baseline) / t(n)``."""
        denominator = self.time(workers)
        if denominator <= 0:
            raise ModelError(
                f"cannot compute speedup: t({workers}) = {denominator} is not positive"
            )
        return self.baseline_time(baseline_workers) / denominator

    def curve(self, workers: Iterable[int], baseline_workers: int = 1) -> SpeedupCurve:
        """Evaluate the model on an explicit worker grid (batched)."""
        return SpeedupCurve.from_model(
            self, workers, baseline_workers, label=type(self).__name__
        )

    def grid(self, max_workers: int) -> SpeedupCurve:
        """Evaluate the model on ``1..max_workers``."""
        return speedup_grid(self, max_workers)

    def optimal_workers(self, max_workers: int) -> int:
        """``argmax s(n)`` over ``1..max_workers`` — the paper's ``N``."""
        return self.grid(max_workers).optimal_workers


@dataclass(frozen=True)
class BSPModel(ScalabilityModel):
    """A bulk-synchronous-parallel algorithm: supersteps of ``tcp + tcm``.

    ``computation`` and ``communication`` are cost terms; ``iterations``
    multiplies the superstep (the paper ignores one-off initialisation
    because iteration counts are large, and so do we).
    """

    computation: CostTerm
    communication: CostTerm
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ModelError(f"iterations must be >= 1, got {self.iterations}")

    def cost(self) -> CostTerm:
        step = SumCost(
            (
                NamedCost("computation", self.computation, kind="computation"),
                NamedCost("communication", self.communication, kind="communication"),
            )
        )
        return ScaledCost(step, float(self.iterations))

    def superstep_time(self, workers: int) -> float:
        """Time of a single superstep at ``workers`` nodes."""
        return self.computation.time(workers) + self.communication.time(workers)


@dataclass(frozen=True)
class CallableModel(ScalabilityModel):
    """Wrap an arbitrary ``workers -> seconds`` function as a model."""

    fn: Callable[[int], float]
    label: str = "callable"

    def time(self, workers: int) -> float:
        if workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        value = float(self.fn(workers))
        if value <= 0:
            raise ModelError(f"model {self.label!r} returned non-positive time {value}")
        return value


@dataclass(frozen=True)
class MeasuredModel(ScalabilityModel):
    """A 'model' backed by measurements on a fixed grid.

    Lets measured data flow through the same analysis APIs (speedup
    curves, MAPE comparisons) as analytical models.  Queries off the grid
    raise — we never silently interpolate measurements.
    """

    measurements: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.measurements:
            raise ModelError("MeasuredModel needs at least one measurement")
        seen = set()
        for workers, seconds in self.measurements:
            if workers < 1:
                raise ModelError(f"worker counts must be >= 1, got {workers}")
            if seconds <= 0:
                raise ModelError(f"measured times must be positive, got {seconds}")
            if workers in seen:
                raise ModelError(f"duplicate measurement for {workers} workers")
            seen.add(workers)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "MeasuredModel":
        """Build from any iterable of ``(workers, seconds)`` pairs."""
        return cls(tuple((int(n), float(t)) for n, t in pairs))

    def cost(self) -> CostTerm:
        return NamedCost(
            "measured",
            TabulatedCost(
                tuple(sorted(self.measurements)), description="measurement"
            ),
        )

    @property
    def workers(self) -> tuple[int, ...]:
        """The measured grid, in recording order."""
        return tuple(n for n, _ in self.measurements)
