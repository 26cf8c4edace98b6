"""Speedup curves — the paper's central measuring instrument.

Section III: ``s(n) = t(1) / t(n)``; the algorithm is *scalable* if some
``k`` gives ``s(k) > 1``; the optimal number of nodes is
``N = argmax s(n)``.  Speedup is preferred over raw time because it
cancels proportional systematic errors (e.g. the exact fraction of peak
FLOPS reached).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.errors import ModelError

TimeFunction = Callable[[int], float]

#: Either a scalar ``workers -> seconds`` callable or any object with a
#: batched ``times(grid) -> np.ndarray`` method (a ScalabilityModel or a
#: CostTerm).  Batched sources are evaluated in one vectorized call.
TimeSource = TimeFunction


def _evaluate_times(source: TimeSource, workers: Sequence[int]) -> list[float]:
    """Evaluate a time source on a grid — one numpy call when batched."""
    if hasattr(source, "times"):
        return [float(t) for t in source.times(np.asarray(workers, dtype=float))]
    return [float(source(n)) for n in workers]


def derive_curve(
    times: Sequence[float] | np.ndarray,
    workers: Sequence[int] | np.ndarray,
    baseline_time: float,
    baseline_workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(speedups, efficiencies)`` of one curve, as float64 arrays.

    The one place the paper's arithmetic lives: ``s(n) = t(b) / t(n)``,
    then ``e(n) = s(n) * b / n`` — in that operation order, so numpy's
    IEEE-double results equal the Python-float expressions
    ``[t_b / t for t in times]`` and ``[s * b / n ...]`` bit for bit.
    """
    # Python floats overflow to inf silently; so does this.
    with np.errstate(over="ignore"):
        speedups = baseline_time / np.asarray(times, dtype=float)
        efficiencies = speedups * baseline_workers / np.asarray(workers, dtype=float)
    return speedups, efficiencies


class _Derived(NamedTuple):
    """Everything a :class:`SpeedupCurve` derives from its times."""

    speedups: tuple[float, ...]
    efficiencies: tuple[float, ...]
    peak_speedup: float
    optimal_workers: int
    is_scalable: bool


@dataclass(frozen=True)
class SpeedupCurve:
    """A speedup curve evaluated on a grid of worker counts.

    ``times[i]`` is the modelled (or measured) execution time with
    ``workers[i]`` nodes.  ``baseline_time`` is ``t(1)``; when the grid
    contains ``workers == 1`` it defaults to that entry.  ``baseline_workers``
    records the reference point (1 for ordinary speedup; Figure 3 of the
    paper uses 50).
    """

    workers: tuple[int, ...]
    times: tuple[float, ...]
    baseline_time: float
    baseline_workers: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.workers) != len(self.times):
            raise ModelError("workers and times must have the same length")
        if not self.workers:
            raise ModelError("a speedup curve needs at least one point")
        if any(n < 1 for n in self.workers):
            raise ModelError("worker counts must be >= 1")
        if len(set(self.workers)) != len(self.workers):
            raise ModelError("worker counts must be unique")
        if any(t <= 0 for t in self.times):
            raise ModelError("times must be positive")
        if self.baseline_time <= 0:
            raise ModelError("baseline_time must be positive")
        if self.baseline_workers < 1:
            raise ModelError("baseline_workers must be >= 1")

    @classmethod
    def from_times(
        cls,
        workers: Sequence[int],
        times: Sequence[float],
        baseline_workers: int = 1,
        label: str = "",
    ) -> "SpeedupCurve":
        """Build a curve, taking ``t(baseline_workers)`` from the grid itself."""
        workers_t = tuple(int(n) for n in workers)
        times_t = tuple(float(t) for t in times)
        if baseline_workers not in workers_t:
            raise ModelError(
                f"baseline worker count {baseline_workers} is not on the grid {workers_t}"
            )
        baseline_time = times_t[workers_t.index(baseline_workers)]
        return cls(workers_t, times_t, baseline_time, baseline_workers, label)

    @classmethod
    def from_model(
        cls,
        model: TimeSource,
        workers: Iterable[int],
        baseline_workers: int = 1,
        label: str = "",
    ) -> "SpeedupCurve":
        """Evaluate a time source on a grid and on the baseline point.

        ``model`` may be a scalar ``workers -> seconds`` callable (the
        historical API) or anything exposing batched ``times`` (a
        :class:`~repro.core.model.ScalabilityModel`), in which case the
        whole grid is one vectorized evaluation.  The baseline time is
        taken from the grid when the baseline lies on it — never
        recomputed.
        """
        workers_t = tuple(int(n) for n in workers)
        times_t = tuple(_evaluate_times(model, workers_t))
        if baseline_workers in workers_t:
            baseline_time = times_t[workers_t.index(baseline_workers)]
        else:
            baseline_time = _evaluate_times(model, (baseline_workers,))[0]
        return cls(workers_t, times_t, baseline_time, baseline_workers, label)

    @property
    def _derived(self) -> _Derived:
        """The derived values, computed once per (frozen) instance.

        Cached by hand, not with ``functools.cached_property``: before
        Python 3.12 that serialises the first access of *every* instance
        behind one class-wide lock, across all of the service's threads.
        """
        derived = self.__dict__.get("_derived_cache")
        if derived is None:
            speedups, efficiencies = derive_curve(
                self.times, self.workers, self.baseline_time, self.baseline_workers
            )
            speedups_t = tuple(speedups.tolist())
            peak = max(speedups_t)
            derived = _Derived(
                speedups=speedups_t,
                efficiencies=tuple(efficiencies.tolist()),
                peak_speedup=peak,
                optimal_workers=min(
                    n for n, s in zip(self.workers, speedups_t) if s == peak
                ),
                is_scalable=any(s > 1.0 + 1e-12 for s in speedups_t),
            )
            # Works on the frozen dataclass: the cache is not a field.
            object.__setattr__(self, "_derived_cache", derived)
        return derived

    @property
    def speedups(self) -> tuple[float, ...]:
        """``s(n) = t(baseline) / t(n)`` for every grid point."""
        return self._derived.speedups

    @property
    def efficiencies(self) -> tuple[float, ...]:
        """Parallel efficiency ``s(n) * baseline_workers / n``."""
        return self._derived.efficiencies

    def speedup_at(self, workers: int) -> float:
        """Speedup at one grid point; raises if the point is absent."""
        if workers not in self.workers:
            raise ModelError(f"worker count {workers} is not on the grid")
        return self.speedups[self.workers.index(workers)]

    @property
    def optimal_workers(self) -> int:
        """``argmax s(n)`` over the grid (the paper's optimal node count).

        Ties are broken toward the **smallest** worker count reaching the
        peak: when several counts achieve exactly the same speedup (flat
        plateaus are common — Spark's ``ceil(sqrt(n))`` aggregation makes
        whole ranges of ``n`` equivalent), recommending more machines for
        the same speedup would be indefensible in a provisioning decision.
        Tie detection uses exact float equality; nearly-equal points are
        distinct points.
        """
        return self._derived.optimal_workers

    def knee(self, fraction: float = 0.95) -> int:
        """Smallest worker count reaching ``fraction`` of the peak speedup.

        The diminishing-returns point: past the knee, the remaining
        ``(1 - fraction)`` of the peak costs disproportionally many
        machines.  The capacity planner reports it alongside the argmax
        because the knee, not the peak, is usually the economic optimum.
        ``fraction`` must be in ``(0, 1]``; ``knee(1.0)`` equals
        :attr:`optimal_workers`.
        """
        if not 0.0 < fraction <= 1.0:
            raise ModelError(f"knee fraction must be in (0, 1], got {fraction}")
        speedups = self.speedups
        threshold = fraction * self.peak_speedup
        return min(n for n, s in zip(self.workers, speedups) if s >= threshold)

    @property
    def peak_speedup(self) -> float:
        """``max s(n)`` over the grid."""
        return self._derived.peak_speedup

    @property
    def is_scalable(self) -> bool:
        """True if some grid point beats the baseline (``s(k) > 1``)."""
        return self._derived.is_scalable

    def rows(self) -> list[dict[str, float]]:
        """Tabular form for reports: one dict per grid point."""
        return [
            {
                "workers": n,
                "time_s": t,
                "speedup": s,
                "efficiency": e,
            }
            for n, t, s, e in zip(self.workers, self.times, self.speedups, self.efficiencies)
        ]


def speedup_grid(model: TimeSource, max_workers: int, baseline_workers: int = 1) -> SpeedupCurve:
    """Evaluate a time source on ``1..max_workers`` and wrap as a curve."""
    if max_workers < 1:
        raise ModelError(f"max_workers must be >= 1, got {max_workers}")
    return SpeedupCurve.from_model(model, range(1, max_workers + 1), baseline_workers)


def optimal_workers(model: TimeSource, max_workers: int) -> int:
    """``argmax_{1<=n<=max_workers} s(n)`` — the paper's ``N``."""
    return speedup_grid(model, max_workers).optimal_workers


def scalability_limit(model: TimeSource, max_workers: int, tolerance: float = 0.0) -> int:
    """Largest ``n`` whose marginal speedup is still positive.

    Returns the last worker count at which adding a node improved the time
    by more than ``tolerance`` (relative).  Useful for answering "when do
    extra machines stop helping at all", which can differ from the argmax
    on jagged curves like Spark's ``ceil(sqrt(n))`` aggregation.
    """
    if max_workers < 1:
        raise ModelError(f"max_workers must be >= 1, got {max_workers}")
    times = _evaluate_times(model, range(1, max_workers + 1))
    best = 1
    previous = times[0]
    for n, current in zip(range(2, max_workers + 1), times[1:]):
        if current < previous * (1.0 - tolerance):
            best = n
        previous = current
    return best


def crossover_workers(
    model_a: TimeSource, model_b: TimeSource, max_workers: int
) -> int | None:
    """Smallest ``n`` at which ``model_b`` becomes faster than ``model_a``.

    Used by the benches to locate who-wins-where crossovers between
    communication topologies.  Returns ``None`` if B never wins on the grid.

    Deliberately evaluates point by point with an early exit: a
    table-backed model measured only up to the crossover must still
    report it, and expensive models stop paying once B wins.
    """
    if max_workers < 1:
        raise ModelError(f"max_workers must be >= 1, got {max_workers}")
    fn_a = model_a.time if hasattr(model_a, "time") else model_a
    fn_b = model_b.time if hasattr(model_b, "time") else model_b
    for n in range(1, max_workers + 1):
        if fn_b(n) < fn_a(n):
            return n
    return None
