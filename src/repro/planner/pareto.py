"""Cost-vs-time Pareto frontier with dominated-point elimination.

A candidate configuration *dominates* another when it is no worse on
both axes (cost and time) and strictly better on at least one.  The
frontier is the set of non-dominated candidates — every point a rational
planner could defend picking, whatever their exchange rate between
dollars and seconds.  Points that tie exactly on both axes do not
dominate each other; all of them are kept (they are genuinely
interchangeable configurations, and a report should show the choice).

The implementation is the classic sort-and-scan, over columns
(:func:`frontier_indices`): sort by (cost, time), keep a point iff it is
strictly faster than everything cheaper already kept.  Ordering is
deterministic — ties beyond (cost, time) preserve the candidate
evaluation order — which is what makes frontier payloads
byte-identical between serial and process-pool plan evaluation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.errors import PlanError


def dominates(cost_a: float, time_a: float, cost_b: float, time_b: float) -> bool:
    """Whether point A dominates point B on (cost, time)."""
    return (
        cost_a <= cost_b
        and time_a <= time_b
        and (cost_a < cost_b or time_a < time_b)
    )


def frontier_indices(cost: np.ndarray, time: np.ndarray) -> np.ndarray:
    """Positions of the non-dominated (cost, time) pairs, in frontier order.

    ``cost`` and ``time`` are equal-length float arrays, one entry per
    candidate.  The scan: order by (cost, time, position); a candidate is
    kept when it is strictly faster than every candidate before it, and
    an exact (cost, time) tie is kept exactly when the first of its tie
    group is.  ``np.lexsort`` is stable, so ties beyond (cost, time)
    keep input order.
    """
    cost = np.asarray(cost, dtype=np.float64)
    time = np.asarray(time, dtype=np.float64)
    count = cost.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((time, cost))
    cost, time = cost[order], time[order]
    # The fastest time among all earlier candidates: a candidate that was
    # not kept never lowers it, so this is also the best *kept* time.
    best_before = np.empty(count)
    best_before[0] = np.inf
    np.minimum.accumulate(time[:-1], out=best_before[1:])
    faster = time < best_before
    starts = np.ones(count, dtype=bool)
    starts[1:] = (cost[1:] != cost[:-1]) | (time[1:] != time[:-1])
    group_start = np.maximum.accumulate(np.where(starts, np.arange(count), 0))
    return order[faster[group_start]]


def pareto_frontier(
    points: Sequence[Mapping[str, object]],
    cost_key: str = "cost_usd",
    time_key: str = "time_s",
) -> list[dict[str, object]]:
    """The non-dominated subset of ``points``, sorted by ascending cost.

    Each point is a mapping carrying at least ``cost_key`` and
    ``time_key``; the returned dicts are shallow copies of the inputs in
    (cost, time, input-order) order.  Exact (cost, time) duplicates are
    all kept — see the module docstring.
    """
    costs, times = [], []
    for index, point in enumerate(points):
        try:
            costs.append(float(point[cost_key]))  # type: ignore[arg-type]
            times.append(float(point[time_key]))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            raise PlanError(
                f"pareto points need numeric {cost_key!r} and {time_key!r}"
                f" entries; point {index} has keys {sorted(point)}"
            )
    kept = frontier_indices(np.array(costs), np.array(times))
    return [dict(points[index]) for index in kept.tolist()]


def is_dominated(
    candidate: Mapping[str, object],
    points: Sequence[Mapping[str, object]],
    cost_key: str = "cost_usd",
    time_key: str = "time_s",
) -> bool:
    """Whether any of ``points`` dominates ``candidate`` on (cost, time)."""
    cost = float(candidate[cost_key])  # type: ignore[arg-type]
    time = float(candidate[time_key])  # type: ignore[arg-type]
    return any(
        dominates(float(p[cost_key]), float(p[time_key]), cost, time)  # type: ignore[arg-type]
        for p in points
    )
