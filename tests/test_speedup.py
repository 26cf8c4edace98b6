"""Tests for repro.core.speedup."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.speedup import (
    SpeedupCurve,
    WorkerGrid,
    crossover_workers,
    optimal_workers,
    scalability_limit,
    speedup_grid,
)


def knee_time(n: int) -> float:
    """A toy model with compute 100/n plus communication 2*n: knee near 7."""
    return 100.0 / n + 2.0 * n


class TestSpeedupCurve:
    def test_speedup_at_one_is_one(self):
        curve = speedup_grid(knee_time, 10)
        assert curve.speedup_at(1) == pytest.approx(1.0)

    def test_speedups_match_definition(self):
        curve = speedup_grid(knee_time, 10)
        assert curve.speedup_at(4) == pytest.approx(knee_time(1) / knee_time(4))

    def test_optimal_workers_at_knee(self):
        # d/dn (100/n + 2n) = 0 at n = sqrt(50) ~ 7.07.
        curve = speedup_grid(knee_time, 20)
        assert curve.optimal_workers == 7

    def test_peak_speedup(self):
        curve = speedup_grid(knee_time, 20)
        assert curve.peak_speedup == pytest.approx(knee_time(1) / knee_time(7))

    def test_is_scalable_true_for_knee_model(self):
        assert speedup_grid(knee_time, 10).is_scalable

    def test_not_scalable_when_comm_dominates(self):
        curve = speedup_grid(lambda n: 1.0 + 5.0 * (n - 1), 10)
        assert not curve.is_scalable
        assert curve.optimal_workers == 1

    def test_efficiency_is_speedup_over_n(self):
        curve = speedup_grid(knee_time, 10)
        for row in curve.rows():
            assert row["efficiency"] == pytest.approx(row["speedup"] / row["workers"])

    def test_rows_structure(self):
        rows = speedup_grid(knee_time, 3).rows()
        assert [row["workers"] for row in rows] == [1, 2, 3]
        assert set(rows[0]) == {"workers", "time_s", "speedup", "efficiency"}

    def test_from_times_requires_baseline_on_grid(self):
        with pytest.raises(ModelError):
            SpeedupCurve.from_times([2, 4], [1.0, 0.6])

    def test_from_times_with_explicit_baseline(self):
        curve = SpeedupCurve.from_times([2, 4], [1.0, 0.6], baseline_workers=2)
        assert curve.speedup_at(4) == pytest.approx(1.0 / 0.6)
        assert curve.speedup_at(2) == pytest.approx(1.0)

    def test_nonunit_baseline_like_figure3(self):
        # Figure 3 reports speedup relative to 50 workers.
        curve = SpeedupCurve.from_model(knee_time, [25, 50, 100], baseline_workers=50)
        assert curve.speedup_at(50) == pytest.approx(1.0)

    def test_duplicate_workers_rejected(self):
        with pytest.raises(ModelError):
            SpeedupCurve.from_times([2, 2], [1.0, 1.0], baseline_workers=2)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ModelError):
            SpeedupCurve.from_times([1, 2], [1.0, 0.0])

    def test_missing_grid_point_query_rejected(self):
        curve = speedup_grid(knee_time, 4)
        with pytest.raises(ModelError):
            curve.speedup_at(9)


class TestGridHelpers:
    def test_optimal_workers_helper(self):
        assert optimal_workers(knee_time, 20) == 7

    def test_scalability_limit_equals_argmax_for_smooth_model(self):
        assert scalability_limit(knee_time, 20) == 7

    def test_scalability_limit_on_jagged_curve(self):
        # Time improves again after a plateau: limit is the last improvement.
        times = {1: 10.0, 2: 6.0, 3: 6.5, 4: 5.0, 5: 5.5}
        assert scalability_limit(lambda n: times[n], 5) == 4

    def test_crossover_found(self):
        slow_then_fast = lambda n: 10.0 / n + 1.0 * n
        fast_then_slow = lambda n: 4.0 / n + 2.0 * n
        # B is faster at tiny n; A wins later.
        assert crossover_workers(slow_then_fast, fast_then_slow, 20) == 1
        assert crossover_workers(fast_then_slow, slow_then_fast, 20) == 3

    def test_crossover_none_when_never_faster(self):
        assert crossover_workers(lambda n: 1.0, lambda n: 2.0, 10) is None

    def test_invalid_max_workers(self):
        with pytest.raises(ModelError):
            speedup_grid(knee_time, 0)


class TestDerivation:
    def test_derived_once_per_curve_and_invisible_to_equality(self):
        curve = speedup_grid(knee_time, 10)
        assert curve.speedups is curve.speedups
        assert curve.efficiencies is curve.efficiencies
        fresh = speedup_grid(knee_time, 10)  # nothing derived yet
        assert curve == fresh
        assert hash(curve) == hash(fresh)
        # Curves cross process boundaries in pooled sweeps.
        shipped = pickle.loads(pickle.dumps(curve))
        assert shipped == curve
        assert shipped.speedups == curve.speedups
        assert shipped.efficiencies == curve.efficiencies

    def test_off_grid_baseline_uses_the_reference_arithmetic(self):
        # Figure 3 style: the baseline count (50) is not on the grid.
        workers = [64, 100, 128, 200]
        curve = SpeedupCurve.from_model(knee_time, workers, baseline_workers=50)
        baseline_time = knee_time(50)
        assert curve.baseline_time == baseline_time
        speedups = [baseline_time / knee_time(n) for n in workers]
        assert list(curve.speedups) == speedups
        assert list(curve.efficiencies) == [
            s * 50 / n for s, n in zip(speedups, workers)
        ]
        assert curve.peak_speedup == max(speedups)
        assert curve.optimal_workers == 64
        assert curve.is_scalable is False


class TestOptimalWorkersTieBreaking:
    def test_ties_prefer_the_smallest_worker_count(self):
        # A plateau: identical times at n = 3, 4, 5 (ceil-style models
        # produce these); the provisioning answer is the cheapest point.
        curve = SpeedupCurve.from_times([1, 2, 3, 4, 5, 6], [10.0, 6.0, 4.0, 4.0, 4.0, 5.0])
        assert curve.optimal_workers == 3

    def test_tie_detection_is_exact(self):
        # Nearly-equal speedups are distinct points, not a tie.
        curve = SpeedupCurve.from_times([1, 2, 3], [10.0, 4.0, 4.0 - 1e-12])
        assert curve.optimal_workers == 3

    def test_unordered_grid_still_prefers_smallest(self):
        curve = SpeedupCurve.from_times([5, 1, 3], [4.0, 10.0, 4.0])
        assert curve.optimal_workers == 3


class TestKnee:
    def test_knee_below_argmax_on_saturating_curve(self):
        curve = speedup_grid(knee_time, 20)
        knee = curve.knee(0.9)
        assert knee < curve.optimal_workers
        assert curve.speedup_at(knee) >= 0.9 * curve.peak_speedup

    def test_knee_is_the_smallest_qualifying_count(self):
        curve = speedup_grid(knee_time, 20)
        knee = curve.knee(0.9)
        threshold = 0.9 * curve.peak_speedup
        for n, s in zip(curve.workers, curve.speedups):
            if n < knee:
                assert s < threshold

    def test_knee_at_full_fraction_equals_argmax(self):
        curve = speedup_grid(knee_time, 20)
        assert curve.knee(1.0) == curve.optimal_workers

    def test_invalid_fraction_rejected(self):
        curve = speedup_grid(knee_time, 5)
        with pytest.raises(ModelError):
            curve.knee(0.0)
        with pytest.raises(ModelError):
            curve.knee(1.5)


class TestFiniteTimes:
    """An overflowed time would derive ``inf/inf = NaN`` speedups and an
    empty argmax; the curve refuses it with a ModelError instead."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ModelError, match=r"times must be finite, got (inf|nan) at 2 workers"):
            SpeedupCurve((1, 2, 4), (1.0, bad, 0.5), 1.0)
        with pytest.raises(ModelError, match="times must be finite"):
            SpeedupCurve.from_times([1, 2, 4], [1.0, bad, 0.5])

    def test_every_time_overflowed(self):
        with pytest.raises(ModelError, match="times must be finite, got inf at 1 workers"):
            SpeedupCurve.from_times([1, 2, 4], [math.inf] * 3)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_baseline_time_rejected(self, bad):
        with pytest.raises(ModelError, match="baseline_time must be finite"):
            SpeedupCurve((2, 4), (1.0, 0.5), bad, baseline_workers=1)

    def test_negative_infinity_is_still_non_positive(self):
        with pytest.raises(ModelError, match="times must be positive"):
            SpeedupCurve((1, 2), (1.0, -math.inf), 1.0)


class TestUncheckedErrorParity:
    """Plain (unchecked) inputs keep the curve's historical messages."""

    @pytest.mark.parametrize(
        "workers, times, message",
        (
            ((), (), "a speedup curve needs at least one point"),
            ((4, 0, 2), (1.0, 1.0, 1.0), "worker counts must be >= 1"),
            ((1, -3, 2), (1.0, 1.0, 1.0), "worker counts must be >= 1"),
            ((1, 2, 2), (1.0, 1.0, 1.0), "worker counts must be unique"),
            ((1, 2), (1.0, 0.0), "times must be positive"),
            ((1, 2), (1.0, -2.0), "times must be positive"),
            ((1, 2), (1.0,), "workers and times must have the same length"),
        ),
        ids=("empty", "zero", "negative", "duplicate", "zero-time", "negative-time", "length"),
    )
    def test_constructor_messages(self, workers, times, message):
        with pytest.raises(ModelError) as excinfo:
            SpeedupCurve(workers, times, 1.0)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "workers, times, baseline, message",
        (
            ([], [], 1, "baseline worker count 1 is not on the grid ()"),
            ([4, 0, 2], [1.0, 1.0, 1.0], 4, "worker counts must be >= 1"),
            ([1, -3, 2], [1.0, 1.0, 1.0], 1, "worker counts must be >= 1"),
            ([1, 2, 2], [1.0, 1.0, 1.0], 1, "worker counts must be unique"),
            ([1, 2], [1.0, 0.0], 1, "times must be positive"),
            ([2, 4], [1.0, 0.5], 1, "baseline worker count 1 is not on the grid (2, 4)"),
        ),
        ids=("empty", "zero", "negative", "duplicate", "zero-time", "off-grid"),
    )
    def test_from_times_messages(self, workers, times, baseline, message):
        with pytest.raises(ModelError) as excinfo:
            SpeedupCurve.from_times(workers, times, baseline_workers=baseline)
        assert str(excinfo.value) == message

    def test_baseline_messages(self):
        with pytest.raises(ModelError, match="^baseline_time must be positive$"):
            SpeedupCurve((1, 2), (1.0, 2.0), 0.0)
        with pytest.raises(ModelError, match="^baseline_workers must be >= 1$"):
            SpeedupCurve((1, 2), (1.0, 2.0), 1.0, 0)


class TestWorkerGrid:
    def test_is_the_plain_tuple_to_everything_else(self):
        grid = WorkerGrid((1, 2, 4))
        assert grid == (1, 2, 4)
        assert hash(grid) == hash((1, 2, 4))
        assert repr(grid) == "(1, 2, 4)"
        shipped = pickle.loads(pickle.dumps(grid))
        assert type(shipped) is WorkerGrid and shipped == grid

    @pytest.mark.parametrize(
        "workers",
        [(), (0, 1), (1, -2), (1, 2, 2), (1, 2.0), (True, 2), (np.int64(1), 2)],
        ids=["empty", "zero", "negative", "duplicate", "float", "bool", "int64"],
    )
    def test_the_public_constructor_checks(self, workers):
        with pytest.raises(ModelError, match="^a worker grid needs unique ints >= 1"):
            WorkerGrid(workers)

    def test_cast_passes_a_checked_grid_through(self):
        grid = WorkerGrid((1, 2, 4))
        assert WorkerGrid.cast(grid) is grid
        assert type(WorkerGrid.cast([1, 2, 4])) is tuple

    def test_array_is_cached_read_only_float64(self):
        grid = WorkerGrid(range(1, 6))
        assert grid.array is grid.array
        assert grid.array.dtype == np.float64
        assert grid.array.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError):
            grid.array[0] = 7.0

    def test_checked_and_plain_grids_build_equal_curves(self):
        times = (10.0, 6.0, 4.0, 4.5)
        checked = SpeedupCurve.from_times(WorkerGrid((1, 2, 3, 4)), times)
        plain = SpeedupCurve.from_times([1, 2, 3, 4], times)
        assert checked == plain
        assert checked.rows() == plain.rows()

    def test_an_array_of_times_is_stored_as_a_tuple(self):
        curve = SpeedupCurve(WorkerGrid((1, 2)), np.array([2.0, 1.0]), 2.0)
        assert curve.times == (2.0, 1.0)
        assert all(type(t) is float for t in curve.times)
        hash(curve)


def reference_derivation(workers, times, baseline_time, baseline_workers):
    """The pure-Python arithmetic the numpy derivation must equal bit for bit."""
    speedups = [baseline_time / t for t in times]
    peak = max(speedups)
    return (
        speedups,
        [s * baseline_workers / n for s, n in zip(speedups, workers)],
        peak,
        min(n for n, s in zip(workers, speedups) if s == peak),
        any(s > 1.0 + 1e-12 for s in speedups),
    )


class TestNumpyDerivation:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.lists(st.integers(1, 512), min_size=1, max_size=40, unique=True).flatmap(
            lambda workers: st.tuples(
                st.just(workers),
                st.lists(
                    st.sampled_from([0.5, 1.0, 2.0, 3.0])
                    | st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False),
                    min_size=len(workers),
                    max_size=len(workers),
                ),
                st.sampled_from(workers),
            )
        )
    )
    def test_matches_the_python_reference(self, case):
        workers, times, baseline = case
        for grid in (workers, WorkerGrid(workers)):
            curve = SpeedupCurve.from_times(grid, times, baseline_workers=baseline)
            expected = reference_derivation(
                workers, times, times[workers.index(baseline)], baseline
            )
            assert list(curve.speedups) == expected[0]
            assert list(curve.efficiencies) == expected[1]
            assert curve.peak_speedup == expected[2]
            assert curve.optimal_workers == expected[3]
            assert type(curve.optimal_workers) is int
            assert curve.is_scalable is expected[4]
