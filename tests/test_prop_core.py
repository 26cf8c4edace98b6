"""Property-based tests for the core framework invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import AmdahlLaw, GustafsonLaw
from repro.core.communication import (
    LinearCommunication,
    RingAllReduce,
    TorrentBroadcast,
    TreeCommunication,
    TwoWaveAggregation,
)
from repro.core.complexity import ComputationCost, FixedCost, ScaledCost, SumCost
from repro.core.metrics import mape, rmse
from repro.core.model import CallableModel
from repro.core.speedup import SpeedupCurve, derive_curve, speedup_grid

workers_strategy = st.integers(min_value=1, max_value=512)
positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def curve_inputs(draw):
    """Any positive finite times on a unique worker grid, on-grid baseline."""
    workers = draw(
        st.lists(
            st.integers(min_value=1, max_value=1_000_000),
            min_size=1,
            max_size=64,
            unique=True,
        )
    )
    times = draw(
        st.lists(
            st.floats(
                min_value=0.0,
                exclude_min=True,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=len(workers),
            max_size=len(workers),
        )
    )
    return workers, times, draw(st.sampled_from(workers))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestSpeedupInvariants:
    @given(scale=positive, max_workers=st.integers(min_value=1, max_value=40))
    def test_speedup_invariant_under_time_scaling(self, scale, max_workers):
        """Multiplying every time by a constant leaves the speedup curve
        unchanged — the paper's argument for using speedup (systematic
        errors cancel)."""
        base = lambda n: 100.0 / n + 2.0 * n
        scaled = lambda n: scale * base(n)
        curve_a = speedup_grid(base, max_workers)
        curve_b = speedup_grid(scaled, max_workers)
        for s_a, s_b in zip(curve_a.speedups, curve_b.speedups):
            assert s_a == pytest.approx(s_b, rel=1e-9)

    @given(max_workers=st.integers(min_value=1, max_value=64))
    def test_speedup_at_baseline_is_one(self, max_workers):
        curve = speedup_grid(lambda n: 10.0 / n + 0.5 * n, max_workers)
        assert curve.speedup_at(1) == pytest.approx(1.0)

    @given(
        compute=positive,
        comm=positive,
        max_workers=st.integers(min_value=2, max_value=64),
    )
    def test_efficiency_never_exceeds_one_for_knee_models(self, compute, comm, max_workers):
        """compute/n + comm*n models can never be superlinear."""
        curve = speedup_grid(lambda n: compute / n + comm * n, max_workers)
        assert all(e <= 1.0 + 1e-9 for e in curve.efficiencies)


class TestSingleDerivation:
    """``derive_curve`` is the one speedup/efficiency arithmetic; it must
    equal the Python-float expressions it replaced, bit for bit."""

    @given(inputs=curve_inputs())
    def test_curve_matches_python_float_reference(self, inputs):
        workers, times, baseline = inputs
        curve = SpeedupCurve.from_times(workers, times, baseline_workers=baseline)
        b_t = curve.baseline_time
        speedups = [b_t / t for t in times]
        efficiencies = [s * baseline / n for s, n in zip(speedups, workers)]
        assert _bits(curve.speedups) == _bits(speedups)
        assert _bits(curve.efficiencies) == _bits(efficiencies)
        assert all(type(s) is float for s in curve.speedups + curve.efficiencies)
        assert curve.peak_speedup == max(speedups)
        assert curve.optimal_workers == min(
            n for n, s in zip(workers, speedups) if s == max(speedups)
        )
        assert curve.is_scalable == any(s > 1.0 + 1e-12 for s in speedups)
        # The store's path: a float64 times row and a numpy baseline.
        row = np.asarray(times, dtype=float)
        row_speedups, row_efficiencies = derive_curve(
            row, workers, row[workers.index(baseline)], baseline
        )
        assert _bits(row_speedups) == _bits(speedups)
        assert _bits(row_efficiencies) == _bits(efficiencies)


class TestCommunicationProperties:
    @given(
        bits=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        workers=st.integers(min_value=1, max_value=200),
        bandwidth=st.floats(min_value=1e3, max_value=1e12, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_time_scales_linearly_with_bits(self, bits, workers, bandwidth):
        for model_cls in (LinearCommunication, TreeCommunication, TorrentBroadcast,
                          TwoWaveAggregation, RingAllReduce):
            model = model_cls(bandwidth)
            doubled = model.time(2 * bits, workers)
            single = model.time(bits, workers)
            assert doubled == pytest.approx(2 * single, abs=1e-12)

    @given(
        workers=st.integers(min_value=1, max_value=200),
        bandwidth=st.floats(min_value=1e3, max_value=1e12, allow_nan=False),
        factor=st.floats(min_value=1.1, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_faster_link_never_slower(self, workers, bandwidth, factor):
        bits = 1e9
        for model_cls in (LinearCommunication, TreeCommunication, TorrentBroadcast,
                          TwoWaveAggregation, RingAllReduce):
            slow = model_cls(bandwidth).time(bits, workers)
            fast = model_cls(bandwidth * factor).time(bits, workers)
            assert fast <= slow + 1e-12

    @given(workers=st.integers(min_value=2, max_value=500))
    def test_topology_ordering_at_scale(self, workers):
        """tree <= linear and ring payload <= 2 transfers, for any n."""
        bits, bandwidth = 1e9, 1e9
        tree = TreeCommunication(bandwidth).time(bits, workers)
        linear = LinearCommunication(bandwidth).time(bits, workers)
        ring = RingAllReduce(bandwidth).time(bits, workers)
        assert tree <= linear + 1e-9
        assert ring <= 2.0 * bits / bandwidth + 1e-9


class TestCostTermProperties:
    @given(ops=positive, flops=positive, workers=workers_strategy)
    def test_computation_cost_exactly_inverse(self, ops, flops, workers):
        cost = ComputationCost(ops, flops)
        assert cost.time(workers) * workers == pytest.approx(cost.time(1), rel=1e-9)

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=6),
        workers=workers_strategy,
    )
    def test_sum_cost_is_sum(self, values, workers):
        terms = tuple(FixedCost(v) for v in values)
        assert SumCost(terms).time(workers) == pytest.approx(sum(values))

    @given(value=st.floats(min_value=0.0, max_value=1e6), factor=st.floats(min_value=0.0, max_value=100))
    def test_scaling_commutes(self, value, factor):
        a = ScaledCost(FixedCost(value), factor).time(1)
        assert a == pytest.approx(value * factor)


class TestBaselineProperties:
    @given(fraction=st.floats(min_value=0.0, max_value=1.0), workers=workers_strategy)
    def test_amdahl_bounded_by_ceiling(self, fraction, workers):
        law = AmdahlLaw(fraction)
        speedup = law.speedup(workers)
        assert speedup <= min(workers, law.max_speedup) + 1e-9
        assert speedup >= 1.0 - 1e-9

    @given(fraction=st.floats(min_value=0.0, max_value=1.0), workers=workers_strategy)
    def test_gustafson_dominates_amdahl(self, fraction, workers):
        assert (
            GustafsonLaw(fraction).speedup(workers)
            >= AmdahlLaw(fraction).speedup(workers) - 1e-9
        )


class TestMetricProperties:
    @given(
        actual=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=20)
    )
    def test_mape_zero_iff_equal(self, actual):
        assert mape(actual, actual) == 0.0
        assert rmse(actual, actual) == 0.0

    @given(
        actual=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=20),
        scale=st.floats(min_value=1.01, max_value=3.0),
    )
    def test_mape_of_proportional_error_is_constant(self, actual, scale):
        predicted = [a * scale for a in actual]
        assert mape(actual, predicted) == pytest.approx((scale - 1.0) * 100.0, rel=1e-6)
