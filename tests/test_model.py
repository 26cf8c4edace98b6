"""Tests for repro.core.model."""

import pytest

from repro.core.communication import CompositeCommunication, TorrentBroadcast, TwoWaveAggregation
from repro.core.complexity import CommunicationCost, ComputationCost, FixedCost
from repro.core.errors import ModelError
from repro.core.model import BSPModel, CallableModel, MeasuredModel


def spark_figure2_model() -> BSPModel:
    """The paper's Figure 2 model built from core pieces."""
    computation = ComputationCost(total_operations=6 * 12e6 * 60000, flops=0.8 * 105.6e9)
    communication = CommunicationCost(
        CompositeCommunication(
            ((TorrentBroadcast(1e9), 1.0), (TwoWaveAggregation(1e9), 1.0))
        ),
        bits=64 * 12e6,
    )
    return BSPModel(computation, communication)


class TestBSPModel:
    def test_superstep_is_sum_of_terms(self):
        model = spark_figure2_model()
        parts = model.decompose([4])
        assert model.time(4) == pytest.approx(
            parts["computation"][0] + parts["communication"][0]
        )

    def test_paper_optimal_workers_on_cluster_grid(self):
        # On the paper's experimental grid (up to 13 workers) the model
        # peaks at nine workers, as stated in Section V-A.
        model = spark_figure2_model()
        assert model.optimal_workers(13) == 9

    def test_iterations_scale_time(self):
        base = spark_figure2_model()
        many = BSPModel(base.computation, base.communication, iterations=10)
        assert many.time(4) == pytest.approx(10 * base.time(4))

    def test_invalid_iterations(self):
        base = spark_figure2_model()
        with pytest.raises(ModelError):
            BSPModel(base.computation, base.communication, iterations=0)

    def test_speedup_definition(self):
        model = spark_figure2_model()
        assert model.speedup(9) == pytest.approx(model.time(1) / model.time(9))

    def test_curve_baseline(self):
        model = spark_figure2_model()
        curve = model.curve(range(1, 14))
        assert curve.speedup_at(1) == pytest.approx(1.0)

    def test_communication_dominates_eventually(self):
        model = spark_figure2_model()
        parts = model.decompose([100])
        assert parts["communication"][0] > parts["computation"][0]

    def test_expired_time_aliases_are_gone(self):
        # decompose() is the one way to split a model's time by kind.
        model = spark_figure2_model()
        for alias in ("computation_time", "communication_time", "_kind_time"):
            assert not hasattr(model, alias), alias


class TestCallableModel:
    def test_wraps_function(self):
        model = CallableModel(lambda n: 10.0 / n + n)
        assert model.time(5) == pytest.approx(7.0)

    def test_nonpositive_time_rejected(self):
        model = CallableModel(lambda n: 0.0)
        with pytest.raises(ModelError):
            model.time(1)

    def test_invalid_workers_rejected(self):
        model = CallableModel(lambda n: 1.0)
        with pytest.raises(ModelError):
            model.time(0)


class TestMeasuredModel:
    def test_round_trip(self):
        model = MeasuredModel.from_pairs([(1, 10.0), (2, 6.0), (4, 4.0)])
        assert model.time(2) == 6.0
        assert model.workers == (1, 2, 4)

    def test_speedup_from_measurements(self):
        model = MeasuredModel.from_pairs([(1, 10.0), (4, 4.0)])
        assert model.speedup(4) == pytest.approx(2.5)

    def test_missing_point_raises_not_interpolates(self):
        model = MeasuredModel.from_pairs([(1, 10.0), (4, 4.0)])
        with pytest.raises(ModelError):
            model.time(2)

    def test_duplicates_rejected(self):
        with pytest.raises(ModelError):
            MeasuredModel.from_pairs([(1, 10.0), (1, 9.0)])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            MeasuredModel(())

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ModelError):
            MeasuredModel.from_pairs([(1, 0.0)])
