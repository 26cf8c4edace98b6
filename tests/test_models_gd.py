"""Tests pinning the paper's gradient-descent model formulas and constants."""

import math

import pytest

from repro.core.errors import ModelError
from repro.models.deep_learning import (
    CHEN_OPERATIONS,
    CHEN_PARAMETERS,
    K40_FLOPS,
    SPARK_FLOPS,
    chen_inception_figure3_model,
    chen_inception_linear_comm_model,
    gd_model_for,
    spark_mnist_figure2_model,
)
from repro.models.gradient_descent import (
    GradientDescentModel,
    SparkGradientDescentModel,
    WeakScalingLinearCommModel,
    WeakScalingSGDModel,
)
from repro.hardware.catalog import gigabit_ethernet, xeon_e3_1240
from repro.nn.architectures import mnist_fc


class TestGenericGDModel:
    def make(self):
        return GradientDescentModel(
            operations_per_sample=6e6,
            batch_size=1000,
            flops=1e9,
            parameters=1e6,
            bandwidth_bps=1e9,
            bits_per_parameter=32,
        )

    def test_computation_inverse_in_workers(self):
        model = self.make()
        computation = model.decompose([1, 4])["computation"]
        assert computation[1] == pytest.approx(computation[0] / 4)

    def test_communication_formula(self):
        model = self.make()
        transfer = 32 * 1e6 / 1e9
        assert model.decompose([8])["communication"][0] == pytest.approx(2 * transfer * 3)

    def test_no_communication_single_worker(self):
        assert self.make().decompose([1])["communication"][0] == 0.0

    def test_time_is_sum(self):
        model = self.make()
        parts = model.decompose([8])
        assert model.time(8) == pytest.approx(
            parts["computation"][0] + parts["communication"][0]
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            GradientDescentModel(0, 1, 1, 1, 1)


class TestSparkFigure2Model:
    def test_paper_constants(self):
        model = spark_mnist_figure2_model()
        assert model.flops == pytest.approx(0.8 * 105.6e9)
        assert model.parameters == pytest.approx(12e6, rel=0.01)
        assert model.batch_size == 60000
        assert model.bits_per_parameter == 64

    def test_tcp_at_one_worker(self):
        # 6 * 12e6 * 60000 / (0.8 * 105.6e9) ~ 51.1 s.
        model = spark_mnist_figure2_model()
        assert model.decompose([1])["computation"][0] == pytest.approx(51.1, rel=0.01)

    def test_communication_formula_pieces(self):
        model = spark_mnist_figure2_model()
        transfer = 64 * model.parameters / 1e9
        parts = model.decompose([8, 9, 10])
        assert parts["broadcast"][0] == pytest.approx(transfer * 3)
        assert parts["aggregation"][1] == pytest.approx(2 * transfer * 3)
        assert parts["aggregation"][2] == pytest.approx(2 * transfer * 4)

    def test_single_worker_still_pays_aggregation(self):
        # The paper's formula keeps ceil(sqrt(1)) = 1.
        model = spark_mnist_figure2_model()
        transfer = 64 * model.parameters / 1e9
        parts = model.decompose([1])
        assert parts["broadcast"][0] + parts["aggregation"][0] == pytest.approx(
            2 * transfer
        )

    def test_expired_component_aliases_are_gone(self):
        # The broadcast/aggregation split is read from decompose().
        model = spark_mnist_figure2_model()
        for alias in (
            "broadcast_time",
            "aggregation_time",
            "computation_time",
            "communication_time",
        ):
            assert not hasattr(model, alias), alias
        assert {"computation", "broadcast", "aggregation"} <= set(model.decompose([4]))

    def test_optimal_nine_workers_on_paper_grid(self):
        # Section V-A: "The model suggests that the optimal number of
        # workers is nine" (the experiments ran up to 13 workers).
        model = spark_mnist_figure2_model()
        assert model.optimal_workers(13) == 9

    def test_peak_speedup_close_to_paper_figure(self):
        model = spark_mnist_figure2_model()
        assert model.speedup(9) == pytest.approx(4.1, abs=0.3)

    def test_speedup_declines_after_square_boundary(self):
        # ceil(sqrt) jumps at 10 workers make the curve dip right there.
        model = spark_mnist_figure2_model()
        assert model.speedup(10) < model.speedup(9)


class TestWeakScalingFigure3Model:
    def test_paper_constants(self):
        model = chen_inception_figure3_model()
        assert model.operations_per_sample == pytest.approx(3 * 5e9)
        assert model.parameters == pytest.approx(25e6)
        assert model.batch_size == 128
        assert model.flops == pytest.approx(0.5 * 4.28e12)

    def test_formula_verbatim(self):
        model = chen_inception_figure3_model()
        n = 100
        expected = (
            CHEN_OPERATIONS * 128 / K40_FLOPS + 2 * (32 * CHEN_PARAMETERS / 1e9) * math.log2(n)
        ) / n
        assert model.time(n) == pytest.approx(expected)

    def test_infinite_weak_scaling(self):
        # "Such assumption allows infinite weak scaling": once
        # communication is amortised (n >= 2) the per-instance time
        # strictly decreases and tends to zero.
        model = chen_inception_figure3_model()
        times = [model.time(n) for n in (2, 10, 50, 200, 1000, 10000)]
        assert times == sorted(times, reverse=True)
        assert model.time(10000) < model.time(1)

    def test_speedup_vs_50_matches_hand_computation(self):
        model = chen_inception_figure3_model()
        assert model.time(50) / model.time(200) == pytest.approx(3.0, abs=0.1)
        assert model.time(50) / model.time(25) == pytest.approx(0.6, abs=0.05)


class TestLinearCommContrast:
    def test_finite_scaling(self):
        # "The linear communication model allows only finite scaling":
        # per-instance time approaches the constant 32W/B floor.
        model = chen_inception_linear_comm_model()
        assert model.time(10000) == pytest.approx(model.asymptotic_time, rel=0.02)

    def test_log_model_wins_eventually(self):
        log_model = chen_inception_figure3_model()
        linear_model = chen_inception_linear_comm_model()
        assert log_model.time(500) < linear_model.time(500)

    def test_linear_scales_only_when_transfer_below_compute(self):
        # Paper V-A: "Linear communication model only scales when the
        # communication time for one worker is less than the computation
        # time for it."  For Inception: 32W/B = 0.8 s < 0.897 s compute,
        # so scaling exists but is capped at compute/asymptote ~ 1.12x.
        model = chen_inception_linear_comm_model()
        compute = model.operations_per_sample * model.batch_size / model.flops
        assert model.asymptotic_time < compute
        assert model.time(1000) < model.time(1)  # it does scale ...
        max_speedup = model.time(1) / model.asymptotic_time
        assert max_speedup == pytest.approx(1.12, abs=0.02)  # ... barely

    def test_linear_never_scales_when_transfer_exceeds_compute(self):
        # The converse: with a bigger model the floor exceeds the compute.
        model = WeakScalingLinearCommModel(
            operations_per_sample=15e9,
            batch_size=128,
            flops=0.5 * 4.28e12,
            parameters=50e6,  # 32W/B = 1.6 s > 0.897 s compute
            bandwidth_bps=1e9,
        )
        assert all(model.time(n) > model.time(1) for n in (2, 10, 100, 1000))


class TestGenericBuilder:
    def test_builds_from_spec_and_catalog(self):
        model = gd_model_for(
            mnist_fc(), xeon_e3_1240(), gigabit_ethernet(), batch_size=60000,
            bits_per_parameter=64,
        )
        assert model.parameters == pytest.approx(12e6, rel=0.01)
        # forward_operations = 2W, training = 6W: same tcp as Figure 2.
        assert model.decompose([1])["computation"][0] == pytest.approx(51.1, rel=0.01)

    def test_invalid_batch_rejected(self):
        with pytest.raises(ModelError):
            gd_model_for(mnist_fc(), xeon_e3_1240(), gigabit_ethernet(), batch_size=0)
