"""Tests for the graphical-inference and BP models."""

import pytest

from repro.core.errors import ModelError
from repro.graph.generators import dns_like, erdos_renyi
from repro.models.belief_propagation import BeliefPropagationModel, bp_cost_per_edge
from repro.models.graphical import BITS_PER_STATE, GraphInferenceModel


class TestBPCost:
    def test_paper_formula(self):
        # c(S) = S + 2 (S + S^2); for S = 2: 2 + 2*(2+4) = 14.
        assert bp_cost_per_edge(2) == 14.0
        assert bp_cost_per_edge(3) == 3 + 2 * (3 + 9)

    def test_invalid_states(self):
        with pytest.raises(ModelError):
            bp_cost_per_edge(1)


class TestBeliefPropagationModel:
    def make(self):
        return BeliefPropagationModel(
            max_edges={1: 1000.0, 2: 520.0, 4: 280.0, 8: 160.0},
            states=2,
            flops=14e6,
        )

    def test_time_formula(self):
        model = self.make()
        assert model.time(4) == pytest.approx(280.0 * 14 / 14e6)

    def test_speedup_is_edge_ratio(self):
        # F and c(S) cancel: s(n) = E / max_i(E_i).
        model = self.make()
        assert model.speedup(8) == pytest.approx(1000.0 / 160.0)

    def test_flops_invariance_of_speedup(self):
        slow = BeliefPropagationModel(max_edges={1: 1000.0, 8: 160.0}, flops=1e3)
        fast = BeliefPropagationModel(max_edges={1: 1000.0, 8: 160.0}, flops=1e12)
        assert slow.speedup(8) == pytest.approx(fast.speedup(8))

    def test_off_grid_query_rejected(self):
        with pytest.raises(ModelError):
            self.make().time(3)

    def test_from_source_runs_estimator(self):
        graph = erdos_renyi(500, 2500, seed=0)
        model = BeliefPropagationModel.from_source(graph, [1, 2, 4], trials=5, seed=1)
        assert model.workers_grid == (1, 2, 4)
        assert model.time(1) > model.time(4)

    def test_overhead_extension_bends_curve_down(self):
        base = self.make()
        with_overhead = base.with_overhead(
            overhead_seconds=1e-4, overhead_seconds_per_worker=5e-5
        )
        assert with_overhead.speedup(8) < base.speedup(8)
        # Single worker pays no overhead.
        assert with_overhead.time(1) == base.time(1)

    def test_dns_speedup_saturates(self):
        workload = dns_like("16k", seed=0)
        model = BeliefPropagationModel.from_source(
            workload.degree_sequence, [1, 16, 64, 80], trials=5, seed=0
        )
        assert model.speedup(80) < 80 / 2  # far from linear
        assert model.speedup(80) > model.speedup(16)

    def test_validation(self):
        with pytest.raises(ModelError):
            BeliefPropagationModel(max_edges={})
        with pytest.raises(ModelError):
            BeliefPropagationModel(max_edges={0: 10.0})
        with pytest.raises(ModelError):
            BeliefPropagationModel(max_edges={1: -5.0})


class TestGraphInferenceModel:
    def make(self, replication=0.5):
        return GraphInferenceModel(
            max_edges={1: 1000.0, 4: 280.0},
            cost_per_edge=14.0,
            flops=1e9,
            vertex_count=100,
            states=2,
            bandwidth_bps=1e9,
            replication_of=lambda n: replication,
        )

    def test_computation_term(self):
        model = self.make()
        assert model.decompose([4])["computation"][0] == pytest.approx(280.0 * 14 / 1e9)

    def test_communication_formula_verbatim(self):
        # tcm = 32/B * r * V * S.
        model = self.make(replication=0.5)
        expected = BITS_PER_STATE / 1e9 * 0.5 * 100 * 2
        assert model.decompose([4])["communication"][0] == pytest.approx(expected)

    def test_single_worker_no_communication(self):
        assert self.make().decompose([1])["communication"][0] == 0.0

    def test_time_is_sum(self):
        model = self.make()
        parts = model.decompose([4])
        assert model.time(4) == pytest.approx(
            parts["computation"][0] + parts["communication"][0]
        )

    def test_from_source_with_replication_curve(self):
        graph = erdos_renyi(400, 2000, seed=2)
        model = GraphInferenceModel.from_source(
            graph,
            [1, 2, 4],
            cost_per_edge=14.0,
            flops=1e9,
            states=2,
            bandwidth_bps=1e9,
            replication_of=lambda n: 0.1 * n,
            trials=5,
            seed=0,
        )
        communication = model.decompose([2, 4])["communication"]
        assert communication[1] > communication[0]

    def test_negative_replication_rejected(self):
        model = self.make(replication=-1.0)
        with pytest.raises(ModelError):
            model.decompose([4])
