"""Tests for the collective schedules: correctness of shapes and timings.

The schedules run over either fabric through the batch contract, so every
timing that holds for both is checked on both: the endpoint ``Network``
and a zero-latency ``single-switch`` ``FlowNetwork``.  On these schedules
the two disciplines coincide (a round either uses disjoint ports or
contends at one sink, where both are work-conserving).
"""

import math

import pytest

from repro.core.errors import SimulationError
from repro.hardware.specs import LinkSpec
from repro.net.flows import FlowNetwork
from repro.net.topology import single_switch
from repro.simulate.collectives import (
    all_to_all_shuffle,
    binomial_broadcast,
    linear_gather,
    ring_allreduce,
    tree_reduce,
    two_wave_aggregate,
)
from repro.simulate.network import Network

T = 1.0  # seconds per unit transfer below (1e9 bits over 1e9 bps)
BITS = 1e9
LINK = LinkSpec("test", bandwidth_bps=1e9)


def endpoint_network(nodes):
    return Network(LINK, nodes)


def flow_network(nodes):
    return FlowNetwork(single_switch(nodes, LINK))


@pytest.fixture(params=[endpoint_network, flow_network], ids=["endpoint", "flow"])
def make_network(request):
    return request.param


def zero_ready(nodes):
    return {node: 0.0 for node in nodes}


class TestLinearGather:
    def test_serialises_on_sink(self, make_network):
        net = make_network(5)
        finish = linear_gather(net, zero_ready([1, 2, 3, 4]), sink=0, bits=BITS)
        assert finish == pytest.approx(4 * T)

    def test_single_source(self, make_network):
        net = make_network(2)
        assert linear_gather(net, {1: 0.0}, sink=0, bits=BITS) == pytest.approx(T)

    def test_respects_ready_times(self, make_network):
        net = make_network(3)
        finish = linear_gather(net, {1: 10.0, 2: 0.0}, sink=0, bits=BITS)
        # Node 2 goes first (ready at 0), node 1 at its own ready time.
        assert finish == pytest.approx(11.0)

    def test_sink_in_ready_is_free(self, make_network):
        net = make_network(3)
        finish = linear_gather(net, {0: 0.0, 1: 0.0, 2: 0.0}, sink=0, bits=BITS)
        assert finish == pytest.approx(2 * T)

    def test_empty_rejected(self, make_network):
        net = make_network(2)
        with pytest.raises(SimulationError):
            linear_gather(net, {}, sink=0, bits=BITS)


class TestTreeReduce:
    def test_log2_rounds_for_power_of_two(self, make_network):
        net = make_network(8)
        root, finish = tree_reduce(net, zero_ready(range(8)), bits=BITS)
        assert root == 0
        assert finish == pytest.approx(3 * T)

    def test_non_power_of_two(self, make_network):
        net = make_network(5)
        root, finish = tree_reduce(net, zero_ready(range(5)), bits=BITS)
        assert root == 0
        assert finish == pytest.approx(3 * T)  # ceil(log2 5) = 3

    def test_single_node_is_immediate(self, make_network):
        net = make_network(1)
        root, finish = tree_reduce(net, {0: 4.0}, bits=BITS)
        assert root == 0
        assert finish == 4.0

    def test_straggler_delays_result(self, make_network):
        net = make_network(4)
        ready = {0: 0.0, 1: 0.0, 2: 0.0, 3: 10.0}
        _, finish = tree_reduce(net, ready, bits=BITS)
        assert finish >= 11.0


class TestBinomialBroadcast:
    def test_doubling_rounds(self, make_network):
        net = make_network(8)
        holds = binomial_broadcast(net, root=0, root_ready=0.0, targets=list(range(1, 8)), bits=BITS)
        # 8 participants: everyone holds the payload after 3 rounds.
        assert max(holds.values()) == pytest.approx(3 * T)
        assert set(holds) == set(range(8))

    def test_two_nodes_single_transfer(self, make_network):
        net = make_network(2)
        holds = binomial_broadcast(net, root=0, root_ready=5.0, targets=[1], bits=BITS)
        assert holds[1] == pytest.approx(5.0 + T)

    def test_faster_than_linear_for_many_nodes(self, make_network):
        nodes = 16
        net_broadcast = make_network(nodes + 1)
        holds = binomial_broadcast(
            net_broadcast, root=0, root_ready=0.0, targets=list(range(1, nodes + 1)), bits=BITS
        )
        broadcast_time = max(holds.values())
        assert broadcast_time < nodes * T  # linear would be 16 transfers
        assert broadcast_time == pytest.approx(math.ceil(math.log2(nodes + 1)) * T, rel=0.35)

    def test_root_among_targets_rejected(self, make_network):
        net = make_network(3)
        with pytest.raises(SimulationError):
            binomial_broadcast(net, root=0, root_ready=0.0, targets=[0, 1], bits=BITS)


class TestTwoWaveAggregate:
    def test_four_workers_two_groups(self, make_network):
        # Workers {1,2,3,4}, driver 0: 2 groups of 2, wave1 = 1 transfer per
        # group (parallel), wave2 = 2 serialised transfers to the driver.
        net = make_network(5)
        finish = two_wave_aggregate(net, zero_ready([1, 2, 3, 4]), driver=0, bits=BITS)
        assert finish == pytest.approx(3 * T)

    def test_single_worker_hands_to_driver(self, make_network):
        net = make_network(2)
        finish = two_wave_aggregate(net, {1: 2.0}, driver=0, bits=BITS)
        assert finish == pytest.approx(2.0 + T)

    def test_nine_workers_three_groups(self, make_network):
        # ceil(sqrt(9)) = 3 groups of 3: wave1 = 2 serialised transfers,
        # wave2 = 3 serialised transfers => 5 * T total.
        net = make_network(10)
        finish = two_wave_aggregate(net, zero_ready(range(1, 10)), driver=0, bits=BITS)
        assert finish == pytest.approx(5 * T)

    def test_driver_among_workers_rejected(self, make_network):
        net = make_network(3)
        with pytest.raises(SimulationError):
            two_wave_aggregate(net, {0: 0.0, 1: 0.0}, driver=0, bits=BITS)

    def test_beats_linear_gather_at_scale(self, make_network):
        workers = list(range(1, 26))
        finish_two_wave = two_wave_aggregate(
            make_network(26), zero_ready(workers), driver=0, bits=BITS
        )
        finish_linear = linear_gather(make_network(26), zero_ready(workers), sink=0, bits=BITS)
        assert finish_two_wave < finish_linear


class TestRingAllReduce:
    def test_single_node_noop(self, make_network):
        net = make_network(1)
        finish = ring_allreduce(net, {0: 3.0}, bits=BITS)
        assert finish == {0: 3.0}

    def test_all_nodes_finish_together_for_uniform_start(self, make_network):
        net = make_network(4)
        finish = ring_allreduce(net, zero_ready(range(4)), bits=BITS)
        values = list(finish.values())
        assert max(values) == pytest.approx(min(values))

    def test_bandwidth_optimal_payload(self, make_network):
        # 2 (n-1)/n payloads total: for n=4 that is 1.5 * T.
        net = make_network(4)
        finish = ring_allreduce(net, zero_ready(range(4)), bits=BITS)
        assert max(finish.values()) == pytest.approx(2 * 3 * (BITS / 4) / 1e9)

    def test_scales_better_than_linear(self, make_network):
        n = 16
        ring_finish = max(
            ring_allreduce(make_network(n), zero_ready(range(n)), bits=BITS).values()
        )
        linear_finish = linear_gather(
            make_network(n + 1), zero_ready(range(1, n + 1)), sink=0, bits=BITS
        )
        assert ring_finish < linear_finish


class TestShuffle:
    def test_single_node_noop(self, make_network):
        net = make_network(1)
        assert all_to_all_shuffle(net, {0: 1.0}, total_bits=BITS) == {0: 1.0}

    def test_total_payload_conserved(self):
        from repro.simulate.trace import Trace

        trace = Trace()
        net = Network(LinkSpec("test", bandwidth_bps=1e9), 4, trace=trace)
        all_to_all_shuffle(net, zero_ready(range(4)), total_bits=BITS)
        # n*(n-1) transfers of bits/n^2 each: 12/16 of the total payload
        # crosses the network (the rest stays local).
        assert trace.total_bits_transferred == pytest.approx(BITS * 12 / 16)

    def test_port_bound_duration(self, make_network):
        net = make_network(4)
        finish = all_to_all_shuffle(net, zero_ready(range(4)), total_bits=BITS)
        # Each node sends 3 chunks of bits/16 from its port: 3/16 seconds.
        assert max(finish.values()) == pytest.approx((3 / 16) * T)

    def test_negative_bits_rejected(self, make_network):
        net = make_network(2)
        with pytest.raises(SimulationError):
            all_to_all_shuffle(net, zero_ready(range(2)), total_bits=-1.0)
