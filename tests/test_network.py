"""Tests for the simulated network with endpoint contention."""

import pytest

from repro.core.errors import SimulationError
from repro.hardware.specs import LinkSpec
from repro.simulate.network import FlowRequest, Network
from repro.simulate.trace import Trace


def make_network(nodes=4, bandwidth=1e9, latency=0.0, full_duplex=True, trace=None):
    link = LinkSpec("test", bandwidth_bps=bandwidth, latency_s=latency, full_duplex=full_duplex)
    return Network(link, nodes, trace=trace)


class TestTransfer:
    def test_duration_is_bits_over_bandwidth(self):
        net = make_network()
        outcome = net.transfer(0, 1, 1e9)
        assert outcome.start == 0.0
        assert outcome.end == pytest.approx(1.0)

    def test_latency_added(self):
        net = make_network(latency=0.5)
        outcome = net.transfer(0, 1, 1e9)
        assert outcome.end == pytest.approx(1.5)

    def test_not_before_respected(self):
        net = make_network()
        outcome = net.transfer(0, 1, 1e9, not_before=10.0)
        assert outcome.start == 10.0
        assert outcome.end == pytest.approx(11.0)

    def test_loopback_is_free(self):
        net = make_network()
        outcome = net.transfer(2, 2, 1e12, not_before=3.0)
        assert outcome.start == 3.0
        assert outcome.end == 3.0

    def test_sender_uplink_serialises(self):
        net = make_network()
        first = net.transfer(0, 1, 1e9)
        second = net.transfer(0, 2, 1e9)
        assert second.start == pytest.approx(first.end)

    def test_receiver_downlink_serialises(self):
        net = make_network()
        first = net.transfer(1, 0, 1e9)
        second = net.transfer(2, 0, 1e9)
        assert second.start == pytest.approx(first.end)

    def test_disjoint_pairs_parallel(self):
        net = make_network()
        a = net.transfer(0, 1, 1e9)
        b = net.transfer(2, 3, 1e9)
        assert a.start == 0.0
        assert b.start == 0.0

    def test_full_duplex_send_and_receive_overlap(self):
        net = make_network()
        a = net.transfer(0, 1, 1e9)
        b = net.transfer(1, 0, 1e9)
        assert a.start == 0.0
        assert b.start == 0.0

    def test_half_duplex_send_blocks_receive(self):
        net = make_network(full_duplex=False)
        a = net.transfer(0, 1, 1e9)
        b = net.transfer(1, 0, 1e9)
        assert b.start == pytest.approx(a.end)

    def test_reset_clears_occupancy(self):
        net = make_network()
        net.transfer(0, 1, 1e9)
        net.reset()
        outcome = net.transfer(0, 2, 1e9)
        assert outcome.start == 0.0


class TestValidation:
    def test_unknown_node_rejected(self):
        net = make_network(nodes=2)
        with pytest.raises(SimulationError):
            net.transfer(0, 5, 1.0)

    def test_negative_bits_rejected(self):
        net = make_network()
        with pytest.raises(SimulationError):
            net.transfer(0, 1, -1.0)

    def test_negative_not_before_rejected(self):
        net = make_network()
        with pytest.raises(SimulationError):
            net.transfer(0, 1, 1.0, not_before=-1.0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(SimulationError):
            make_network(nodes=0)


class TestTracing:
    def test_transfers_recorded(self):
        trace = Trace()
        net = make_network(trace=trace)
        net.transfer(0, 1, 1e9, tag="unit")
        assert len(trace.transfers) == 1
        record = trace.transfers[0]
        assert record.source == 0
        assert record.destination == 1
        assert record.bits == 1e9
        assert record.tag == "unit"

    def test_busy_accounting(self):
        trace = Trace()
        net = make_network(trace=trace)
        net.transfer(0, 1, 1e9)
        net.transfer(0, 1, 1e9)
        assert trace.total_bits_transferred == 2e9
        assert trace.summary()["transfers"] == 2


class TestBatch:
    REQUESTS = [
        FlowRequest(0, 1, 1e9, not_before=0.5, tag="a"),
        FlowRequest(2, 1, 5e8, tag="b"),  # queues behind "a" on node 1's downlink
        FlowRequest(3, 3, 1e9, not_before=2.0, tag="loop"),
        FlowRequest(1, 0, 2e9, not_before=1.0, tag="c"),
    ]

    @pytest.mark.parametrize("full_duplex", [True, False])
    def test_matches_the_equivalent_transfers_in_request_order(self, full_duplex):
        serial_trace, batch_trace = Trace(), Trace()
        serial = make_network(latency=0.1, full_duplex=full_duplex, trace=serial_trace)
        batched = make_network(latency=0.1, full_duplex=full_duplex, trace=batch_trace)
        expected = [
            serial.transfer(r.source, r.destination, r.bits, not_before=r.not_before, tag=r.tag)
            for r in self.REQUESTS
        ]
        assert batched.batch(self.REQUESTS) == expected
        assert batch_trace.transfers == serial_trace.transfers
        assert [record.tag for record in batch_trace.transfers] == ["a", "b", "c"]

    def test_empty_batch_is_a_noop(self):
        net = make_network()
        assert net.batch([]) == []
        assert net.uplink_free_at(0) == 0.0

    def test_advance_keeps_port_state(self):
        net = make_network()
        net.transfer(0, 1, 1e9)
        net.advance(5.0)
        assert net.uplink_free_at(0) == pytest.approx(1.0)
        (outcome,) = net.batch([FlowRequest(0, 2, 1e9)])
        assert outcome.start == pytest.approx(1.0)
