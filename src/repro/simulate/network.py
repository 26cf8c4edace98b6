"""Link-level network model with endpoint contention.

Every node has one full-duplex network port (the 1 GbE NIC of the paper's
cluster).  A point-to-point transfer occupies the sender's uplink and the
receiver's downlink for ``latency + bits / bandwidth`` seconds; transfers
sharing an endpoint serialise, transfers on disjoint endpoints proceed in
parallel.  The switch fabric is assumed non-blocking, which matches a
single-switch rack like the paper's testbed.

Transfers must be requested in non-decreasing order of their earliest
start time per endpoint (conservative discrete-event order); the BSP
engine guarantees this by construction and the network asserts it.

Collectives talk to a network through the *batch contract*
(:class:`Fabric`) — ``batch`` one dependency round of requests, get
:class:`TransferOutcome` objects back in request order, ``advance`` the
clock at each barrier — which the flow-level
:class:`~repro.net.flows.FlowNetwork` implements too.  Here a batch is
just its transfers issued one by one.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple, Protocol

from repro.core.errors import SimulationError
from repro.hardware.specs import LinkSpec
from repro.simulate.trace import Trace, TransferRecord


class TransferOutcome(NamedTuple):
    """Start/end times the network assigned to a transfer request.

    A named tuple rather than a dataclass: every transfer makes one, so
    construction is on the hot path.
    """

    start: float
    end: float


#: A transfer request: ``(source, destination, bits, not_before, tag)``.
#: Fabrics unpack requests positionally, so the collectives' hot loops
#: may pass plain tuples; :class:`FlowRequest` names the same fields.
Request = tuple[int, int, float, float, str]


class FlowRequest(NamedTuple):
    """One host-to-host transfer the BSP engine asks the network for."""

    source: int
    destination: int
    bits: float
    not_before: float = 0.0
    tag: str = ""


class Fabric(Protocol):
    """The batch contract: what collectives and the BSP engine need."""

    def batch(self, requests: Sequence[Request]) -> list[TransferOutcome]: ...

    def advance(self, time: float) -> None: ...


class Network:
    """A set of ``node_count`` ports joined by a non-blocking switch."""

    def __init__(self, link: LinkSpec, node_count: int, trace: Trace | None = None):
        if node_count < 1:
            raise SimulationError(f"node_count must be >= 1, got {node_count}")
        self.link = link
        self.node_count = node_count
        self.trace = trace
        self._uplink_free_at = [0.0] * node_count
        self._downlink_free_at = [0.0] * node_count

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise SimulationError(f"node {node} out of range 0..{self.node_count - 1}")

    def reset(self) -> None:
        """Forget all link occupancy (new simulation epoch)."""
        self._uplink_free_at = [0.0] * self.node_count
        self._downlink_free_at = [0.0] * self.node_count

    def uplink_free_at(self, node: int) -> float:
        """Earliest time ``node`` can start sending."""
        self._check_node(node)
        return self._uplink_free_at[node]

    def advance(self, time: float) -> None:
        """Nothing to drop: each port keeps only its free-at time."""

    def transfer(
        self, source: int, destination: int, bits: float, not_before: float = 0.0, tag: str = ""
    ) -> TransferOutcome:
        """Occupy the links for one ``source -> destination`` transfer.

        The transfer starts when the payload is ready (``not_before``) and
        both endpoints are free; it completes ``latency + bits/B`` later.
        A loop-back transfer (``source == destination``) is free: the data
        never leaves the node.
        """
        [outcome] = self.batch([FlowRequest(source, destination, bits, not_before, tag)])
        return outcome

    def batch(self, requests: Sequence[Request]) -> list[TransferOutcome]:
        """Issue one round of :meth:`transfer` calls in request order.

        The hot path of every collective, hence the inlined body.
        """
        uplink = self._uplink_free_at
        downlink = self._downlink_free_at
        link = self.link
        count = self.node_count
        trace = self.trace
        outcomes = []
        for source, destination, bits, not_before, tag in requests:
            if not (0 <= source < count and 0 <= destination < count):
                self._check_node(source)
                self._check_node(destination)
            if bits < 0:
                raise SimulationError(f"bits must be non-negative, got {bits}")
            if not_before < 0:
                raise SimulationError(f"not_before must be non-negative, got {not_before}")
            if source == destination:
                outcomes.append(TransferOutcome(not_before, not_before))
                continue
            start = max(not_before, uplink[source], downlink[destination])
            end = start + link.transfer_seconds(bits)
            if not link.full_duplex:
                # Half duplex: sending also blocks the sender's receive side
                # and vice versa, so both directions of both endpoints busy out.
                downlink[source] = end
                uplink[destination] = end
            uplink[source] = end
            downlink[destination] = end
            if trace is not None:
                trace.record_transfer(TransferRecord(source, destination, bits, start, end, tag))
            outcomes.append(TransferOutcome(start, end))
        return outcomes
