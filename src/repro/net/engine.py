"""The BSP superstep engine over an explicit topology.

:class:`~repro.simulate.bsp.BSPEngine` with the flow-level
:class:`~repro.net.flows.FlowNetwork` installed: every superstep phase,
the node numbering (0 is the driver), the jitter stream and the
:class:`~repro.simulate.bsp.BSPReport` are inherited; only the
contention discipline differs.  On a ``single-switch`` topology the two
engines' schedules coincide and the differential harness asserts it.
"""

from __future__ import annotations

from repro.core.errors import SimulationError
from repro.hardware.specs import NodeSpec
from repro.net.flows import FlowNetwork, TcpThroughputModel
from repro.net.topology import Topology
from repro.simulate.bsp import BSPEngine
from repro.simulate.overhead import NO_OVERHEAD, FrameworkOverhead
from repro.simulate.rng import JitterModel, LogNormalJitter


class FlowBSPEngine(BSPEngine):
    """Simulates BSP supersteps on a cluster with an explicit fabric."""

    def __init__(
        self,
        node: NodeSpec,
        topology: Topology,
        workers: int,
        overhead: FrameworkOverhead = NO_OVERHEAD,
        jitter: JitterModel = LogNormalJitter(0.0),
        seed: int = 0,
        tcp: TcpThroughputModel | None = None,
        keep_trace: bool = True,
    ):
        self._setup(node, workers, overhead, jitter, seed, keep_trace)
        if topology.host_count != workers + 1:
            raise SimulationError(
                f"topology holds {topology.host_count} hosts;"
                f" workers={workers} needs {workers + 1} (driver + workers)"
            )
        self.topology = topology
        self.network = FlowNetwork(topology, tcp=tcp)
