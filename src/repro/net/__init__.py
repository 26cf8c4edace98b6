"""Flow-level network modeling: topologies, max-min flows, the backend.

The fourth evaluation backend.  Where :mod:`repro.simulate` models the
paper's single-switch testbed (endpoint contention only), this package
makes the fabric explicit: capacitated link graphs
(:mod:`repro.net.topology`), a progressive-filling max-min fair-share
solver (:mod:`repro.net.flows`) whose :class:`FlowNetwork` speaks the
same batch contract as the endpoint network — so the one set of
collective schedules in :mod:`repro.simulate.collectives` runs over it
unchanged — a topology-aware BSP engine (:mod:`repro.net.engine`) and
the :class:`NetworkBackend` that plugs it all into scenarios, sweeps,
the planner and the service.
"""

from repro.net.backend import NetworkBackend, topology_items
from repro.net.engine import FlowBSPEngine
from repro.net.flows import (
    Flow,
    FlowAllocation,
    FlowNetwork,
    FlowRequest,
    RateSegment,
    ReservationLedger,
    TcpThroughputModel,
    max_min_rates,
    solve_flows,
    tcp_throughput_cap_bps,
)
from repro.net.topology import (
    DEFAULT_WAN_LINK,
    TOPOLOGY_KIND_OPTIONS,
    TOPOLOGY_KINDS,
    TOPOLOGY_SWEEP_AXES,
    Link,
    Topology,
    build_topology,
    fat_tree,
    fat_tree_arity,
    fat_tree_capacity,
    geo,
    oversubscribed_racks,
    single_switch,
    torus_2d,
    validate_topology_options,
)

__all__ = [
    "DEFAULT_WAN_LINK",
    "Flow",
    "FlowAllocation",
    "FlowBSPEngine",
    "FlowNetwork",
    "FlowRequest",
    "Link",
    "NetworkBackend",
    "RateSegment",
    "ReservationLedger",
    "TOPOLOGY_KINDS",
    "TOPOLOGY_KIND_OPTIONS",
    "TOPOLOGY_SWEEP_AXES",
    "TcpThroughputModel",
    "Topology",
    "build_topology",
    "fat_tree",
    "fat_tree_arity",
    "fat_tree_capacity",
    "geo",
    "max_min_rates",
    "oversubscribed_racks",
    "single_switch",
    "solve_flows",
    "tcp_throughput_cap_bps",
    "topology_items",
    "torus_2d",
    "validate_topology_options",
]
