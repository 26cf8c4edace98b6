"""Progressive-filling max-min fair-share flow solver.

The endpoint :class:`~repro.simulate.network.Network` serialises
transfers on NIC ports.  On a link *graph*, concurrent flows instead
*share* the links they traverse; the classic steady-state abstraction is
max-min fairness: rates are raised together until some link saturates,
flows through that bottleneck freeze at their fair share, and the
remaining flows keep filling the residual capacity (progressive
filling).  :func:`solve_flows` runs that allocation inside a
discrete-event loop — rates re-solve whenever a flow arrives, a flow
finishes, or a capacity reservation changes — so each flow ends up with
a piecewise-constant rate profile and an exact completion time.

Two modelling choices keep the solver composable with a BSP engine that
issues transfers round by round:

* **Finalised allocations.**  Once a batch of flows is solved, its rate
  profiles are committed to a :class:`ReservationLedger` as reserved
  capacity.  Later batches share only the *residual* — they can never
  retroactively slow a flow whose completion time has already been
  returned.  Within a batch, sharing is true max-min; across batches it
  is FIFO priority, which is exactly how the endpoint network resolves
  cross-phase port conflicts (earlier requests occupy the port first).
* **Latency once per flow.**  A flow's delivery time is its transmission
  finish plus the route's propagation delay — the payload pipelines
  through the path rather than paying store-and-forward latency per
  transfer as the serialised model does.

An optional analytic TCP cap (the csa00 / Mathis et al. square-root
model, ``rate <= MSS / (RTT * sqrt(2p/3))``) bounds each flow's rate by
what a loss rate ``p`` lets a TCP connection sustain over the route's
round-trip time.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.errors import SimulationError
# FlowRequest is defined with the endpoint network and re-exported here.
from repro.simulate.network import FlowRequest, Request, TransferOutcome  # noqa: F401

#: Relative tolerance for "this flow's remaining bits are done" and for
#: bottleneck-share comparisons.  Purely a float-noise guard; all the
#: determinism comes from the fixed iteration orders below.
_REL_EPS = 1e-12


@dataclass(frozen=True)
class Flow:
    """One transfer request routed over the topology graph.

    ``route`` is a tuple of link indices; an empty route is a loop-back
    (or off-graph) flow that only its ``rate_cap_bps`` constrains.
    ``latency_s`` is the route's total propagation delay, added once to
    the transmission finish.
    """

    route: tuple[int, ...]
    bits: float
    not_before: float = 0.0
    latency_s: float = 0.0
    rate_cap_bps: float = math.inf
    tag: str = ""

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise SimulationError(f"bits must be non-negative, got {self.bits}")
        if self.not_before < 0:
            raise SimulationError(f"not_before must be non-negative, got {self.not_before}")
        if self.latency_s < 0:
            raise SimulationError(f"latency_s must be non-negative, got {self.latency_s}")
        if not self.rate_cap_bps > 0:
            raise SimulationError(f"rate_cap_bps must be positive, got {self.rate_cap_bps}")


@dataclass(frozen=True)
class RateSegment:
    """A constant-rate stretch of a flow's transmission."""

    start: float
    end: float
    rate_bps: float


@dataclass(frozen=True)
class FlowAllocation:
    """What the solver assigned to one flow."""

    flow: Flow
    start: float  # first instant the flow transmits at a positive rate
    end: float  # delivery time: transmission finish + route latency
    segments: tuple[RateSegment, ...]

    @property
    def outcome(self) -> TransferOutcome:
        return TransferOutcome(start=self.start, end=self.end)


class ReservationLedger:
    """Time-indexed reserved capacity per link.

    Committed batches appear here as ``(start, end, rate)`` segments;
    :func:`solve_flows` subtracts the overlapping reservations from link
    capacity at each event time and treats segment boundaries as solver
    events (capacity steps).
    """

    def __init__(self) -> None:
        self._segments: dict[int, list[RateSegment]] = {}

    def reserve(self, link: int, segment: RateSegment) -> None:
        if segment.end <= segment.start or segment.rate_bps <= 0:
            return
        self._segments.setdefault(link, []).append(segment)

    def reserved_at(self, link: int, time: float) -> float:
        """Total reserved rate on ``link`` at ``time`` (bit/s)."""
        return sum(
            segment.rate_bps
            for segment in self._segments.get(link, ())
            if segment.start <= time < segment.end
        )

    def next_change_after(self, links: Sequence[int], time: float) -> float | None:
        """Earliest reservation boundary strictly after ``time``."""
        best: float | None = None
        for link in links:
            for segment in self._segments.get(link, ()):
                for bound in (segment.start, segment.end):
                    if bound > time and (best is None or bound < best):
                        best = bound
        return best

    def prune(self, time: float) -> None:
        """Drop segments that end at or before ``time`` (past barriers)."""
        for link in list(self._segments):
            kept = [s for s in self._segments[link] if s.end > time]
            if kept:
                self._segments[link] = kept
            else:
                del self._segments[link]


def max_min_rates(
    routes: Mapping[int, tuple[int, ...]],
    caps: Mapping[int, float],
    residual: Mapping[int, float],
) -> dict[int, float]:
    """One water-filling pass: instantaneous max-min rates.

    ``routes`` maps flow id -> link indices, ``caps`` flow id -> per-flow
    rate cap (may be ``inf``), ``residual`` link -> available capacity.
    Rates satisfy: no link carries more than its residual, no flow
    exceeds its cap, and no flow's rate can grow without shrinking an
    equal-or-slower flow (the max-min property).
    """
    rates: dict[int, float] = {}
    capacity = {link: max(0.0, residual.get(link, 0.0)) for link in set().union(*routes.values(), set())}
    unfrozen = sorted(routes)
    while unfrozen:
        counts: dict[int, int] = {}
        for flow in unfrozen:
            for link in routes[flow]:
                counts[link] = counts.get(link, 0) + 1
        share = min(
            (capacity[link] / counts[link] for link in sorted(counts)), default=math.inf
        )
        cap_floor = min(caps[flow] for flow in unfrozen)
        rate = min(share, cap_floor)
        if not math.isfinite(rate):
            # Only cap-free, link-free flows remain: unbounded rate.
            for flow in unfrozen:
                rates[flow] = math.inf
            break
        threshold = rate * (1.0 + _REL_EPS)
        bottlenecks = {
            link for link in counts if capacity[link] / counts[link] <= threshold
        }
        frozen = [
            flow
            for flow in unfrozen
            if caps[flow] <= threshold or any(link in bottlenecks for link in routes[flow])
        ]
        if not frozen:  # pragma: no cover - float-noise safety valve
            frozen = list(unfrozen)
        for flow in frozen:
            rates[flow] = min(rate, caps[flow])
            for link in routes[flow]:
                capacity[link] = max(0.0, capacity[link] - rates[flow])
        unfrozen = [flow for flow in unfrozen if flow not in set(frozen)]
    return rates


def solve_flows(
    flows: Sequence[Flow],
    capacity: Mapping[int, float],
    ledger: ReservationLedger | None = None,
) -> list[FlowAllocation]:
    """Allocate rates to ``flows`` over links of ``capacity``.

    Runs progressive filling inside an event loop: at every event time
    (flow arrival, flow finish, reservation boundary) the instantaneous
    max-min rates of the active flows are re-solved against the residual
    capacity ``capacity - ledger`` and held constant until the next
    event.  Results are returned in request order.  The ledger is *not*
    modified — committing the returned allocations is the caller's
    choice (see :class:`FlowNetwork <repro.net.flows>`-style wrappers).
    """
    count = len(flows)
    allocations: list[FlowAllocation | None] = [None] * count
    remaining = [flow.bits for flow in flows]
    segments: list[list[RateSegment]] = [[] for _ in range(count)]
    started: list[float | None] = [None] * count
    pending = set(range(count))

    # Zero-bit flows deliver instantly: no transmission, no reservation.
    for index, flow in enumerate(flows):
        if flow.bits == 0:
            allocations[index] = FlowAllocation(
                flow=flow,
                start=flow.not_before,
                end=flow.not_before + flow.latency_s,
                segments=(),
            )
            pending.discard(index)

    if pending:
        time = min(flows[index].not_before for index in pending)
    while pending:
        active = [index for index in pending if flows[index].not_before <= time]
        future = [index for index in pending if flows[index].not_before > time]
        next_arrival = min((flows[index].not_before for index in future), default=None)
        if not active:
            time = next_arrival  # type: ignore[assignment]  # future is non-empty here
            continue
        links = sorted({link for index in active for link in flows[index].route})
        residual = {
            link: capacity[link] - (ledger.reserved_at(link, time) if ledger else 0.0)
            for link in links
        }
        rates = max_min_rates(
            {index: flows[index].route for index in active},
            {index: flows[index].rate_cap_bps for index in active},
            residual,
        )
        candidates: list[float] = []
        if next_arrival is not None:
            candidates.append(next_arrival)
        if ledger is not None:
            change = ledger.next_change_after(links, time)
            if change is not None:
                candidates.append(change)
        finishing: list[tuple[float, int]] = []
        for index in active:
            rate = rates[index]
            if rate > 0:
                finish = time if math.isinf(rate) else time + remaining[index] / rate
                finishing.append((finish, index))
                candidates.append(finish)
        if not candidates:
            raise SimulationError(
                "flow solver stalled: active flows have zero rate and no"
                " future capacity change or arrival"
            )
        next_time = min(candidates)
        for index in active:
            rate = rates[index]
            if rate <= 0:
                continue
            if started[index] is None:
                started[index] = time
            if math.isinf(rate) or time + remaining[index] / rate <= time:
                # Infinite rate, or a residual transmission smaller than
                # one float ulp of the clock: neither can advance
                # ``time``, so deliver now (guarantees loop progress).
                remaining[index] = 0.0
            else:
                if next_time > time:
                    segments[index].append(RateSegment(time, next_time, rate))
                remaining[index] -= rate * (next_time - time)
            if remaining[index] <= flows[index].bits * _REL_EPS:
                remaining[index] = 0.0
                flow = flows[index]
                start = started[index]
                assert start is not None
                allocations[index] = FlowAllocation(
                    flow=flow,
                    start=start,
                    end=next_time + flow.latency_s,
                    segments=tuple(segments[index]),
                )
                pending.discard(index)
        time = next_time

    return [allocation for allocation in allocations if allocation is not None]


def tcp_throughput_cap_bps(
    rtt_s: float, loss_rate: float, mss_bytes: int = 1460
) -> float:
    """The csa00 / Mathis square-root TCP throughput bound, in bit/s.

    ``rate = (MSS * 8) / (RTT * sqrt(2p/3))``.  With zero loss or zero
    round-trip time the model imposes no bound (returns ``inf``).
    """
    if loss_rate < 0 or loss_rate >= 1:
        raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
    if rtt_s < 0:
        raise SimulationError(f"rtt_s must be non-negative, got {rtt_s}")
    if mss_bytes < 1:
        raise SimulationError(f"mss_bytes must be >= 1, got {mss_bytes}")
    if loss_rate == 0 or rtt_s == 0:
        return math.inf
    return (mss_bytes * 8.0) / (rtt_s * math.sqrt(2.0 * loss_rate / 3.0))


@dataclass(frozen=True)
class TcpThroughputModel:
    """Per-flow analytic TCP cap applied by :class:`FlowNetwork`."""

    loss_rate: float
    mss_bytes: int = 1460

    def cap_bps(self, rtt_s: float) -> float:
        return tcp_throughput_cap_bps(rtt_s, self.loss_rate, self.mss_bytes)


class FlowNetwork:
    """A topology plus a reservation ledger: the engine-facing surface.

    :meth:`batch` solves one dependency round of transfers with true
    max-min sharing among them, commits the resulting rate profiles as
    reservations, and returns :class:`TransferOutcome` objects in
    request order.  This is the batch contract
    (:class:`~repro.simulate.network.Fabric`) the endpoint network also
    implements, so the same collectives and BSP engine run over both.
    """

    def __init__(self, topology, tcp: TcpThroughputModel | None = None):
        self.topology = topology
        self.tcp = tcp
        self.ledger = ReservationLedger()
        self._capacity = topology.capacities
        # Telemetry tallies, read by the network backend after a run.
        self.batches_solved = 0
        self.flows_solved = 0

    def reset(self) -> None:
        """Forget all reservations (new simulation epoch)."""
        self.ledger = ReservationLedger()

    def advance(self, time: float) -> None:
        """Drop reservations that ended at or before ``time``."""
        self.ledger.prune(time)

    def batch(self, requests: Sequence[Request]) -> list[TransferOutcome]:
        """Solve one round of concurrent transfers; returns outcomes in order."""
        outcomes: list[TransferOutcome | None] = [None] * len(requests)
        flows: list[Flow] = []
        flow_slots: list[int] = []
        for slot, (source, destination, bits, not_before, tag) in enumerate(requests):
            if bits < 0:
                raise SimulationError(f"bits must be non-negative, got {bits}")
            if not_before < 0:
                raise SimulationError(f"not_before must be non-negative, got {not_before}")
            if source == destination:
                outcomes[slot] = TransferOutcome(not_before, not_before)
                continue
            route = self.topology.route(source, destination)
            latency = self.topology.route_latency(source, destination)
            cap = math.inf
            if self.tcp is not None:
                cap = self.tcp.cap_bps(2.0 * latency)
            flows.append(
                Flow(
                    route=route,
                    bits=bits,
                    not_before=not_before,
                    latency_s=latency,
                    rate_cap_bps=cap,
                    tag=tag,
                )
            )
            flow_slots.append(slot)
        self.batches_solved += 1
        self.flows_solved += len(flows)
        if flows:
            allocations = solve_flows(flows, self._capacity, self.ledger)
            for allocation, slot in zip(allocations, flow_slots):
                for link in allocation.flow.route:
                    for segment in allocation.segments:
                        self.ledger.reserve(link, segment)
                outcomes[slot] = allocation.outcome
        return [outcome for outcome in outcomes if outcome is not None]
