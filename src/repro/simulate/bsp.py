"""The BSP superstep engine — the simulated stand-in for the paper's testbed.

A run consists of ``iterations`` supersteps.  Each superstep performs, in
order (Section III of the paper: computation and communication do not
overlap):

1. framework overhead (scheduling/task launch),
2. an optional driver -> workers broadcast (model parameters),
3. one compute task per worker (with optional straggler jitter),
4. an aggregation collective (gradient collection),
5. the synchronisation barrier (implicit: the next superstep starts when
   the aggregate is complete).

Node numbering: node 0 is the driver (a dedicated machine, as in the
paper's Spark setup); workers are nodes ``1..n``.  With
``aggregation="ring"`` there is no driver involvement and the barrier is
the slowest worker's all-reduce completion.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import SimulationError
from repro.hardware.specs import LinkSpec, NodeSpec
from repro.simulate import collectives
from repro.simulate.events import EventQueue
from repro.simulate.network import Fabric, Network
from repro.simulate.overhead import NO_OVERHEAD, FrameworkOverhead
from repro.simulate.rng import JitterModel, LogNormalJitter, stream
from repro.simulate.trace import ComputeRecord, Trace

#: Aggregation strategies the engine knows how to schedule.  The
#: ``*_root`` variants aggregate *among the workers* (the lowest worker
#: acts as master, as the closed-form topologies assume) instead of
#: shipping the result to the dedicated driver — they are the schedules
#: whose zero-jitter timing reproduces the analytical
#: :mod:`repro.core.communication` shapes exactly.
AGGREGATIONS = ("none", "linear", "gather_root", "tree", "tree_root", "two_wave", "ring")


@dataclass(frozen=True)
class SuperstepPlan:
    """What one superstep does, independent of the worker count.

    ``operations_per_worker`` is the FLOP count each worker executes (the
    batch is assumed evenly split; pass a sequence for explicit per-worker
    loads).  ``broadcast_bits``/``aggregate_bits`` are the payloads of the
    two communication phases; either may be zero.
    """

    operations_per_worker: float | Sequence[float]
    broadcast_bits: float = 0.0
    aggregate_bits: float = 0.0
    aggregation: str = "two_wave"

    def __post_init__(self) -> None:
        if self.aggregation not in AGGREGATIONS:
            raise SimulationError(
                f"unknown aggregation {self.aggregation!r}; choose from {AGGREGATIONS}"
            )
        if self.broadcast_bits < 0:
            raise SimulationError(f"broadcast_bits must be non-negative, got {self.broadcast_bits}")
        if self.aggregate_bits < 0:
            raise SimulationError(f"aggregate_bits must be non-negative, got {self.aggregate_bits}")

    def loads(self, workers: int) -> list[float]:
        """Resolve per-worker operation counts for ``workers`` nodes."""
        if isinstance(self.operations_per_worker, (int, float)):
            value = float(self.operations_per_worker)
            if value < 0:
                raise SimulationError(f"operations must be non-negative, got {value}")
            return [value] * workers
        loads = [float(v) for v in self.operations_per_worker]
        if len(loads) != workers:
            raise SimulationError(
                f"explicit loads for {len(loads)} workers do not match workers={workers}"
            )
        if any(v < 0 for v in loads):
            raise SimulationError("operations must be non-negative")
        return loads


@dataclass
class BSPReport:
    """Outcome of a simulated BSP run."""

    workers: int
    iteration_seconds: list[float]
    trace: Trace
    compute_spans: list[float] = field(default_factory=list)
    communication_spans: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Wall-clock of the whole run."""
        return float(sum(self.iteration_seconds))

    @property
    def mean_iteration_seconds(self) -> float:
        """Average superstep duration — what Figure 2 plots (one iteration)."""
        if not self.iteration_seconds:
            raise SimulationError("report contains no iterations")
        return float(np.mean(self.iteration_seconds))


class BSPEngine:
    """Simulates BSP supersteps on a homogeneous cluster.

    Transfers go through the batch contract
    (:class:`~repro.simulate.network.Fabric`) of the endpoint
    :class:`~repro.simulate.network.Network`;
    :class:`~repro.net.engine.FlowBSPEngine` swaps in a flow-level one.
    """

    def __init__(
        self,
        node: NodeSpec,
        link: LinkSpec,
        workers: int,
        overhead: FrameworkOverhead = NO_OVERHEAD,
        jitter: JitterModel = LogNormalJitter(0.0),
        seed: int = 0,
        keep_trace: bool = True,
    ):
        self._setup(node, workers, overhead, jitter, seed, keep_trace)
        self.link = link
        # Node 0 is the driver; 1..workers are the workers.
        self.network: Fabric = Network(link, workers + 1, trace=self.trace)

    def _setup(
        self,
        node: NodeSpec,
        workers: int,
        overhead: FrameworkOverhead,
        jitter: JitterModel,
        seed: int,
        keep_trace: bool,
    ) -> None:
        """Everything but the fabric, which each engine class installs."""
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self.node = node
        self.workers = workers
        self.overhead = overhead
        self.jitter = jitter
        self.seed = seed
        self.trace = Trace() if keep_trace else None
        self.clock = EventQueue()
        self._jitter_rng = stream(seed, "bsp-jitter")

    @property
    def driver(self) -> int:
        """Node id of the dedicated driver."""
        return 0

    @property
    def worker_ids(self) -> list[int]:
        """Node ids of the workers."""
        return list(range(1, self.workers + 1))

    def run(self, plan: SuperstepPlan, iterations: int) -> BSPReport:
        """Execute ``iterations`` supersteps of ``plan``."""
        if iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {iterations}")
        loads = plan.loads(self.workers)
        iteration_seconds: list[float] = []
        compute_spans: list[float] = []
        communication_spans: list[float] = []
        barrier = self.clock.now
        for _iteration in range(iterations):
            # Transfers of past supersteps are fully drained at the
            # barrier; the fabric may drop what it kept of them.
            self.network.advance(barrier)
            end, compute_span = self._superstep(plan, loads, barrier)
            iteration_seconds.append(end - barrier)
            compute_spans.append(compute_span)
            communication_spans.append(max(0.0, (end - barrier) - compute_span))
            self.clock.advance_to(end)
            barrier = end
        return BSPReport(
            workers=self.workers,
            iteration_seconds=iteration_seconds,
            trace=self.trace if self.trace is not None else Trace(),
            compute_spans=compute_spans,
            communication_spans=communication_spans,
        )

    def _superstep(
        self, plan: SuperstepPlan, loads: list[float], barrier: float
    ) -> tuple[float, float]:
        dispatch = barrier + self.overhead.delay(self.workers)

        # Phase 1: parameter broadcast (torrent-like).
        if plan.broadcast_bits > 0:
            bits = plan.broadcast_bits
            holds_at = collectives.binomial_broadcast(
                self.network, self.driver, dispatch, self.worker_ids, bits, "broadcast"
            )
            task_start = {w: holds_at[w] for w in self.worker_ids}
        else:
            task_start = {w: dispatch for w in self.worker_ids}

        # Phase 2: per-worker computation with straggler jitter.
        ready: dict[int, float] = {}
        first_start = min(task_start.values())
        last_finish = first_start
        for worker, operations in zip(self.worker_ids, loads):
            duration = self.node.seconds_for(operations) * self.jitter.sample(self._jitter_rng)
            start = task_start[worker]
            finish = start + duration
            ready[worker] = finish
            last_finish = max(last_finish, finish)
            if self.trace is not None:
                self.trace.record_compute(
                    ComputeRecord(
                        node=worker, operations=operations, start=start, end=finish, tag="task"
                    )
                )
        compute_span = last_finish - barrier

        # Phase 3: aggregation.
        if plan.aggregate_bits <= 0 or plan.aggregation == "none":
            return last_finish, compute_span
        network, bits, tag = self.network, plan.aggregate_bits, "aggregate"
        if plan.aggregation == "linear":
            end = collectives.linear_gather(network, ready, self.driver, bits, tag)
        elif plan.aggregation == "gather_root":
            # Lowest worker is the master: its own payload never crosses
            # the network, so n workers cost n - 1 serialised transfers.
            end = collectives.linear_gather(network, ready, min(ready), bits, tag)
        elif plan.aggregation == "tree_root":
            _root, end = collectives.tree_reduce(network, ready, bits, tag)
        elif plan.aggregation == "tree":
            # Reduce among the workers, then one hop to the driver.
            root, root_time = collectives.tree_reduce(network, ready, bits, tag)
            end = collectives.linear_gather(network, {root: root_time}, self.driver, bits, tag)
        elif plan.aggregation == "two_wave":
            end = collectives.two_wave_aggregate(network, ready, self.driver, bits, tag)
        elif plan.aggregation == "ring":
            end = max(collectives.ring_allreduce(network, ready, bits, tag).values())
        else:  # pragma: no cover - guarded in SuperstepPlan
            raise SimulationError(f"unhandled aggregation {plan.aggregation!r}")
        return end, compute_span
