"""The network evaluation backend: topology as a scenario axis.

Implements :class:`~repro.core.backend.EvaluationBackend` by replaying
each compiled workload's BSP transfer schedule through the flow-level
:class:`~repro.net.engine.FlowBSPEngine` over an explicit cluster
topology.  Everything else matches :class:`~repro.simulate.backend.
SimulatedBackend` — per-point seeds derive from the target's content
identity and the worker count (never from process placement), so
network sweeps are bit-identical serial or pooled — which is what makes
the two backends differentially comparable on ``single-switch``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.backend import EvaluationBackend, EvaluationTarget
from repro.core.errors import SimulationError
from repro.net.engine import FlowBSPEngine
from repro.net.flows import TcpThroughputModel
from repro.net.topology import TOPOLOGY_KINDS, build_topology
from repro.obs.metrics import get_registry
from repro.simulate.overhead import NO_OVERHEAD, FrameworkOverhead
from repro.simulate.rng import StragglerJitter, derive_seed

_FLOW_ROUNDS = get_registry().counter(
    "repro_backends_flow_rounds_total",
    "Max-min sharing rounds solved by network-backend engines",
)
_FLOWS = get_registry().counter(
    "repro_backends_flows_total",
    "Individual flows routed by network-backend engines",
)


def topology_items(options: Mapping[str, object]) -> tuple[tuple[str, object], ...]:
    """Canonical hashable form of a topology options mapping."""
    items = []
    for key, value in sorted(options.items()):
        if isinstance(value, Mapping):
            value = tuple(sorted(value.items()))
        items.append((key, value))
    return tuple(items)


@dataclass(frozen=True)
class NetworkBackend(EvaluationBackend):
    """Evaluate targets on the flow-level network simulator.

    Parameters
    ----------
    topology_kind:
        One of :data:`~repro.net.topology.TOPOLOGY_KINDS`; the fabric a
        per-point topology is built over (``workers + 1`` hosts).
    topology_options:
        Kind-specific options as a sorted item tuple (hashable, like
        every other frozen backend field); build with
        :func:`topology_items`.  May include a ``tcp`` sub-tuple for the
        analytic TCP throughput cap.
    iterations, seed, jitter_sigma, straggler_fraction,
    straggler_slowdown, overhead:
        Exactly as on :class:`~repro.simulate.backend.SimulatedBackend`.
    """

    topology_kind: str = "single-switch"
    topology_options: tuple[tuple[str, object], ...] = ()
    iterations: int = 3
    seed: int = 0
    jitter_sigma: float = 0.0
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 2.0
    overhead: FrameworkOverhead = field(default=NO_OVERHEAD)

    name: ClassVar[str] = "network"

    def __post_init__(self) -> None:
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise SimulationError(
                f"unknown topology kind {self.topology_kind!r};"
                f" choose from {TOPOLOGY_KINDS}"
            )
        if self.iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        self.jitter()
        self.tcp_model()

    def jitter(self) -> StragglerJitter:
        """The task-time noise model these settings describe."""
        return StragglerJitter(
            sigma=self.jitter_sigma,
            straggler_fraction=self.straggler_fraction,
            straggler_slowdown=self.straggler_slowdown,
        )

    def options_dict(self) -> dict[str, object]:
        """The topology options as a plain mapping (sans ``kind``/``tcp``)."""
        return {
            key: value
            for key, value in self.topology_options
            if key not in ("kind", "tcp")
        }

    def tcp_model(self) -> TcpThroughputModel | None:
        """The per-flow TCP cap, if the topology block configured one."""
        for key, value in self.topology_options:
            if key == "tcp":
                tcp = dict(value)  # type: ignore[call-overload]
                return TcpThroughputModel(
                    loss_rate=float(tcp["loss_rate"]),
                    mss_bytes=int(tcp.get("mss_bytes", 1460)),
                )
        return None

    def evaluate(self, target: EvaluationTarget, workers: Iterable[int]) -> np.ndarray:
        workload = target.workload
        if workload is None:
            raise SimulationError(
                f"target {target.label or target.model!r} has no BSP-expressible"
                " simulation workload; use the analytic backend"
            )
        jitter = self.jitter()
        tcp = self.tcp_model()
        options = self.options_dict()
        times = []
        for n in workers:
            topology = build_topology(self.topology_kind, n + 1, workload.link, options)
            engine = FlowBSPEngine(
                node=workload.node,
                topology=topology,
                workers=n,
                overhead=self.overhead,
                jitter=jitter,
                seed=derive_seed(self.seed, "network-backend", target.key, f"n={n}"),
                tcp=tcp,
                keep_trace=False,
            )
            report = engine.run(workload.plan_for(n), self.iterations)
            _FLOW_ROUNDS.inc(engine.network.batches_solved)
            _FLOWS.inc(engine.network.flows_solved)
            seconds = report.mean_iteration_seconds * workload.model_iterations
            if workload.amortized:
                seconds /= n
            times.append(seconds)
        return np.asarray(times, dtype=float)

    def config(self) -> dict:
        topology: dict[str, object] = {"kind": self.topology_kind}
        for key, value in self.topology_options:
            if key == "kind":
                continue
            topology[key] = dict(value) if key == "tcp" else value  # type: ignore[call-overload]
        return {
            "backend": self.name,
            "topology": topology,
            "iterations": self.iterations,
            "seed": self.seed,
            "jitter_sigma": self.jitter_sigma,
            "straggler_fraction": self.straggler_fraction,
            "straggler_slowdown": self.straggler_slowdown,
            "overhead": {
                "superstep_seconds": self.overhead.superstep_seconds,
                "per_worker_seconds": self.overhead.per_worker_seconds,
            },
        }
