"""The simulated evaluation backend: experiments as a drop-in evaluator.

Implements :class:`~repro.core.backend.EvaluationBackend` by driving the
discrete-event :class:`~repro.simulate.bsp.BSPEngine` over a worker
grid.  Each grid point gets a fresh engine whose seed is derived from
the target's content identity and the worker count — never from process
or pool-worker identity — so a simulated sweep produces bit-identical
results whether its points are evaluated serially or on a process pool.

With zero jitter, zero stragglers and zero framework overhead, the
backend reproduces the deterministic transfer-level schedule; for
workloads whose collectives match their closed forms (see
:mod:`repro.simulate.workload`), that schedule *is* the analytical
model, which is what the agreement property tests pin.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.backend import EvaluationBackend, EvaluationTarget
from repro.core.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.simulate.bsp import BSPEngine
from repro.simulate.overhead import NO_OVERHEAD, FrameworkOverhead
from repro.simulate.rng import StragglerJitter, derive_seed

_ENGINE_EVENTS = get_registry().counter(
    "repro_backends_engine_events_total",
    "Discrete events executed by simulated-backend BSP engines",
)
_ENGINE_RUNS = get_registry().counter(
    "repro_backends_engine_runs_total",
    "BSP engine runs launched by the simulated backend",
)


@dataclass(frozen=True)
class SimulatedBackend(EvaluationBackend):
    """Evaluate targets by running their BSP workload on the simulator.

    Parameters
    ----------
    iterations:
        Supersteps sampled per grid point; the reported time is the mean
        superstep (more iterations average out jitter noise).
    seed:
        Root seed.  Per-point engine seeds derive from
        ``(seed, target.key, n)``, making results independent of
        evaluation order and process placement.
    jitter_sigma, straggler_fraction, straggler_slowdown:
        The task-time noise model (see
        :class:`~repro.simulate.rng.StragglerJitter`).
    overhead:
        Per-superstep framework overhead (scheduling, task launch).
    """

    iterations: int = 3
    seed: int = 0
    jitter_sigma: float = 0.0
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 2.0
    overhead: FrameworkOverhead = NO_OVERHEAD

    name: ClassVar[str] = "simulated"

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        # Jitter parameter ranges are enforced by StragglerJitter itself.
        self.jitter()

    def jitter(self) -> StragglerJitter:
        """The task-time noise model these settings describe."""
        return StragglerJitter(
            sigma=self.jitter_sigma,
            straggler_fraction=self.straggler_fraction,
            straggler_slowdown=self.straggler_slowdown,
        )

    def evaluate(self, target: EvaluationTarget, workers: Iterable[int]) -> np.ndarray:
        workload = target.workload
        if workload is None:
            raise SimulationError(
                f"target {target.label or target.model!r} has no BSP-expressible"
                " simulation workload; use the analytic backend"
            )
        jitter = self.jitter()
        times = []
        for n in workers:
            engine = BSPEngine(
                node=workload.node,
                link=workload.link,
                workers=n,
                overhead=self.overhead,
                jitter=jitter,
                seed=derive_seed(self.seed, "simulated-backend", target.key, f"n={n}"),
                keep_trace=False,
            )
            report = engine.run(workload.plan_for(n), self.iterations)
            _ENGINE_RUNS.inc()
            _ENGINE_EVENTS.inc(engine.clock.processed)
            seconds = report.mean_iteration_seconds * workload.model_iterations
            if workload.amortized:
                seconds /= n
            times.append(seconds)
        return np.asarray(times, dtype=float)

    def config(self) -> dict:
        return {
            "backend": self.name,
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
