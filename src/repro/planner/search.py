"""The plan optimiser: evaluate the search space, prune, pick, refine.

The pipeline:

1. :func:`~repro.planner.spec.derived_scenario` turns the plan's search
   axes into a scenario sweep, so every candidate configuration is
   evaluated through the scenario engine — batched ``times()`` per grid
   point, chunked task-graph scheduling (:mod:`repro.sched`) with
   process-pool parallelism for expensive backends, content-hash disk
   caching, and bit-identical serial vs pooled payloads.
2. Each (configuration × worker count) pair becomes a priced
   :class:`~repro.planner.report.PlanPoint`; constraints mark violations.
3. The objective picks the recommended point among the feasible ones
   (deterministic total order — ties can never depend on evaluation
   order), and :func:`~repro.planner.pareto.pareto_frontier` reports
   every defensible alternative on (cost, time).
4. The chosen configuration's *analytic* model is refined beyond the
   grid with golden-section search
   (:func:`~repro.core.scaling.refine_optimal_workers`), its
   marginal-speedup-per-dollar table is tabulated, and its optimum is
   re-derived under ±20 % FLOPS/bandwidth perturbations (sensitivity).

Whatever backend evaluates the candidates (analytic, simulated,
calibrated), refinement and sensitivity always use the analytic cost
tree: they are continuous-domain questions only the closed form answers.
"""

from __future__ import annotations

import time as _time
from collections.abc import Mapping

from repro.core.errors import ModelError, PlanError
from repro.core.scaling import refine_optimal_workers
from repro.core.speedup import SpeedupCurve
from repro.planner.pareto import pareto_frontier
from repro.planner.report import PlanPoint, Recommendation
from repro.planner.spec import PlanSpec, derived_scenario
from repro.scenarios.compile import apply_overrides, compile_scenario, resolve_hardware
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import SweepResult, SweepRunner

#: The hardware perturbations of the sensitivity study (±20 %).
SENSITIVITY_FACTORS = (0.8, 1.2)


def work_units_per_run(kind: str, params: Mapping[str, object]) -> float:
    """The work accomplished by one run, in kind-appropriate units.

    Throughput (work per second) needs a numerator: samples per superstep
    for the strong-scaling gradient-descent kinds, total operations (per
    superstep × iterations, matching the modelled time) for generic BSP.
    The weak-scaling kinds model time *per training instance* and belief
    propagation one inference pass, so their unit of work is 1 —
    throughput degenerates to ``1 / t(n)``.  Units are only comparable
    within one plan (the kind is fixed across its candidates), which is
    all the objective needs.

    Because today's search axes (workers, nodes, links, topologies)
    never vary the work parameters, work units are constant across one
    plan's candidates and the ``max-throughput`` objective *selects* the
    same point as ``min-time`` — its value is the reported metric
    (``throughput_per_s`` in every payload and CSV row).  The per-kind
    cases here keep that metric honest, and keep selection correct if a
    work axis (e.g. a swept ``batch_size``) ever joins the search space.
    """
    if kind in ("gradient_descent", "spark_gradient_descent"):
        return float(params["batch_size"])  # type: ignore[arg-type]
    if kind == "bsp":
        # The bsp kind's time covers all its iterations; so must the work.
        iterations = float(params.get("iterations", 1))  # type: ignore[arg-type]
        return float(params["operations_per_superstep"]) * iterations  # type: ignore[arg-type]
    return 1.0


def point_cost_usd(
    plan: PlanSpec, node_slug: str, workers: int, time_s: float
) -> float:
    """Dollars to execute the plan's ``runs`` runs on this candidate."""
    return _cost_usd(
        plan.price_per_node_hour(node_slug),
        plan.node_is_shared_memory(node_slug),
        plan.runs,
        workers,
        time_s,
    )


def _cost_usd(
    price: float, shared_memory: bool, runs: int, workers: int, time_s: float
) -> float:
    """The one pricing formula, over a node's already-resolved price."""
    hours = time_s * runs / 3600.0
    if shared_memory:
        return price * hours  # whole machine, however many cores run
    return workers * price * hours


def _candidate_points(
    plan: PlanSpec, scenario: ScenarioSpec, result: SweepResult
) -> list[PlanPoint]:
    """Price and constraint-check every (configuration × workers) pair."""
    base_node = plan.scenario.hardware.node or ""
    base_link = plan.scenario.hardware.link or ""
    base_topology = str(plan.scenario.algorithm.params_dict.get("topology", ""))
    if plan.scenario.algorithm.kind == "bsp" and not base_topology:
        base_topology = "tree"  # the bsp kind's documented default
    candidates: list[PlanPoint] = []
    for point in result.points:
        overrides = point["overrides"]
        node = str(overrides.get("node", base_node))
        link = str(overrides.get("link", base_link))
        topology = str(overrides.get("topology", base_topology))
        if not node:
            raise PlanError(
                f"plan {plan.name!r}: candidate has no node slug to price"
            )
        point_spec = apply_overrides(scenario, overrides)
        units = work_units_per_run(
            point_spec.algorithm.kind, point_spec.algorithm.params_dict
        )
        # One catalog lookup per configuration, not per worker count.
        price = plan.price_per_node_hour(node)
        shared_memory = plan.node_is_shared_memory(node)
        for n, t, s, e in zip(
            point["workers"],
            point["times_s"],
            point["speedups"],
            point["efficiencies"],
        ):
            cost = _cost_usd(price, shared_memory, plan.runs, int(n), float(t))
            violations = plan.constraints.violations(float(t), cost, float(e))
            candidates.append(
                PlanPoint(
                    node=node,
                    link=link,
                    topology=topology,
                    workers=int(n),
                    time_s=float(t),
                    speedup=float(s),
                    efficiency=float(e),
                    cost_usd=cost,
                    throughput_per_s=units / float(t),
                    violations=violations,
                )
            )
    return candidates


def _objective_key(objective: str):
    """A deterministic total order: the objective, then stable tie-breaks.

    Ties always break toward fewer dollars, then fewer seconds, then
    fewer machines, then lexicographic configuration — never toward
    whatever order the pool happened to finish in.
    """
    def config_key(point: PlanPoint):
        return (point.workers, point.node, point.link, point.topology)

    if objective == "min-time":
        return lambda p: (p.time_s, p.cost_usd) + config_key(p)
    if objective == "min-cost":
        return lambda p: (p.cost_usd, p.time_s) + config_key(p)
    if objective == "max-throughput":
        return lambda p: (-p.throughput_per_s, p.cost_usd) + config_key(p)
    raise PlanError(f"unknown objective {objective!r}")  # pragma: no cover


def _chosen_overrides(chosen: PlanPoint, plan: PlanSpec) -> dict[str, object]:
    """The sweep overrides that reproduce the chosen configuration."""
    overrides: dict[str, object] = {}
    if plan.search.nodes:
        overrides["node"] = chosen.node
    if plan.search.links:
        overrides["link"] = chosen.link
    if plan.search.topologies:
        overrides["topology"] = chosen.topology
    return overrides


def _marginal_rows(chosen_config: list[PlanPoint]) -> tuple[dict, ...]:
    """Marginal speedup per dollar along the chosen configuration's grid.

    One row per grid step: what the next increment of machines buys
    (Δspeedup) and costs (Δcost for the plan's runs).  ``speedup_per_usd``
    is omitted (None) when the step does not cost money — past the knee a
    step can even *save* money by finishing faster.
    """
    ordered = sorted(chosen_config, key=lambda p: p.workers)
    rows = []
    for before, after in zip(ordered, ordered[1:]):
        delta_speedup = after.speedup - before.speedup
        delta_cost = after.cost_usd - before.cost_usd
        rows.append(
            {
                "from_workers": before.workers,
                "to_workers": after.workers,
                "delta_speedup": delta_speedup,
                "delta_cost_usd": delta_cost,
                "speedup_per_usd": (
                    delta_speedup / delta_cost if delta_cost > 0 else None
                ),
            }
        )
    return tuple(rows)


def _sensitivity_rows(
    point_spec: ScenarioSpec, plan: PlanSpec
) -> tuple[dict, ...]:
    """The optimum under ±20 % FLOPS and bandwidth perturbations.

    Answers "how fragile is the recommendation": if −20 % bandwidth moves
    the optimal worker count materially, the decision hinges on a number
    that should be measured, not assumed.  Evaluated analytically (the
    perturbation is a what-if on the closed form).
    """
    resolved = resolve_hardware(point_spec)
    base_model = compile_scenario(point_spec)
    base_curve = base_model.curve(point_spec.workers, point_spec.baseline_workers)
    rows = [
        {
            "perturbation": "base",
            "optimal_workers": base_curve.optimal_workers,
            "peak_speedup": base_curve.peak_speedup,
        }
    ]
    axes: list[tuple[str, str]] = [("flops", "flops")]
    if resolved.bandwidth_bps is not None:
        axes.append(("bandwidth_bps", "bandwidth"))
    for hardware_key, label in axes:
        for factor in SENSITIVITY_FACTORS:
            data = point_spec.to_dict()
            hardware = dict(data.get("hardware", {}))
            # Inline values win over catalog slugs, so scaling the
            # resolved number perturbs exactly what the model consumed.
            hardware["flops"] = resolved.flops
            if resolved.bandwidth_bps is not None:
                hardware["bandwidth_bps"] = resolved.bandwidth_bps
                hardware["latency_s"] = resolved.latency_s
            base_value = resolved.flops if hardware_key == "flops" else resolved.bandwidth_bps
            hardware[hardware_key] = base_value * factor
            data["hardware"] = hardware
            from repro.scenarios.spec import parse_scenario

            perturbed = parse_scenario(data)
            curve = compile_scenario(perturbed).curve(
                perturbed.workers, perturbed.baseline_workers
            )
            rows.append(
                {
                    "perturbation": f"{label} {factor - 1.0:+.0%}",
                    "optimal_workers": curve.optimal_workers,
                    "peak_speedup": curve.peak_speedup,
                }
            )
    return tuple(rows)


def run_plan(
    plan: PlanSpec,
    runner: SweepRunner | None = None,
    backend: str | None = None,
) -> Recommendation:
    """Optimise ``plan`` and return the full recommendation report.

    ``runner`` controls evaluation (serial / process pool / caching);
    ``backend`` overrides the scenario's evaluation backend, so the same
    plan can be answered analytically, stress-checked under the simulated
    backend's jitter and stragglers, or smoothed through calibration.
    """
    started = _time.perf_counter()
    scenario = derived_scenario(plan, backend=backend)
    sweep_runner = runner or SweepRunner()
    result = sweep_runner.run(scenario)

    candidates = _candidate_points(plan, scenario, result)
    feasible = [point for point in candidates if point.feasible]
    violation_counts: dict[str, int] = {}
    for point in candidates:
        for name in point.violations:
            violation_counts[name] = violation_counts.get(name, 0) + 1

    frontier_input = [
        {"cost_usd": p.cost_usd, "time_s": p.time_s, "_index": i}
        for i, p in enumerate(candidates)
        if p.feasible
    ]
    pareto = tuple(
        candidates[entry["_index"]] for entry in pareto_frontier(frontier_input)
    )

    chosen: PlanPoint | None = None
    analytic_optimal = None
    refined = None
    knee = None
    marginal: tuple[dict, ...] = ()
    sensitivity: tuple[dict, ...] = ()
    if feasible:
        chosen = min(feasible, key=_objective_key(plan.objective))
        overrides = _chosen_overrides(chosen, plan)
        point_spec = apply_overrides(scenario, overrides)
        # The continuous-domain questions are answered on the analytic
        # cost tree of the chosen configuration, whatever backend
        # produced the discrete candidate times.
        analytic_model = compile_scenario(point_spec)
        analytic_curve = analytic_model.curve(
            point_spec.workers, point_spec.baseline_workers
        )
        analytic_optimal = analytic_curve.optimal_workers
        if plan.refine:
            try:
                refined = refine_optimal_workers(
                    analytic_model, min(point_spec.workers), max(point_spec.workers)
                )
            except ModelError:
                refined = None  # no continuation (tabulated / Monte-Carlo)
        chosen_config = sorted(
            (
                p
                for p in candidates
                if (p.node, p.link, p.topology)
                == (chosen.node, chosen.link, chosen.topology)
            ),
            key=lambda p: p.workers,
        )
        # One knee definition for the whole codebase: rebuild the chosen
        # configuration's curve (baseline from the grid, so the speedups
        # are bit-identical to the stored ones) and ask it.
        chosen_curve = SpeedupCurve.from_times(
            [p.workers for p in chosen_config],
            [p.time_s for p in chosen_config],
            baseline_workers=point_spec.baseline_workers,
        )
        knee = chosen_curve.knee(plan.knee_fraction)
        marginal = _marginal_rows(chosen_config)
        sensitivity = _sensitivity_rows(point_spec, plan)

    return Recommendation(
        plan=plan.name,
        content_hash=plan.content_hash(),
        objective=plan.objective,
        backend=scenario.backend.kind,
        runs=plan.runs,
        constraints=plan.constraints.to_dict(),
        chosen=chosen,
        pareto=pareto,
        candidates=tuple(candidates),
        analytic_optimal_workers=analytic_optimal,
        refined_workers=refined,
        knee_workers=knee,
        knee_fraction=plan.knee_fraction,
        marginal=marginal,
        sensitivity=sensitivity,
        violation_counts=violation_counts,
        stats={
            **result.stats,
            "configurations": len(result.points),
            "candidate_points": len(candidates),
            "planner_elapsed_s": _time.perf_counter() - started,
        },
    )
