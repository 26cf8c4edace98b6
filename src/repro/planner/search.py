"""The plan optimiser: evaluate the search space, prune, pick, refine.

The pipeline:

1. :func:`~repro.planner.spec.derived_scenario` turns the plan's search
   axes into a scenario sweep, so every candidate configuration is
   evaluated through the scenario engine — batched ``times()`` per grid
   point, chunked task-graph scheduling (:mod:`repro.sched`) with
   process-pool parallelism for expensive backends, content-hash disk
   caching, and bit-identical serial vs pooled payloads.
2. Each (configuration × worker count) pair becomes a priced row of one
   :class:`~repro.planner.report.CandidateTable` (float64 columns);
   constraint masks mark violations.
3. The objective picks the recommended row among the feasible ones
   (deterministic total order — ties can never depend on evaluation
   order), and :func:`~repro.planner.pareto.frontier_indices` reports
   every defensible alternative on (cost, time).  Only the rows a report
   shows become :class:`~repro.planner.report.PlanPoint` objects.
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

import numpy as np

from repro.core.errors import ModelError, PlanError
from repro.core.scaling import refine_optimal_workers
from repro.core.speedup import SpeedupCurve
from repro.planner.pareto import frontier_indices
from repro.planner.report import CandidateTable, PlanPoint, Recommendation
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
    price: float, shared_memory: bool, runs: float, workers, time_s
):
    """The one pricing formula, over a node's already-resolved price.

    Elementwise: ``workers`` and ``time_s`` may be scalars or float64
    columns, and numpy's ``*`` and ``/`` give the same bits per element
    as the scalar form does.
    """
    hours = time_s * runs / 3600.0
    if shared_memory:
        return price * hours  # whole machine, however many cores run
    return workers * price * hours


def _candidate_table(
    plan: PlanSpec, scenario: ScenarioSpec, result: SweepResult
) -> CandidateTable:
    """Price and constraint-check every (configuration × workers) pair.

    One configuration (sweep point) at a time, each priced over its whole
    worker grid at once.
    """
    base_node = plan.scenario.hardware.node or ""
    base_link = plan.scenario.hardware.link or ""
    base_topology = str(plan.scenario.algorithm.params_dict.get("topology", ""))
    if plan.scenario.algorithm.kind == "bsp" and not base_topology:
        base_topology = "tree"  # the bsp kind's documented default
    runs = float(plan.runs)
    configs: list[tuple[str, str, str]] = []
    parts: list[tuple[np.ndarray, ...]] = []
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
        workers = np.asarray(point["workers"], dtype=np.float64)
        times = np.asarray(point["times_s"], dtype=np.float64)
        with np.errstate(all="ignore"):  # overflow is caught just below
            cost = _cost_usd(
                price, plan.node_is_shared_memory(node), runs, workers, times
            )
            throughput = units / times
        if not (np.isfinite(cost).all() and np.isfinite(throughput).all()):
            raise PlanError(
                f"plan {plan.name!r}: configuration node={node!r}"
                f" link={link!r} topology={topology!r} prices to a"
                " non-finite cost or throughput; lower 'runs' or the price"
            )
        configs.append((node, link, topology))
        parts.append(
            (
                workers,
                times,
                np.asarray(point["speedups"], dtype=np.float64),
                np.asarray(point["efficiencies"], dtype=np.float64),
                cost,
                throughput,
            )
        )
    workers, time_s, speedup, efficiency, cost_usd, throughput_per_s = (
        np.concatenate(column) for column in zip(*parts)
    )
    return CandidateTable(
        configs=configs,
        config=np.repeat(np.arange(len(configs)), [len(part[0]) for part in parts]),
        workers=workers,
        time_s=time_s,
        speedup=speedup,
        efficiency=efficiency,
        cost_usd=cost_usd,
        throughput_per_s=throughput_per_s,
        violated=plan.constraints.violation_masks(time_s, cost_usd, efficiency),
    )


def _objective_choice(
    objective: str, table: CandidateTable, rows: np.ndarray
) -> int:
    """The objective's pick among ``rows``: a deterministic total order.

    Ties always break toward fewer dollars, then fewer seconds, then
    fewer machines, then lexicographic configuration (node, link,
    topology) — never toward whatever order the pool happened to finish
    in.  Strings compare by their rank in ``sorted()``; ``np.lexsort``
    is stable, so exact duplicates keep candidate order.
    """
    if objective == "min-time":
        primary, secondary = table.time_s, table.cost_usd
    elif objective == "min-cost":
        primary, secondary = table.cost_usd, table.time_s
    elif objective == "max-throughput":
        primary, secondary = -table.throughput_per_s, table.cost_usd
    else:  # pragma: no cover
        raise PlanError(f"unknown objective {objective!r}")
    config = table.config[rows]
    ranks = []
    for axis in range(3):  # node, link, topology
        names = [entry[axis] for entry in table.configs]
        order = {name: rank for rank, name in enumerate(sorted(set(names)))}
        ranks.append(np.array([order[name] for name in names])[config])
    keys = (
        ranks[2],
        ranks[1],
        ranks[0],
        table.workers[rows],
        secondary[rows],
        primary[rows],
    )
    return int(rows[np.lexsort(keys)[0]])


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


def _marginal_rows(
    workers: list[int], speedups: list[float], costs: list[float]
) -> tuple[dict, ...]:
    """Marginal speedup per dollar along the chosen configuration's grid.

    One row per grid step (the columns are in ascending worker order):
    what the next increment of machines buys (Δspeedup) and costs (Δcost
    for the plan's runs).  ``speedup_per_usd`` is omitted (None) when the
    step does not cost money — past the knee a step can even *save*
    money by finishing faster.
    """
    rows = []
    for step in range(1, len(workers)):
        delta_speedup = speedups[step] - speedups[step - 1]
        delta_cost = costs[step] - costs[step - 1]
        rows.append(
            {
                "from_workers": workers[step - 1],
                "to_workers": workers[step],
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

    table = _candidate_table(plan, scenario, result)
    feasible = np.flatnonzero(table.feasible)
    frontier = feasible[
        frontier_indices(table.cost_usd[feasible], table.time_s[feasible])
    ]
    pareto = tuple(table.points(frontier))

    chosen: PlanPoint | None = None
    analytic_optimal = None
    refined = None
    knee = None
    marginal: tuple[dict, ...] = ()
    sensitivity: tuple[dict, ...] = ()
    if feasible.size:
        best = _objective_choice(plan.objective, table, feasible)
        (chosen,) = table.points([best])
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
        rows = np.flatnonzero(table.config == table.config[best])
        rows = rows[np.argsort(table.workers[rows], kind="stable")]
        workers = [int(n) for n in table.workers[rows].tolist()]
        # One knee definition for the whole codebase: rebuild the chosen
        # configuration's curve (baseline from the grid, so the speedups
        # are bit-identical to the stored ones) and ask it.
        chosen_curve = SpeedupCurve.from_times(
            workers,
            table.time_s[rows].tolist(),
            baseline_workers=point_spec.baseline_workers,
        )
        knee = chosen_curve.knee(plan.knee_fraction)
        marginal = _marginal_rows(
            workers, table.speedup[rows].tolist(), table.cost_usd[rows].tolist()
        )
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
        candidates=table,
        analytic_optimal_workers=analytic_optimal,
        refined_workers=refined,
        knee_workers=knee,
        knee_fraction=plan.knee_fraction,
        marginal=marginal,
        sensitivity=sensitivity,
        violation_counts=table.violation_counts(),
        stats={
            **result.stats,
            "configurations": len(result.points),
            "candidate_points": len(table),
            "planner_elapsed_s": _time.perf_counter() - started,
        },
    )
