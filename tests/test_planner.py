"""Tests for the capacity planner (repro.planner)."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.errors import PlanError
from repro.core.scaling import refine_optimal_workers
from repro.core.speedup import SpeedupCurve
from repro.planner import (
    OBJECTIVES,
    Constraints,
    PlanPoint,
    builtin_plan_names,
    derived_scenario,
    dominates,
    is_dominated,
    load_builtin_plan,
    pareto_frontier,
    parse_plan,
    point_cost_usd,
    resolve_plan,
    run_plan,
    work_units_per_run,
)
from repro.planner.report import CandidateTable
from repro.scenarios.compile import apply_overrides
from repro.scenarios.sweep import SweepRunner

GOLDEN_DIR = Path(__file__).parent / "golden"


def serial_runner() -> SweepRunner:
    return SweepRunner(mode="serial", use_cache=False)


def minimal_plan(**overrides) -> dict:
    document = {
        "plan": 1,
        "name": "test-plan",
        "description": "",
        "scenario": "figure2",
        "objective": "min-time",
    }
    document.update(overrides)
    return document


class TestPlanSpecValidation:
    def test_builtin_plans_parse(self):
        names = builtin_plan_names()
        assert {"plan-bp-budget", "plan-gd-deadline", "plan-hetero-fleet"} <= set(names)
        for name in names:
            plan = load_builtin_plan(name)
            assert plan.name == name

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(PlanError, match="unknown plan keys"):
            parse_plan(minimal_plan(budget=5))

    def test_unknown_objective_rejected(self):
        with pytest.raises(PlanError, match="unknown objective"):
            parse_plan(minimal_plan(objective="max-profit"))

    def test_missing_scenario_rejected(self):
        document = minimal_plan()
        del document["scenario"]
        with pytest.raises(PlanError, match="needs a 'scenario'"):
            parse_plan(document)

    def test_scenario_with_own_sweep_rejected(self):
        with pytest.raises(PlanError, match="declares its own sweep"):
            parse_plan(minimal_plan(scenario="capacity-sweep"))

    def test_topology_search_needs_bsp(self):
        with pytest.raises(PlanError, match="only searchable for the 'bsp'"):
            parse_plan(minimal_plan(search={"topologies": ["tree"]}))

    def test_unknown_node_slug_rejected_with_suggestion(self):
        with pytest.raises(PlanError, match="did you mean"):
            parse_plan(minimal_plan(search={"nodes": ["xeon-e3-1241"]}))

    def test_link_slug_in_nodes_axis_rejected(self):
        with pytest.raises(PlanError, match="not a compute node"):
            parse_plan(minimal_plan(search={"nodes": ["1gbe"]}))

    def test_node_slug_in_links_axis_rejected(self):
        with pytest.raises(PlanError, match="not a network link"):
            parse_plan(minimal_plan(search={"links": ["nvidia-k40"]}))

    def test_unpriceable_plan_rejected(self):
        scenario = {
            "scenario": 1,
            "name": "inline",
            "algorithm": {
                "kind": "gradient_descent",
                "params": {
                    "operations_per_sample": 1e6,
                    "batch_size": 1000,
                    "parameters": 1e6,
                },
            },
            "hardware": {"flops": 1e10, "bandwidth_bps": 1e9},
            "workers": {"min": 1, "max": 8},
        }
        with pytest.raises(PlanError, match="priceable compute"):
            parse_plan(minimal_plan(scenario=scenario))

    def test_price_override_enables_inline_plan(self):
        plan = parse_plan(
            minimal_plan(
                search={"nodes": ["xeon-e3-1240"]},
                prices={"xeon-e3-1240": 0.42},
            )
        )
        assert plan.price_per_node_hour("xeon-e3-1240") == pytest.approx(0.42)

    def test_negative_constraint_rejected(self):
        with pytest.raises(PlanError, match="deadline_s"):
            parse_plan(minimal_plan(constraints={"deadline_s": -1.0}))

    def test_min_efficiency_over_one_rejected(self):
        with pytest.raises(PlanError, match="min_efficiency"):
            parse_plan(minimal_plan(constraints={"min_efficiency": 1.5}))

    def test_bad_runs_rejected(self):
        with pytest.raises(PlanError, match="'runs'"):
            parse_plan(minimal_plan(runs=0))

    def test_runs_beyond_float_range_rejected(self):
        with pytest.raises(PlanError, match="'runs' must fit in a float"):
            parse_plan(minimal_plan(runs=10**400))

    @pytest.mark.parametrize(
        "change",
        [{"prices": {"xeon-e3-1240": 1e308}}, {"runs": 10**308}],
        ids=["price", "runs"],
    )
    def test_non_finite_cost_rejected(self, change):
        plan = parse_plan(minimal_plan(**change))
        with pytest.raises(PlanError, match="non-finite cost or throughput"):
            run_plan(plan, runner=serial_runner())

    def test_knee_fraction_over_one_rejected(self):
        with pytest.raises(PlanError, match="knee_fraction"):
            parse_plan(minimal_plan(knee_fraction=1.5))

    def test_content_hash_is_stable_and_sensitive(self):
        base = parse_plan(minimal_plan())
        same = parse_plan(minimal_plan())
        different = parse_plan(minimal_plan(objective="min-cost"))
        assert base.content_hash() == same.content_hash()
        assert base.content_hash() != different.content_hash()

    def test_resolve_plan_prefers_builtin_names(self):
        assert resolve_plan("plan-bp-budget").name == "plan-bp-budget"

    def test_resolve_plan_unknown_name_lists_builtins(self):
        with pytest.raises(PlanError, match="plan-bp-budget"):
            resolve_plan("no-such-plan")

    def test_derived_scenario_carries_search_axes_as_sweep(self):
        plan = load_builtin_plan("plan-hetero-fleet")
        scenario = derived_scenario(plan)
        sweep = scenario.to_dict()["sweep"]
        assert set(sweep) == {"node", "link", "topology"}
        assert scenario.name == plan.name

    def test_derived_scenario_backend_override(self):
        plan = load_builtin_plan("plan-bp-budget")
        scenario = derived_scenario(plan, backend="simulated")
        assert scenario.backend.kind == "simulated"

    def test_search_workers_override_rebases_baseline(self):
        plan = parse_plan(minimal_plan(search={"workers": [4, 8, 12]}))
        scenario = derived_scenario(plan)
        assert scenario.workers == (4, 8, 12)
        assert scenario.baseline_workers == 4


class TestParetoFrontier:
    def test_dominates_definition(self):
        assert dominates(1.0, 1.0, 2.0, 2.0)
        assert dominates(1.0, 1.0, 1.0, 2.0)
        assert not dominates(1.0, 1.0, 1.0, 1.0)  # exact tie: no dominance
        assert not dominates(1.0, 3.0, 2.0, 2.0)  # trade-off: no dominance

    def test_simple_frontier(self):
        points = [
            {"cost_usd": 1.0, "time_s": 5.0},
            {"cost_usd": 2.0, "time_s": 3.0},
            {"cost_usd": 3.0, "time_s": 4.0},  # dominated by the 2.0/3.0 point
            {"cost_usd": 4.0, "time_s": 1.0},
        ]
        frontier = pareto_frontier(points)
        assert [(p["cost_usd"], p["time_s"]) for p in frontier] == [
            (1.0, 5.0),
            (2.0, 3.0),
            (4.0, 1.0),
        ]

    def test_exact_ties_are_kept(self):
        points = [
            {"cost_usd": 1.0, "time_s": 2.0, "tag": "a"},
            {"cost_usd": 1.0, "time_s": 2.0, "tag": "b"},
        ]
        assert [p["tag"] for p in pareto_frontier(points)] == ["a", "b"]

    def test_missing_keys_rejected(self):
        with pytest.raises(PlanError, match="numeric"):
            pareto_frontier([{"cost_usd": 1.0}])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100.0),
                st.floats(min_value=0.01, max_value=100.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_frontier_is_exactly_the_nondominated_set(self, pairs):
        points = [{"cost_usd": c, "time_s": t, "i": i} for i, (c, t) in enumerate(pairs)]
        frontier = pareto_frontier(points)
        kept = {p["i"] for p in frontier}
        # No emitted point is dominated by any input point.
        for point in frontier:
            assert not is_dominated(point, points)
        # Every dropped point is dominated by some emitted point.
        for point in points:
            if point["i"] not in kept:
                assert is_dominated(point, frontier)
        # Deterministic ordering: ascending (cost, time).
        keys = [(p["cost_usd"], p["time_s"]) for p in frontier]
        assert keys == sorted(keys)


def _assert_payload_close(actual, expected, path="$"):
    """Structural equality with tolerant floats (golden-file comparison)."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for key in expected:
            _assert_payload_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_payload_close(a, e, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9), path
    else:
        assert actual == expected, path


class TestPlannerGolden:
    @pytest.mark.parametrize("name", ["plan-bp-budget", "plan-gd-deadline"])
    def test_pareto_frontier_matches_golden_file(self, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.frontier.json").read_text())
        recommendation = run_plan(load_builtin_plan(name), runner=serial_runner())
        _assert_payload_close(recommendation.frontier_payload(), golden)


class TestPlannerRecommendations:
    @pytest.fixture(scope="class")
    def bp_budget(self):
        return run_plan(load_builtin_plan("plan-bp-budget"), runner=serial_runner())

    def test_recommendation_is_feasible_and_not_dominated(self, bp_budget):
        chosen = bp_budget.chosen
        assert chosen is not None and chosen.feasible
        feasible = [p.to_dict() for p in bp_budget.candidates if p.feasible]
        assert not is_dominated(chosen.to_dict(), feasible)

    def test_no_emitted_pareto_point_is_dominated(self):
        for name in builtin_plan_names():
            recommendation = run_plan(load_builtin_plan(name), runner=serial_runner())
            frontier = [p.to_dict() for p in recommendation.pareto]
            candidates = [p.to_dict() for p in recommendation.candidates if p.feasible]
            for point in frontier:
                assert not is_dominated(point, candidates), name

    def test_budget_constraint_prunes(self, bp_budget):
        assert all(p.cost_usd <= 75.0 for p in bp_budget.pareto)
        assert bp_budget.violation_counts.get("budget_usd", 0) > 0

    def test_infeasible_plan_reports_instead_of_raising(self):
        plan = parse_plan(minimal_plan(constraints={"deadline_s": 1e-6}))
        recommendation = run_plan(plan, runner=serial_runner())
        assert recommendation.chosen is None
        assert recommendation.pareto == ()
        assert recommendation.violation_counts["deadline_s"] == len(
            recommendation.candidates
        )
        assert "no feasible configuration" in recommendation.render()

    def test_min_cost_objective_picks_cheapest_feasible(self):
        recommendation = run_plan(
            load_builtin_plan("plan-gd-deadline"), runner=serial_runner()
        )
        chosen = recommendation.chosen
        assert chosen is not None
        feasible = [p for p in recommendation.candidates if p.feasible]
        assert chosen.cost_usd == min(p.cost_usd for p in feasible)

    def test_min_efficiency_constraint(self):
        recommendation = run_plan(
            load_builtin_plan("plan-hetero-fleet"), runner=serial_runner()
        )
        assert recommendation.chosen is not None
        assert recommendation.chosen.efficiency >= 0.2

    def test_marginal_table_spans_the_chosen_grid(self, bp_budget):
        grid = derived_scenario(load_builtin_plan("plan-bp-budget")).workers
        assert len(bp_budget.marginal) == len(grid) - 1
        first = bp_budget.marginal[0]
        assert first["from_workers"] == grid[0]
        assert first["speedup_per_usd"] == pytest.approx(
            first["delta_speedup"] / first["delta_cost_usd"]
        )

    def test_sensitivity_covers_flops_and_bandwidth(self, bp_budget):
        labels = [row["perturbation"] for row in bp_budget.sensitivity]
        assert labels[0] == "base"
        assert "flops -20%" in labels and "bandwidth +20%" in labels
        base = bp_budget.sensitivity[0]
        assert base["optimal_workers"] == bp_budget.analytic_optimal_workers

    def test_knee_never_exceeds_argmax_grid_position(self, bp_budget):
        assert bp_budget.knee_workers is not None
        assert bp_budget.knee_workers <= max(p.workers for p in bp_budget.candidates)


class TestPlannerDeterminism:
    def test_frontier_byte_identical_serial_vs_process(self):
        plan = load_builtin_plan("plan-gd-deadline")
        serial = run_plan(plan, runner=SweepRunner(mode="serial", use_cache=False))
        pooled = run_plan(plan, runner=SweepRunner(mode="process", use_cache=False))
        serial_bytes = json.dumps(serial.frontier_payload(), sort_keys=True)
        pooled_bytes = json.dumps(pooled.frontier_payload(), sort_keys=True)
        assert serial_bytes == pooled_bytes
        # The whole payload (not just the frontier) must agree too.
        assert json.dumps(serial.payload(), sort_keys=True) == json.dumps(
            pooled.payload(), sort_keys=True
        )


class TestRefinedOptimum:
    @pytest.mark.parametrize(
        "backend", ["analytic", "simulated", "calibrated", "network"]
    )
    def test_refined_agrees_with_analytic_argmax_on_figure2(self, backend):
        # The acceptance property: the planner-refined optimum of the
        # paper's Figure 2 scenario stays within one grid step of the
        # analytic curve's argmax, whichever backend priced the grid.
        plan = parse_plan(minimal_plan())
        recommendation = run_plan(plan, runner=serial_runner(), backend=backend)
        assert recommendation.backend == backend
        grid = sorted({p.workers for p in recommendation.candidates})
        step = max(b - a for a, b in zip(grid, grid[1:]))
        assert recommendation.refined_workers is not None
        assert recommendation.analytic_optimal_workers == 9  # the paper's N
        assert (
            abs(recommendation.refined_workers - recommendation.analytic_optimal_workers)
            <= step
        )

    def test_refinement_matches_closed_form_knee(self):
        # t(n) = 100/n + 2n has its continuous optimum at sqrt(50).
        from repro.core.model import BSPModel
        from repro.core.complexity import FixedCost, ComputationCost
        from repro.core.communication import LinearCommunication
        from repro.core.complexity import CommunicationCost

        model = BSPModel(
            computation=ComputationCost(total_operations=100.0, flops=1.0),
            communication=CommunicationCost(
                LinearCommunication(bandwidth_bps=1.0, include_self=True), bits=2.0
            ),
        )
        refined = refine_optimal_workers(model, 1, 20)
        assert refined == pytest.approx(50.0**0.5, abs=1e-2)

    def test_refinement_requires_cost_tree(self):
        from repro.core.errors import ModelError
        from repro.core.model import CallableModel

        with pytest.raises(ModelError, match="cost tree"):
            refine_optimal_workers(CallableModel(lambda n: 1.0 / n + n), 1, 10)


class TestCostModel:
    def test_per_node_pricing(self):
        plan = load_builtin_plan("plan-bp-budget")
        # 10k runs of 10 s on 4 nodes at $0.25/h.
        assert point_cost_usd(plan, "xeon-e3-1240", 4, 10.0) == pytest.approx(
            4 * 0.25 * 10.0 * 10000 / 3600
        )

    def test_shared_memory_machine_priced_per_machine(self):
        plan = parse_plan(
            minimal_plan(prices={"dl980": 6.0})
        )
        one_core = point_cost_usd(plan, "dl980", 1, 10.0)
        all_cores = point_cost_usd(plan, "dl980", 80, 10.0)
        assert one_core == pytest.approx(all_cores)
        assert one_core == pytest.approx(6.0 * 10.0 * 1 / 3600)  # runs defaults to 1

    def test_each_configuration_is_priced_once(self, monkeypatch):
        from repro.planner.spec import PlanSpec

        lookups: list[str] = []
        for name in ("price_per_node_hour", "node_is_shared_memory"):
            original = getattr(PlanSpec, name)

            def counted(self, slug, _original=original, _name=name):
                lookups.append(_name)
                return _original(self, slug)

            monkeypatch.setattr(PlanSpec, name, counted)
        plan = load_builtin_plan("plan-gd-deadline")
        candidates = run_plan(
            plan, runner=SweepRunner(mode="serial", use_cache=False)
        ).candidates
        configurations = len({(p.node, p.link, p.topology) for p in candidates})
        assert len(candidates) > configurations
        assert lookups.count("price_per_node_hour") == configurations
        assert lookups.count("node_is_shared_memory") == configurations
        monkeypatch.undo()
        # One formula: the exported pricer agrees with every candidate.
        for point in candidates:
            assert point.cost_usd == point_cost_usd(
                plan, point.node, point.workers, point.time_s
            )

    def test_work_units_per_kind(self):
        assert work_units_per_run("spark_gradient_descent", {"batch_size": 6e4}) == 6e4
        assert work_units_per_run("bsp", {"operations_per_superstep": 1e12}) == 1e12
        assert work_units_per_run("weak_scaling_sgd", {"batch_size": 128}) == 1.0
        assert work_units_per_run("belief_propagation", {}) == 1.0

    def test_bsp_work_scales_with_iterations(self):
        # The bsp kind's modelled time covers all iterations, so the work
        # units must too — otherwise throughput is understated.
        params = {"operations_per_superstep": 1e12, "iterations": 10}
        assert work_units_per_run("bsp", params) == 1e13

    def test_constraint_violations_named(self):
        constraints = Constraints(deadline_s=1.0, budget_usd=2.0, min_efficiency=0.5)
        assert constraints.violations(2.0, 3.0, 0.1) == (
            "deadline_s",
            "budget_usd",
            "min_efficiency",
        )
        assert constraints.violations(0.5, 1.0, 0.9) == ()


def reference_objective_key(objective: str):
    """The objective's total order over PlanPoints, as a ``min`` key."""

    def config_key(point):
        return (point.workers, point.node, point.link, point.topology)

    if objective == "min-time":
        return lambda p: (p.time_s, p.cost_usd) + config_key(p)
    if objective == "min-cost":
        return lambda p: (p.cost_usd, p.time_s) + config_key(p)
    return lambda p: (-p.throughput_per_s, p.cost_usd) + config_key(p)


def reference_candidates(plan, runner) -> list[PlanPoint]:
    """Every candidate priced one PlanPoint at a time, in sweep order."""
    scenario = derived_scenario(plan)
    hardware = plan.scenario.hardware
    base_topology = str(plan.scenario.algorithm.params_dict.get("topology", ""))
    if plan.scenario.algorithm.kind == "bsp" and not base_topology:
        base_topology = "tree"
    limits = plan.constraints
    points = []
    for point in runner.run(scenario).points:
        overrides = point["overrides"]
        node = str(overrides.get("node", hardware.node or ""))
        link = str(overrides.get("link", hardware.link or ""))
        topology = str(overrides.get("topology", base_topology))
        algorithm = apply_overrides(scenario, overrides).algorithm
        units = work_units_per_run(algorithm.kind, algorithm.params_dict)
        price = plan.price_per_node_hour(node)
        shared = plan.node_is_shared_memory(node)
        for n, t, s, e in zip(
            point["workers"], point["times_s"], point["speedups"], point["efficiencies"]
        ):
            hours = float(t) * plan.runs / 3600.0
            cost = price * hours if shared else int(n) * price * hours
            broken = []
            if limits.deadline_s is not None and float(t) > limits.deadline_s:
                broken.append("deadline_s")
            if limits.budget_usd is not None and cost > limits.budget_usd:
                broken.append("budget_usd")
            if limits.min_efficiency is not None and float(e) < limits.min_efficiency:
                broken.append("min_efficiency")
            points.append(
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
                    violations=tuple(broken),
                )
            )
    return points


def reference_frontier(feasible: list[PlanPoint]) -> list[PlanPoint]:
    """The non-dominated feasible points by brute force, in frontier order."""
    if not feasible:
        return []
    cost = np.array([p.cost_usd for p in feasible])
    time = np.array([p.time_s for p in feasible])
    # dominated[j]: some i is no worse on both axes and better on one.
    dominated = (
        (cost[:, None] <= cost[None, :])
        & (time[:, None] <= time[None, :])
        & ((cost[:, None] < cost[None, :]) | (time[:, None] < time[None, :]))
    ).any(axis=0)
    kept = [i for i in range(len(feasible)) if not dominated[i]]
    kept.sort(key=lambda i: (feasible[i].cost_usd, feasible[i].time_s, i))
    return [feasible[i] for i in kept]


def reference_payload(plan, recommendation, candidates: list[PlanPoint]) -> dict:
    """``recommendation.payload()`` with every candidate-derived key recomputed."""
    feasible = [p for p in candidates if p.feasible]
    counts: dict[str, int] = {}
    for point in candidates:
        for name in point.violations:
            counts[name] = counts.get(name, 0) + 1
    payload = dict(recommendation.payload())
    payload["pareto"] = [p.to_dict() for p in reference_frontier(feasible)]
    payload["candidates_total"] = len(candidates)
    payload["feasible_total"] = len(feasible)
    payload["violation_counts"] = counts
    payload["recommendation"] = None
    if feasible:
        chosen = min(feasible, key=reference_objective_key(plan.objective))
        payload["recommendation"] = chosen.to_dict()
        config = sorted(
            (
                p
                for p in candidates
                if (p.node, p.link, p.topology) == (chosen.node, chosen.link, chosen.topology)
            ),
            key=lambda p: p.workers,
        )
        payload["marginal_speedup_per_usd"] = [
            {
                "from_workers": before.workers,
                "to_workers": after.workers,
                "delta_speedup": after.speedup - before.speedup,
                "delta_cost_usd": after.cost_usd - before.cost_usd,
                "speedup_per_usd": (
                    (after.speedup - before.speedup) / (after.cost_usd - before.cost_usd)
                    if after.cost_usd - before.cost_usd > 0
                    else None
                ),
            }
            for before, after in zip(config, config[1:])
        ]
        payload["knee_workers"] = SpeedupCurve.from_times(
            [p.workers for p in config],
            [p.time_s for p in config],
            baseline_workers=derived_scenario(plan).baseline_workers,
        ).knee(plan.knee_fraction)
    return payload


@st.composite
def varied_plans(draw):
    """A builtin plan with drawn constraints, runs, prices and objective."""
    document = load_builtin_plan(draw(st.sampled_from(builtin_plan_names()))).to_dict()
    document["objective"] = draw(st.sampled_from(OBJECTIVES))
    document["runs"] = draw(st.integers(min_value=1, max_value=10**6))
    constraints = {}
    if draw(st.booleans()):
        constraints["deadline_s"] = draw(st.floats(min_value=0.01, max_value=1e4))
    if draw(st.booleans()):
        constraints["budget_usd"] = draw(st.floats(min_value=0.01, max_value=1e6))
    if draw(st.booleans()):
        constraints["min_efficiency"] = draw(st.floats(min_value=0.01, max_value=1.0))
    document["constraints"] = constraints
    search = document.setdefault("search", {})
    nodes = list(search.get("nodes", [document["scenario"]["hardware"]["node"]]))
    if draw(st.booleans()):
        nodes.append("dl980")  # shared memory: priced per machine
        search["nodes"] = nodes
    price = st.floats(min_value=0.01, max_value=50.0)
    document["prices"] = {
        node: draw(price) for node in nodes if node == "dl980" or draw(st.booleans())
    }
    return parse_plan(document)


class TestColumnarMatchesReference:
    """The candidate table agrees with pricing one PlanPoint at a time."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(varied_plans())
    def test_payload_and_rows_match_reference(self, plan):
        runner = serial_runner()
        recommendation = run_plan(plan, runner=runner)
        candidates = reference_candidates(plan, runner)
        expected = reference_payload(plan, recommendation, candidates)
        assert json.dumps(recommendation.payload()) == json.dumps(expected)
        assert recommendation.frontier_payload() == expected["pareto"]
        assert list(recommendation.violation_counts.items()) == list(
            expected["violation_counts"].items()
        )
        if recommendation.chosen is not None:
            assert recommendation.chosen.to_dict() == expected["recommendation"]
        assert list(recommendation.candidates) == candidates
        assert recommendation.candidates[-1] == candidates[-1]
        assert recommendation.candidate_rows() == [
            {**p.to_dict(), "violations": ";".join(p.violations)} for p in candidates
        ]

    def test_violation_counts_keep_first_appearance_order(self):
        # Row 0 breaks only the budget, so a row-by-row tally meets
        # budget_usd before deadline_s, against CONSTRAINT_KEYS order.
        column = np.array([1.0, 2.0])
        table = CandidateTable(
            configs=[("xeon-e3-1240", "1gbe", "tree")],
            config=np.array([0, 0]),
            workers=column,
            time_s=column,
            speedup=column,
            efficiency=column,
            cost_usd=column,
            throughput_per_s=column,
            violated={
                "deadline_s": np.array([False, True]),
                "budget_usd": np.array([True, True]),
            },
        )
        assert list(table.violation_counts().items()) == [
            ("budget_usd", 2),
            ("deadline_s", 1),
        ]
        assert [p.violations for p in table] == [
            ("budget_usd",),
            ("deadline_s", "budget_usd"),
        ]

    @pytest.mark.parametrize("name", ["plan-bp-budget", "plan-gd-deadline"])
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_exports_match_golden_bytes(self, tmp_path, name, suffix):
        recommendation = run_plan(load_builtin_plan(name), runner=serial_runner())
        text = recommendation.export(tmp_path / f"plan{suffix}").read_text()
        if suffix == ".json":
            # Everything but the trailing timing stats, byte for byte.
            text = text[: text.index(',\n  "stats": ')] + "\n}\n"
        golden = GOLDEN_DIR / f"{name}.export{suffix}"
        assert text == golden.read_text()


class TestPlannerLint:
    def test_plan_points_are_built_in_one_place(self):
        # Candidates live as table columns; a second PlanPoint builder
        # would bring back per-candidate objects on the hot path.
        src = Path(__file__).resolve().parent.parent / "src"
        owners = {
            path.relative_to(src).as_posix(): path.read_text().count("PlanPoint(")
            for path in src.rglob("*.py")
            if "PlanPoint(" in path.read_text()
        }
        assert owners == {"repro/planner/report.py": 1}


class TestPlannerExports:
    def test_json_export_round_trips(self, tmp_path):
        recommendation = run_plan(
            load_builtin_plan("plan-gd-deadline"), runner=serial_runner()
        )
        target = recommendation.to_json(tmp_path / "plan.json")
        payload = json.loads(target.read_text())
        assert payload["plan"] == "plan-gd-deadline"
        assert payload["recommendation"]["node"] == "nvidia-k40"
        assert payload["pareto"]
        assert "stats" in payload

    def test_csv_export_lists_every_candidate(self, tmp_path):
        recommendation = run_plan(
            load_builtin_plan("plan-gd-deadline"), runner=serial_runner()
        )
        target = recommendation.to_csv(tmp_path / "plan.csv")
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 1 + len(recommendation.candidates)
        assert lines[0].startswith("node,link,topology,workers")

    def test_unknown_export_suffix_rejected(self, tmp_path):
        recommendation = run_plan(
            load_builtin_plan("plan-gd-deadline"), runner=serial_runner()
        )
        with pytest.raises(PlanError, match="export format"):
            recommendation.export(tmp_path / "plan.txt")


class TestPlannerCLI:
    def test_plan_list(self, capsys):
        assert main(["plan", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "plan-bp-budget" in out

    def test_plan_validate(self, capsys):
        assert main(["plan", "validate", "plan-hetero-fleet"]) == 0
        assert "ok: plan 'plan-hetero-fleet'" in capsys.readouterr().out

    def test_plan_run_json_format(self, capsys):
        assert main(["plan", "run", "plan-bp-budget", "--format", "json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == "plan-bp-budget"
        assert payload["recommendation"]["feasible"] is True
        frontier = payload["pareto"]
        assert frontier
        for point in frontier:
            assert not is_dominated(point, frontier)

    def test_plan_run_text_format_and_export(self, capsys, tmp_path):
        target = tmp_path / "rec.json"
        assert (
            main(["plan", "run", "plan-gd-deadline", "--no-cache", "--export", str(target)])
            == 0
        )
        out = capsys.readouterr().out
        assert "recommend:" in out
        assert target.exists()

    def test_plan_run_rejects_bad_export_before_running(self, capsys):
        assert main(["plan", "run", "plan-bp-budget", "--export", "out.txt"]) == 1
        assert "export format" in capsys.readouterr().err

    def test_plan_unknown_name_lists_builtins(self, capsys):
        assert main(["plan", "run", "nope"]) == 1
        assert "plan-bp-budget" in capsys.readouterr().err

    def test_hardware_list(self, capsys):
        assert main(["hardware", "list"]) == 0
        out = capsys.readouterr().out
        assert "xeon-e3-1240" in out
        assert "usd_per_hour" in out

    def test_planner_experiment_registered(self, capsys):
        assert main(["list"]) == 0
        assert "planner-scale-out" in capsys.readouterr().out.split()
