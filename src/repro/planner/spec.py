"""Declarative capacity-plan specifications.

A *plan* is plain data — a dict (usually a JSON file) — describing a
provisioning question: a base scenario, a search space of candidate
configurations (worker counts × hardware-catalog nodes × links ×
communication topologies), an objective, and constraints.  The planner
(:mod:`repro.planner.search`) compiles the search space into a derived
scenario sweep, evaluates it through the scenario engine's
:class:`~repro.core.backend.EvaluationBackend` machinery (batched,
cacheable, process-pool parallel, bit-deterministic), and answers with a
:class:`~repro.planner.report.Recommendation`.

The schema (version 1)::

    {
      "plan": 1,                           # schema version (optional)
      "name": "plan-bp-budget",
      "description": "free text",
      "scenario": "figure2",               # builtin scenario name, a path,
                                           # or an inline scenario document
      "search": {                          # all axes optional
        "workers": {"min": 1, "max": 13},  # overrides the scenario's grid
        "nodes": ["xeon-e3-1240"],         # compute candidates (catalog)
        "links": ["1gbe", "10gbe"],        # interconnect candidates
        "topologies": ["tree", "ring-allreduce"]   # bsp scenarios only
      },
      "objective": "min-time",             # min-time | min-cost | max-throughput
      "constraints": {                     # all optional
        "deadline_s": 30.0,                # t(config) <= deadline
        "budget_usd": 25.0,                # cost(config) <= budget
        "min_efficiency": 0.25             # parallel efficiency floor
      },
      "runs": 10000,                       # executions the budget covers
      "prices": {"xeon-e3-1240": 0.21},    # per-node-hour overrides (USD)
      "refine": true,                      # golden-section the optimum
      "knee_fraction": 0.95                # knee() threshold in the report
    }

Validation is eager, with messages naming the valid alternatives;
everything lands in frozen dataclasses so a plan is hashable content,
like a scenario spec.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from pathlib import Path

from dataclasses import dataclass

import numpy as np

from repro.core.errors import PlanError, ReproError
from repro.hardware import catalog
from repro.hardware.specs import LinkSpec, NodeSpec, SharedMemoryMachineSpec
from repro.scenarios.compile import TOPOLOGIES
from repro.scenarios.spec import (
    ScenarioSpec,
    parse_scenario,
    resolve_scenario,
)

#: Current plan schema version; bumped on incompatible schema changes.
PLAN_SCHEMA_VERSION = 1

#: Bumped whenever planning semantics change (part of the content hash).
PLANNER_VERSION = 1

#: The recognised objectives and what they optimise.
OBJECTIVES = ("min-time", "min-cost", "max-throughput")

#: The recognised constraint keys.
CONSTRAINT_KEYS = ("deadline_s", "budget_usd", "min_efficiency")

#: Keys of the ``search`` section.
SEARCH_KEYS = ("workers", "nodes", "links", "topologies")

#: Directory holding the bundled plan specs.
BUILTIN_PLAN_DIR = Path(__file__).resolve().parent / "builtin"


@dataclass(frozen=True)
class SearchSpace:
    """The candidate axes a plan optimises over.

    Empty axes mean "keep the scenario's declared choice"; a plan with
    every axis empty still optimises over the worker grid.
    """

    workers: tuple[int, ...] = ()
    nodes: tuple[str, ...] = ()
    links: tuple[str, ...] = ()
    topologies: tuple[str, ...] = ()

    @property
    def configurations(self) -> int:
        """Number of hardware/topology combinations (worker grid excluded)."""
        count = 1
        for axis in (self.nodes, self.links, self.topologies):
            count *= max(1, len(axis))
        return count

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {}
        if self.workers:
            data["workers"] = list(self.workers)
        if self.nodes:
            data["nodes"] = list(self.nodes)
        if self.links:
            data["links"] = list(self.links)
        if self.topologies:
            data["topologies"] = list(self.topologies)
        return data


@dataclass(frozen=True)
class Constraints:
    """Feasibility limits applied before the objective picks a point."""

    deadline_s: float | None = None
    budget_usd: float | None = None
    min_efficiency: float | None = None

    def to_dict(self) -> dict[str, float]:
        return {
            key: getattr(self, key)
            for key in CONSTRAINT_KEYS
            if getattr(self, key) is not None
        }

    def violation_masks(
        self, time_s: np.ndarray, cost_usd: np.ndarray, efficiency: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Per set constraint, the boolean mask of candidates that break it.

        Keys come in :data:`CONSTRAINT_KEYS` declaration order, so every
        name list read from the masks is deterministic.
        """
        masks: dict[str, np.ndarray] = {}
        if self.deadline_s is not None:
            masks["deadline_s"] = np.asarray(time_s) > self.deadline_s
        if self.budget_usd is not None:
            masks["budget_usd"] = np.asarray(cost_usd) > self.budget_usd
        if self.min_efficiency is not None:
            masks["min_efficiency"] = np.asarray(efficiency) < self.min_efficiency
        return masks

    def violations(
        self, time_s: float, cost_usd: float, efficiency: float
    ) -> tuple[str, ...]:
        """Names of the constraints one candidate point breaks.

        Always in :data:`CONSTRAINT_KEYS` declaration order, so the
        tuple (and everything serialised from it) is deterministic.
        """
        masks = self.violation_masks(time_s, cost_usd, efficiency)
        return tuple(name for name, broken in masks.items() if broken)


@dataclass(frozen=True)
class PlanSpec:
    """A fully validated capacity plan, ready for optimisation."""

    name: str
    description: str
    scenario: ScenarioSpec
    search: SearchSpace
    objective: str = "min-time"
    constraints: Constraints = Constraints()
    runs: int = 1
    prices: tuple[tuple[str, float], ...] = ()
    refine: bool = True
    knee_fraction: float = 0.95
    schema_version: int = PLAN_SCHEMA_VERSION

    @property
    def prices_dict(self) -> dict[str, float]:
        return dict(self.prices)

    def to_dict(self) -> dict[str, object]:
        """Canonical plain-data form (JSON-serialisable, re-parseable)."""
        data: dict[str, object] = {
            "plan": self.schema_version,
            "name": self.name,
            "description": self.description,
            "scenario": self.scenario.to_dict(),
            "objective": self.objective,
            "runs": self.runs,
            "refine": self.refine,
            "knee_fraction": self.knee_fraction,
        }
        search = self.search.to_dict()
        if search:
            data["search"] = search
        constraints = self.constraints.to_dict()
        if constraints:
            data["constraints"] = constraints
        if self.prices:
            data["prices"] = dict(self.prices)
        return data

    def content_hash(self) -> str:
        """SHA-256 over the canonical form — the plan's content identity.

        Folds in :data:`PLANNER_VERSION` (planning semantics) and, via
        the embedded scenario's canonical form, the scenario engine's
        semantics too.
        """
        payload = {"planner": PLANNER_VERSION, "plan": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def price_per_node_hour(self, node_slug: str) -> float:
        """The USD/hour price of one candidate node (overrides win)."""
        return resolve_price(node_slug, self.prices_dict)

    def node_is_shared_memory(self, node_slug: str) -> bool:
        """Whether a candidate node prices per machine, not per worker."""
        return isinstance(catalog.lookup(node_slug), SharedMemoryMachineSpec)


def resolve_price(node_slug: str, overrides: Mapping[str, float]) -> float:
    """The planning price of a compute slug: override, else catalog."""
    if node_slug in overrides:
        return float(overrides[node_slug])
    entry = catalog.lookup(node_slug)
    if isinstance(entry, LinkSpec):
        raise PlanError(f"hardware {node_slug!r} is a network link, not a compute node")
    return entry.price_per_hour


def _require_mapping(value: object, context: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise PlanError(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: Mapping, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise PlanError(f"unknown {context} keys {unknown}; allowed: {sorted(allowed)}")


def _parse_number(value: object, context: str, positive: bool = True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanError(f"{context} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise PlanError(f"{context} must be finite, got {number}")
    if positive and number <= 0:
        raise PlanError(f"{context} must be positive, got {number}")
    if not positive and number < 0:
        raise PlanError(f"{context} must be non-negative, got {number}")
    return number


def _parse_slug_axis(values: object, context: str) -> tuple[str, ...]:
    if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
        raise PlanError(f"{context} must list catalog slugs")
    slugs = []
    for value in values:
        if not isinstance(value, str) or not value:
            raise PlanError(f"{context} entries must be slug strings, got {value!r}")
        slugs.append(value)
    if len(set(slugs)) != len(slugs):
        raise PlanError(f"{context} has duplicate entries")
    return tuple(slugs)


def _parse_search(data: object, scenario: ScenarioSpec) -> SearchSpace:
    section = _require_mapping(data, "'search'")
    _reject_unknown(section, SEARCH_KEYS, "search")

    workers: tuple[int, ...] = ()
    if "workers" in section:
        # Worker grids share the scenario schema's syntax and invariants
        # (range mapping or explicit list, unique, capped).
        from repro.scenarios.spec import _parse_workers  # shared validation

        try:
            workers = _parse_workers(section["workers"])
        except ReproError as error:
            raise PlanError(f"search.workers: {error}")

    nodes = _parse_slug_axis(section["nodes"], "search.nodes") if "nodes" in section else ()
    links = _parse_slug_axis(section["links"], "search.links") if "links" in section else ()
    for slug in nodes:
        try:
            entry = catalog.lookup(slug)
        except ReproError as error:
            raise PlanError(f"search.nodes: {error}")
        if isinstance(entry, LinkSpec):
            raise PlanError(
                f"search.nodes entry {slug!r} is a network link, not a compute node"
            )
    for slug in links:
        try:
            entry = catalog.lookup(slug)
        except ReproError as error:
            raise PlanError(f"search.links: {error}")
        if not isinstance(entry, LinkSpec):
            raise PlanError(
                f"search.links entry {slug!r} is a {type(entry).__name__},"
                " not a network link"
            )

    topologies: tuple[str, ...] = ()
    if "topologies" in section:
        topologies = _parse_slug_axis(section["topologies"], "search.topologies")
        if scenario.algorithm.kind != "bsp":
            raise PlanError(
                "search.topologies is only searchable for the 'bsp' algorithm"
                f" kind; the scenario declares {scenario.algorithm.kind!r}"
                " (the gradient-descent and BP kinds fix their topology)"
            )
        unknown = sorted(set(topologies) - set(TOPOLOGIES))
        if unknown:
            raise PlanError(
                f"unknown search.topologies entries {unknown};"
                f" known: {', '.join(sorted(TOPOLOGIES))}"
            )
    return SearchSpace(workers=workers, nodes=nodes, links=links, topologies=topologies)


def _parse_constraints(data: object) -> Constraints:
    section = _require_mapping(data, "'constraints'")
    _reject_unknown(section, CONSTRAINT_KEYS, "constraints")
    deadline = section.get("deadline_s")
    budget = section.get("budget_usd")
    efficiency = section.get("min_efficiency")
    if efficiency is not None:
        value = _parse_number(efficiency, "constraints.min_efficiency")
        if value > 1.0:
            raise PlanError(
                f"constraints.min_efficiency must be in (0, 1], got {value}"
            )
    return Constraints(
        deadline_s=None if deadline is None else _parse_number(deadline, "constraints.deadline_s"),
        budget_usd=None if budget is None else _parse_number(budget, "constraints.budget_usd"),
        min_efficiency=None if efficiency is None else float(efficiency),
    )


def _parse_prices(data: object) -> tuple[tuple[str, float], ...]:
    section = _require_mapping(data, "'prices'")
    parsed = {}
    for slug, value in section.items():
        if not isinstance(slug, str) or not slug:
            raise PlanError(f"price keys must be catalog slugs, got {slug!r}")
        try:
            entry = catalog.lookup(slug)
        except ReproError as error:
            raise PlanError(f"prices: {error}")
        if isinstance(entry, LinkSpec):
            raise PlanError(
                f"prices entry {slug!r} is a network link; only compute"
                " nodes carry per-hour prices"
            )
        parsed[slug] = _parse_number(value, f"prices[{slug!r}]")
    return tuple(sorted(parsed.items()))


def _candidate_nodes(spec_scenario: ScenarioSpec, search: SearchSpace) -> tuple[str, ...]:
    """Every node slug a plan's candidates may use (for price validation)."""
    if search.nodes:
        return search.nodes
    node = spec_scenario.hardware.node
    return (node,) if node is not None else ()


def parse_plan(data: Mapping) -> PlanSpec:
    """Validate a plain mapping into a :class:`PlanSpec`.

    Raises :class:`~repro.core.errors.PlanError` with a message naming
    the offending key and the valid alternatives.  The embedded scenario
    is validated by the scenario engine itself (one authority for the
    scenario schema).
    """
    document = _require_mapping(data, "a plan spec")
    allowed = (
        "plan",
        "name",
        "description",
        "scenario",
        "search",
        "objective",
        "constraints",
        "runs",
        "prices",
        "refine",
        "knee_fraction",
    )
    _reject_unknown(document, allowed, "plan")

    version = document.get("plan", PLAN_SCHEMA_VERSION)
    if version != PLAN_SCHEMA_VERSION:
        raise PlanError(
            f"unsupported plan schema version {version!r}; this planner"
            f" speaks version {PLAN_SCHEMA_VERSION}"
        )
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise PlanError("a plan needs a non-empty 'name'")
    description = document.get("description", "")
    if not isinstance(description, str):
        raise PlanError("'description' must be a string")

    if "scenario" not in document:
        raise PlanError("a plan needs a 'scenario' (builtin name, path, or document)")
    scenario_ref = document["scenario"]
    if not isinstance(scenario_ref, (str, Mapping)):
        raise PlanError(
            "'scenario' must be a builtin scenario name, a file path, or"
            " an inline scenario document"
        )
    try:
        scenario = resolve_scenario(scenario_ref)
    except ReproError as error:
        raise PlanError(f"plan scenario: {error}")
    if scenario.sweep:
        raise PlanError(
            f"plan scenario {scenario.name!r} declares its own sweep axes"
            f" {sorted(dict(scenario.sweep))}; the plan's search space is"
            " the only sweep a plan may carry"
        )

    objective = document.get("objective", "min-time")
    if objective not in OBJECTIVES:
        raise PlanError(
            f"unknown objective {objective!r}; known: {', '.join(OBJECTIVES)}"
        )

    search = _parse_search(document.get("search", {}), scenario)
    constraints = _parse_constraints(document.get("constraints", {}))
    prices = _parse_prices(document.get("prices", {}))

    runs = document.get("runs", 1)
    if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
        raise PlanError(f"'runs' must be a positive integer, got {runs!r}")
    try:
        float(runs)  # pricing multiplies seconds by runs as a float
    except OverflowError:
        raise PlanError(
            f"'runs' must fit in a float, got a {runs.bit_length()}-bit integer"
        ) from None

    refine = document.get("refine", True)
    if not isinstance(refine, bool):
        raise PlanError(f"'refine' must be a boolean, got {refine!r}")

    knee_fraction = _parse_number(
        document.get("knee_fraction", 0.95), "knee_fraction"
    )
    if knee_fraction > 1.0:
        raise PlanError(f"knee_fraction must be in (0, 1], got {knee_fraction}")

    # Every candidate must be priceable: the planner always reports the
    # cost-vs-time Pareto frontier, so a plan whose candidates have no
    # resolvable positive price is an error now, not mid-optimisation.
    price_overrides = dict(prices)
    nodes = _candidate_nodes(scenario, search)
    if not nodes:
        raise PlanError(
            "a plan needs priceable compute: give the scenario a catalog"
            " hardware 'node' or list candidates under search.nodes"
        )
    for slug in nodes:
        price = resolve_price(slug, price_overrides)
        if price <= 0:
            raise PlanError(
                f"candidate node {slug!r} has no positive price; set one in"
                " the plan's 'prices' section"
            )

    spec = PlanSpec(
        name=name,
        description=description,
        scenario=scenario,
        search=search,
        objective=objective,
        constraints=constraints,
        runs=runs,
        prices=prices,
        refine=refine,
        knee_fraction=knee_fraction,
        schema_version=PLAN_SCHEMA_VERSION,
    )
    # The derived scenario must itself validate (sweepable axes, backend
    # compatibility); building it now makes `plan validate` a promise.
    derived_scenario(spec)
    return spec


def derived_scenario(plan: PlanSpec, backend: str | None = None) -> ScenarioSpec:
    """The scenario sweep that evaluates ``plan``'s whole search space.

    The plan's search axes become sweep axes of a derived scenario, so
    candidate evaluation inherits everything the scenario engine already
    guarantees: batched ``times()`` per grid point, process-pool
    parallelism, content-hash disk caching, and bit-identical serial vs
    pooled results.  ``backend`` overrides the scenario's evaluation
    backend (the CLI's ``--backend`` flag).
    """
    data = plan.scenario.to_dict()
    data["name"] = plan.name
    data["description"] = (
        f"search space of capacity plan {plan.name!r}"
        + (f": {plan.description}" if plan.description else "")
    )
    if plan.search.workers:
        grid = list(plan.search.workers)
        data["workers"] = grid
        if plan.scenario.baseline_workers not in grid:
            # Speedups need an on-grid reference; the smallest candidate
            # count is the only defensible default.
            data["baseline_workers"] = min(grid)
    sweep: dict[str, list[object]] = {}
    if plan.search.nodes:
        sweep["node"] = list(plan.search.nodes)
        # A swept node must win over any inline flops override, which the
        # hardware resolution would otherwise prefer.
        data.get("hardware", {}).pop("flops", None)
    if plan.search.links:
        sweep["link"] = list(plan.search.links)
        hardware = data.get("hardware", {})
        hardware.pop("bandwidth_bps", None)
        hardware.pop("latency_s", None)
    if plan.search.topologies:
        sweep["topology"] = list(plan.search.topologies)
    if sweep:
        data["sweep"] = sweep
    try:
        scenario = parse_scenario(data)
        if backend is not None:
            from repro.scenarios.spec import with_backend

            scenario = with_backend(scenario, backend)
    except ReproError as error:
        raise PlanError(f"plan {plan.name!r} does not compile: {error}")
    return scenario


def load_plan(path: str | Path) -> PlanSpec:
    """Load and validate a plan JSON file."""
    file_path = Path(path)
    if not file_path.exists():
        raise PlanError(f"plan file {str(file_path)!r} does not exist")
    try:
        data = json.loads(file_path.read_text())
    except OSError as error:
        raise PlanError(f"cannot read plan file {str(file_path)!r}: {error}")
    except json.JSONDecodeError as error:
        raise PlanError(f"plan file {str(file_path)!r} is not valid JSON: {error}")
    return parse_plan(data)


def builtin_plan_names() -> tuple[str, ...]:
    """Names of the bundled plan specs, sorted."""
    return tuple(sorted(p.stem for p in BUILTIN_PLAN_DIR.glob("*.json")))


def builtin_plan_path(name: str) -> Path:
    """Path of a bundled plan; raises with the valid names listed."""
    path = BUILTIN_PLAN_DIR / f"{name}.json"
    if not path.exists():
        known = ", ".join(builtin_plan_names())
        raise PlanError(f"unknown builtin plan {name!r}; known: {known}")
    return path


def load_builtin_plan(name: str) -> PlanSpec:
    """Load a bundled plan spec by name."""
    return load_plan(builtin_plan_path(name))


def resolve_plan(ref: str | Path | Mapping) -> PlanSpec:
    """Resolve a builtin name, a file path, or a raw mapping to a plan.

    Mirrors :func:`repro.scenarios.spec.resolve_scenario`: builtin names
    win over stray same-named files in the working directory; anything
    that looks like a path is treated as one.
    """
    if isinstance(ref, Mapping):
        return parse_plan(ref)
    text = str(ref)
    looks_like_path = text.endswith(".json") or "/" in text or "\\" in text
    if not looks_like_path and text in builtin_plan_names():
        return load_builtin_plan(text)
    if looks_like_path or Path(text).is_file():
        return load_plan(text)
    return load_builtin_plan(text)  # raises, listing the known builtin names
