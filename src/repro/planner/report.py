"""The planner's answer: a structured, exportable recommendation.

A :class:`Recommendation` carries the chosen configuration, the
cost-vs-time Pareto frontier, the marginal-speedup-per-dollar table of
the chosen configuration, and the sensitivity of its optimum to ±20 %
hardware perturbations — everything a provisioning decision needs to be
defended, not just stated.  It renders as text (the CLI default),
exports as JSON (``payload()`` / ``to_json``), and flattens to CSV (the
full priced candidate table, one row per configuration × worker count).
"""

from __future__ import annotations

import csv
import json
import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.errors import PlanError

#: Recognised structured-export formats, by file suffix.
EXPORT_SUFFIXES = (".json", ".csv")


def export_format(path: str | Path) -> str:
    """The export suffix for ``path``, validated.

    Shared by :meth:`Recommendation.export` and the CLI's pre-run check,
    so a rejected target fails *before* a possibly expensive optimisation
    runs and both layers agree on what counts as a valid target.
    """
    suffix = Path(path).suffix.lower()
    if suffix not in EXPORT_SUFFIXES:
        raise PlanError(
            f"cannot infer export format from {str(path)!r};"
            f" use {' or '.join(EXPORT_SUFFIXES)}"
        )
    return suffix


#: Ordered columns of a candidate point's tabular form.
_POINT_FIELDS = (
    "node",
    "link",
    "topology",
    "workers",
    "time_s",
    "speedup",
    "efficiency",
    "cost_usd",
    "throughput_per_s",
)


@dataclass(frozen=True)
class PlanPoint:
    """One candidate: a hardware/topology configuration at a worker count.

    ``cost_usd`` is the price of executing the plan's ``runs`` runs of
    the modelled workload: ``workers × price/h × time × runs`` for
    per-node hardware, ``price/h × time × runs`` for shared-memory
    machines (the whole host is rented regardless of cores used).
    ``throughput_per_s`` is the workload's work units per second (see
    :func:`repro.planner.search.work_units_per_run`).  ``violations``
    names the constraints the point breaks; an empty tuple means
    feasible.
    """

    node: str
    link: str
    topology: str
    workers: int
    time_s: float
    speedup: float
    efficiency: float
    cost_usd: float
    throughput_per_s: float
    violations: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            key: getattr(self, key) for key in _POINT_FIELDS
        }
        data["feasible"] = self.feasible
        data["violations"] = list(self.violations)
        return data


class CandidateTable(Sequence[PlanPoint]):
    """Every priced (configuration × workers) candidate, as columns.

    Row ``i`` is configuration ``configs[config[i]]`` — a ``(node, link,
    topology)`` triple — at ``workers[i]``.  ``workers``, ``time_s``,
    ``speedup``, ``efficiency``, ``cost_usd`` and ``throughput_per_s``
    are float64 columns; ``violated`` maps each set constraint, in
    :data:`~repro.planner.spec.CONSTRAINT_KEYS` order, to the mask of
    rows that break it.  Counting, filtering, ranking and the frontier
    read the columns; a row becomes a :class:`PlanPoint` only when it is
    indexed or iterated, through :meth:`points`.
    """

    __slots__ = (
        "configs",
        "config",
        "workers",
        "time_s",
        "speedup",
        "efficiency",
        "cost_usd",
        "throughput_per_s",
        "violated",
        "feasible",
    )

    def __init__(
        self,
        configs: Sequence[tuple[str, str, str]],
        config: np.ndarray,
        workers: np.ndarray,
        time_s: np.ndarray,
        speedup: np.ndarray,
        efficiency: np.ndarray,
        cost_usd: np.ndarray,
        throughput_per_s: np.ndarray,
        violated: Mapping[str, np.ndarray],
    ) -> None:
        self.configs = tuple(configs)
        self.config = config
        self.workers = workers
        self.time_s = time_s
        self.speedup = speedup
        self.efficiency = efficiency
        self.cost_usd = cost_usd
        self.throughput_per_s = throughput_per_s
        self.violated = dict(violated)
        broken = np.zeros(len(config), dtype=bool)
        for mask in self.violated.values():
            broken |= mask
        self.feasible = ~broken

    def __len__(self) -> int:
        return len(self.config)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return tuple(self.points(range(len(self))[index]))
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("candidate index out of range")
        return self.points([position])[0]

    def __iter__(self) -> Iterator[PlanPoint]:
        return iter(self.points(np.arange(len(self))))

    @property
    def feasible_total(self) -> int:
        return int(np.count_nonzero(self.feasible))

    def violation_counts(self) -> dict[str, int]:
        """Rows breaking each constraint, keyed in first-appearance order.

        Rows are read in candidate order and a row's names in
        :data:`~repro.planner.spec.CONSTRAINT_KEYS` order, so the key
        order (which JSON exports keep) is the order a row-by-row tally
        would meet them.
        """
        seen = [
            (int(np.argmax(mask)), position, name, int(np.count_nonzero(mask)))
            for position, (name, mask) in enumerate(self.violated.items())
            if mask.any()
        ]
        return {name: count for _row, _position, name, count in sorted(seen)}

    def points(self, rows: Sequence[int] | np.ndarray) -> list[PlanPoint]:
        """The :class:`PlanPoint` of each row position in ``rows``, in order."""
        rows = np.asarray(rows, dtype=np.intp)
        names = tuple(self.violated)
        flags = [mask[rows].tolist() for mask in self.violated.values()]
        columns = zip(
            self.config[rows].tolist(),
            self.workers[rows].tolist(),
            self.time_s[rows].tolist(),
            self.speedup[rows].tolist(),
            self.efficiency[rows].tolist(),
            self.cost_usd[rows].tolist(),
            self.throughput_per_s[rows].tolist(),
            zip(*flags) if flags else [()] * len(rows),
        )
        built = []
        for config, workers, time_s, speedup, efficiency, cost, throughput, hits in columns:
            node, link, topology = self.configs[config]
            built.append(
                PlanPoint(
                    node=node,
                    link=link,
                    topology=topology,
                    workers=int(workers),
                    time_s=time_s,
                    speedup=speedup,
                    efficiency=efficiency,
                    cost_usd=cost,
                    throughput_per_s=throughput,
                    violations=tuple(n for n, hit in zip(names, hits) if hit),
                )
            )
        return built


@dataclass(frozen=True)
class Recommendation:
    """The outcome of optimising one capacity plan.

    ``chosen`` is ``None`` when no candidate satisfies the constraints —
    that is a *result* (the plan is infeasible as stated), not an error.
    The frontier is empty in that case (it ranges over feasible points
    only), but the per-constraint violation counts tell the reader which
    limit to relax.  ``refined_workers`` is the
    golden-section continuous optimum of the chosen configuration's
    analytic model (``None`` when refinement is disabled or the model has
    no continuation); ``analytic_optimal_workers`` is the analytic grid
    argmax of the same configuration — the paper's ``N``.  ``candidates``
    is the whole priced :class:`CandidateTable`; it yields
    :class:`PlanPoint` rows on access.
    """

    plan: str
    content_hash: str
    objective: str
    backend: str
    runs: int
    constraints: dict
    chosen: PlanPoint | None
    pareto: tuple[PlanPoint, ...]
    candidates: CandidateTable
    analytic_optimal_workers: int | None = None
    refined_workers: float | None = None
    knee_workers: int | None = None
    knee_fraction: float = 0.95
    marginal: tuple[dict, ...] = ()
    sensitivity: tuple[dict, ...] = ()
    violation_counts: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def payload(self) -> dict:
        """JSON-serialisable form: the whole decision, reproducibly."""
        return {
            "plan": self.plan,
            "content_hash": self.content_hash,
            "objective": self.objective,
            "backend": self.backend,
            "runs": self.runs,
            "constraints": dict(self.constraints),
            "recommendation": None if self.chosen is None else self.chosen.to_dict(),
            "analytic_optimal_workers": self.analytic_optimal_workers,
            "refined_workers": self.refined_workers,
            "knee_workers": self.knee_workers,
            "knee_fraction": self.knee_fraction,
            "pareto": [point.to_dict() for point in self.pareto],
            "marginal_speedup_per_usd": [dict(row) for row in self.marginal],
            "sensitivity": [dict(row) for row in self.sensitivity],
            "candidates_total": len(self.candidates),
            "feasible_total": self.candidates.feasible_total,
            "violation_counts": dict(self.violation_counts),
        }

    def frontier_payload(self) -> list[dict]:
        """Just the Pareto frontier, in report order (for golden files)."""
        return [point.to_dict() for point in self.pareto]

    def candidate_rows(self) -> list[dict[str, object]]:
        """The full priced candidate table (the CSV payload)."""
        rows = []
        for point in self.candidates:
            row = point.to_dict()
            row["violations"] = ";".join(point.violations)
            rows.append(row)
        return rows

    def to_json(self, path: str | Path) -> Path:
        target = Path(path)
        document = self.payload()
        document["stats"] = self.stats
        target.write_text(json.dumps(document, indent=2) + "\n")
        return target

    def to_csv(self, path: str | Path) -> Path:
        target = Path(path)
        rows = self.candidate_rows()
        fieldnames = list(_POINT_FIELDS) + ["feasible", "violations"]
        with target.open("w", newline="") as stream:
            writer = csv.DictWriter(stream, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return target

    def export(self, path: str | Path) -> Path:
        """Dispatch on suffix: ``.json`` or ``.csv``."""
        if export_format(path) == ".json":
            return self.to_json(path)
        return self.to_csv(path)

    def render(self) -> str:
        """Human-readable report block (the CLI's default output)."""
        from repro.experiments.plotting import render_table

        lines = [f"== plan: {self.plan} ({self.objective}, backend {self.backend})", ""]
        if self.chosen is None:
            lines.append("  no feasible configuration satisfies the constraints:")
            for name in sorted(self.violation_counts):
                lines.append(
                    f"    {name}: violated by {self.violation_counts[name]}"
                    f" of {len(self.candidates)} candidates"
                )
        else:
            chosen = self.chosen
            lines.append(
                f"  recommend: {chosen.workers} x {chosen.node}"
                + (f" over {chosen.link}" if chosen.link else "")
                + (f" ({chosen.topology})" if chosen.topology else "")
            )
            lines.append(
                f"    time {chosen.time_s:.4g}s, speedup {chosen.speedup:.3g}x,"
                f" efficiency {chosen.efficiency:.1%},"
                f" cost ${chosen.cost_usd:.4g} for {self.runs} run(s)"
            )
            details = []
            if self.analytic_optimal_workers is not None:
                details.append(f"analytic argmax N = {self.analytic_optimal_workers}")
            if self.refined_workers is not None:
                details.append(f"refined optimum n* = {self.refined_workers:.2f}")
            if self.knee_workers is not None:
                details.append(
                    f"knee ({self.knee_fraction:.0%} of peak) = {self.knee_workers}"
                )
            if details:
                lines.append("    " + "; ".join(details))
        lines.append("")
        lines.append(f"  pareto frontier ({len(self.pareto)} point(s), cost vs time):")
        lines.append("")
        frontier_rows = [
            {
                key: point.to_dict()[key]
                for key in ("node", "link", "topology", "workers", "time_s", "cost_usd", "speedup")
            }
            for point in self.pareto
        ]
        if frontier_rows:
            lines.append(render_table(frontier_rows))
        if self.marginal:
            lines.append("")
            lines.append("  marginal speedup per dollar (chosen configuration):")
            lines.append("")
            lines.append(render_table([dict(row) for row in self.marginal]))
        if self.sensitivity:
            lines.append("")
            lines.append("  sensitivity of the optimum (chosen configuration):")
            lines.append("")
            lines.append(render_table([dict(row) for row in self.sensitivity]))
        return "\n".join(lines)
