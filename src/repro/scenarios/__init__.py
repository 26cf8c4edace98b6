"""Declarative scenario engine: specs as data, sweeps at scale.

The paper's framework is algorithm-independent — any workload expressible
as BSP supersteps ``t = tcp + tcm`` yields a ``time(n)`` curve — so this
package lets users *describe* a scenario (hardware, communication
pattern, algorithm, sweep grid) as a plain dict or JSON file and have the
engine compile it into a :class:`~repro.core.model.ScalabilityModel`,
evaluate it (in parallel for expensive grids), cache the results on disk
and export them as JSON/CSV.  See ``docs/scenarios.md`` for the schema
and the bundled examples under ``repro/scenarios/builtin/``.
"""

from repro.scenarios.calibrate import (
    FamilyFit,
    ScenarioCalibration,
    calibrate_scenario,
    default_calibration_source,
)
from repro.scenarios.grids import log_worker_grid, parse_worker_grid, with_workers
from repro.scenarios.compile import (
    ALGORITHM_KINDS,
    OVERHEAD_PRESETS,
    TOPOLOGIES,
    algorithm_kinds,
    compile_backend,
    compile_point,
    compile_scenario,
    compile_workload,
    is_expensive,
    is_stochastic,
    needs_simulation,
    simulation_issue,
)
from repro.scenarios.spec import (
    BACKEND_KINDS,
    BackendSection,
    ScenarioSpec,
    builtin_names,
    builtin_path,
    load_builtin,
    load_scenario,
    parse_scenario,
    resolve_scenario,
    with_backend,
)
from repro.scenarios.sweep import (
    SweepResult,
    SweepRunner,
    evaluate_point,
    expand_grid,
    export_format,
    run_scenario,
)
from repro.store import default_cache_dir

__all__ = [
    "ALGORITHM_KINDS",
    "BACKEND_KINDS",
    "OVERHEAD_PRESETS",
    "TOPOLOGIES",
    "BackendSection",
    "FamilyFit",
    "ScenarioCalibration",
    "ScenarioSpec",
    "SweepResult",
    "SweepRunner",
    "algorithm_kinds",
    "builtin_names",
    "builtin_path",
    "calibrate_scenario",
    "compile_backend",
    "compile_point",
    "compile_scenario",
    "compile_workload",
    "default_cache_dir",
    "default_calibration_source",
    "evaluate_point",
    "expand_grid",
    "export_format",
    "is_expensive",
    "is_stochastic",
    "load_builtin",
    "load_scenario",
    "log_worker_grid",
    "needs_simulation",
    "parse_scenario",
    "parse_worker_grid",
    "resolve_scenario",
    "run_scenario",
    "simulation_issue",
    "with_backend",
    "with_workers",
]
