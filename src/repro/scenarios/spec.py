"""Declarative scenario specifications.

A *scenario* is plain data — a dict (usually loaded from a JSON file)
that names a hardware configuration, an algorithm, and an optional sweep
grid — which the engine compiles into a
:class:`~repro.core.model.ScalabilityModel` and evaluates over a worker
grid.  Being data, scenarios can be validated, content-hashed for
caching, shipped as files, and generated programmatically, in the spirit
of Ernest-style declarative experiment specs.

The schema (version 1)::

    {
      "scenario": 1,                      # schema version (optional)
      "name": "figure2",
      "description": "free text",
      "hardware": {
        "node": "xeon-e3-1240",           # catalog slug, and/or
        "flops": 8.448e10,                # inline effective FLOPS override
        "link": "1gbe",                   # catalog slug, and/or
        "bandwidth_bps": 1e9,             # inline override
        "latency_s": 0.0
      },
      "algorithm": {
        "kind": "spark_gradient_descent", # see repro.scenarios.compile
        "params": { ... }                 # kind-specific parameters
      },
      "workers": {"min": 1, "max": 13},   # or an explicit list [1, 2, 4]
      "baseline_workers": 1,              # speedup reference point
      "sweep": {                          # optional; cartesian product
        "batch_size": [6e3, 6e4, 6e5],
        "bandwidth_bps": [1e9, 1e10]
      },
      "backend": {                        # optional; how points evaluate
        "kind": "analytic",               # analytic | simulated | calibrated | network
        "simulation": {                   # knobs of the simulated backend
          "iterations": 3,
          "seed": 0,
          "jitter_sigma": 0.0,
          "straggler_fraction": 0.0,
          "straggler_slowdown": 2.0,
          "overhead": "none"              # preset name or inline mapping
        },
        "calibration": {                  # knobs of the calibrated backend
          "source": "analytic",           # backend that takes measurements
          "features": "ernest"            # feature family to fit
        },
        "topology": {                     # fabric of the network backend
          "kind": "oversubscribed-racks", # see repro.net.topology
          "racks": 2,
          "oversubscription_ratio": 4.0   # sweepable, like wan_latency_ms
        }
      }
    }

Everything is validated eagerly with error messages that list the valid
alternatives; nothing here imports the model layer (compilation lives in
:mod:`repro.scenarios.compile`).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import ScenarioError
from repro.core.speedup import WorkerGrid
from repro.net.topology import TOPOLOGY_SWEEP_AXES, validate_topology_options
from repro.simulate.overhead import OVERHEAD_PRESETS

#: Current schema version; bumped on incompatible schema changes.
SCHEMA_VERSION = 1

#: Bumped whenever evaluation semantics change, to invalidate caches.
#: 2: curves evaluate through the vectorized cost-term algebra.
#: 3: points evaluate through pluggable backends (backend block joins
#:    the canonical form and hence the cache key).
#: 4: optimal_workers breaks speedup ties toward the smallest worker
#:    count (cached payloads store the argmax, so the tie-break is
#:    evaluation semantics).
ENGINE_VERSION = 4

#: Hardware fields that may appear inline and be swept over.
HARDWARE_SCALARS = ("flops", "bandwidth_bps", "latency_s")
HARDWARE_SLUGS = ("node", "link")
_HARDWARE_KEYS = HARDWARE_SLUGS + HARDWARE_SCALARS

#: The recognised evaluation backends (see repro.core.backend).
BACKEND_KINDS = ("analytic", "simulated", "calibrated", "network")

#: Keys of the backend ``simulation`` block.
SIMULATION_KEYS = (
    "iterations",
    "seed",
    "jitter_sigma",
    "straggler_fraction",
    "straggler_slowdown",
    "overhead",
)

#: Simulation knobs that may appear as sweep axes (per-point overrides).
BACKEND_SWEEP_AXES = ("jitter_sigma", "straggler_fraction", "straggler_slowdown")

# TOPOLOGY_SWEEP_AXES (imported from repro.net.topology and re-exported
# here) plays the same role for the network backend's topology block.

#: Keys of the backend ``calibration`` block.
CALIBRATION_KEYS = ("source", "features")

#: Backends a calibrated backend may measure through.
CALIBRATION_SOURCES = ("analytic", "simulated")

#: Directory holding the bundled scenario specs.
BUILTIN_DIR = Path(__file__).resolve().parent / "builtin"

#: Sanity cap on the worker grid — far above any sensible study, low
#: enough that a typo'd exponent fails fast instead of allocating.
MAX_WORKER_GRID_POINTS = 10_000


@dataclass(frozen=True)
class HardwareSection:
    """Resolved-later hardware description: catalog slugs plus overrides."""

    node: str | None = None
    link: str | None = None
    flops: float | None = None
    bandwidth_bps: float | None = None
    latency_s: float | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            key: getattr(self, key)
            for key in _HARDWARE_KEYS
            if getattr(self, key) is not None
        }


@dataclass(frozen=True)
class AlgorithmSection:
    """An algorithm kind plus its kind-specific parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params)}

    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class BackendSection:
    """How grid points evaluate: a backend kind plus its option blocks.

    ``simulation`` holds the simulated backend's knobs (also consulted
    when a calibrated backend measures through the simulator);
    ``calibration`` holds the calibrated backend's.  Both are stored as
    sorted key/value pairs so the canonical form (and hence the cache
    key) is order-independent.
    """

    kind: str = "analytic"
    simulation: tuple[tuple[str, object], ...] = ()
    calibration: tuple[tuple[str, object], ...] = ()
    topology: tuple[tuple[str, object], ...] = ()

    @property
    def simulation_dict(self) -> dict[str, object]:
        return dict(self.simulation)

    @property
    def calibration_dict(self) -> dict[str, object]:
        return dict(self.calibration)

    @property
    def topology_dict(self) -> dict[str, object]:
        return {
            key: dict(value) if key == "tcp" else value
            for key, value in self.topology
        }

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {"kind": self.kind}
        if self.simulation:
            data["simulation"] = dict(self.simulation)
        if self.calibration:
            data["calibration"] = dict(self.calibration)
        if self.topology:
            data["topology"] = self.topology_dict
        return data


#: The default backend: analytic, no options.
DEFAULT_BACKEND = BackendSection()


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario, ready for compilation and sweeping."""

    name: str
    description: str
    hardware: HardwareSection
    algorithm: AlgorithmSection
    workers: tuple[int, ...]
    baseline_workers: int = 1
    sweep: tuple[tuple[str, tuple[object, ...]], ...] = ()
    backend: BackendSection = DEFAULT_BACKEND
    schema_version: int = SCHEMA_VERSION

    @property
    def grid_size(self) -> int:
        """Number of sweep grid points (1 when there is no sweep)."""
        size = 1
        for _axis, values in self.sweep:
            size *= len(values)
        return size

    def to_dict(self) -> dict[str, object]:
        """Canonical plain-data form (JSON-serialisable, re-parseable)."""
        data: dict[str, object] = {
            "scenario": self.schema_version,
            "name": self.name,
            "description": self.description,
            "hardware": self.hardware.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "workers": list(self.workers),
            "baseline_workers": self.baseline_workers,
        }
        if self.sweep:
            data["sweep"] = {axis: list(values) for axis, values in self.sweep}
        if self.backend != DEFAULT_BACKEND:
            data["backend"] = self.backend.to_dict()
        return data

    def content_hash(self) -> str:
        """SHA-256 over the canonical form — the cache key."""
        payload = {"engine": ENGINE_VERSION, "spec": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require_mapping(value: object, context: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: Mapping, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown {context} keys {unknown}; allowed: {sorted(allowed)}"
        )


def _parse_number(value: object, context: str, positive: bool = True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        # json.loads happily parses NaN/Infinity; without this they pass
        # the sign checks (NaN compares False) and poison every result.
        raise ScenarioError(f"{context} must be finite, got {number}")
    if positive and number <= 0:
        raise ScenarioError(f"{context} must be positive, got {number}")
    if not positive and number < 0:
        raise ScenarioError(f"{context} must be non-negative, got {number}")
    return number


def _parse_hardware(data: object) -> HardwareSection:
    section = _require_mapping(data, "'hardware'")
    _reject_unknown(section, _HARDWARE_KEYS, "hardware")
    node = section.get("node")
    link = section.get("link")
    for slug, label in ((node, "node"), (link, "link")):
        if slug is not None and not isinstance(slug, str):
            raise ScenarioError(f"hardware.{label} must be a catalog slug string")
    flops = section.get("flops")
    bandwidth = section.get("bandwidth_bps")
    latency = section.get("latency_s")
    return HardwareSection(
        node=node,
        link=link,
        flops=None if flops is None else _parse_number(flops, "hardware.flops"),
        bandwidth_bps=(
            None if bandwidth is None else _parse_number(bandwidth, "hardware.bandwidth_bps")
        ),
        latency_s=(
            None
            if latency is None
            else _parse_number(latency, "hardware.latency_s", positive=False)
        ),
    )


def _parse_algorithm(data: object) -> AlgorithmSection:
    section = _require_mapping(data, "'algorithm'")
    _reject_unknown(section, ("kind", "params"), "algorithm")
    kind = section.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ScenarioError("algorithm.kind must be a non-empty string")
    params = section.get("params", {})
    params_map = _require_mapping(params, "algorithm.params")
    for key in params_map:
        if not isinstance(key, str):
            raise ScenarioError(f"algorithm parameter names must be strings, got {key!r}")
    return AlgorithmSection(kind=kind, params=tuple(sorted(params_map.items())))


def _parse_workers(data: object) -> WorkerGrid:
    """The spec's worker grid, checked here once for the whole program.

    Every curve the spec's sweep, plan or request evaluates receives
    this :class:`~repro.core.speedup.WorkerGrid` unchanged.
    """
    if isinstance(data, Mapping):
        _reject_unknown(data, ("min", "max", "step"), "workers")
        low = data.get("min", 1)
        high = data.get("max")
        step = data.get("step", 1)
        if high is None:
            raise ScenarioError("workers range needs a 'max'")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (low, high, step)):
            raise ScenarioError("workers min/max/step must be integers")
        if low < 1 or high < low or step < 1:
            raise ScenarioError(
                f"workers range must satisfy 1 <= min <= max and step >= 1,"
                f" got min={low} max={high} step={step}"
            )
        count = (high - low) // step + 1
        if count > MAX_WORKER_GRID_POINTS:
            # Checked before the range materialises: a typo'd max must
            # fail fast, not allocate a multi-gigabyte tuple.
            raise ScenarioError(
                f"workers range has {count} points; the limit is"
                f" {MAX_WORKER_GRID_POINTS}"
            )
        return WorkerGrid._trusted(range(low, high + 1, step))
    if isinstance(data, Sequence) and not isinstance(data, (str, bytes)):
        grid = []
        for value in data:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"worker counts must be integers, got {value!r}")
            if value < 1:
                raise ScenarioError(f"worker counts must be >= 1, got {value}")
            grid.append(value)
        if not grid:
            raise ScenarioError("workers list must not be empty")
        if len(grid) > MAX_WORKER_GRID_POINTS:
            raise ScenarioError(
                f"workers list has {len(grid)} points; the limit is"
                f" {MAX_WORKER_GRID_POINTS}"
            )
        if len(set(grid)) != len(grid):
            raise ScenarioError("worker counts must be unique")
        return WorkerGrid._trusted(grid)
    raise ScenarioError(
        "'workers' must be a {min, max[, step]} range or a list of counts"
    )


def validate_simulation_options(section: Mapping[str, object]) -> None:
    """Shape and range checks of a ``backend.simulation`` block.

    The single authority for what a simulation block may contain: the
    spec parser applies it to declared blocks, and the scenario compiler
    re-applies it after sweep-axis values merge in (sweeps bypass
    parsing), so the two layers can never disagree.
    """
    _reject_unknown(section, SIMULATION_KEYS, "backend.simulation")
    if "iterations" in section:
        iterations = section["iterations"]
        if isinstance(iterations, bool) or not isinstance(iterations, int) or iterations < 1:
            raise ScenarioError(
                f"backend.simulation.iterations must be a positive integer, got {iterations!r}"
            )
    if "seed" in section:
        seed = section["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ScenarioError(
                f"backend.simulation.seed must be a non-negative integer, got {seed!r}"
            )
    for key in ("jitter_sigma", "straggler_fraction", "straggler_slowdown"):
        if key in section:
            _parse_number(section[key], f"backend.simulation.{key}", positive=False)
    if "straggler_fraction" in section and float(section["straggler_fraction"]) > 1.0:
        raise ScenarioError(
            "backend.simulation.straggler_fraction must be in [0, 1],"
            f" got {section['straggler_fraction']}"
        )
    if "straggler_slowdown" in section and float(section["straggler_slowdown"]) < 1.0:
        raise ScenarioError(
            "backend.simulation.straggler_slowdown must be >= 1,"
            f" got {section['straggler_slowdown']}"
        )
    if "overhead" in section:
        overhead = section["overhead"]
        if isinstance(overhead, str):
            if overhead not in OVERHEAD_PRESETS:
                raise ScenarioError(
                    f"unknown overhead preset {overhead!r};"
                    f" known: {', '.join(sorted(OVERHEAD_PRESETS))}"
                )
        elif isinstance(overhead, Mapping):
            _reject_unknown(
                overhead,
                ("superstep_seconds", "per_worker_seconds"),
                "backend.simulation.overhead",
            )
            for key, value in overhead.items():
                _parse_number(
                    value, f"backend.simulation.overhead.{key}", positive=False
                )
        else:
            raise ScenarioError(
                "backend.simulation.overhead must be a preset name or a"
                f" mapping, got {overhead!r}"
            )


def _parse_simulation(data: object) -> tuple[tuple[str, object], ...]:
    section = _require_mapping(data, "backend.simulation")
    validate_simulation_options(section)
    parsed: dict[str, object] = {}
    for key in ("iterations", "seed"):
        if key in section:
            parsed[key] = section[key]
    for key in ("jitter_sigma", "straggler_fraction", "straggler_slowdown"):
        if key in section:
            parsed[key] = float(section[key])
    if "overhead" in section:
        overhead = section["overhead"]
        parsed["overhead"] = (
            overhead
            if isinstance(overhead, str)
            else {key: float(value) for key, value in overhead.items()}
        )
    return tuple(sorted(parsed.items()))


def _parse_calibration(data: object) -> tuple[tuple[str, object], ...]:
    section = _require_mapping(data, "backend.calibration")
    _reject_unknown(section, CALIBRATION_KEYS, "backend.calibration")
    parsed: dict[str, object] = {}
    if "source" in section:
        source = section["source"]
        if source not in CALIBRATION_SOURCES:
            raise ScenarioError(
                f"backend.calibration.source must be one of"
                f" {', '.join(CALIBRATION_SOURCES)}; got {source!r}"
            )
        parsed["source"] = source
    if "features" in section:
        features = section["features"]
        if not isinstance(features, str) or not features:
            # Feature-library *names* are validated at compile time
            # (repro.core.calibration owns the registry).
            raise ScenarioError(
                f"backend.calibration.features must be a non-empty string,"
                f" got {features!r}"
            )
        parsed["features"] = features
    return tuple(sorted(parsed.items()))


def _parse_topology(data: object) -> tuple[tuple[str, object], ...]:
    section = _require_mapping(data, "backend.topology")
    validate_topology_options(section)
    parsed: dict[str, object] = {}
    if "kind" in section:
        parsed["kind"] = section["kind"]
    for key in ("k", "racks", "sites"):
        if key in section:
            parsed[key] = int(section[key])  # type: ignore[call-overload]
    for key in ("oversubscription_ratio", "wan_latency_ms"):
        if key in section:
            parsed[key] = float(section[key])  # type: ignore[arg-type]
    if "wan_link" in section:
        parsed["wan_link"] = section["wan_link"]
    if "tcp" in section:
        tcp = dict(section["tcp"])  # type: ignore[call-overload]
        canonical: dict[str, object] = {"loss_rate": float(tcp["loss_rate"])}
        if "mss_bytes" in tcp:
            canonical["mss_bytes"] = int(tcp["mss_bytes"])
        # Stored as a nested item tuple so BackendSection stays hashable.
        parsed["tcp"] = tuple(sorted(canonical.items()))
    return tuple(sorted(parsed.items()))


def _parse_backend(data: object) -> BackendSection:
    section = _require_mapping(data, "'backend'")
    _reject_unknown(section, ("kind", "simulation", "calibration", "topology"), "backend")
    kind = section.get("kind", "analytic")
    if kind not in BACKEND_KINDS:
        raise ScenarioError(
            f"unknown backend kind {kind!r}; known: {', '.join(BACKEND_KINDS)}"
        )
    return BackendSection(
        kind=kind,
        simulation=_parse_simulation(section.get("simulation", {})),
        calibration=_parse_calibration(section.get("calibration", {})),
        topology=_parse_topology(section.get("topology", {})),
    )


def _parse_sweep(data: object) -> tuple[tuple[str, tuple[object, ...]], ...]:
    section = _require_mapping(data, "'sweep'")
    axes = []
    for axis, values in section.items():
        if not isinstance(axis, str):
            raise ScenarioError(f"sweep axis names must be strings, got {axis!r}")
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ScenarioError(f"sweep axis {axis!r} must list its values")
        if not values:
            raise ScenarioError(f"sweep axis {axis!r} must not be empty")
        for value in values:
            if not isinstance(value, (int, float, str)) or isinstance(value, bool):
                raise ScenarioError(
                    f"sweep axis {axis!r} values must be numbers or catalog"
                    f" slugs, got {value!r}"
                )
            if isinstance(value, (int, float)) and not math.isfinite(float(value)):
                raise ScenarioError(f"sweep axis {axis!r} values must be finite")
        if len(set(values)) != len(values):
            raise ScenarioError(f"sweep axis {axis!r} has duplicate values")
        axes.append((axis, tuple(values)))
    return tuple(sorted(axes))


def parse_scenario(data: Mapping) -> ScenarioSpec:
    """Validate a plain mapping into a :class:`ScenarioSpec`.

    Raises :class:`~repro.core.errors.ScenarioError` with a message
    naming the offending key and the valid alternatives.
    """
    document = _require_mapping(data, "a scenario spec")
    allowed = (
        "scenario",
        "name",
        "description",
        "hardware",
        "algorithm",
        "workers",
        "baseline_workers",
        "sweep",
        "backend",
    )
    _reject_unknown(document, allowed, "scenario")

    version = document.get("scenario", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema version {version!r}; this engine speaks"
            f" version {SCHEMA_VERSION}"
        )
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("a scenario needs a non-empty 'name'")
    description = document.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError("'description' must be a string")
    if "algorithm" not in document:
        raise ScenarioError("a scenario needs an 'algorithm' section")
    if "workers" not in document:
        raise ScenarioError("a scenario needs a 'workers' grid")

    hardware = _parse_hardware(document.get("hardware", {}))
    algorithm = _parse_algorithm(document["algorithm"])
    workers = _parse_workers(document["workers"])

    baseline = document.get("baseline_workers", 1)
    if isinstance(baseline, bool) or not isinstance(baseline, int):
        raise ScenarioError(f"baseline_workers must be an integer, got {baseline!r}")
    if baseline not in workers:
        raise ScenarioError(
            f"baseline_workers {baseline} is not on the workers grid {list(workers)}"
        )

    sweep = _parse_sweep(document.get("sweep", {}))
    for axis, values in sweep:
        if axis in ("node", "link") and not all(isinstance(v, str) for v in values):
            raise ScenarioError(f"sweep axis {axis!r} values must be catalog slugs")

    backend = _parse_backend(document.get("backend", {}))

    spec = ScenarioSpec(
        name=name,
        description=description,
        hardware=hardware,
        algorithm=algorithm,
        workers=workers,
        baseline_workers=baseline,
        sweep=sweep,
        backend=backend,
        schema_version=SCHEMA_VERSION,
    )
    # Sweep axes must be resolvable: defer per-kind checking to compile,
    # but catch axes that are neither hardware fields nor algorithm params
    # early so 'scenario validate' reports them without compiling.
    from repro.scenarios.compile import validate_spec  # late: avoids a cycle

    validate_spec(spec)
    return spec


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    file_path = Path(path)
    if not file_path.exists():
        raise ScenarioError(f"scenario file {str(file_path)!r} does not exist")
    try:
        data = json.loads(file_path.read_text())
    except OSError as error:
        raise ScenarioError(f"cannot read scenario file {str(file_path)!r}: {error}")
    except json.JSONDecodeError as error:
        raise ScenarioError(f"scenario file {str(file_path)!r} is not valid JSON: {error}")
    return parse_scenario(data)


def builtin_names() -> tuple[str, ...]:
    """Names of the bundled scenario specs, sorted."""
    return tuple(sorted(p.stem for p in BUILTIN_DIR.glob("*.json")))


def builtin_path(name: str) -> Path:
    """Path of a bundled spec; raises with the valid names listed."""
    path = BUILTIN_DIR / f"{name}.json"
    if not path.exists():
        known = ", ".join(builtin_names())
        raise ScenarioError(f"unknown builtin scenario {name!r}; known: {known}")
    return path


def load_builtin(name: str) -> ScenarioSpec:
    """Load a bundled scenario spec by name."""
    return load_scenario(builtin_path(name))


def with_backend(
    spec: ScenarioSpec, kind: str, **simulation_overrides: object
) -> ScenarioSpec:
    """A re-validated copy of ``spec`` evaluated through another backend.

    Keeps the spec's declared ``simulation``/``calibration`` options (a
    spec may carry its experiment's jitter and overhead settings while
    defaulting to analytic evaluation); ``simulation_overrides`` merge on
    top.  This is what the CLI's ``--backend`` flag applies, so the
    override flows into the content hash and the cache key like any
    other spec change.
    """
    data = spec.to_dict()
    backend = dict(data.get("backend", {}))
    backend["kind"] = kind
    if simulation_overrides:
        simulation = dict(backend.get("simulation", {}))
        simulation.update(simulation_overrides)
        backend["simulation"] = simulation
    data["backend"] = backend
    return parse_scenario(data)


def resolve_scenario(ref: str | Path | Mapping) -> ScenarioSpec:
    """Resolve a builtin name, a file path, or a raw mapping to a spec.

    Builtin names take precedence over bare names that happen to exist in
    the working directory — a stray ``figure2`` file or artifact dir must
    not silently change which spec a fixed command resolves to.  Anything
    that *looks* like a path (a ``.json`` suffix or a separator) is
    always treated as one.
    """
    if isinstance(ref, Mapping):
        return parse_scenario(ref)
    text = str(ref)
    looks_like_path = text.endswith(".json") or "/" in text or "\\" in text
    if not looks_like_path and text in builtin_names():
        return load_builtin(text)
    if looks_like_path or Path(text).is_file():
        return load_scenario(text)
    return load_builtin(text)  # raises, listing the known builtin names
