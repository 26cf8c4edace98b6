"""Hypothesis strategies generating *valid* scenario documents.

The differential harness (``tests/test_differential.py``) needs
adversarial-but-legal inputs: scenario specs spanning every registered
algorithm kind, every ``bsp`` topology and every backend block, with
parameters drawn from wide numeric ranges rather than the paper's
handful of workloads.  These strategies produce plain JSON documents —
the same shape users write — so every generated case also exercises the
schema validator, and any failing example can be checked into
``tests/golden/differential/`` verbatim as a regression file.

Ranges are wide but physical: positive, finite, and far from float
overflow, because the properties under test are about *model agreement*,
not about IEEE edge cases (the spec parser already rejects non-finite
input eagerly).
"""

from __future__ import annotations

from hypothesis import strategies as st

#: Every registered algorithm kind (kept in sync by a test in
#: test_differential.py, so a new kind must join the strategies).
ALL_KINDS = (
    "gradient_descent",
    "spark_gradient_descent",
    "weak_scaling_sgd",
    "weak_scaling_linear",
    "bsp",
    "belief_propagation",
)

#: Every ``bsp`` communication topology.
ALL_TOPOLOGIES = (
    "none",
    "linear",
    "tree",
    "torrent",
    "two-wave",
    "ring-allreduce",
    "shuffle",
    "parameter-server",
)

#: Topologies with a transfer-level simulation schedule (see
#: repro.scenarios.compile._BSP_SIMULATABLE), under the option
#: constraints the simulator supports (binary tree, two waves).
SIMULATABLE_TOPOLOGIES = (
    "none",
    "linear",
    "tree",
    "torrent",
    "two-wave",
    "ring-allreduce",
)

#: Kinds whose workload is BSP-expressible (everything but the
#: shared-memory Monte-Carlo belief-propagation estimator).
SIMULATABLE_KINDS = (
    "gradient_descent",
    "spark_gradient_descent",
    "weak_scaling_sgd",
    "weak_scaling_linear",
    "bsp",
)

#: Every network-backend topology kind (kept in sync by a test in
#: test_differential.py, so a new topology must join the strategies).
NETWORK_TOPOLOGIES = (
    "single-switch",
    "fat-tree",
    "oversubscribed-racks",
    "torus-2d",
    "geo",
)


def magnitudes(low: float, high: float) -> st.SearchStrategy[float]:
    """Log-uniform positive floats — parameter values live on decades."""
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


def worker_grids(
    max_workers: int = 32, min_size: int = 2, max_size: int = 5
) -> st.SearchStrategy[list[int]]:
    """Small sorted grids of unique worker counts."""
    return st.lists(
        st.integers(min_value=1, max_value=max_workers),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    ).map(sorted)


def hardware_sections() -> st.SearchStrategy[dict]:
    """Inline hardware: the three numbers every model resolves to."""
    return st.fixed_dictionaries(
        {
            "flops": magnitudes(1e8, 1e13),
            "bandwidth_bps": magnitudes(1e7, 1e11),
        },
        optional={"latency_s": st.sampled_from([0.0, 1e-6, 1e-4, 1e-3])},
    )


def gd_params() -> st.SearchStrategy[dict]:
    """Parameters of the four gradient-descent-family kinds."""
    return st.fixed_dictionaries(
        {
            "operations_per_sample": magnitudes(1e3, 1e9),
            "batch_size": st.integers(min_value=10, max_value=1_000_000).map(float),
            "parameters": magnitudes(1e3, 1e8),
        },
        optional={"bits_per_parameter": st.sampled_from([16, 32, 64])},
    )


def bsp_params(
    topologies: tuple[str, ...] = ALL_TOPOLOGIES, simulatable_options: bool = False
) -> st.SearchStrategy[dict]:
    """Parameters of the generic ``bsp`` kind, across topologies.

    ``simulatable_options=True`` restricts topology options to the
    configurations the simulator realises (binary tree, two waves);
    otherwise options roam the full legal space.
    """

    def build(topology: str, draw_options: dict) -> st.SearchStrategy[dict]:
        # A zero payload is legal analytically but unsimulatable (a
        # zero-payload collective has no transfer-level schedule), so
        # simulatable documents always move bits.
        payload = (
            magnitudes(1e3, 1e9)
            if simulatable_options and topology != "none"
            else st.one_of(st.just(0.0), magnitudes(1e3, 1e9))
        )
        base = {
            "operations_per_superstep": magnitudes(1e6, 1e12),
            "payload_bits": payload,
            "iterations": st.integers(min_value=1, max_value=3),
            "topology": st.just(topology),
        }
        if draw_options:
            base["topology_options"] = st.fixed_dictionaries({}, optional=draw_options)
        return st.fixed_dictionaries(base)

    def params_for(topology: str) -> st.SearchStrategy[dict]:
        options: dict = {}
        if topology == "linear":
            options["include_self"] = st.booleans()
        elif topology == "tree":
            options["fan_out"] = (
                st.just(2) if simulatable_options else st.integers(2, 4)
            )
        elif topology == "two-wave":
            options["waves"] = (
                st.just(2) if simulatable_options else st.integers(2, 3)
            )
        elif topology == "torrent":
            options["discrete_rounds"] = st.booleans()
        elif topology == "parameter-server":
            options["server_links"] = st.integers(1, 4)
        return build(topology, options)

    return st.sampled_from(topologies).flatmap(params_for)


def bp_params() -> st.SearchStrategy[dict]:
    """Small power-law belief-propagation instances (compile is heavy)."""
    return st.fixed_dictionaries(
        {
            "graph": st.fixed_dictionaries(
                {
                    "generator": st.just("power-law"),
                    "vertex_count": st.integers(min_value=200, max_value=800),
                    "mean_degree": st.floats(min_value=2.0, max_value=6.0),
                    "max_degree": st.integers(min_value=10, max_value=40),
                    "seed": st.integers(min_value=0, max_value=3),
                }
            ),
            "states": st.integers(min_value=2, max_value=3),
            "trials": st.integers(min_value=1, max_value=3),
            "seed": st.integers(min_value=0, max_value=3),
        }
    )


def algorithm_sections(
    kinds: tuple[str, ...] = ALL_KINDS,
    topologies: tuple[str, ...] = ALL_TOPOLOGIES,
    simulatable_options: bool = False,
) -> st.SearchStrategy[dict]:
    def section_for(kind: str) -> st.SearchStrategy[dict]:
        if kind == "bsp":
            params = bsp_params(topologies, simulatable_options)
        elif kind == "belief_propagation":
            params = bp_params()
        else:
            params = gd_params()
        return st.fixed_dictionaries({"kind": st.just(kind), "params": params})

    return st.sampled_from(kinds).flatmap(section_for)


def zero_noise_simulation() -> st.SearchStrategy[dict]:
    """Simulation blocks whose runs are exactly the deterministic schedule."""
    return st.fixed_dictionaries(
        {
            "iterations": st.integers(min_value=1, max_value=2),
            "seed": st.integers(min_value=0, max_value=7),
        }
    )


def noisy_simulation() -> st.SearchStrategy[dict]:
    """Simulation blocks with jitter/stragglers (for determinism tests)."""
    return st.fixed_dictionaries(
        {
            "iterations": st.integers(min_value=1, max_value=2),
            "seed": st.integers(min_value=0, max_value=7),
            "jitter_sigma": st.sampled_from([0.0, 0.05, 0.2]),
            "straggler_fraction": st.sampled_from([0.0, 0.1]),
            "straggler_slowdown": st.sampled_from([1.5, 3.0]),
        }
    )


def backend_sections(
    kinds: tuple[str, ...] = ("analytic", "simulated"),
    simulation: st.SearchStrategy[dict] | None = None,
) -> st.SearchStrategy[dict]:
    simulation = simulation if simulation is not None else zero_noise_simulation()

    def section_for(kind: str) -> st.SearchStrategy[dict]:
        if kind == "analytic":
            return st.just({"kind": "analytic"})
        if kind == "simulated":
            return st.fixed_dictionaries(
                {"kind": st.just("simulated"), "simulation": simulation}
            )
        # Calibrated blocks measure through the analytic source: a
        # simulated source is only valid on simulatable configurations,
        # which is the agreement tests' domain, not this one's.
        return st.fixed_dictionaries(
            {
                "kind": st.just("calibrated"),
                "calibration": st.fixed_dictionaries(
                    {
                        "source": st.just("analytic"),
                        "features": st.sampled_from(["ernest", "amdahl", "spark"]),
                    }
                ),
            }
        )

    return st.sampled_from(kinds).flatmap(section_for)


@st.composite
def scenario_documents(
    draw,
    kinds: tuple[str, ...] = ALL_KINDS,
    topologies: tuple[str, ...] = ALL_TOPOLOGIES,
    backends: tuple[str, ...] = ("analytic",),
    simulation: st.SearchStrategy[dict] | None = None,
    simulatable_options: bool = False,
    max_workers: int = 32,
) -> dict:
    """A full, valid scenario document (parse_scenario accepts it)."""
    backend = draw(backend_sections(backends, simulation))
    # A calibrated backend fits its feature family to the measured
    # curve: the grid must carry at least as many counts as the family
    # has parameters (4 for ernest, the largest offered here).
    min_grid = 4 if backend.get("kind") == "calibrated" else 2
    workers = draw(worker_grids(max_workers=max_workers, min_size=min_grid))
    document = {
        "name": "generated",
        "description": "hypothesis-generated scenario",
        "hardware": draw(hardware_sections()),
        "algorithm": draw(
            algorithm_sections(kinds, topologies, simulatable_options)
        ),
        "workers": workers,
        "baseline_workers": draw(st.sampled_from(workers)),
    }
    if backend.get("kind", "analytic") != "analytic" or draw(st.booleans()):
        document["backend"] = backend
    return document


def simulatable_documents(
    simulation: st.SearchStrategy[dict] | None = None,
    max_workers: int = 32,
) -> st.SearchStrategy[dict]:
    """Documents the simulated backend accepts: simulatable kind,
    simulatable topology options, a declared simulated backend block."""
    return scenario_documents(
        kinds=SIMULATABLE_KINDS,
        topologies=SIMULATABLE_TOPOLOGIES,
        backends=("simulated",),
        simulation=simulation,
        simulatable_options=True,
        max_workers=max_workers,
    )


def network_topology_sections(
    kinds: tuple[str, ...] = NETWORK_TOPOLOGIES,
) -> st.SearchStrategy[dict]:
    """Valid ``backend.topology`` blocks across every topology kind.

    Sizes stay small (a fat-tree with explicit ``k`` must carry the
    worker grid, so ``k >= 4`` covers up to 15 workers + driver).
    """

    def section_for(kind: str) -> st.SearchStrategy[dict]:
        options: dict = {}
        if kind == "fat-tree":
            options["k"] = st.sampled_from([4, 6, 8])
        elif kind == "oversubscribed-racks":
            options["racks"] = st.integers(min_value=1, max_value=4)
            options["oversubscription_ratio"] = st.sampled_from(
                [1.0, 2.0, 4.0, 8.0]
            )
        elif kind == "geo":
            options["sites"] = st.integers(min_value=2, max_value=4)
            options["wan_latency_ms"] = st.sampled_from([0.0, 1.0, 10.0, 50.0])
        return st.fixed_dictionaries({"kind": st.just(kind)}, optional=options)

    return st.sampled_from(kinds).flatmap(section_for)


@st.composite
def network_documents(
    draw,
    topologies: tuple[str, ...] = NETWORK_TOPOLOGIES,
    simulation: st.SearchStrategy[dict] | None = None,
    max_workers: int = 12,
) -> dict:
    """Documents the network backend accepts: a simulatable workload
    plus a declared ``backend.topology`` block.

    ``max_workers`` defaults to 12 so an explicit fat-tree ``k = 4``
    (16 hosts) can always carry the grid plus the driver.
    """
    document = draw(
        simulatable_documents(simulation=simulation, max_workers=max_workers)
    )
    document["backend"] = {
        "kind": "network",
        "topology": draw(network_topology_sections(topologies)),
        "simulation": document["backend"]["simulation"],
    }
    return document
