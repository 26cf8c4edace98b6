"""Seeded workload inputs: plain JSON documents, never program objects.

Every generator is a pure function of ``(seed, index)``, so the same
seed always yields the same series and a run can draw as many inputs as
its time allows.  The structure of each series (kinds, grid shapes,
topologies, objectives, candidate counts, curve lengths) is fixed by
position; the seed only picks parameter values.  That keeps the cost of a run nearly
independent of the seed, which the spread across seeds depends on.
"""

from __future__ import annotations

import random

KINDS = ("gradient_descent", "spark_gradient_descent", "weak_scaling_sgd", "bsp")
NODES = ("xeon-e3-1240", "nvidia-k40")
LINKS = ("1gbe", "10gbe", "40gbe")
BSP_TOPOLOGIES = ("tree", "ring-allreduce", "two-wave")
OBJECTIVES = ("min-time", "min-cost", "max-throughput")

#: (grid points, worker counts) of the four sweeps in one analytic round.
ANALYTIC_SHAPES = ((32, 1024), (40, 2048), (48, 3072), (64, 4096))
#: Capacity plans per analytic round, interleaved between the sweeps.
PLANS_PER_ROUND = 12
#: Candidate grid of every plan: 2 nodes x 3 links x 3 topologies x 128 workers.
PLAN_WORKERS = 128
#: Ops per analytic round: the sweeps, the plans and the repeated sweep.
ANALYTIC_ROUND = len(KINDS) + PLANS_PER_ROUND + 1
#: Ops per network round: one sweep of each of the four families.
NETWORK_ROUND = 4


def _rng(seed: int, *salt: object) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(part) for part in salt))


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return float(f"{low * (high / low) ** rng.random():.6g}")


def _spread(rng: random.Random, low: float, high: float, count: int) -> list[float]:
    """``count`` distinct values, log-spaced over a seeded sub-range."""
    start = _log_uniform(rng, low, high / 4)
    ratio = (high / start) ** (1.0 / max(1, count - 1))
    values = []
    for i in range(count):
        value = float(f"{start * ratio ** i:.9g}")
        if values and value <= values[-1]:
            value = values[-1] * 1.000001
        values.append(value)
    return values


def _algorithm(kind: str, rng: random.Random, variant: int) -> dict:
    if kind == "bsp":
        return {
            "kind": "bsp",
            "params": {
                "operations_per_superstep": _log_uniform(rng, 1e10, 1e13),
                "payload_bits": _log_uniform(rng, 1e6, 1e9),
                "topology": BSP_TOPOLOGIES[variant % len(BSP_TOPOLOGIES)],
            },
        }
    return {
        "kind": kind,
        "params": {
            "operations_per_sample": _log_uniform(rng, 1e5, 1e7),
            "batch_size": rng.randrange(1_000, 200_000),
            "parameters": _log_uniform(rng, 1e5, 1e8),
        },
    }


def _hardware(rng: random.Random) -> dict:
    return {"node": rng.choice(NODES), "link": rng.choice(LINKS)}


def analytic_sweep(seed: int, index: int, kind: str, grid: int, workers: int) -> dict:
    """A dense analytic sweep: ``grid`` points x ``workers`` worker counts."""
    rng = _rng(seed, "analytic-sweep", index)
    algorithm = _algorithm(kind, rng, 0)
    second = ("payload_bits", 1e5, 1e10) if kind == "bsp" else ("batch_size", 500, 500_000)
    axis, low, high = second
    values = _spread(rng, low, high, 4)
    if axis == "batch_size":
        values = sorted({int(v) for v in values})
        while len(values) < 4:
            values.append(values[-1] + 1)
    return {
        "scenario": 1,
        "name": f"bench-{kind}-{index}",
        "hardware": _hardware(rng),
        "algorithm": algorithm,
        "workers": {"min": 1, "max": workers},
        "baseline_workers": 1,
        "sweep": {
            "bandwidth_bps": _spread(rng, 1e8, 1e11, grid // 4),
            axis: values,
        },
    }


def capacity_plan(seed: int, index: int, objective: str) -> dict:
    """A capacity plan over an analytic BSP scenario (2304 candidates)."""
    rng = _rng(seed, "plan", index)
    constraints = {
        "min-time": {"budget_usd": _log_uniform(rng, 1.0, 100.0)},
        "min-cost": {"deadline_s": _log_uniform(rng, 5.0, 500.0)},
        "max-throughput": {"min_efficiency": round(rng.uniform(0.1, 0.5), 3)},
    }[objective]
    return {
        "plan": 1,
        "name": f"bench-plan-{index}",
        "scenario": {
            "scenario": 1,
            "name": f"bench-plan-bsp-{index}",
            "hardware": {"node": "xeon-e3-1240", "link": "1gbe"},
            "algorithm": {
                "kind": "bsp",
                "params": {
                    "operations_per_superstep": _log_uniform(rng, 1e11, 1e14),
                    "payload_bits": _log_uniform(rng, 1e7, 1e10),
                    "topology": "tree",
                },
            },
            "workers": {"min": 1, "max": 64},
            "baseline_workers": 1,
        },
        "search": {
            "workers": {"min": 1, "max": PLAN_WORKERS},
            "nodes": list(NODES),
            "links": list(LINKS),
            "topologies": list(BSP_TOPOLOGIES),
        },
        "objective": objective,
        "constraints": constraints,
        "runs": rng.randrange(1, 1000),
        "refine": True,
        "knee_fraction": 0.9,
    }


def analytic_op(seed: int, index: int) -> tuple[str, dict]:
    """Op ``index`` of the analytic-batch series: ``("sweep"|"plan", doc)``.

    A round is 4 sweeps (one per kind and shape) with three plans after
    each sweep, one per objective, and ends by repeating its first sweep
    verbatim, a store hit.  Every round has the same structure, so the
    per-round throughput of one run is a sample of one quantity.
    """
    stride = 1 + PLANS_PER_ROUND // len(KINDS)
    round_index, slot = divmod(index, ANALYTIC_ROUND)
    if slot == ANALYTIC_ROUND - 1:
        return analytic_op(seed, round_index * ANALYTIC_ROUND)
    sweep_slot, plan_slot = divmod(slot, stride)
    if plan_slot == 0:
        grid, workers = ANALYTIC_SHAPES[sweep_slot]
        return "sweep", analytic_sweep(seed, index, KINDS[sweep_slot], grid, workers)
    return "plan", capacity_plan(seed, index, OBJECTIVES[(plan_slot - 1) % len(OBJECTIVES)])


# -- network-sweep ---------------------------------------------------------


def _gd_params(rng: random.Random) -> dict:
    return {
        "operations_per_sample": _log_uniform(rng, 3e5, 3e6),
        "batch_size": rng.randrange(20_000, 120_000),
        "parameters": _log_uniform(rng, 3e5, 3e6),
    }


def network_sweep(seed: int, index: int) -> dict:
    """Op ``index`` of network-sweep: one of four topology/backend families.

    Rounds cycle racks -> fat-tree -> geo WAN -> simulated stragglers,
    each with 8-16 worker counts and 12-16 grid points.
    """
    rng = _rng(seed, "network", index)
    family = index % NETWORK_ROUND
    base = {
        "scenario": 1,
        "name": f"bench-net-{index}",
        "hardware": {"node": "xeon-e3-1240", "link": "1gbe"},
        "algorithm": {"kind": "gradient_descent", "params": _gd_params(rng)},
        "baseline_workers": 1,
    }
    simulation = {"iterations": 3, "seed": rng.randrange(1000)}
    if family == 0:
        base["workers"] = list(range(1, 17))
        base["backend"] = {
            "kind": "network",
            "topology": {
                "kind": "oversubscribed-racks",
                "racks": 4,
                "oversubscription_ratio": 1.0,
            },
            "simulation": simulation,
        }
        base["sweep"] = {
            "oversubscription_ratio": [1.0, 2.0, 4.0, 8.0],
            "bandwidth_bps": _spread(rng, 1e8, 1e10, 3),
        }
    elif family == 1:
        base["workers"] = [1, 2, 3, 4, 6, 8, 10, 12, 14, 16]
        base["backend"] = {
            "kind": "network",
            "topology": {"kind": "fat-tree"},
            "simulation": simulation,
        }
        base["sweep"] = {
            "bandwidth_bps": _spread(rng, 1e8, 4e10, 4),
            "batch_size": sorted(rng.sample(range(20_000, 200_000), 4)),
        }
    elif family == 2:
        base["hardware"]["link"] = "10gbe"
        base["workers"] = list(range(1, 13))
        base["backend"] = {
            "kind": "network",
            "topology": {
                "kind": "geo",
                "sites": 2,
                "wan_link": "eth-wan",
                "wan_latency_ms": 5.0,
            },
            "simulation": simulation,
        }
        base["sweep"] = {
            "wan_latency_ms": _spread(rng, 0.5, 80.0, 8),
            "bandwidth_bps": _spread(rng, 1e9, 4e10, 2),
        }
    else:
        base["algorithm"]["kind"] = "spark_gradient_descent"
        base["workers"] = list(range(1, 17))
        simulation.update(iterations=8, jitter_sigma=0.02, overhead="spark-like")
        base["backend"] = {"kind": "simulated", "simulation": simulation}
        base["sweep"] = {
            "jitter_sigma": _spread(rng, 0.005, 0.2, 4),
            "straggler_fraction": [0.0, 0.1, 0.25],
            "straggler_slowdown": [1.5, 3.0],
        }
    return base


# -- serving ---------------------------------------------------------------

#: Distinct /v1/evaluate bodies drawn with skew; well under the
#: service's 1024-entry request LRU and 256-entry target LRU.
EVALUATE_POOL = 192
#: Distinct synchronous /v1/sweep bodies (each within --sync-limit 64).
SWEEP_POOL = 8
#: Worker counts of the small evaluate specs (curve lengths 4-64).
SMALL_WORKERS = (4, 8, 16, 32, 64)
#: Request mix, in parts of 20: pooled evaluate, fresh evaluate, sweep.
MIX = (("evaluate", 15), ("evaluate-new", 2), ("sweep", 3))


def small_spec(seed: int, tag: str, index: int, workers: int | None = None) -> dict:
    """A small analytic scenario: 4-64 worker counts, no sweep.

    Kind and curve length follow ``index``, so the hot ranks of the
    Zipf draw have the same shape whatever the seed.
    """
    rng = _rng(seed, tag, index)
    kind = KINDS[index % len(KINDS)]
    count = workers or SMALL_WORKERS[index // len(KINDS) % len(SMALL_WORKERS)]
    return {
        "scenario": 1,
        "name": f"bench-{tag}-{index}",
        "hardware": _hardware(rng),
        "algorithm": _algorithm(kind, rng, index // len(KINDS)),
        "workers": {"min": 1, "max": count},
        "baseline_workers": 1,
    }


def sweep_request(seed: int, index: int) -> dict:
    """A /v1/sweep body: 4 grid points x 16 workers = the sync limit."""
    spec = small_spec(seed, "sweep", index, workers=16)
    rng = _rng(seed, "sweep-axis", index)
    spec["sweep"] = {"bandwidth_bps": _spread(rng, 1e8, 1e11, 4)}
    return {"scenario": spec}


def serve_request(seed: int, index: int) -> tuple[str, dict]:
    """Request ``index`` of the serving mix: ``(endpoint kind, body)``.

    Pooled evaluates follow a Zipf(1.1) rank skew over the pool, so hot
    specs repeat often enough to meet concurrently (coalescing) while
    the tail still cycles through the whole pool (LRU hits).
    """
    rng = _rng(seed, "mix", index)
    slot = index % sum(weight for _kind, weight in MIX)
    for kind, weight in MIX:
        if slot < weight:
            break
        slot -= weight
    if kind == "evaluate":
        rank = _zipf_rank(rng, EVALUATE_POOL, 1.1)
        return "evaluate", {"scenario": small_spec(seed, "pool", rank)}
    if kind == "evaluate-new":
        return "evaluate", {"scenario": small_spec(seed, "fresh", index)}
    return "sweep", sweep_request(seed, rng.randrange(SWEEP_POOL))


def warm_requests(seed: int) -> list[tuple[str, dict]]:
    """Every pooled body once: fills both LRUs and the store before timing."""
    bodies = [("evaluate", {"scenario": small_spec(seed, "pool", rank)}) for rank in range(EVALUATE_POOL)]
    bodies += [("sweep", sweep_request(seed, index)) for index in range(SWEEP_POOL)]
    return bodies


_ZIPF_CACHE: dict[tuple[int, float], list[float]] = {}


def _zipf_rank(rng: random.Random, size: int, exponent: float) -> int:
    cumulative = _ZIPF_CACHE.get((size, exponent))
    if cumulative is None:
        weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
        total = sum(weights)
        cumulative, running = [], 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        _ZIPF_CACHE[(size, exponent)] = cumulative
    draw = rng.random()
    for rank, bound in enumerate(cumulative):
        if draw <= bound:
            return rank
    return size - 1
