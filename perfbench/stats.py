"""Order statistics, the tail rule and the rate ladder's stop rule."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 67.0, 50.0)
#: Samples that must lie beyond a reported percentile.
BEYOND = 10

#: The fixed geometric rate ladder: rung k is LADDER_BASE * LADDER_RATIO**k
#: requests per second (adjacent rungs 7 % apart).
LADDER_BASE = 5.0
LADDER_RATIO = 1.07


def nearest_rank(ordered: list[float], percentile: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` at ``percentile`` of sorted ``ordered``."""
    count = len(ordered)
    rank = max(1, math.ceil(percentile * count / 100.0 - 1e-9))
    return ordered[rank - 1], count - rank


def tail_percentile(count: int, beyond: int = BEYOND) -> float | None:
    """The highest listed percentile with ``beyond`` samples past it."""
    for percentile in TAIL_PERCENTILES:
        if count - max(1, math.ceil(percentile * count / 100.0 - 1e-9)) >= beyond:
            return percentile
    return None


def summarize(values: list[float], percentile: float | None = None) -> dict:
    """Median plus a tail: at ``percentile``, or the highest the sample allows.

    A requested percentile the sample cannot support falls back to the
    highest one it can, so a reported tail always has ``BEYOND`` samples
    past it (or is the maximum, flagged by ``tail_pct`` ``None``).
    """
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": None, "tail": None, "tail_pct": None}
    supported = tail_percentile(len(ordered))
    if percentile is None or supported is None or percentile > supported:
        percentile = supported
    tail = ordered[-1] if percentile is None else nearest_rank(ordered, percentile)[0]
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "tail": tail,
        "tail_pct": percentile,
    }


def ladder_rate(index: int) -> float:
    return LADDER_BASE * LADDER_RATIO**index


def ladder_index(rate: float) -> int:
    """The highest rung at or below ``rate``."""
    return int(math.floor(math.log(rate / LADDER_BASE) / math.log(LADDER_RATIO) + 1e-9))


def step_verdict(step: dict, limit_ms: float, lag_limit_ms: float) -> str:
    """``"pass"``, ``"fail"`` or ``"invalid"`` for one fixed-rate step.

    A step fails when any request failed or was refused, when its tail
    latency (timed from each request's due time) exceeds ``limit_ms``,
    or when its backlog grew: requests in its last quarter waited, on
    average, ``limit_ms / 2`` longer to be sent than those in its first.
    It is invalid when the generator itself ran late (``lag_p99_ms`` over
    ``lag_limit_ms``), since the server was then not offered the rate.
    """
    if step["lag_p99_ms"] > lag_limit_ms:
        return "invalid"
    if step["failed"] or step["tail_ms"] is None or step["tail_ms"] > limit_ms:
        return "fail"
    if step["backlog_growth_ms"] > limit_ms / 2:
        return "fail"
    return "pass"


def search_ladder(probe, floor: int, ceiling: int, max_probes: int) -> dict:
    """Binary search for the highest passing rung in ``[floor, ceiling]``.

    ``probe(index)`` runs one step at that rung and returns its verdict.
    The stop rule: the search keeps ``low`` (highest rung known to pass,
    ``floor`` assumed) and ``high`` (lowest rung known not to pass,
    ``ceiling + 1`` assumed) and stops when they are adjacent or after
    ``max_probes`` probes.  An invalid probe counts as not passing.  The
    answer is the rate of ``low``; ``resolved`` says whether the bracket
    closed.
    """
    low, high = floor, ceiling + 1
    verdicts: list[tuple[int, str]] = []
    while high - low > 1 and len(verdicts) < max_probes:
        middle = (low + high) // 2
        verdict = probe(middle)
        verdicts.append((middle, verdict))
        if verdict == "pass":
            low = middle
        else:
            high = middle
    return {
        "index": low,
        "rate": ladder_rate(low),
        "resolved": high - low == 1,
        "probes": verdicts,
    }
