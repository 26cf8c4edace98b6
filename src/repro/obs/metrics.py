"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Every metric lives under one naming scheme::

    repro_<subsystem>_<name>[_total|_seconds|_bytes]

- counters end in ``_total``;
- histograms of durations end in ``_seconds``; histograms of sizes end
  in ``_bytes`` or a bare noun (``_size``);
- gauges are bare nouns (never ``_total``).

The scheme is enforced at registration time so a misnamed metric fails
the first test that touches it, not a dashboard three weeks later.

Registries are cheap, instantiable objects.  Components default to a
private registry so unit tests keep exact-counter isolation; the
service wires one shared registry through its caches, coalescer, job
store and result store so ``GET /metrics`` sees them all.  Module-level
instrumentation (scheduler, backends, compiler) lands on the process
global returned by :func:`get_registry`.

A module-wide kill switch (:func:`set_enabled`) turns every recorder
into a no-op; the observability bench uses it to price the always-on
instrumentation against a hard-off baseline.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Iterable

from repro.core.errors import ReproError

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "get_registry",
    "metrics_enabled",
    "set_enabled",
]


class MetricError(ReproError):
    """A metric was misnamed, redefined, or used with the wrong type."""


# Subsystem prefix + at least one word: repro_store_hits_total,
# repro_service_jobs_queue_depth, ...
_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9]*(?:_[a-z0-9]+)+$")

# Durations from sub-millisecond cache hits to minute-long jobs.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    2.5,
    10.0,
    60.0,
)

# Module-wide kill switch; checked by every recorder so the bench can
# price the instrumentation against a true no-op baseline.
_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable all metric recording (bench kill switch)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def metrics_enabled() -> bool:
    return _ENABLED


class Counter:
    """Monotonic counter.  Thread-safe; increments are non-negative."""

    __slots__ = ("name", "help", "_lock", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value that can move both ways (queue depth, bytes mapped)."""

    __slots__ = ("name", "help", "_lock", "_value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram; buckets are upper bounds, +Inf is implicit."""

    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[tuple[int, ...], float, int]:
        """Return (per-bucket counts incl. +Inf, sum, count) atomically."""
        with self._lock:
            return tuple(self._counts), self._sum, self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def sample(self) -> float:
        return float(self._count)


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Re-registering an existing name returns the existing instrument
    when the type matches and raises :class:`MetricError` otherwise,
    so two call sites can safely share one counter.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        if not _NAME_RE.match(name):
            raise MetricError(
                f"metric name {name!r} violates the repro_<subsystem>_<name> scheme"
            )
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise MetricError(
                        f"metric {name} already registered as {existing.kind}, not {kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        if not name.endswith("_total"):
            raise MetricError(f"counter {name} must end in _total")
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        if name.endswith("_total"):
            raise MetricError(f"gauge {name} must not end in _total")
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        if name.endswith("_total"):
            raise MetricError(f"histogram {name} must not end in _total")
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def metrics(self) -> tuple[Counter | Gauge | Histogram, ...]:
        """All registered metrics, name-sorted (stable export order)."""
        with self._lock:
            return tuple(self._metrics[name] for name in sorted(self._metrics))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        metric = self.get(name)
        return metric.sample() if metric is not None else default

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry used by module-level instrumentation."""
    return _REGISTRY
