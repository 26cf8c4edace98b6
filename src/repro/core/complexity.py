"""Composable, vectorized time-complexity terms — the cost algebra.

The paper's framework views an algorithm as a series of BSP supersteps,
each the *sum* of a computation term and a communication term:

    t = tcp + tcm,    tcp = c(D) / n,    tcm = fcm(M, n)

This module provides small composable objects for those terms.  Every
term answers two questions:

* ``times(workers)`` — seconds over a whole *array* of worker counts in
  one vectorized numpy evaluation (the primary entry point; dense sweeps
  like ``n = 1..10_000`` are a single call), and
* ``time(workers)`` — the scalar convenience wrapper over a one-element
  grid (so scalar and batched evaluation cannot drift apart).

Terms compose into trees with combinators:

* :class:`SumCost` (``a + b``) — sequential phases,
* :class:`MaxCost` — overlapping phases, the slowest gates,
* :class:`ScaledCost` (``k * a``) — repeated iterations,
* :class:`AmortizedCost` — divide by ``n`` (weak-scaling per-instance
  metrics),
* :class:`PiecewiseCost` — different regimes on different worker ranges,
* :class:`NamedCost` — label a subtree so it shows up as one entry in
  :meth:`CostTerm.decompose`.

``decompose(workers)`` walks the tree and returns labeled component
arrays that sum to ``times(workers)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.communication import CommunicationModel, CompositeCommunication
from repro.core.errors import ModelError

#: Component kinds understood by the generic decomposition aliases.
KIND_COMPUTATION = "computation"
KIND_COMMUNICATION = "communication"
KIND_OVERHEAD = "overhead"


def as_worker_array(workers: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce a worker grid to a validated 1-D float array.

    Accepts any iterable of counts (list, range, tuple, ndarray).  Worker
    counts must be finite and >= 1; fractional counts are rejected so a
    batched call can never silently evaluate a grid the scalar API would
    refuse.
    """
    array = np.asarray(workers, dtype=float)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.ndim != 1:
        raise ModelError(f"worker grids must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise ModelError("worker grids must not be empty")
    if not np.all(np.isfinite(array)):
        raise ModelError("worker counts must be finite")
    if np.any(array < 1):
        raise ModelError(f"workers must be >= 1, got {array.min()}")
    if np.any(array != np.floor(array)):
        raise ModelError("worker counts must be integers")
    return array


@dataclass(frozen=True)
class Component:
    """One labeled entry of a term tree's decomposition."""

    name: str
    values: np.ndarray
    kind: str | None = None


def merge_components(components: Iterable[Component]) -> dict[str, np.ndarray]:
    """Merge components into a name -> array mapping, summing duplicates."""
    merged: dict[str, np.ndarray] = {}
    for component in components:
        if component.name in merged:
            merged[component.name] = merged[component.name] + component.values
        else:
            merged[component.name] = component.values
    return merged


class CostTerm(ABC):
    """A time-complexity term evaluable over any worker grid."""

    #: Default decomposition label; leaf classes override.
    term_name: str = "cost"
    #: Component classification (computation / communication / overhead).
    term_kind: str | None = None

    @abstractmethod
    def _times(self, grid: np.ndarray) -> np.ndarray:
        """Batched evaluation over a grid ``as_worker_array`` validated.

        The internal entry point: the public API validates the grid once
        at the tree root, and combinators hand the trusted array straight
        to their children — no per-node revalidation passes.
        """

    def times(self, workers: Iterable[int] | np.ndarray) -> np.ndarray:
        """Seconds this term contributes at every grid point (batched)."""
        return self._times(as_worker_array(workers))

    def time(self, workers: int) -> float:
        """Scalar convenience wrapper: a one-element batched evaluation."""
        # Full grid validation, so the scalar API rejects exactly what
        # the batched API rejects (fractional counts included).
        return float(self._times(as_worker_array([workers]))[0])

    def _components(self, grid: np.ndarray) -> tuple[Component, ...]:
        """Internal (trusted-grid) form of :meth:`components`."""
        return (Component(self.term_name, self._times(grid), self.term_kind),)

    def components(self, workers: Iterable[int] | np.ndarray) -> tuple[Component, ...]:
        """The labeled component arrays of this subtree.

        Leaf terms report themselves as a single component; combinators
        distribute (sum, scale) or collapse (max, piecewise) as their
        semantics allow.  The component values always sum to
        ``times(workers)``.
        """
        return self._components(as_worker_array(workers))

    def decompose(self, workers: Iterable[int] | np.ndarray) -> dict[str, np.ndarray]:
        """Labeled component arrays, merged by name.

        The arrays sum (within float rounding) to ``times(workers)`` —
        the generic replacement for per-model decomposition methods.
        """
        return merge_components(self._components(as_worker_array(workers)))

    def __add__(self, other: "CostTerm") -> "SumCost":
        if not isinstance(other, CostTerm):
            return NotImplemented
        return SumCost((self, other))

    def __mul__(self, factor: float) -> "ScaledCost":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return ScaledCost(self, float(factor))

    __rmul__ = __mul__


@dataclass(frozen=True)
class FixedCost(CostTerm):
    """A constant term, independent of the worker count.

    This is the classic Amdahl sequential fraction; the paper argues (via
    Schreiber) that a well-engineered framework can make it irrelevant,
    and our Spark runtime model uses a small one for scheduling overhead.
    """

    seconds: float

    term_name = "fixed"
    term_kind = KIND_OVERHEAD

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ModelError(f"seconds must be non-negative, got {self.seconds}")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        return np.full(grid.shape, self.seconds, dtype=float)


@dataclass(frozen=True)
class ComputationCost(CostTerm):
    """The paper's ``tcp = c(D) / n`` term.

    ``total_operations`` is ``c(D)`` — the floating-point work of one
    superstep over the whole input — and ``flops`` is the effective
    per-node throughput ``F``.  With ``parallel=False`` the term models a
    step that does not benefit from more workers.
    """

    total_operations: float
    flops: float
    parallel: bool = True

    term_name = "computation"
    term_kind = KIND_COMPUTATION

    def __post_init__(self) -> None:
        if self.total_operations < 0:
            raise ModelError(f"total_operations must be non-negative, got {self.total_operations}")
        if self.flops <= 0:
            raise ModelError(f"flops must be positive, got {self.flops}")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        single = self.total_operations / self.flops
        if self.parallel:
            return single / grid
        return np.full(grid.shape, single, dtype=float)


@dataclass(frozen=True)
class ImbalancedComputationCost(CostTerm):
    """Computation gated by the most loaded worker.

    The graph-inference model uses ``tcp = max_i(E_i) * c(S) / F``: the
    superstep ends when the worker holding the most edges finishes.
    ``load_of_max_worker`` maps a worker count to the *operation count* on
    that heaviest worker (e.g. the Monte-Carlo ``max_i(E_i)`` estimate
    multiplied by the per-edge cost).
    """

    load_of_max_worker: Callable[[int], float]
    flops: float

    term_name = "computation"
    term_kind = KIND_COMPUTATION

    def __post_init__(self) -> None:
        if self.flops <= 0:
            raise ModelError(f"flops must be positive, got {self.flops}")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        loads = np.array(
            [float(self.load_of_max_worker(int(n))) for n in grid], dtype=float
        )
        if np.any(loads < 0):
            raise ModelError(
                f"load_of_max_worker returned a negative load: {loads.min()}"
            )
        return loads / self.flops


@dataclass(frozen=True)
class TabulatedCost(CostTerm):
    """A term backed by a fixed ``workers -> seconds`` table.

    The vectorized form of measurement- or Monte-Carlo-backed terms (the
    BP model's ``max_i(E_i)`` grid, :class:`~repro.core.model.MeasuredModel`).
    Queries off the table raise — tabulated data is never interpolated.
    """

    entries: tuple[tuple[int, float], ...]
    description: str = "tabulated cost"

    term_name = "tabulated"

    def __post_init__(self) -> None:
        if not self.entries:
            raise ModelError(f"{self.description} needs at least one entry")
        seen = set()
        for workers, seconds in self.entries:
            if workers < 1:
                raise ModelError(f"worker counts must be >= 1, got {workers}")
            if seconds < 0:
                raise ModelError(f"{self.description} values must be non-negative, got {seconds}")
            if workers in seen:
                raise ModelError(f"duplicate entry for {workers} workers")
            seen.add(workers)
        # The lookup arrays depend only on the frozen entries; build them
        # once instead of per evaluation (they are not dataclass fields,
        # so equality/repr are unaffected).
        ordered = sorted(self.entries)
        object.__setattr__(
            self, "_keys", np.array([n for n, _t in ordered], dtype=float)
        )
        object.__setattr__(
            self, "_values", np.array([t for _n, t in ordered], dtype=float)
        )

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[int, float], description: str = "tabulated cost"
    ) -> "TabulatedCost":
        return cls(
            tuple((int(n), float(t)) for n, t in sorted(mapping.items())),
            description,
        )

    @property
    def workers_grid(self) -> tuple[int, ...]:
        """The worker counts the table covers, sorted."""
        return tuple(sorted(n for n, _t in self.entries))

    def _times(self, grid: np.ndarray) -> np.ndarray:
        keys: np.ndarray = self._keys
        values: np.ndarray = self._values
        positions = np.searchsorted(keys, grid)
        missing = (positions >= keys.size) | (keys[np.minimum(positions, keys.size - 1)] != grid)
        if np.any(missing):
            # Report the queried value verbatim: truncating a fractional
            # count (reachable via continuous_times) would name an
            # on-grid worker count as the missing one.
            absent = float(grid[missing][0])
            label = int(absent) if absent == int(absent) else absent
            raise ModelError(
                f"no {self.description} entry for {label} workers;"
                f" grid is {list(int(k) for k in keys)}"
            )
        return values[positions]


@dataclass(frozen=True)
class CommunicationCost(CostTerm):
    """The paper's ``tcm = fcm(M, n)`` term.

    ``bits`` is the payload of one logical transfer (``M`` expressed in
    bits); the topology decides how many sequential rounds occur.
    """

    model: CommunicationModel | CompositeCommunication
    bits: float

    term_name = "communication"
    term_kind = KIND_COMMUNICATION

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ModelError(f"bits must be non-negative, got {self.bits}")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        return self.model.times(self.bits, grid)


@dataclass(frozen=True)
class SumCost(CostTerm):
    """Sequential composition: computation then communication, etc."""

    terms: tuple[CostTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ModelError("SumCost needs at least one term")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        total = self.terms[0]._times(grid)
        for term in self.terms[1:]:
            total = total + term._times(grid)
        return total

    def _components(self, grid: np.ndarray) -> tuple[Component, ...]:
        collected: list[Component] = []
        for term in self.terms:
            collected.extend(term._components(grid))
        return tuple(collected)


@dataclass(frozen=True)
class MaxCost(CostTerm):
    """Concurrent composition: overlapping phases, the slowest one gates.

    Not additively decomposable: the subtree reports a single component
    (label it with :class:`NamedCost` for a readable name).
    """

    terms: tuple[CostTerm, ...]

    term_name = "max"

    def __post_init__(self) -> None:
        if not self.terms:
            raise ModelError("MaxCost needs at least one term")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        total = self.terms[0]._times(grid)
        for term in self.terms[1:]:
            total = np.maximum(total, term._times(grid))
        return total


@dataclass(frozen=True)
class ScaledCost(CostTerm):
    """A term repeated ``factor`` times (e.g. iterations of a superstep)."""

    term: CostTerm
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise ModelError(f"factor must be non-negative, got {self.factor}")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        return self.factor * self.term._times(grid)

    def _components(self, grid: np.ndarray) -> tuple[Component, ...]:
        return tuple(
            Component(c.name, self.factor * c.values, c.kind)
            for c in self.term._components(grid)
        )


@dataclass(frozen=True)
class AmortizedCost(CostTerm):
    """A term divided by the worker count.

    The weak-scaling metric of the paper's Figure 3: every superstep
    processes ``S * n`` instances, so per-instance time is the superstep
    divided by ``n``.  Division distributes over the child's components,
    so decomposition survives amortization.
    """

    term: CostTerm

    def _times(self, grid: np.ndarray) -> np.ndarray:
        return self.term._times(grid) / grid

    def _components(self, grid: np.ndarray) -> tuple[Component, ...]:
        return tuple(
            Component(c.name, c.values / grid, c.kind)
            for c in self.term._components(grid)
        )


@dataclass(frozen=True)
class PiecewiseCost(CostTerm):
    """Different cost regimes on different worker ranges.

    ``pieces`` maps a minimum worker count to the term active from that
    count (inclusive) until the next threshold.  The first threshold must
    be 1 so every grid point falls in some regime.  Used e.g. for
    overheads that only exist once work is actually distributed
    (``n >= 2``).  Not additively decomposable: reports one component.
    """

    pieces: tuple[tuple[int, CostTerm], ...]

    term_name = "piecewise"

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ModelError("PiecewiseCost needs at least one piece")
        thresholds = [threshold for threshold, _term in self.pieces]
        if thresholds != sorted(thresholds):
            raise ModelError("PiecewiseCost thresholds must be ascending")
        if len(set(thresholds)) != len(thresholds):
            raise ModelError("PiecewiseCost thresholds must be unique")
        if thresholds[0] != 1:
            raise ModelError(
                f"the first PiecewiseCost threshold must be 1, got {thresholds[0]}"
            )

    def _times(self, grid: np.ndarray) -> np.ndarray:
        result = np.empty(grid.shape, dtype=float)
        thresholds = [threshold for threshold, _term in self.pieces]
        # Each piece is evaluated only on its own slice of the grid, so a
        # domain-restricted term (a table defined for n >= 2, say) never
        # sees worker counts outside its regime.
        for index, (threshold, term) in enumerate(self.pieces):
            active = grid >= threshold
            if index + 1 < len(self.pieces):
                active &= grid < thresholds[index + 1]
            if np.any(active):
                result[active] = term._times(grid[active])
        return result


@dataclass(frozen=True)
class OverheadCost(CostTerm):
    """Framework overhead: a fixed part plus a per-worker part.

    The paper's future-work feedback loop for graph engines: execution
    overhead "takes over with larger number of workers", modelled as
    ``seconds + seconds_per_worker * n``.
    """

    seconds: float = 0.0
    seconds_per_worker: float = 0.0

    term_name = "overhead"
    term_kind = KIND_OVERHEAD

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.seconds_per_worker < 0:
            raise ModelError("overhead terms must be non-negative")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        return self.seconds + self.seconds_per_worker * grid


@dataclass(frozen=True)
class NamedCost(CostTerm):
    """Label a subtree: one named entry in ``decompose()``.

    ``kind`` classifies the component (e.g. ``"computation"`` or
    ``"communication"``); when omitted it is inherited from the subtree
    if all its components agree.
    """

    name: str
    term: CostTerm
    kind: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("NamedCost needs a non-empty name")

    def _times(self, grid: np.ndarray) -> np.ndarray:
        return self.term._times(grid)

    def _components(self, grid: np.ndarray) -> tuple[Component, ...]:
        children = self.term._components(grid)
        kind = self.kind
        if kind is None:
            child_kinds = {c.kind for c in children}
            if len(child_kinds) == 1:
                kind = child_kinds.pop()
        # Components sum to the subtree's total, so the values can be
        # folded from the child arrays without re-walking the tree.
        values = children[0].values
        for child in children[1:]:
            values = values + child.values
        return (Component(self.name, values, kind),)


@dataclass(frozen=True)
class CallableCost(CostTerm):
    """Escape hatch: wrap an arbitrary ``workers -> seconds`` function.

    The function is evaluated point-by-point, so this term does not
    benefit from vectorization — reserve it for glue (e.g. replication
    curves) that has no closed form.
    """

    fn: Callable[[int], float]
    name: str = "callable"
    kind: str | None = None

    def _times(self, grid: np.ndarray) -> np.ndarray:
        values = np.array([float(self.fn(int(n))) for n in grid], dtype=float)
        if np.any(values < 0):
            raise ModelError(
                f"cost function {self.name!r} returned negative time {values.min()}"
            )
        return values

    def _components(self, grid: np.ndarray) -> tuple[Component, ...]:
        return (Component(self.name, self._times(grid), self.kind),)


#: Short combinator aliases — the algebra's public vocabulary.
Sum = SumCost
Max = MaxCost
Scaled = ScaledCost
Amortized = AmortizedCost
Piecewise = PiecewiseCost
Named = NamedCost


def superstep(computation: CostTerm, communication: CostTerm) -> SumCost:
    """One BSP superstep: ``t = tcp + tcm`` (Section III of the paper)."""
    return SumCost((computation, communication))


def iterations(step: CostTerm, count: int) -> ScaledCost:
    """``count`` repetitions of ``step`` (a full training run)."""
    if count < 1:
        raise ModelError(f"iteration count must be >= 1, got {count}")
    return ScaledCost(step, float(count))
