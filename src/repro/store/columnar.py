"""Columnar, memory-mapped result store with point-level keys.

Keying whole sweep results by spec content hash would recompute
*everything* when one axis value changes; this store keys **points**.
A sweep's curves land in a numpy structured array — one row per grid
point, one ``f8`` times block per row (speedups and efficiencies are
exact derivations, recomputed on read) — memory-mapped back on read, so
a million-point hit costs a file map, not a million dict constructions.

Layout, under ``<cache_dir>/store/``::

    <family-hash>/manifest.json        one small JSON manifest per family
    <family-hash>/grid-<sig16>.npy     one immutable chunk per grid view

A *family* is everything about a spec except its sweep block — the
content hash of ``replace(spec, sweep=())``.  Point evaluation is
independent of the sweep block (``apply_overrides`` strips it before the
point's content hash is taken), so two specs that differ only in their
grids share a family and reuse each other's points byte-identically.

A *view* is one requested grid: the cartesian product of the sweep axes,
stored as a self-contained chunk in its own product order, plus the
sweep-dependent bits (the reference point, the crossover column — both
legitimately differ per grid for seeded backends).  The reference is an
*extra trailing row* of the chunk, not manifest JSON: a reference curve
is as wide as any grid row (thousands of floats on dense grids), and
inlining it would make every manifest parse and rewrite O(workers)
instead of O(views) — measured as the dominant cost of both the hit
path and the delta commit.  An incremental sweep diffs its product
against the stored views by axis-value tokens and stride arithmetic,
reuses every row it can, and schedules only the missing points (see
:meth:`ResultStore.plan`).

Durability: chunks and manifests write to ``.tmp-*.part`` temporaries
and ``os.replace`` into place, so readers see whole files or nothing; a
corrupt manifest or chunk is a miss, never an error;
:meth:`ResultStore.clear` unlinks files individually (never the
directory) so racing writers cannot crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ScenarioError
from repro.core.speedup import derive_curve
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps store import-light
    from repro.scenarios.spec import ScenarioSpec

#: The serving counters, in registry naming.  ``stats()`` keeps its
#: historical short keys (``/healthz`` shape is golden-pinned) by
#: reading back through these.
_COUNTER_NAMES = {
    "hits": "repro_store_hits_total",
    "misses": "repro_store_misses_total",
    "deltas": "repro_store_deltas_total",
    "delta_points": "repro_store_delta_points_total",
    "points_reused": "repro_store_points_reused_total",
    "points_computed": "repro_store_points_computed_total",
    "bytes_mapped": "repro_store_bytes_mapped_total",
}

# Plan latency is dominated by the manifest scan — the store's promise
# is hit cost O(manifest), so the histogram lives on the global
# registry where a regression shows up across every instance.
_PLAN_SECONDS = get_registry().histogram(
    "repro_store_plan_seconds", "Store plan (manifest scan + diff) wall time"
)
_COMMIT_SECONDS = get_registry().histogram(
    "repro_store_commit_seconds", "Store commit (assemble + write) wall time"
)

#: Bumped when the chunk dtype or manifest schema changes — older
#: manifests are then treated as absent and rebuilt, like a key bump.
STORE_VERSION = 1

#: Subdirectory of the cache dir holding the columnar families.
STORE_SUBDIR = "store"

MANIFEST_NAME = "manifest.json"

#: Temp files older than this are crashed writers, not in-flight writes;
#: clear() and gc() remove them (fresh ones always survive — the cache
#: hammer pins that a concurrent clear never breaks a live writer).
STALE_TEMP_AGE_S = 3600.0

#: Point-dict keys held as (or derived from) columns, never meta JSON.
CURVE_KEYS = ("times_s", "speedups", "efficiencies")

#: ``crossover`` column value meaning "never beats the reference".
_NO_CROSSOVER = -1

#: Chunk fields.  ``speedups`` and ``efficiencies`` are *not* stored:
#: spec parsing guarantees ``baseline_workers`` lies on the worker grid,
#: so the baseline time is a ``times_s`` entry and
#: :func:`repro.core.speedup.derive_curve` reproduces them bit-for-bit
#: at materialization, exactly as :class:`~repro.core.speedup.SpeedupCurve`
#: derives them on the fresh path.
#: Storing them would triple every chunk's bytes — and the chunk write
#: is the dominant cost of a delta commit.
_CHUNK_FIELDS = ("times_s", "crossover", "meta")

#: Environment variable overriding the default cache location.
_CACHE_DIR_ENV = "REPRO_SCENARIO_CACHE"


def default_cache_dir() -> Path:
    """``$REPRO_SCENARIO_CACHE`` or ``~/.cache/repro/scenarios``."""
    override = os.environ.get(_CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "scenarios"


def family_key(spec: "ScenarioSpec") -> str:
    """The family identity: the spec's content hash with the sweep gone.

    Matches the service's point identity (``replace(spec, sweep=())`` in
    ``handle_evaluate``), so everything that shares base hardware,
    algorithm, workers and backend shares stored points.
    """
    return replace(spec, sweep=()).content_hash()


def grid_geometry(
    spec: "ScenarioSpec",
) -> tuple[tuple[str, ...], tuple[tuple, ...], tuple[int, ...]]:
    """``(axes, per-axis value tuples, shape)`` of the spec's product grid."""
    axes = tuple(axis for axis, _values in spec.sweep)
    values = tuple(tuple(axis_values) for _axis, axis_values in spec.sweep)
    shape = tuple(len(axis_values) for axis_values in values)
    return axes, values, shape


def sweep_signature(axes: Sequence[str], values: Sequence[Sequence]) -> str:
    """A stable hash of one grid: axis names and *ordered* value lists."""
    payload = json.dumps(
        {"axes": list(axes), "values": [list(v) for v in values]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chunk_name(signature: str) -> str:
    return f"grid-{signature[:16]}.npy"


def _axis_token(value) -> str:
    """Canonical per-value key.  JSON tokens, not the values themselves:
    ``6000`` and ``6000.0`` are equal (and hash-equal) in Python but are
    different spec values with different content hashes."""
    return json.dumps(value, separators=(",", ":"))


def _strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a product grid (in rows, not bytes)."""
    strides = [1] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    return tuple(strides)


def _chunk_dtype(worker_count: int, meta_width: int) -> np.dtype:
    return np.dtype(
        [
            ("times_s", "f8", (worker_count,)),
            ("crossover", "i8"),
            ("meta", f"S{max(1, meta_width)}"),
        ]
    )


def _unlink_quiet(path: str | Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _ensure_dir(directory: Path) -> None:
    """``mkdir -p`` that tolerates a concurrent ``rmdir``.

    ``Path.mkdir(exist_ok=True)`` re-raises ``FileExistsError`` when the
    directory vanishes between its ``EEXIST`` and its ``is_dir()``
    recheck — exactly what a racing ``gc()`` (which prunes empty family
    dirs) can do.  Callers retry on the next loop iteration anyway; a
    still-missing directory surfaces as ``FileNotFoundError`` from the
    subsequent ``mkstemp``.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        pass


def _remove_stale_temps(
    directory: Path, max_age_s: float, now: float | None = None
) -> int:
    """Unlink ``.tmp-*.part`` files older than ``max_age_s``; fresh ones
    (a live writer's in-flight data) always survive."""
    now = time.time() if now is None else now
    removed = 0
    for temp in directory.glob(".tmp-*.part"):
        try:
            if now - temp.stat().st_mtime <= max_age_s:
                continue
            temp.unlink()
            removed += 1
        except OSError:
            continue  # racing writer finished (renamed) or another cleaner won
    return removed


def _point_meta(point: dict) -> bytes:
    """The meta JSON for one row: every non-column, non-derived key."""
    payload = {
        key: value
        for key, value in point.items()
        if key != "workers"
        and key != "crossover_workers"
        and key not in CURVE_KEYS
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def materialize_point(
    chunk: np.ndarray, index: int, workers: Sequence[int], has_crossover: bool
) -> dict:
    """Rebuild one grid point's dict from its columnar row.

    Key order must match :func:`repro.scenarios.sweep.curve_record`
    exactly — exports and wire payloads serialise in insertion order and
    are pinned byte-identical to the non-store path.  The meta JSON holds
    every non-column key in original order; the curve arrays re-enter
    right after ``backend_config``, the crossover (a per-view value —
    it compares against the view's own reference) re-enters last.
    Speedups and efficiencies come from
    :func:`~repro.core.speedup.derive_curve` on the times row — the
    stored ``f8`` values round-trip the original doubles bit-for-bit, so
    the derived lists equal the fresh path's to the last bit.
    """
    row = chunk[index]
    meta = json.loads(bytes(row["meta"]).decode("utf-8"))
    point: dict = {}
    for key, value in meta.items():
        point[key] = value
        if key == "backend_config":
            times = np.atleast_1d(row["times_s"])
            baseline = meta["baseline_workers"]
            speedups, efficiencies = derive_curve(
                times, workers, times[list(workers).index(baseline)], baseline
            )
            point["workers"] = list(workers)
            point["times_s"] = times.tolist()
            point["speedups"] = speedups.tolist()
            point["efficiencies"] = efficiencies.tolist()
    if has_crossover:
        crossover = int(row["crossover"])
        point["crossover_workers"] = None if crossover < 0 else crossover
    return point


class LazyPoints(Sequence):
    """Sweep points materialised on demand from a columnar chunk.

    Quacks like the tuple of dicts :class:`SweepResult.points` used to
    be — indexing, iteration, equality against tuples/lists — but holds
    only the (possibly memory-mapped) structured array.  Serving a hit
    therefore costs a file map; dict construction happens per point,
    only when a consumer actually reads one.
    """

    __slots__ = ("_chunk", "_workers", "_has_crossover")

    def __init__(
        self, chunk: np.ndarray, workers: Sequence[int], has_crossover: bool
    ) -> None:
        self._chunk = chunk
        self._workers = list(workers)
        self._has_crossover = has_crossover

    def __len__(self) -> int:
        return int(self._chunk.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"point index {index} out of range")
        return materialize_point(
            self._chunk, index, self._workers, self._has_crossover
        )

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def __eq__(self, other):
        if isinstance(other, (LazyPoints, list, tuple)):
            if len(other) != len(self):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyPoints({len(self)} points x {len(self._workers)} workers)"


@dataclass
class _View:
    """One manifest view entry, parsed and shape-checked.

    ``reference`` flags whether the chunk carries a trailing reference
    row (row index ``rows``) — ``rows`` itself always counts grid rows.
    """

    signature: str
    chunk: str
    axes: tuple[str, ...]
    values: tuple[tuple, ...]
    rows: int
    reference: bool

    @classmethod
    def from_manifest(cls, entry) -> "_View | None":
        if not isinstance(entry, dict):
            return None
        signature = entry.get("signature")
        chunk = entry.get("chunk")
        axes = entry.get("axes")
        values = entry.get("values")
        rows = entry.get("rows")
        reference = entry.get("reference")
        if not (isinstance(signature, str) and isinstance(chunk, str)):
            return None
        if not (isinstance(axes, list) and isinstance(values, list)):
            return None
        if len(axes) != len(values) or not isinstance(rows, int):
            return None
        if not isinstance(reference, bool):
            return None
        return cls(
            signature=signature,
            chunk=chunk,
            axes=tuple(axes),
            values=tuple(tuple(v) for v in values),
            rows=rows,
            reference=reference,
        )


@dataclass
class StorePlan:
    """What the store knows about one requested grid.

    ``state`` is ``"hit"`` (a stored view covers the exact grid, chunk
    mapped), ``"delta"`` (some rows gather from stored views; ``missing``
    lists the grid indices to compute) or ``"miss"`` (nothing reusable).
    A plan is also the write half: :meth:`ResultStore.commit` takes it
    back with the computed points and assembles the new view.
    """

    family: str
    directory: Path
    signature: str
    axes: tuple[str, ...]
    values: tuple[tuple, ...]
    shape: tuple[int, ...]
    n_rows: int
    state: str = "miss"
    chunk: np.ndarray | None = None
    reference: dict | None = None
    sources: list[np.ndarray] = field(default_factory=list)
    source_view: np.ndarray | None = None
    source_row: np.ndarray | None = None
    missing: tuple[int, ...] = ()

    @property
    def reused(self) -> int:
        return self.n_rows - len(self.missing) if self.state != "miss" else 0


def _locate(
    view: _View,
    axes: tuple[str, ...],
    values: tuple[tuple, ...],
    shape: tuple[int, ...],
) -> np.ndarray | None:
    """Rows of ``view`` holding each point of the requested product grid.

    Returns a flat int array over the requested grid (row-major), ``-1``
    where the view lacks the point, or ``None`` when the axes differ.
    Pure stride arithmetic: both grids are cartesian products, so a
    point's row is the dot of its per-axis positions with the view's
    strides — no per-point dict hashing over million-row views.
    """
    if view.axes != axes:
        return None
    if not axes:
        return np.zeros(1, dtype=np.int64) if view.rows >= 1 else None
    mapped_axes = []
    for requested, stored in zip(values, view.values):
        positions = {_axis_token(v): i for i, v in enumerate(stored)}
        mapped_axes.append(
            np.array(
                [positions.get(_axis_token(v), -1) for v in requested],
                dtype=np.int64,
            )
        )
    strides = _strides(tuple(len(v) for v in view.values))
    dimensions = len(axes)
    offset = np.zeros(shape, dtype=np.int64)
    valid = np.ones(shape, dtype=bool)
    for k, mapped in enumerate(mapped_axes):
        broadcast = [1] * dimensions
        broadcast[k] = len(mapped)
        axis_positions = mapped.reshape(broadcast)
        valid &= axis_positions >= 0
        offset = offset + np.where(axis_positions >= 0, axis_positions, 0) * strides[k]
    return np.where(valid, offset, -1).ravel()


class ResultStore:
    """The columnar store: plan reads, commit writes, observable counters.

    One instance per runner or service; counters are thread-safe and
    surface on ``/healthz`` and ``scenario sweep --stats``.  All disk
    state is crash-safe and shared between instances — the files are the
    source of truth, instances only hold counters.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        base = Path(directory) if directory is not None else default_cache_dir()
        self.directory = base / STORE_SUBDIR
        # Counters live on a metrics registry: private by default (unit
        # tests assert exact values on fresh instances), shared when the
        # service passes its own so ``GET /metrics`` sees them.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            short: self.registry.counter(name, f"Store {short.replace('_', ' ')}")
            for short, name in _COUNTER_NAMES.items()
        }

    # -- counters ----------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        for name, delta in deltas.items():
            self._counters[name].inc(delta)

    def stats(self) -> dict:
        """The serving counters (the ``/healthz`` ``store`` block).

        Historical short keys, read through the registry counters.
        """
        return {short: int(c.value) for short, c in self._counters.items()}

    # -- manifest and chunk I/O --------------------------------------------

    def family_dir(self, family: str) -> Path:
        return self.directory / family

    def _read_manifest(
        self, directory: Path, spec: "ScenarioSpec"
    ) -> tuple[dict, list[_View]] | None:
        """The family manifest, or ``None`` when absent/corrupt/stale.

        Manifests are replaced atomically, so a reader sees a whole
        document or the previous one — never a torn write.  Anything
        structurally off (version bump, workers mismatch after a hash
        collision, hand-edited JSON) degrades to a miss.
        """
        try:
            payload = json.loads((directory / MANIFEST_NAME).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("store") != STORE_VERSION:
            return None
        if payload.get("workers") != [int(n) for n in spec.workers]:
            return None
        raw_views = payload.get("views")
        if not isinstance(raw_views, list):
            return None
        views = []
        for entry in raw_views:
            view = _View.from_manifest(entry)
            if view is not None:
                views.append(view)
        return payload, views

    def _open_chunk(
        self, directory: Path, view: _View, worker_count: int
    ) -> np.ndarray | None:
        """Memory-map one view chunk; shape-checked, ``None`` on any rot."""
        try:
            array = np.load(directory / view.chunk, mmap_mode="r")
        except (OSError, ValueError):
            return None
        if array.dtype.names != _CHUNK_FIELDS:
            return None
        if array.dtype["times_s"].shape != (worker_count,):
            return None
        if array.ndim != 1 or len(array) != view.rows + int(view.reference):
            return None
        self._count(bytes_mapped=int(array.nbytes))
        return array

    # -- the read half -----------------------------------------------------

    def plan(self, spec: "ScenarioSpec") -> StorePlan:
        """Diff the spec's grid against the stored views.

        Never raises for on-disk state: worst case is a ``"miss"`` plan
        and a full compute.
        """
        start = time.perf_counter()
        span = tracer().span("store.plan")
        with span:
            plan = self._plan(spec)
            span.set(
                state=plan.state,
                rows=plan.n_rows,
                missing=len(plan.missing),
            )
        _PLAN_SECONDS.observe(time.perf_counter() - start)
        return plan

    def _plan(self, spec: "ScenarioSpec") -> StorePlan:
        family = family_key(spec)
        directory = self.family_dir(family)
        axes, values, shape = grid_geometry(spec)
        n_rows = int(np.prod(shape, dtype=np.int64)) if shape else 1
        signature = sweep_signature(axes, values)
        plan = StorePlan(
            family=family,
            directory=directory,
            signature=signature,
            axes=axes,
            values=values,
            shape=shape,
            n_rows=n_rows,
            missing=tuple(range(n_rows)),
        )
        loaded = self._read_manifest(directory, spec)
        if loaded is None:
            return plan
        _, views = loaded
        worker_count = len(spec.workers)

        # Exact-signature fast path: the whole grid in one stored chunk.
        for view in reversed(views):
            if view.signature != signature or view.rows != n_rows:
                continue
            if spec.sweep and not view.reference:
                continue
            chunk = self._open_chunk(directory, view, worker_count)
            if chunk is None:
                continue
            plan.state = "hit"
            plan.chunk = chunk
            if view.reference:
                plan.reference = materialize_point(
                    chunk, n_rows, spec.workers, has_crossover=False
                )
            plan.missing = ()
            self._count(hits=1, points_reused=n_rows)
            return plan

        # Point-level diff: gather rows from any view sharing the axes,
        # newest view first (later commits supersede earlier ones).
        source_view = np.full(n_rows, -1, dtype=np.int64)
        source_row = np.full(n_rows, -1, dtype=np.int64)
        for view in reversed(views):
            if not (source_view < 0).any():
                break
            rows = _locate(view, axes, values, shape)
            if rows is None:
                continue
            usable = (source_view < 0) & (rows >= 0)
            if not usable.any():
                continue
            chunk = self._open_chunk(directory, view, worker_count)
            if chunk is None:
                continue
            index = len(plan.sources)
            plan.sources.append(chunk)
            source_view[usable] = index
            source_row[usable] = rows[usable]
        if plan.sources:
            plan.state = "delta"
            plan.source_view = source_view
            plan.source_row = source_row
            plan.missing = tuple(int(i) for i in np.nonzero(source_view < 0)[0])
        return plan

    def points(self, spec: "ScenarioSpec", chunk: np.ndarray) -> LazyPoints:
        """Wrap a view chunk as the result's lazy point sequence.

        Swept chunks carry a trailing reference row; the point sequence
        covers grid rows only (the slice is a numpy view, not a copy).
        """
        _axes, _values, shape = grid_geometry(spec)
        n_rows = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return LazyPoints(chunk[:n_rows], list(spec.workers), bool(spec.sweep))

    # -- the write half ----------------------------------------------------

    def commit(
        self,
        spec: "ScenarioSpec",
        plan: StorePlan,
        computed: dict[int, dict],
        reference: dict | None = None,
    ) -> np.ndarray:
        """Assemble and persist the plan's view; returns the full chunk.

        ``computed`` maps grid index → freshly evaluated point dict (the
        plan's ``missing`` indices); every other row gathers column-wise
        from the plan's source chunks.  A swept view's reference point
        becomes the chunk's trailing row (the manifest only flags it).
        The crossover column is derived here for *all* grid rows against
        this view's own reference — a reused point's stored crossover
        belonged to another grid's reference (seeded backends give each
        grid its own reference times), so it must never be carried over.
        """
        start = time.perf_counter()
        span = tracer().span("store.commit")
        with span:
            out = self._commit(spec, plan, computed, reference)
            span.set(
                state=plan.state,
                rows=plan.n_rows,
                computed=len(computed),
                reused=plan.reused,
            )
        _COMMIT_SECONDS.observe(time.perf_counter() - start)
        return out

    def _commit(
        self,
        spec: "ScenarioSpec",
        plan: StorePlan,
        computed: dict[int, dict],
        reference: dict | None = None,
    ) -> np.ndarray:
        worker_count = len(spec.workers)
        if spec.sweep and reference is None:
            raise ScenarioError(
                "a swept view cannot commit without its reference point"
            )
        metas: dict[int, bytes] = {}
        for index, point in computed.items():
            metas[index] = _point_meta(point)
        if reference is not None:
            metas[plan.n_rows] = _point_meta(reference)
        meta_width = max((len(m) for m in metas.values()), default=1)
        for source in plan.sources:
            meta_width = max(meta_width, source.dtype["meta"].itemsize)
        total_rows = plan.n_rows + (1 if reference is not None else 0)
        out = np.zeros(total_rows, dtype=_chunk_dtype(worker_count, meta_width))
        if plan.source_view is not None:
            for index, source in enumerate(plan.sources):
                mask = plan.source_view == index
                if not mask.any():
                    continue
                rows = plan.source_row[mask]
                for name in ("times_s", "meta"):
                    out[name][: plan.n_rows][mask] = source[name][rows]
        written = dict(computed)
        if reference is not None:
            written[plan.n_rows] = reference
        for index, point in written.items():
            out["times_s"][index] = point["times_s"]
            out["meta"][index] = metas[index]
        out["crossover"] = _NO_CROSSOVER
        if spec.sweep:
            self._crossover_column(out[: plan.n_rows], reference)
        self._write_chunk(plan, out)
        self._record_view(spec, plan, reference)
        if plan.state == "miss":
            self._count(misses=1, points_computed=len(computed))
        else:
            self._count(
                deltas=1,
                delta_points=len(computed),
                points_reused=plan.reused,
                points_computed=len(computed),
            )
        return out

    @staticmethod
    def _crossover_column(out: np.ndarray, reference: dict) -> None:
        """Vectorized twin of ``sweep._attach_crossovers``: the smallest
        worker count strictly beating the reference time, else -1."""
        reference_times = np.asarray(reference["times_s"], dtype=float)
        workers = np.asarray(reference["workers"], dtype=np.int64)
        wins = out["times_s"] < reference_times[None, :]
        first = np.argmax(wins, axis=1)
        out["crossover"] = np.where(wins.any(axis=1), workers[first], _NO_CROSSOVER)

    def _write_chunk(self, plan: StorePlan, array: np.ndarray) -> None:
        name = chunk_name(plan.signature)
        directory = plan.directory
        # Bounded retries cover an external `rm -rf` of the family dir
        # between mkdir and replace; clear()/gc() never remove live dirs.
        for _attempt in range(8):
            _ensure_dir(directory)
            try:
                handle, temp_name = tempfile.mkstemp(
                    dir=directory, prefix=".tmp-", suffix=".part"
                )
            except FileNotFoundError:
                continue
            try:
                with os.fdopen(handle, "wb") as stream:
                    np.save(stream, array)
                os.replace(temp_name, directory / name)
                return
            except FileNotFoundError:
                _unlink_quiet(temp_name)
                continue
            except BaseException:
                _unlink_quiet(temp_name)
                raise
        raise ScenarioError(
            f"could not write store chunk {name!r}: {directory} keeps vanishing"
        )

    def _record_view(
        self, spec: "ScenarioSpec", plan: StorePlan, reference: dict | None
    ) -> None:
        """Append/replace the view entry (read-modify-replace manifest).

        Concurrent committers of *different* views may lose each other's
        entry (last writer wins); the loser's chunk merely becomes an
        orphan a later run recomputes and gc() eventually removes —
        never a correctness problem, because chunks are immutable and
        signature-named, so an entry can only ever point at complete
        data for exactly its grid.
        """
        entry = {
            "signature": plan.signature,
            "chunk": chunk_name(plan.signature),
            "axes": list(plan.axes),
            "values": [list(v) for v in plan.values],
            "rows": plan.n_rows,
            "reference": reference is not None,
        }
        directory = plan.directory
        path = directory / MANIFEST_NAME
        for _attempt in range(8):
            loaded = self._read_manifest(directory, spec)
            if loaded is None:
                manifest = {
                    "store": STORE_VERSION,
                    "family": plan.family,
                    "scenario": spec.name,
                    "workers": [int(n) for n in spec.workers],
                    "views": [],
                }
            else:
                manifest = loaded[0]
            views = [
                view
                for view in manifest.get("views", [])
                if isinstance(view, dict) and view.get("signature") != plan.signature
            ]
            views.append(entry)
            manifest["views"] = views
            _ensure_dir(directory)
            try:
                handle, temp_name = tempfile.mkstemp(
                    dir=directory, prefix=".tmp-", suffix=".part"
                )
            except FileNotFoundError:
                continue
            try:
                with os.fdopen(handle, "w") as stream:
                    json.dump(manifest, stream)
                os.replace(temp_name, path)
                return
            except FileNotFoundError:
                _unlink_quiet(temp_name)
                continue
            except BaseException:
                _unlink_quiet(temp_name)
                raise
        raise ScenarioError(
            f"could not record store view in {path}: directory keeps vanishing"
        )

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Delete every stored family; returns how many *entries* went.

        Counts manifests (one per family), not stray files.  Files are
        unlinked individually — never the directory — so a concurrent
        writer's ``os.replace`` into a family dir cannot crash; its
        orphaned result is simply recomputed next time.  Stale temp
        files from crashed writers go too; fresh in-flight ones survive.
        """
        if not self.directory.exists():
            return 0
        removed = 0
        for family_dir in sorted(self.directory.iterdir()):
            if not family_dir.is_dir():
                continue
            manifest = family_dir / MANIFEST_NAME
            if manifest.exists():
                removed += 1
            manifest.unlink(missing_ok=True)
            for chunk in family_dir.glob("*.npy"):
                chunk.unlink(missing_ok=True)
            _remove_stale_temps(family_dir, STALE_TEMP_AGE_S)
        return removed

    def gc(self, max_age_s: float = STALE_TEMP_AGE_S) -> dict:
        """Remove garbage without touching live data; returns counts.

        Garbage is: stale writer temps, chunks no manifest references
        (lost manifest races, interrupted commits) once they are old
        enough to not be a commit in flight, structurally invalid
        manifests, and empty family directories.
        """
        counts = {
            "stale_temps": 0,
            "orphan_chunks": 0,
            "corrupt_manifests": 0,
            "empty_dirs": 0,
        }
        if not self.directory.exists():
            return counts
        now = time.time()
        for family_dir in sorted(self.directory.iterdir()):
            if not family_dir.is_dir():
                continue
            counts["stale_temps"] += _remove_stale_temps(family_dir, max_age_s, now)
            manifest_path = family_dir / MANIFEST_NAME
            referenced: set[str] = set()
            if manifest_path.exists():
                try:
                    payload = json.loads(manifest_path.read_text())
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    payload = None
                if not isinstance(payload, dict) or payload.get("store") != STORE_VERSION:
                    manifest_path.unlink(missing_ok=True)
                    counts["corrupt_manifests"] += 1
                else:
                    referenced = {
                        view.get("chunk")
                        for view in payload.get("views", ())
                        if isinstance(view, dict)
                    }
            for chunk in family_dir.glob("*.npy"):
                if chunk.name in referenced:
                    continue
                try:
                    if now - chunk.stat().st_mtime <= max_age_s:
                        continue
                    chunk.unlink()
                    counts["orphan_chunks"] += 1
                except OSError:
                    continue
            try:
                family_dir.rmdir()
                counts["empty_dirs"] += 1
            except OSError:
                pass
        return counts

    def disk_stats(self) -> dict:
        """What is on disk (the ``scenario cache stats`` report).

        Field names follow the registry scheme's nouns: ``points_stored``
        and ``bytes_stored``.
        """
        families = views = rows = 0
        chunk_bytes = 0
        temp_files = 0
        if self.directory.exists():
            for family_dir in self.directory.iterdir():
                if not family_dir.is_dir():
                    continue
                try:
                    payload = json.loads((family_dir / MANIFEST_NAME).read_text())
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    payload = None
                if isinstance(payload, dict) and payload.get("store") == STORE_VERSION:
                    families += 1
                    for view in payload.get("views", ()):
                        if isinstance(view, dict) and isinstance(view.get("rows"), int):
                            views += 1
                            rows += view["rows"]
                for chunk in family_dir.glob("*.npy"):
                    try:
                        chunk_bytes += chunk.stat().st_size
                    except OSError:
                        continue
                temp_files += len(list(family_dir.glob(".tmp-*.part")))
        return {
            "families": families,
            "views": views,
            "points_stored": rows,
            "bytes_stored": chunk_bytes,
            "temp_files": temp_files,
        }

    def verify(self) -> dict:
        """Structural consistency report over everything on disk.

        Walks every family: manifests must parse and carry the current
        store version, every referenced chunk must load with the
        manifest's declared geometry.  ``temp_files`` counts in-flight
        (or crash-orphaned) ``.part`` temps — a crashed writer leaves a
        temp and an unreferenced chunk at worst, never a broken view,
        which is exactly what the shard crash-injection suite asserts
        after killing a worker mid-commit.  Read-only apart from the
        ``bytes_mapped`` counter the chunk loads bump.
        """
        report = {
            "families": 0,
            "views": 0,
            "broken_manifests": 0,
            "broken_chunks": 0,
            "temp_files": 0,
        }
        if not self.directory.exists():
            return report
        for family_dir in sorted(self.directory.iterdir()):
            if not family_dir.is_dir():
                continue
            report["temp_files"] += len(list(family_dir.glob(".tmp-*.part")))
            manifest_path = family_dir / MANIFEST_NAME
            if not manifest_path.exists():
                continue
            try:
                payload = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                report["broken_manifests"] += 1
                continue
            if not isinstance(payload, dict) or payload.get("store") != STORE_VERSION:
                report["broken_manifests"] += 1
                continue
            workers = payload.get("workers")
            if not isinstance(workers, list) or not workers:
                report["broken_manifests"] += 1
                continue
            report["families"] += 1
            for entry in payload.get("views", ()):
                view = _View.from_manifest(entry)
                if view is None:
                    report["broken_manifests"] += 1
                    continue
                report["views"] += 1
                if self._open_chunk(family_dir, view, len(workers)) is None:
                    report["broken_chunks"] += 1
        return report
