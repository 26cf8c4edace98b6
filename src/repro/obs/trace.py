"""Span tracer: context-manager spans with trace/span IDs and parent links.

The tracer is off by default and must cost nothing when off:
:meth:`Tracer.span` returns one shared no-op context manager without
allocating, so instrumented hot paths pay a single attribute check.

When on, each span records wall time (``time.perf_counter``), CPU time
(``time.thread_time``), its parent (propagated through a
``contextvars.ContextVar``, so threads and nested calls nest
correctly), and the recording pid/thread.  Records accumulate in a
bounded in-memory buffer drained by :meth:`Tracer.stop` /
:meth:`Tracer.drain`.

The buffer is one flat list of each span's fields and attrs, never a
container object per span: a recorded span leaves behind only strings
and numbers, which the cyclic GC does not count.  Two counted objects
per span (a record and its attrs dict) are enough for a traced sweep to
cross the gen-0 threshold and pay a collection that walks every young
payload list the sweep holds.  :class:`SpanRecord` objects are built
only when the buffer is drained.

Cross-process propagation: sweep chunks that run on the process pool
carry ``(trace_id, parent_span_id)`` in their task arguments; the
worker calls :meth:`Tracer.adopt` so its spans re-parent under the
submitting chunk task, returns its drained records with the chunk
payload, and the merge task folds them back with
:meth:`Tracer.absorb`.  ``perf_counter`` is CLOCK_MONOTONIC on Linux,
so worker timestamps land on the parent's timeline.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["NOOP_SPAN", "SpanRecord", "Tracer", "new_id", "tracer"]

# Spans kept per process before the tracer starts dropping (and counting
# drops); a million-point sweep with tracing on stays bounded.
MAX_SPANS = 100_000

#: SpanRecord fields in buffer order.  Each buffered span is these
#: nine values, its attr count, then alternating attr keys and values.
_FIELDS = 9


def new_id() -> str:
    """A 16-hex-char random id (span or trace)."""
    return uuid.uuid4().hex[:16]


@dataclass
class SpanRecord:
    """One finished span.  ``start_s`` is a perf_counter timestamp."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float
    wall_s: float
    cpu_s: float
    pid: int
    thread: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start_s=float(payload["start_s"]),
            wall_s=float(payload["wall_s"]),
            cpu_s=float(payload["cpu_s"]),
            pid=int(payload["pid"]),
            thread=str(payload.get("thread", "")),
            attrs=dict(payload.get("attrs", {})),
        )


class _NoopSpan:
    """Shared do-nothing span returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None

    @property
    def span_id(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()

# (trace_id, span_id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class _Span:
    """A live span; created by :meth:`Tracer.span`, recorded on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "_token",
        "_start",
        "_cpu_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._token = None
        self._start = 0.0
        self._cpu_start = 0.0

    def __enter__(self) -> "_Span":
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        self._cpu_start = time.thread_time()
        self._start = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._start
        cpu = time.thread_time() - self._cpu_start
        if self._token is not None:
            _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._record(
            (
                self.name,
                self.trace_id,
                self.span_id,
                self.parent_id,
                self._start,
                wall,
                cpu,
                os.getpid(),
                threading.current_thread().name,
            ),
            self.attrs,
        )
        return None


class Tracer:
    """Process-wide span recorder with an on/off switch.

    ``enabled`` is the zero-cost guard: every instrumented call site
    goes through :meth:`span`, which returns the shared
    :data:`NOOP_SPAN` without allocating while tracing is off.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.enabled = False
        self.trace_id: str | None = None
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._buffer: list[Any] = []
        self._count = 0

    # -- lifecycle ----------------------------------------------------
    def start(self, trace_id: str | None = None) -> str:
        """Begin recording a fresh trace; returns its trace id."""
        with self._lock:
            self._buffer, self._count = [], 0
            self.dropped = 0
        self.trace_id = trace_id or new_id()
        self.enabled = True
        return self.trace_id

    def stop(self) -> list[SpanRecord]:
        """Stop recording and return (draining) everything recorded."""
        self.enabled = False
        return self.drain()

    def reset(self) -> None:
        """Hard reset — used by pool-worker initializers so records
        inherited through fork are never re-exported by the worker."""
        self.enabled = False
        self.trace_id = None
        with self._lock:
            self._buffer, self._count = [], 0
            self.dropped = 0
        _CURRENT.set(None)

    def adopt(self, trace_id: str, parent_span_id: str | None) -> None:
        """Join an existing trace (worker side of the process pool).

        Subsequent spans in this context parent under
        ``parent_span_id`` and carry the submitting process's trace id.
        """
        self.trace_id = trace_id
        self.enabled = True
        _CURRENT.set((trace_id, parent_span_id) if parent_span_id else None)

    # -- recording ----------------------------------------------------
    def span(self, name: str, attrs: Mapping[str, Any] | None = None, *,
             trace_id: str | None = None):
        """Open a span as a context manager; no-op when disabled.

        ``trace_id`` forces the span onto a caller-supplied trace (the
        service uses it to honour ``X-Repro-Trace-Id``); such spans are
        roots unless a span is already open in this context.
        """
        if not self.enabled:
            return NOOP_SPAN
        current = _CURRENT.get()
        if current is not None:
            tid, parent = current
        else:
            tid, parent = trace_id or self.trace_id or new_id(), None
        return _Span(self, name, tid, parent, dict(attrs) if attrs else {})

    def _record(self, fields: tuple, attrs: Mapping[str, Any]) -> None:
        """Buffer one finished span: its :data:`_FIELDS` values, then its attrs."""
        with self._lock:
            if self._count >= self.max_spans:
                self.dropped += 1
                return
            buffer = self._buffer
            buffer += fields
            buffer.append(len(attrs))
            for item in attrs.items():
                buffer += item
            self._count += 1

    def absorb(self, records) -> None:
        """Fold externally recorded spans (e.g. pool workers) into the buffer."""
        for record in records:
            if not isinstance(record, SpanRecord):
                record = SpanRecord.from_dict(record)
            self._record(
                (
                    record.name,
                    record.trace_id,
                    record.span_id,
                    record.parent_id,
                    record.start_s,
                    record.wall_s,
                    record.cpu_s,
                    record.pid,
                    record.thread,
                ),
                record.attrs,
            )

    def drain(self) -> list[SpanRecord]:
        """Return and clear all buffered records."""
        with self._lock:
            buffer, self._buffer, self._count = self._buffer, [], 0
        records = []
        index = 0
        while index < len(buffer):
            fields = buffer[index : index + _FIELDS]
            start = index + _FIELDS + 1
            index = start + 2 * buffer[start - 1]
            attrs = dict(zip(buffer[start:index:2], buffer[start + 1 : index : 2]))
            records.append(SpanRecord(*fields, attrs=attrs))
        return records

    def current(self) -> tuple[str, str] | None:
        """(trace_id, span_id) of the innermost open span, if any."""
        return _CURRENT.get()

    def __len__(self) -> int:
        with self._lock:
            return self._count


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global tracer used by all instrumentation."""
    return _TRACER
