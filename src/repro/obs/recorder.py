"""Telemetry recorders: nestable timed spans, counters and gauges.

The whole library reports *where wall-clock time goes* through one tiny
protocol: a :class:`Recorder` hands out context-managed **spans** (nested
timed regions tagged with step/strategy/nest ids), accumulates
**counters** (monotonic event counts) and
stores **gauges** (last-value measurements such as live nest counts).

Two implementations ship:

* :class:`NullRecorder` — the default.  Every method is a true no-op that
  returns shared singletons; no allocation, no clock call, no state.  Hot
  paths can therefore stay instrumented permanently (the overhead bound
  is enforced by a benchmark test in ``tests/test_obs.py``).
* :class:`InMemoryRecorder` — records every completed span as a
  :class:`SpanRecord` (relative start/end seconds, nesting depth, merged
  tags) for export via :mod:`repro.obs.export`.

Instrumented code never holds a recorder: it calls :func:`get_recorder`
at use sites, and applications opt in with :func:`use_recorder`::

    rec = InMemoryRecorder()
    with use_recorder(rec):
        run_workload(...)
    print(format_report(rec))

This module is the only place in the library (together with the rest of
``repro.obs``) allowed to read raw clocks — reprolint rule R007 enforces
that everywhere else timing flows through spans.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import TracebackType
from typing import Protocol, runtime_checkable

__all__ = [
    "TagValue",
    "SpanRecord",
    "SpanHandle",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "InMemorySpan",
    "InMemoryRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]

#: values a span tag may carry (kept JSON-serialisable for the exporters)
TagValue = str | int | float


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named, tagged ``[start, end)`` time interval.

    Times are seconds relative to the owning recorder's origin (its
    construction or last :meth:`InMemoryRecorder.reset`), so traces start
    near zero and export losslessly to microsecond timestamps.
    """

    name: str
    start: float
    end: float
    depth: int  # how many spans were open when this one began
    tags: dict[str, TagValue] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanHandle(Protocol):
    """What instrumented code may do with an open span."""

    def tag(self, **tags: TagValue) -> SpanHandle: ...

    def __enter__(self) -> SpanHandle: ...

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None: ...


@runtime_checkable
class Recorder(Protocol):
    """The telemetry surface every instrumented call site sees."""

    enabled: bool

    def span(self, name: str, **tags: TagValue) -> SpanHandle: ...

    def count(self, name: str, value: float = 1.0) -> None: ...

    def gauge(self, name: str, value: float) -> None: ...

    def bind(self, **tags: TagValue) -> AbstractContextManager[None]: ...


class _NullSpan:
    """Shared do-nothing span (one instance for the whole process)."""

    __slots__ = ()

    def tag(self, **tags: TagValue) -> _NullSpan:
        return self

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


class _NullContext(AbstractContextManager[None]):
    """Shared do-nothing context manager for :meth:`NullRecorder.bind`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullRecorder:
    """The disabled recorder: stateless, allocation-free no-ops only."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, **tags: TagValue) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def bind(self, **tags: TagValue) -> _NullContext:
        return _NULL_CONTEXT


#: the process-wide disabled recorder (what :func:`get_recorder` returns
#: until an application opts in)
NULL_RECORDER = NullRecorder()


class InMemorySpan:
    """One open span of an :class:`InMemoryRecorder` (context manager)."""

    __slots__ = ("_recorder", "name", "tags", "start", "depth")

    def __init__(
        self, recorder: InMemoryRecorder, name: str, tags: dict[str, TagValue]
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.tags = tags
        self.start = 0.0
        self.depth = 0

    def tag(self, **tags: TagValue) -> InMemorySpan:
        """Attach/override tags while the span is open."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> InMemorySpan:
        self.depth = self._recorder._open_count()
        self._recorder._opened(self)
        self.start = time.perf_counter() - self._recorder.origin
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = time.perf_counter() - self._recorder.origin
        self._recorder._closed(self, end)
        return None


class InMemoryRecorder:
    """Collects spans, counters and gauges in process memory.

    Spans nest: the recorder keeps the open-span stack, stamps each span
    with its nesting depth, and merges the ambient tags pushed by
    :meth:`bind` (step/strategy/nest ids) into every span opened inside
    the binding — the "timeline" the exporters consume.

    Counter and gauge updates and the completed-span append are
    thread-safe (a lock makes each read-modify-write atomic), so workers
    on ``asyncio.to_thread`` threads can share one recorder for counts
    without losing increments.  The *span stack* is still strictly
    nested: concurrent open spans on a single shared recorder interleave
    their close order and raise — multi-tenant code gives each session
    its own recorder, scoped with :func:`use_recorder` (a
    ``ContextVar``, so worker threads inherit the right one).
    """

    enabled = True

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[SpanRecord] = []  # completion order
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[InMemorySpan] = []
        self._ambient: list[dict[str, TagValue]] = []
        self._lock = threading.Lock()

    # -- Recorder protocol ----------------------------------------------

    def span(self, name: str, **tags: TagValue) -> InMemorySpan:
        merged: dict[str, TagValue] = {}
        for frame in self._ambient:
            merged.update(frame)
        merged.update(tags)
        return InMemorySpan(self, name, merged)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    @contextmanager
    def bind(self, **tags: TagValue) -> Iterator[None]:
        """Tag every span opened inside the ``with`` block."""
        self._ambient.append(dict(tags))
        try:
            yield
        finally:
            self._ambient.pop()

    # -- span bookkeeping -------------------------------------------------

    def _open_count(self) -> int:
        return len(self._stack)

    def _opened(self, span: InMemorySpan) -> None:
        self._stack.append(span)

    def _closed(self, span: InMemorySpan, end: float) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order (spans must nest)"
            )
        self._stack.pop()
        with self._lock:
            self.spans.append(
                SpanRecord(
                    name=span.name,
                    start=span.start,
                    end=end,
                    depth=span.depth,
                    tags=span.tags,
                )
            )

    # -- maintenance -------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded and restart the clock origin."""
        if self._stack:
            open_names = [s.name for s in self._stack]
            raise RuntimeError(f"cannot reset with open spans: {open_names}")
        self.origin = time.perf_counter()
        self.spans.clear()
        self.counters.clear()
        self.gauges.clear()
        self._ambient.clear()

    def durations(self, name: str) -> list[float]:
        """Every recorded duration of spans called ``name`` (seconds)."""
        return [s.duration for s in self.spans if s.name == name]


#: the active recorder — a ContextVar, not a module global, so concurrent
#: workers (asyncio tasks, threads with copied contexts) each see their own
#: recorder instead of racing on one slot (reprolint R013)
_ACTIVE: ContextVar[Recorder] = ContextVar("repro.obs.recorder", default=NULL_RECORDER)


def get_recorder() -> Recorder:
    """The ambient active recorder (the no-op one by default)."""
    return _ACTIVE.get()


def set_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` as the active one; returns the previous."""
    previous = _ACTIVE.get()
    _ACTIVE.set(recorder)
    return previous


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Scope ``recorder`` as the active one, restoring the previous on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
